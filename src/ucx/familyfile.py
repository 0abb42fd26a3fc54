"""Plain-text set-family files.

Grammar: a header line ``n=<int>``, then one set per line as strictly
ascending space-separated 1-based element labels, with ``-`` standing for
the empty set.  ``n`` and the labels are ASCII digits only.  Lines starting with ``#`` and blank lines are ignored.
Canonical output orders sets by (cardinality, numeric mask), so writing a
parsed canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .core import DimensionError, SetFamily, elements_from_mask, max_dimension

_HEADER = re.compile(r"^n=([0-9]+)$")
_TOKEN = re.compile(r"\S+")


class FamilyFileError(ValueError):
    """Parse failure with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_family(text: str) -> SetFamily:
    n: int | None = None
    table = labels = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            match = _HEADER.match(line)
            if not match:
                raise FamilyFileError("expected header 'n=<int>'", lineno)
            n = int(match.group(1))
            cap = max_dimension()
            if not 1 <= n <= cap:
                raise FamilyFileError(f"n={n} outside [1, {cap}]", lineno)
            table = np.zeros(1 << n, dtype=bool)
            # looked up without leading zeros: no int() of an unbounded digit string
            labels = {str(e): e for e in range(1, n + 1)}
            continue
        tokens = list(_TOKEN.finditer(raw))
        mask = 0
        if not (len(tokens) == 1 and tokens[0].group() == "-"):
            prev = 0
            for tok in tokens:
                col = tok.start() + 1
                word = tok.group()
                if word == "-":
                    raise FamilyFileError("'-' must stand alone on its line", lineno, col)
                if not (word.isascii() and word.isdigit()):
                    raise FamilyFileError(f"not an element label: {word!r}", lineno, col)
                digits = word.lstrip("0")
                if digits not in labels:
                    raise FamilyFileError(f"element {digits or 0} outside [1, {n}]", lineno, col)
                element = labels[digits]
                if element <= prev:
                    raise FamilyFileError("elements must be strictly ascending", lineno, col)
                prev = element
                mask |= 1 << (element - 1)
        if table[mask]:
            raise FamilyFileError("duplicate set", lineno)
        table[mask] = True
    if n is None:
        raise FamilyFileError("missing header 'n=<int>'", 1)
    return SetFamily(n, table)


def format_family(family: SetFamily) -> str:
    lines = [f"n={family.n}"]
    for mask in sorted(family.members(), key=lambda m: (m.bit_count(), m)):
        if mask == 0:
            lines.append("-")
        else:
            lines.append(" ".join(str(e) for e in elements_from_mask(mask)))
    return "\n".join(lines) + "\n"


def load(path) -> SetFamily:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return parse_family(text)
    except DimensionError as exc:
        raise FamilyFileError(str(exc), 1) from exc


def save(family: SetFamily, path) -> None:
    Path(path).write_text(format_family(family), encoding="utf-8")
