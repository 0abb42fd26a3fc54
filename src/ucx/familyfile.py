"""Plain-text set-family files.

Grammar: a header line ``n=<int>``, then one set per line as strictly
ascending space-separated 1-based element labels, with ``-`` standing for
the empty set.  ``n`` and the labels are ASCII digits only.  Lines starting with ``#`` and blank lines are ignored.
A line ends at LF, CR LF or CR, as ``open()`` reads it; other whitespace separates labels.
Canonical output orders sets by (cardinality, numeric mask), so writing a
parsed canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .core import SetFamily, max_dimension

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
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            match = _HEADER.match(line)
            if not match:
                raise FamilyFileError("expected header 'n=<int>'", lineno)
            digits = match.group(1).lstrip("0") or "0"
            cap = max_dimension()
            if len(digits) > len(str(cap)) or not 1 <= int(digits) <= cap:  # int() refuses over 4,300 digits
                raise FamilyFileError(f"n={digits} outside [1, {cap}]", lineno)
            n = int(digits)
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
    return SetFamily._of(n, table)


def _label_lines(first: int, count: int) -> list[str]:
    """The line of labels of each subset of the elements first + 1 .. first +
    count, indexed by its mask over those elements."""
    return [" ".join(str(first + i + 1) for i in range(count) if mask >> i & 1)
            for mask in range(1 << count)]


def format_family(family: SetFamily) -> str:
    """The canonical file: the members in (cardinality, mask) order, a stable
    sort by popcount of the ascending masks.  Each member's line joins the
    label lines of the low and the high half of its mask, read from two
    tables of at most 2^ceil(n/2) lines."""
    n, half = family.n, family.n // 2
    low, high = _label_lines(0, half), _label_lines(half, n - half)
    members = np.flatnonzero(family.to_bool())
    lines = [f"n={n}"]
    for mask in members[np.argsort(np.bitwise_count(members), kind="stable")].tolist():
        first, last = low[mask & ((1 << half) - 1)], high[mask >> half]
        lines.append(f"{first} {last}" if first and last else first or last or "-")
    return "\n".join(lines) + "\n"


def load(path) -> SetFamily:
    return parse_family(Path(path).read_text(encoding="utf-8"))


def save(family: SetFamily, path) -> None:
    Path(path).write_text(format_family(family), encoding="utf-8")
