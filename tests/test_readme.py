"""README tables: every row has as many cells as its header.

GitHub splits a table cell at every ``|`` that is not escaped as ``\\|``,
even inside a code span, so a stray pipe gives a row extra columns.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
UNESCAPED_PIPE = re.compile(r"(?<!\\)\|")


def table_blocks(lines: list[str]) -> list[list[tuple[int, str]]]:
    """Runs of consecutive lines starting with ``|``, with 1-based line numbers."""
    blocks, current = [], []
    for number, line in enumerate(lines, 1):
        if line.lstrip().startswith("|"):
            current.append((number, line))
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    return blocks


def test_readme_table_rows_match_their_header():
    blocks = table_blocks(README.read_text(encoding="utf-8").splitlines())
    assert blocks, "README.md has no tables"
    bad = []
    for block in blocks:
        header = len(UNESCAPED_PIPE.findall(block[0][1]))
        bad += [number for number, line in block if len(UNESCAPED_PIPE.findall(line)) != header]
    assert bad == [], f"README.md table rows with a different cell count than their header: lines {bad}"
