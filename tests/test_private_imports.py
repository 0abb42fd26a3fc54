"""No module of the package imports another module's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ucx"


def test_no_cross_module_private_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").partition(".")[0] != "ucx":
                continue  # a third-party or standard-library module
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{path.name}: from {'.' * node.level}{node.module or ''} "
                                     f"import {alias.name}")
    assert offenders == []
