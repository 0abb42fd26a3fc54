"""No module of the package imports another module's private names, no
module keeps an import it does not use, the modules import each other in
one layer order only, and one gate checks integer arguments."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ucx"
LAYERS = ("core", "spectral", "influence", "families", "extremal", "familyfile", "verify", "cli")


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


def test_no_unused_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # the package's imports are its re-exports
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):  # names inside quoted annotations
            for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(note, ast.Constant) and isinstance(note.value, str):
                    parsed = ast.parse(note.value, mode="eval")
                    used |= {sub.id for sub in ast.walk(parsed) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        offenders.append(f"{path.name}:{node.lineno}: {bound}")
    assert offenders == []


def test_modules_import_only_earlier_layers():
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # the package re-exports every layer
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        earlier = LAYERS[: LAYERS.index(path.stem)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported = [node.module] if node.module else [a.name for a in node.names]
                offenders += [f"{path.name}:{node.lineno}: {name}" for name in imported
                              if name not in earlier]
    assert offenders == []


def test_one_integer_gate():
    # core holds check_int and the dimension cap; familyfile words its own
    # line and column errors on outside input
    own_wording = ("core.py", "familyfile.py")
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_check_count":
                offenders.append(f"{path.name}:{node.lineno}: defines _check_count")
            if isinstance(node, ast.JoinedStr) and path.name not in own_wording:
                text = "".join(part.value for part in node.values if isinstance(part, ast.Constant))
                if "outside [" in text:
                    offenders.append(f"{path.name}:{node.lineno}: restates a range check")
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "must be an int" in node.value and path.name != "core.py"):
                offenders.append(f"{path.name}:{node.lineno}: restates the type check")
    assert offenders == []
