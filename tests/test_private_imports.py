"""No module of the package imports another module's private names, no
module keeps an import it does not use, the modules import each other in
one layer order only, one gate checks integer arguments, core holds the
one bit codec and popcount, and every membership row the package builds,
of a function or of a family, enters through ``_of``: the copying
constructors read only callers' tables, and the level sums have one
reduction.  Every sweep evaluator returns an integer slack, and
``_Rows.failed`` is the one place slack is compared.  The tests define
each oracle and each shared input once, in ``oracles.py``."""

import ast
from fnmatch import fnmatch
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ucx"
ORACLE_NAMES = ("oracle_*", "naive_*", "brute_*", "bfs_*", "direct_*", "*_by_definition",
                "all_functions", "all_families", "random_function", "rowwise")
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


def test_one_bit_layer():
    # core packs and unpacks every bit (packed_words, unpacked) and numpy's
    # bitwise_count is the one popcount
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "popcount_table":
                offenders.append(f"{path.name}:{node.lineno}: defines popcount_table")
            if (isinstance(node, ast.Attribute) and node.attr in ("packbits", "unpackbits")
                    and path.name != "core.py"):
                offenders.append(f"{path.name}:{node.lineno}: calls np.{node.attr}")
    assert offenders == []


def test_one_level_sum_reduction():
    # spectral._by_level sums squares by level for level_sum_rows and
    # function_level_rows alike: no module sums at level bounds with reduceat,
    # and the level order is read only by the family-file writer
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            if name == "reduceat":
                offenders.append(f"{path.name}:{node.lineno}: calls reduceat")
            if (name == "level_order" and path.name != "familyfile.py"
                    and not isinstance(node, ast.FunctionDef)):
                offenders.append(f"{path.name}:{node.lineno}: reads level_order")
    assert offenders == []


def test_membership_rows_enter_through_of():
    # the +/-1-checking BooleanFunction constructor reads a caller's table
    # only in core.dist; every row the package builds enters through _of,
    # and no module does int16 arithmetic on +/-1 tables
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if path.name == "core.py" and isinstance(node, ast.FunctionDef) and node.name == "dist":
                allowed |= {id(sub) for sub in ast.walk(node)}
            if isinstance(node, ast.ClassDef) and node.name == "BooleanFunction":
                offenders += [f"{path.name}:{sub.lineno}: calls cls(...)" for sub in ast.walk(node)
                              if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                              and sub.func.id == "cls"]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in allowed
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "BooleanFunction"):
                offenders.append(f"{path.name}:{node.lineno}: calls BooleanFunction(...)")
            if "int16" in (getattr(node, "id", None), getattr(node, "attr", None),
                           getattr(node, "value", None)):
                offenders.append(f"{path.name}:{node.lineno}: names int16")
    assert offenders == []


def test_family_tables_enter_through_of():
    # SetFamily(n, table) and SetFamily.from_bool copy a caller's table; no
    # module calls either, and inside SetFamily only from_bool calls cls(...)
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "SetFamily":
                copying = {id(sub) for method in node.body if getattr(method, "name", None) == "from_bool"
                           for sub in ast.walk(method)}
                offenders += [f"{path.name}:{sub.lineno}: calls cls(...)" for sub in ast.walk(node)
                              if isinstance(sub, ast.Call) and id(sub) not in copying
                              and getattr(sub.func, "id", None) == "cls"]
            if (isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
                    in ("SetFamily", "from_bool")):
                offenders.append(f"{path.name}:{node.lineno}: calls {ast.unparse(node.func)}(...)")
    assert offenders == []


def test_oracles_live_in_one_module():
    # no test module defines an oracle or a shared input, writes out the
    # every-table expression (oracles.every_table), or reads anything of
    # another test module but test_family_kernels.KERNELS, which the function
    # table's completeness check reads
    offenders = []
    for path in sorted(TESTS.glob("*.py")):
        if path.name == "oracles.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            name = getattr(node, "name", "")
            if (isinstance(node, ast.FunctionDef) and not name.startswith("test_")
                    and any(fnmatch(name.lstrip("_"), pattern) for pattern in ORACLE_NAMES)):
                offenders.append(f"{path.name}:{node.lineno}: defines {name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("test_"):
                offenders += [f"{path.name}:{node.lineno}: imports {alias.name} from {node.module}"
                              for alias in node.names if alias.name != "KERNELS"]
            if isinstance(node, ast.Import):
                offenders += [f"{path.name}:{node.lineno}: imports {alias.name}"
                              for alias in node.names if alias.name.startswith("test_")]
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift)
                    and isinstance(node.left, ast.Subscript) and isinstance(node.left.value, ast.Call)
                    and getattr(node.left.value.func, "attr", None) == "arange"):
                offenders.append(f"{path.name}:{node.lineno}: writes out every_table")
    assert offenders == []


def test_one_verdict_comparison():
    # _Rows carries a slack and no ok; slack is compared (by an operator or a
    # comparison ufunc) only inside _Rows.failed, and _first_failure is gone
    comparisons = {"less", "less_equal", "greater", "greater_equal", "equal", "not_equal"}
    path = SRC / "verify.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rows = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Rows")
    assert "slack" in {field.target.id for field in rows.body if isinstance(field, ast.AnnAssign)}
    failed = next(node for node in rows.body if getattr(node, "name", None) == "failed")
    inside = {id(sub) for sub in ast.walk(failed)}
    offenders = [f"_Rows:{field.lineno}: field ok" for field in rows.body
                 if isinstance(field, ast.AnnAssign) and field.target.id == "ok"]
    for node in ast.walk(tree):
        compared = (isinstance(node, ast.Compare) or isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) in comparisons)
        if compared and id(node) not in inside and any(
                "slack" in (getattr(sub, "id", None), getattr(sub, "attr", None))
                for sub in ast.walk(node)):
            offenders.append(f"verify.py:{node.lineno}: compares slack outside _Rows.failed")
    for other in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(other.read_text(encoding="utf-8"))):
            if "_first_failure" in (getattr(node, "id", None), getattr(node, "attr", None),
                                    getattr(node, "name", None)):
                offenders.append(f"{other.name}:{node.lineno}: names _first_failure")
    assert offenders == []
