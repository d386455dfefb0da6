"""The runtime imports nothing outside the standard library, every name
a runtime module imports is used in it, and the runtime and the
benchmark parse as the oldest Python that pyproject.toml allows."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symfa"


def test_runtime_imports_are_stdlib_only():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s: %s" % (path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_runtime_and_benchmark_parse_as_python_3_10():
    # no syntax of a later release than the oldest one allowed
    assert 'requires-python = ">=3.10"' in (
        ROOT / "pyproject.toml").read_text(encoding="utf-8")
    paths = [path for top in (SRC, ROOT / "perfbench")
             for path in sorted(top.rglob("*.py"))]
    assert len(paths) > len(list(SRC.glob("*.py")))
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_every_imported_name_is_used():
    # __init__ only re-exports; the __future__ import is a directive
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
            elif (isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                imported.update(alias.asname or alias.name
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s: %s" % (path.name, name)
                   for name in sorted(imported - used)]
    assert unused == []


# The entry points that accept one algebra family only: each reads the
# algebra's monotonic flag once, to reject the other family.
FAMILY_CHECKS = {"min_model", "to_canonical_intervals", "_require_monotonic",
                 "algebra_learner_from_sfa_learner"}


def _family_reads(node, func=None):
    """(function, line) of each read of an algebra's family under node:
    its is_interval or monotonic attribute, or a comparison of a .kind
    other than the argparse field args.kind."""
    if isinstance(node, ast.FunctionDef):
        func = node.name
    out = []
    if isinstance(node, ast.Attribute) and node.attr in ("is_interval",
                                                         "monotonic"):
        out.append((func, node.lineno))
    if isinstance(node, ast.Compare):
        out += [(func, node.lineno) for side in [node.left, *node.comparators]
                if isinstance(side, ast.Attribute) and side.attr == "kind"
                and not (isinstance(side.value, ast.Name)
                         and side.value.id == "args")]
    for child in ast.iter_child_nodes(node):
        out += _family_reads(child, func)
    return out


def test_only_the_algebra_classes_tell_the_families_apart():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "algebra.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += ["%s:%d in %s" % (path.name, line, func)
                  for func, line in _family_reads(tree)
                  if func not in FAMILY_CHECKS]
    assert found == []


# Functions that call themselves by name, each with its recursion depth
# bounded: _chain's inner build splits its range in halves (depth
# ceil(log2 n)), and random_pred counts its depth argument down.
# Predicate trees are walked by algebra._nodes alone, on an explicit stack.
SELF_CALLS = {("algebra.py", "build"), ("generate.py", "random_pred")}


def test_no_other_function_calls_itself():
    # module-level functions and the functions nested in them; a method
    # cannot call itself by its bare name, which names a global
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for top in module.body:
            if not isinstance(top, ast.FunctionDef):
                continue
            for func in ast.walk(top):
                if isinstance(func, ast.FunctionDef) and any(
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == func.name
                        for node in ast.walk(func)):
                    found.append((path.name, func.name))
    assert sorted(found) == sorted(SELF_CALLS)
