"""Checks on the test modules themselves, and a ratchet on the package's options."""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "holelab"

# Settable values in src/holelab: parameters with defaults plus dataclass
# fields with defaults.  A change that adds one raises this number in the
# same diff.
SETTABLE_VALUES = 39


def _scopes(tree: ast.Module):
    # the module body and every class body: where pytest collects tests
    yield tree.body
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.body


def test_no_test_module_defines_a_test_name_twice():
    # a second definition silently replaces the first, which then never runs
    twice = []
    for path in sorted(TESTS.glob("test_*.py")):
        for body in _scopes(ast.parse(path.read_text(), str(path))):
            names = Counter(node.name for node in body
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                 ast.ClassDef))
                            and node.name.lower().startswith("test"))
            twice += [f"{path.name}::{name}" for name, count in names.items() if count > 1]
    assert twice == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _settable_values(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_settable_values_do_not_grow():
    count = sum(_settable_values(ast.parse(path.read_text(), str(path)))
                for path in sorted(SRC.glob("*.py")))
    assert count <= SETTABLE_VALUES, (
        f"{count} settable values in src/holelab, more than {SETTABLE_VALUES}: "
        "a new option raises SETTABLE_VALUES in the same change")
