"""Checks on the test modules themselves."""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent


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
