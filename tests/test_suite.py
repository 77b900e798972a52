"""Checks on the test modules themselves, a ratchet on the package's options, and
the format of the CLI's refusals."""

import ast
import re
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "holelab"

# Settable values in src/holelab: parameters with defaults plus dataclass
# fields with defaults.  A change that adds one raises this number in the
# same diff.
SETTABLE_VALUES = 38


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


def _message_template(node: ast.expr) -> str:
    """A message literal with each {value} as x and each {value!r} as 'x'."""
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant)
                       else "'x'" if v.conversion == ord("r") else "x" for v in node.values)
    return node.value if isinstance(node, ast.Constant) else ""


def test_every_cli_refusal_names_its_field_first():
    # one format for every configuration refusal: field '<path>': <reason>
    cli = SRC / "cli.py"
    refusals = [node for node in ast.walk(ast.parse(cli.read_text(), str(cli)))
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConfigError"]
    unformatted = [node.lineno for node in refusals
                   if not re.match(r"field '[^']+': \S", _message_template(node.args[0]))]
    assert refusals
    assert unformatted == []  # line numbers in cli.py


def test_settable_values_do_not_grow():
    count = sum(_settable_values(ast.parse(path.read_text(), str(path)))
                for path in sorted(SRC.glob("*.py")))
    assert count <= SETTABLE_VALUES, (
        f"{count} settable values in src/holelab, more than {SETTABLE_VALUES}: "
        "a new option raises SETTABLE_VALUES in the same change")
