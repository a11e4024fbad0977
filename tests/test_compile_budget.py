"""No package module grows past a fixed AST size.

Every fresh process compiles the package, and the memory high-water mark of
that compile follows the AST size of the largest module, not its line count,
so a module that grows raises the resident set of every short command (the
``shipped-sweep`` benchmark workload reads it).  The budget is the node count
of the largest module, ``hilbmod.py``, when it was set; a change that must
exceed it raises ``BUDGET`` and records the measured ``shipped-sweep``
``peak_rss_mb`` in CHANGES.md.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "corrkit"
MODULES = sorted(PACKAGE.glob("*.py"))
BUDGET = 6483


def ast_nodes(source: str) -> int:
    """The number of nodes ``ast.walk`` visits in the parsed ``source``."""
    return sum(1 for _ in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_fits_the_compile_budget(path):
    assert ast_nodes(path.read_text(encoding="utf-8")) <= BUDGET


def test_node_count_grows_with_code():
    assert ast_nodes("x = 1\n") == 5  # Module, Assign, Name, Store, Constant
    assert ast_nodes("x = 1\ny = x + 1\n") > ast_nodes("x = 1\n")
