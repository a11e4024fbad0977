"""Relative rank cutoffs are read only where no idempotent is at hand yet.

Every other rank in the package is the trace of an idempotent
(``hilbmod._trace_rank``).  The sites listed here still count singular values
or residuals above ``RANK_RTOL`` times the top, because their idempotent (the
matrix units of the adjointable operators) is not built yet; a new use of a
relative cutoff anywhere else fails this test.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "corrkit"
MODULES = sorted(PACKAGE.glob("*.py"))
CUTOFFS = ("RANK_RTOL", "matrix_rank_tol", "null_space")

# (module, innermost function, name); "<module>" is top-level code
ALLOWED = {
    ("hilbmod.py", "<module>", "RANK_RTOL"),  # the definition
    ("hilbmod.py", "matrix_rank_tol", "RANK_RTOL"),
    ("hilbmod.py", "null_space", "RANK_RTOL"),
    ("hilbmod.py", "adjointable_basis", "RANK_RTOL"),  # the Gram-Schmidt threshold
    ("endo.py", "rank_ones_span", "matrix_rank_tol"),  # strictness-compacts-span
    ("endo.py", "find_intertwining_isometry", "null_space"),  # the intertwiner system
    ("dilation.py", "verify_main", "matrix_rank_tol"),  # amplification-injective[m]
    ("dilation.py", "primary_span_ranks", "matrix_rank_tol"),  # the primary span ranks
}


def cutoff_sites(source: str) -> set[tuple[str, str]]:
    """The ``(function, name)`` pairs where ``source`` reads or binds one of
    the cutoff names, imports aside, keyed by the innermost enclosing function."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Name) and node.id in CUTOFFS:
            found.add((where, node.id))
        if isinstance(node, ast.Attribute) and node.attr in CUTOFFS:
            found.add((where, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_relative_cutoffs_stay_at_the_listed_sites(path):
    sites = cutoff_sites(path.read_text(encoding="utf-8"))
    assert sites == {(where, name) for module, where, name in ALLOWED if module == path.name}


def test_new_cutoff_site_is_found():
    source = (
        "from .hilbmod import matrix_rank_tol\n"
        "def full(e):\n"
        "    return matrix_rank_tol(e.gram) == e.dim\n"
        "LIMIT = hilbmod.RANK_RTOL\n"
    )
    assert cutoff_sites(source) == {("full", "matrix_rank_tol"), ("<module>", "RANK_RTOL")}
