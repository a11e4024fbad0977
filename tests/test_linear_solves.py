"""Linear solves and inverses are taken only at the listed sites.

A tensor's section and every adjoint come from the frames and the
scalar-Gram blocks (``hilbmod`` module docstring), so the package solves a
linear system only where no frame is at hand: the realization of the
associated correspondence, whose factor does not come from a Gram factor
and corner maps.  The other inverses are the per-corner ``s_b^{-1}`` of a
right factor (``Correspondence._corner_scalars``), one per corner, which
every tensor placed with that factor reads as its scalar-Gram blocks, and
the inverse of the map an inner endomorphism conjugates by; a new call
anywhere else fails this test.
"""
import ast
from pathlib import Path

import numpy as np
import pytest

from corrkit.gallery import doubled_swap_correspondence, plane_correspondence
from corrkit.prodsys import ProductSystem

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "corrkit"
MODULES = sorted(PACKAGE.glob("*.py"))
SOLVES = ("solve", "inv", "pinv", "lstsq", "tensorsolve", "tensorinv")

# (module, innermost function, name)
ALLOWED = {
    ("endo.py", "associated_correspondence", "solve"),  # K^H (K K^H)^{-1} of the frame factor
    ("endo.py", "endomorphism_from_conjugation", "inv"),  # a -> v a v^{-1}
    ("hilbmod.py", "_corner_scalars", "inv"),  # s_b^{-1}, one per corner
}


def solve_sites(source: str) -> set[tuple[str, str]]:
    """The ``(function, name)`` pairs where ``source`` calls one of the solve
    names, as a bare name or an attribute, keyed by the innermost enclosing
    function."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in SOLVES:
                found.add((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_linear_solves_stay_at_the_listed_sites(path):
    sites = solve_sites(path.read_text(encoding="utf-8"))
    assert sites == {(where, name) for module, where, name in ALLOWED if module == path.name}


def test_new_solve_site_is_found():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import inv\n"
        "def adjoint(v, s):\n"
        "    return np.linalg.solve(s, v.conj().T @ s)\n"
        "class A:\n"
        "    def back(self, s):\n"
        "        return inv(s)\n"
    )
    assert solve_sites(source) == {("adjoint", "solve"), ("back", "inv")}


@pytest.mark.parametrize("make", [plane_correspondence, doubled_swap_correspondence])
def test_one_inverse_per_corner_of_each_right_factor(make, monkeypatch):
    """The coherence sweep, which places every pair module and reads every
    ``uinv``, takes one ``inv`` per corner of each power read as a right
    factor, not one per placed module or per read."""
    calls = []
    real = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or real(a))
    ps = ProductSystem(make(), 4)
    assert ps.coherence_report().passed
    factors = [p for p in ps.powers if "_corner_scalars" in vars(p)]
    assert len(factors) >= 3
    assert len(calls) == sum(len(p.corner_frame) for p in factors)
