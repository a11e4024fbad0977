"""Shared fixtures and independent oracles for the test suite.

Oracles here recompute quantities by explicit loops and SVD-based ranks,
independently of the vectorized library paths they check.
"""
from __future__ import annotations

import importlib.util
import tracemalloc
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from corrkit.algebra import Algebra, make_algebra
from corrkit.gallery import (
    block_swap_correspondence,
    conjugated,
    random_unitary,
    standard_module,
)
from corrkit.hilbmod import (
    Correspondence,
    FactorMap,
    ModulePresentation,
    _rebracket,
    algebra_correspondence,
    check_map,
    internal_tensor,
    map_adjoint,
)
from corrkit.report import VerificationReport, _worst

ALGEBRA_SIGNATURES = ([1], [2], [1, 1], [1, 2])
TOL = 1e-9
ROOT = Path(__file__).resolve().parent.parent

# the benchmark's plain-numpy oracles, imported by path rather than copied
_spec = importlib.util.spec_from_file_location("perfbench_oracles", ROOT / "perfbench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


@pytest.fixture(scope="session")
def algebras():
    return {tuple(sig): make_algebra(sig) for sig in ALGEBRA_SIGNATURES}


def seeded_module(seed: int) -> ModulePresentation:
    """Deterministic plain module over the cycling algebra list."""
    rng = np.random.default_rng(seed)
    alg = make_algebra(ALGEBRA_SIGNATURES[seed % len(ALGEBRA_SIGNATURES)])
    counts = [int(rng.integers(1, 3)) for _ in alg.blocks]
    pres = standard_module(alg, [k * n for k, n in zip(counts, alg.blocks)])
    return conjugated(pres, random_unitary(rng, pres.dim))


def seeded_correspondence(seed: int) -> Correspondence:
    """Deterministic correspondence over the same algebra as seeded_module(seed)."""
    rng = np.random.default_rng(1000 + seed)
    alg = make_algebra(ALGEBRA_SIGNATURES[seed % len(ALGEBRA_SIGNATURES)])
    mult = []
    for _ in alg.blocks:
        row = [int(rng.integers(0, 2)) for _ in alg.blocks]
        if not any(row):
            row[int(rng.integers(0, len(alg.blocks)))] = 1
        mult.append(row)
    counts = [sum(mu * n for mu, n in zip(row, alg.blocks)) for row in mult]
    pres = standard_module(alg, counts, multiplicities=mult)
    return conjugated(pres, random_unitary(rng, pres.dim))


def skew_correspondence(blocks: list[int], seed: int) -> Correspondence:
    """A seeded correspondence over ``blocks`` in a skew, norm-bounded carrier
    basis: a multiplicity matrix with no zero row (entries 0/1, or 1/2 over
    one block), conjugated by ``I + X/2`` with ``||X|| = 1``, so the scalar
    Gram is not scalar unless the carrier is a line, and the basis change has
    condition number at most 3."""
    rng = np.random.default_rng(3000 + seed)
    alg = make_algebra(blocks)
    mult = rng.integers(0, 2, size=(len(blocks),) * 2) + (len(blocks) == 1)
    some = np.arange(len(blocks)), rng.integers(0, len(blocks), len(blocks))
    mult[some] = np.maximum(mult[some], 1)
    std = standard_module(alg, [int(row @ alg.blocks) for row in mult], mult.tolist())
    x = rng.standard_normal((std.dim,) * 2) + 1j * rng.standard_normal((std.dim,) * 2)
    skew = np.eye(std.dim) + 0.5 * x / np.linalg.norm(x, 2)
    inv = np.linalg.inv(skew)
    gram = np.einsum("ui,vj,uvab->ijab", skew.conj(), skew, std.gram)
    return Correspondence(alg, inv @ std.right_action @ skew, gram, inv @ std.left_action @ skew)


def small_generator(seed: int) -> Correspondence:
    """Seeded correspondences safe as level-4 product-system generators."""
    rng = np.random.default_rng(2000 + seed)
    kind = seed % 4
    if kind == 0:
        alg = make_algebra(ALGEBRA_SIGNATURES[seed % len(ALGEBRA_SIGNATURES)])
        base = algebra_correspondence(alg)
    elif kind == 1:
        base = block_swap_correspondence()
    elif kind == 2:
        alg = make_algebra([1])
        m = 2 + (seed // 4) % 2
        c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        gram = (c.conj().T @ c + np.eye(m)).reshape(m, m, 1, 1) / m
        eye = np.eye(m, dtype=complex)[None, :, :]
        base = Correspondence(alg, eye.copy(), gram, eye.copy())
    else:
        alg = make_algebra([1, 1])
        base = standard_module(alg, [2, 1], multiplicities=[[1, 1], [0, 1]])
    return conjugated(base, random_unitary(rng, base.dim))


def triple_copy() -> Correspondence:
    """Three direct copies of the algebra over itself over [1, 2]: dimension
    15, multiplicity matrix 3I, so E_n has dimension 5 * 3^n."""
    return standard_module(make_algebra([1, 2]), [3, 6], multiplicities=[[3, 0], [0, 3]])


def ladder_endomorphism(blocks: list[int]):
    """``(E+, theta)`` of the benchmark's ladder: the algebra over itself with
    the inner map ``a -> v a v*``, where ``v`` has blocks ``kron(U_n, I_n)``
    drawn from ``default_rng(1)``."""
    from corrkit.endo import endomorphism_from_conjugation

    rng = np.random.default_rng(1)
    eplus = standard_module(make_algebra(blocks), blocks)
    v = np.zeros((eplus.dim, eplus.dim), dtype=complex)
    at = 0
    for n in blocks:
        v[at:at + n * n, at:at + n * n] = np.kron(random_unitary(rng, n), np.eye(n))
        at += n * n
    return eplus, endomorphism_from_conjugation(eplus, v)


def ladder_e1(blocks: list[int]) -> Correspondence:
    """``E_1`` of the benchmark's ladder (:func:`ladder_endomorphism`)."""
    from corrkit.endo import associated_correspondence

    return associated_correspondence(*ladder_endomorphism(blocks), 1).corr


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_pre_gram(e: ModulePresentation, f: Correspondence) -> np.ndarray:
    """Loop-based balanced pre-inner product on the algebraic tensor."""
    alg = e.algebra
    me, mf, n = e.dim, f.dim, alg.size
    out = np.zeros((me * mf, me * mf, n, n), dtype=complex)
    for i in range(me):
        for k in range(me):
            lg = np.zeros((mf, mf), dtype=complex)
            g = e.gram[i, k]
            lg = sum(alg.coords(g)[c] * f.left_action[c] for c in range(alg.dim))
            for j in range(mf):
                for l in range(mf):
                    val = np.zeros((n, n), dtype=complex)
                    for p in range(mf):
                        val += lg[p, l] * f.gram[j, p]
                    out[i * mf + j, k * mf + l] = val
    return out


def oracle_scalarized(alg: Algebra, gram: np.ndarray) -> np.ndarray:
    m = gram.shape[0]
    s = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            s[i, j] = np.trace(gram[i, j]) / alg.size
    return s


def oracle_rank(mat: np.ndarray, rtol: float = 1e-9) -> int:
    mat = np.atleast_2d(mat)
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


def oracle_commutant_dimension(pres: ModulePresentation) -> int:
    """Dimension of the right-action commutant via a rank computation
    assembled differently from the library's kernel solve."""
    m = pres.dim
    rows = []
    for c in range(pres.algebra.dim):
        r = pres.right_action[c]
        # vec(A R - R A) with column-major flattening this time
        rows.append(np.kron(r.T, np.eye(m)) - np.kron(np.eye(m), r))
    system = np.concatenate(rows, axis=0)
    return m * m - oracle_rank(system, rtol=1e-11)


def random_element(alg: Algebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """An algebra element with independent complex normal coordinates."""
    v = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    return alg.from_coords(scale * v)


def traced_peak(fn, *args):
    """``fn(*args)`` together with the peak bytes it held beyond what was
    allocated before the call, as ``tracemalloc`` sees them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def max_dev(a, b=None) -> float:
    arr = np.abs(np.asarray(a) - (0 if b is None else np.asarray(b)))
    return float(arr.max()) if arr.size else 0.0


def max_deviation(rep: VerificationReport) -> float:
    """The largest deviation of the checks of ``rep``, NaN when any is NaN."""
    return _worst(c.deviation for c in rep.checks)


# ---------------------------------------------------------------------------
# the rebracketing oracle: both bracketings realized
# ---------------------------------------------------------------------------

@dataclass
class AssociatorResult:
    """Rebracketing unitary realize((E.F).G) -> realize(E.(F.G)).

    Its own checks, in :attr:`report`, run on first read: the tests that only
    compare a rebracketing against it never pay for them.
    """

    matrix: np.ndarray
    adjoint: np.ndarray
    left_module: ModulePresentation
    left_factor: FactorMap      # over (E.F)-realized (x) G
    right_module: ModulePresentation
    right_factor: FactorMap     # over E (x) (F.G)-realized
    ef: tuple[ModulePresentation, FactorMap]
    tol: float

    @cached_property
    def report(self) -> VerificationReport:
        """The unitary is Gram-preserving, unitary, and bilinear."""
        props = ["gram", "unitary", "right-linear"]
        if self.left_module.is_correspondence and self.right_module.is_correspondence:
            props.append("left-linear")
        rep = VerificationReport("associator")
        check_map(rep, self.matrix, self.left_module, self.right_module, self.tol,
                  {p: f"associator-{p}" for p in props}, self.adjoint)
        return rep


def associator(
    e: ModulePresentation,
    f: Correspondence,
    g: Correspondence,
    tol: float = TOL,
    *,
    ef: tuple[ModulePresentation, FactorMap] | None = None,
    fg: tuple[ModulePresentation, FactorMap] | None = None,
) -> AssociatorResult:
    """The canonical rebracketing unitary and its adjoint, the oracle of
    ``ProductSystem.rebracket`` and of the pipeline's action recursion.

    Both iterated tensors are realized (reusing ``ef`` and ``fg`` when
    supplied), and the unitary is induced from the identity on the triple
    algebraic tensor through the two realization chains.
    """
    ef = ef or internal_tensor(e, f)
    fg = fg or internal_tensor(f, g)
    left_mod, p2 = internal_tensor(ef[0], g)
    right_mod, p4 = internal_tensor(e, fg[0])
    assert left_mod.dim == right_mod.dim, "the bracketings realize different dimensions"
    alpha = _rebracket(p2, ef[1].section, fg[1].matrix, p4, "left")
    adj = map_adjoint(alpha, left_mod, right_mod)
    return AssociatorResult(alpha, adj, left_mod, p2, right_mod, p4, ef, tol)
