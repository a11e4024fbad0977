"""Spatiality and unit comparison are decided by construction.

The central-unit and intertwining-isometry decisions are compared with the
multiplicity oracle of the benchmark (imported by path, not copied), unit
comparison is run on unit pairs that a bilinear unitary is known to relate,
and the decision modules are kept free of random draws.
"""
import numpy as np
import pytest

from corrkit.algebra import make_algebra
from corrkit.dilation import compare_unit_limits
from corrkit.endo import (
    associated_correspondence,
    endomorphism_from_conjugation,
    find_intertwining_isometry,
)
from corrkit.gallery import (
    conjugated,
    doubled_swap_correspondence,
    endomorphism_gallery,
    plane_correspondence,
    random_unitary,
    standard_module,
)
from corrkit.hilbmod import Correspondence, algebra_correspondence, pull_gram
from corrkit.instance import parse_instance
from corrkit.prodsys import ProductSystem, find_central_unital_unit

from conftest import ROOT, oracles

EXACT = 1e-12


def oracle_has_central_unit(f: Correspondence) -> bool:
    mod = oracles.Module.from_arrays(list(f.algebra.blocks), f.right_action, f.left_action, f.gram)
    return oracles.has_central_unital_unit(oracles.multiplicity_matrix(mod))


# ---------------------------------------------------------------------------
# central units and intertwining isometries against the multiplicity oracle
# ---------------------------------------------------------------------------

def random_inner_conjugation(seed: int):
    """A random module (row counts, carrier basis) with conjugation by a
    random unitary of its adjointable operators.

    The signatures have equal block sizes: the oracle counts ranks relative
    to the largest singular value only, so on a realized E_1 over [1, 2] it
    counts the rounding noise of the empty corner (0, 1) as rank 5 and
    raises (see ROADMAP).
    """
    rng = np.random.default_rng(600 + seed)
    alg = make_algebra([[1], [2], [3], [1, 1], [2, 2], [1, 1, 1]][seed])
    rows = [int(rng.integers(1, 4)) for _ in alg.blocks]
    carrier = random_unitary(rng, sum(k * n for k, n in zip(rows, alg.blocks)))
    eplus = conjugated(standard_module(alg, rows), carrier)
    blocks = [np.kron(random_unitary(rng, k), np.eye(n)) for k, n in zip(rows, alg.blocks)]
    v_std = np.zeros_like(carrier)
    at = 0
    for b in blocks:
        v_std[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return eplus, endomorphism_from_conjugation(eplus, carrier.conj().T @ v_std @ carrier)


def endomorphism_cases():
    cases = [pytest.param(inst.eplus, inst.endo, id=inst.name) for inst in endomorphism_gallery()]
    for path in sorted((ROOT / "instances").glob("*.json")):
        inst = parse_instance(str(path))
        if inst.endomorphism is not None:
            cases.append(pytest.param(*inst.make_endo(), id=path.stem))
    cases += [pytest.param(*random_inner_conjugation(s), id=f"inner-{s}") for s in range(6)]
    return cases


@pytest.mark.parametrize("eplus,endo", endomorphism_cases())
def test_spatiality_decisions_match_the_multiplicity_oracle(eplus, endo):
    e1 = associated_correspondence(eplus, endo, 1).corr
    expected = "found" if oracle_has_central_unit(e1) else "none-exists"
    central = find_central_unital_unit(e1)
    iso = find_intertwining_isometry(eplus, endo)
    assert central.status == expected
    assert iso.status == expected
    if expected == "found":
        assert central.residuals["unitality"] <= EXACT
        assert central.residuals["centrality"] <= EXACT
        assert iso.residuals["defect"] <= EXACT


def shipped_generators():
    out = []
    for path in sorted((ROOT / "instances").glob("*.json")):
        inst = parse_instance(str(path))
        if inst.product_system is not None:
            gen = inst.correspondence(inst.product_system["generator"], "test")
            out.append(pytest.param(gen, id=path.stem))
    return out


@pytest.mark.parametrize("gen", shipped_generators())
def test_central_unit_decision_on_shipped_generators(gen):
    central = find_central_unital_unit(gen)
    assert central.status == ("found" if oracle_has_central_unit(gen) else "none-exists")
    if central.status == "found":
        assert central.residuals["unitality"] <= EXACT
        assert central.residuals["centrality"] <= EXACT


# ---------------------------------------------------------------------------
# unit comparison
# ---------------------------------------------------------------------------

def transport_worst(out) -> float:
    return max(c.deviation for c in out.report.checks if c.name.startswith("transport"))


@pytest.mark.parametrize("seed", range(12))
def test_compare_units_decides_random_plane_pairs(seed):
    ps = ProductSystem(plane_correspondence(), 4)
    u = random_unitary(np.random.default_rng(seed), 2)
    out = compare_unit_limits(ps, u[:, 0], u[:, 1])
    assert out.verdict == "automorphism-found"
    assert transport_worst(out) <= EXACT


def skewed(f: Correspondence, t: np.ndarray) -> Correspondence:
    """The same correspondence in the carrier basis given by the columns of
    an invertible ``t``; its scalar Gram is not the identity."""
    tinv = np.linalg.inv(t)
    return Correspondence(
        f.algebra, tinv @ f.right_action @ t, pull_gram(t, f.gram), tinv @ f.left_action @ t
    )


def copies_with_corner_unitary(f: Correspondence, copies: int, rng):
    """``copies`` direct copies of ``f`` and a random bilinear unitary on them.

    ``f`` is given in a basis where every coordinate lies in one corner
    ``L(1_i) R(1_j) f``; the unitary acts on the multiplicity space of each
    corner of the copies by its own random unitary."""
    m = f.dim * copies
    right = np.zeros((f.algebra.dim, m, m), dtype=complex)
    left = np.zeros_like(right)
    gram = np.zeros((m, m) + f.gram.shape[2:], dtype=complex)
    for k in range(copies):
        sl = slice(k * f.dim, (k + 1) * f.dim)
        right[:, sl, sl], left[:, sl, sl], gram[sl, sl] = f.right_action, f.left_action, f.gram
    w = np.zeros((m, m), dtype=complex)
    for p in f.algebra.center_basis():
        for q in f.algebra.center_basis():
            corner = np.diag(f.left_of(p) @ f.right_of(q)).real
            w += np.kron(random_unitary(rng, copies), np.diag(corner))
    return Correspondence(f.algebra, right, gram, left), w


@pytest.mark.parametrize("base,copies,seed", [
    ("doubled-swap", 1, 0), ("doubled-swap", 1, 1), ("doubled-swap", 2, 2), ("doubled-swap", 2, 3),
    ("algebra-2", 2, 4), ("algebra-1-2", 2, 5), ("algebra-1-2", 2, 6),
])
def test_compare_units_finds_a_blockwise_bilinear_unitary(base, copies, seed):
    rng = np.random.default_rng(700 + seed)
    f = {
        "doubled-swap": doubled_swap_correspondence,
        "algebra-2": lambda: algebra_correspondence(make_algebra([2])),
        "algebra-1-2": lambda: algebra_correspondence(make_algebra([1, 2])),
    }[base]()
    f, w = copies_with_corner_unitary(f, copies, rng)
    assert np.abs(w @ w.conj().T - np.eye(f.dim)).max() < EXACT
    assert max(np.abs(w @ a - a @ w).max() for a in (*f.left_action, *f.right_action)) < EXACT
    # a random unital unit: xi <xi, xi>^{-1/2}
    xi = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
    vals, vecs = np.linalg.eigh(f.inner(xi, xi))
    xi = f.right_of((vecs / np.sqrt(vals)) @ vecs.conj().T) @ xi
    # a unitary and a skew change of carrier basis
    t = random_unitary(rng, f.dim) @ np.diag(rng.uniform(0.5, 2.0, f.dim))
    g = skewed(f, t)
    tinv = np.linalg.inv(t)
    xi1, xi2 = tinv @ xi, tinv @ w @ xi
    out = compare_unit_limits(ProductSystem(g, 3), xi1, xi2)
    assert out.verdict == "automorphism-found", [c.name for c in out.report.failed_checks()]
    assert transport_worst(out) <= EXACT
    assert np.abs(out.unitary @ xi1 - xi2).max() <= EXACT


def test_compare_units_conjugated_plain_and_swapped_differ():
    basis = random_unitary(np.random.default_rng(8), 4)
    f = conjugated(doubled_swap_correspondence(), basis)
    ps = ProductSystem(f, 3)
    plain = basis.conj().T @ np.array([1, 1, 0, 0])
    swapped = basis.conj().T @ np.array([0, 0, 1, 1])
    assert compare_unit_limits(ps, plain, swapped).verdict == "necessary-condition-fails"


# ---------------------------------------------------------------------------
# decision code draws no random numbers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module", ["endo", "prodsys", "dilation", "hilbmod"])
def test_decision_modules_are_seedless(module):
    text = (ROOT / "src" / "corrkit" / f"{module}.py").read_text()
    assert "np.random" not in text
    assert "default_rng" not in text
