from dataclasses import replace

import numpy as np
import pytest

from corrkit.algebra import make_algebra
from corrkit.endo import (
    Endomorphism,
    _frame,
    associated_correspondence,
    endomorphism_from_conjugation,
    endomorphism_from_map,
    find_intertwining_isometry,
    isometry_from_unit,
    power_coherence,
    u_unitary,
    validate_endomorphism,
)
from corrkit.errors import ConstructionError, InvalidPresentationError, PreconditionError
from corrkit.gallery import (
    block_collapse_instance,
    endomorphism_gallery,
    identity_mixed_instance,
    identity_scalar_instance,
    inner_rotation_instance,
    outer_swap_instance,
    plane_correspondence,
    random_unitary,
    standard_module,
)
from corrkit.hilbmod import (
    AdjointableOperator,
    ModulePresentation,
    adjointable_basis,
    algebra_correspondence,
    fullness_check,
    internal_tensor,
    map_adjoint,
    pull_gram,
    rank_one,
    rank_one_stack,
    right_unitor,
    tensor_lift,
    validate_module,
)
from corrkit.prodsys import find_central_unital_unit

from conftest import TOL, max_dev, max_deviation, oracle_rank, oracle_scalarized


def test_validate_identity_endomorphism():
    inst = identity_mixed_instance()
    rep = validate_endomorphism(inst.endo)
    assert rep.passed
    assert any(c.name == "strictness-compacts-span" and c.passed for c in rep.checks)


def test_validate_uses_the_endomorphism_basis(monkeypatch):
    import corrkit.hilbmod as hilbmod

    inst = identity_mixed_instance()
    expected = validate_endomorphism(inst.endo).to_machine()

    def refuse(*args, **kwargs):
        raise AssertionError("operator basis recomputed")

    monkeypatch.setattr(hilbmod, "adjointable_basis", refuse)
    assert validate_endomorphism(inst.endo).to_machine() == expected


def test_validate_transpose_fails_multiplicativity():
    alg = make_algebra([1])
    e = standard_module(alg, [2])
    transpose = endomorphism_from_map(e, lambda a: np.swapaxes(a, -1, -2))
    rep = validate_endomorphism(transpose)
    failed = {c.name for c in rep.failed_checks()}
    assert failed == {"endomorphism-multiplicative"}


def test_validate_block_collapse():
    inst = block_collapse_instance()
    rep = validate_endomorphism(inst.endo)
    assert rep.passed


def test_validate_over_a_truncated_basis_fails_strictness():
    inst = identity_mixed_instance()
    ops = inst.endo.ops[:-1]
    rep = validate_endomorphism(Endomorphism(inst.eplus, ops, np.eye(len(ops))))
    flags = {c.name: c.passed for c in rep.checks}
    assert flags["strictness-compacts-span"] is False


def test_endomorphism_refuses_a_basis_that_is_not_orthonormal():
    inst = identity_mixed_instance()
    ops = list(inst.endo.ops)
    ops[1] = AdjointableOperator(ops[1].matrix * (1 + 1e-6), ops[1].adjoint * (1 + 1e-6))
    with pytest.raises(InvalidPresentationError):
        Endomorphism(inst.eplus, ops, np.eye(len(ops)))


def test_endomorphism_from_map_applies_the_map_once_and_refuses_leaving():
    """The map sees the whole basis stack once; on a module whose commutant
    is the scalars, adding ``E_01`` leaves it."""
    e = standard_module(make_algebra([2]), [1])
    assert len(adjointable_basis(e)) == 1
    shapes = []
    endomorphism_from_map(e, lambda a: shapes.append(a.shape) or a)
    assert shapes == [(1, 2, 2)]
    e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConstructionError):
        endomorphism_from_map(e, lambda a: a + e01)


def _pinv_images(endo, stack, t):
    """theta^t of each operator in ``stack`` through the pseudo-inverse of the
    flattened basis, which needs no orthonormality."""
    flat = np.stack([op.matrix.reshape(-1) for op in endo.ops])
    coords = np.linalg.pinv(flat.T) @ stack.reshape(len(stack), -1).T  # (q, N)
    moved = np.linalg.matrix_power(endo.matrix, t) @ coords
    return (moved.T @ flat).reshape(stack.shape)


@pytest.mark.parametrize("inst", endomorphism_gallery(), ids=lambda i: i.name)
def test_batched_apply_matches_single_and_pinv_reference(inst):
    """Rank-ones and random combinations of the basis, all at once."""
    m, q = inst.eplus.dim, len(inst.endo.ops)
    mix = np.random.default_rng(4).standard_normal((3, q)) @ inst.endo.op_stack.reshape(q, -1)
    stack = np.concatenate([rank_one_stack(inst.eplus).reshape(-1, m, m), mix.reshape(3, m, m)])
    for t in (1, 2):
        batched = inst.endo.apply(stack, t)
        assert max_dev(batched, np.stack([inst.endo.apply(a, t) for a in stack])) < 1e-12
        assert max_dev(batched, _pinv_images(inst.endo, stack, t)) < 1e-12


# ---------------------------------------------------------------------------
# associated correspondences
# ---------------------------------------------------------------------------

def test_associated_identity_is_algebra_sized():
    inst = identity_mixed_instance()
    res = associated_correspondence(inst.eplus, inst.endo, 1)
    alg = inst.eplus.algebra
    assert res.corr.dim == alg.dim
    assert validate_module(res.corr).passed
    # oracle: rank of the loop-scalarized pre-inner product on the m^2 carrier
    m = inst.eplus.dim
    images = np.einsum("ikpl,jpab->ijklab", _theta_rank_one_oracle(inst), inst.eplus.gram)
    pre = images.reshape(m * m, m * m, alg.size, alg.size)
    assert oracle_rank(oracle_scalarized(alg, pre)) == alg.dim


def _theta_rank_one_oracle(inst):
    """Rank-one images for the identity map, computed directly."""
    e = inst.eplus
    m = e.dim
    out = np.zeros((m, m, m, m), dtype=complex)
    for i in range(m):
        for k in range(m):
            for v in range(m):
                col = e.right_of(e.inner(_basis(m, k), _basis(m, v)))
                out[i, k, :, v] = col @ _basis(m, i)
    return out


def _basis(n, i):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


def test_associated_line_bundle_for_scalar_conjugation():
    alg = make_algebra([1])
    e = standard_module(alg, [3])
    rng = np.random.default_rng(9)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(z)
    endo = endomorphism_from_conjugation(e, q)
    res = associated_correspondence(e, endo, 1)
    assert res.corr.dim == 1


def test_associated_level_zero_is_algebra():
    inst = identity_mixed_instance()
    res = associated_correspondence(inst.eplus, inst.endo, 0)
    assert res.corr.dim == inst.eplus.algebra.dim
    assert res.factor is None


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("k", range(len(endomorphism_gallery())))
def test_associated_factor_sits_on_its_projection_frame(k, t):
    """The factor map of ``E_t`` has full row rank, ``proj @ section = I`` and
    the scalar Gram ``I``, and ``E_t`` has dimension ``sum_p tr Q_p``: for the
    frame ``xi`` of ``_frame``, each ``Q_p = theta^t(xi_p xi_p*)`` is an
    idempotent whose range the factor covers."""
    inst = endomorphism_gallery()[k]
    res = associated_correspondence(inst.eplus, inst.endo, t)
    proj, section = res.factor.matrix, res.factor.section
    assert oracle_rank(proj) == len(proj) == res.corr.dim
    assert max_dev(proj @ section, np.eye(res.corr.dim)) < 1e-12
    assert max_dev(res.corr.scalar_gram, np.eye(res.corr.dim)) < 1e-12
    idems = [inst.endo.apply(rank_one(inst.eplus, x, x), t) for x in _frame(inst.eplus)]
    assert max(max_dev(q @ q, q) for q in idems) < 1e-10
    assert res.corr.dim == sum(round(np.trace(q).real) for q in idems)


def test_associated_warns_on_non_full_module():
    alg = make_algebra([1, 1])
    eplus = standard_module(alg, [1, 0])
    ops = adjointable_basis(eplus)
    endo = Endomorphism(eplus, ops, np.eye(len(ops)))
    res = associated_correspondence(eplus, endo, 1)
    assert res.warnings


# ---------------------------------------------------------------------------
# property draws: the frame realization of E_t against the balanced pre-Gram
# ---------------------------------------------------------------------------

INNER_DRAWS = [([1, 2], None), ([2, 2], None), ([3], None), ([1, 1], [1, 0])]


def _random_inner(blocks, counts, seed):
    """A seeded inner endomorphism ``a -> v a v^{-1}`` of a standard module in a
    skew carrier basis, whose scalar Gram is not scalar.  On the standard
    module, ``v`` is ``kron(U_k, I_n)`` on each block's ``k`` rows of length
    ``n``, so it commutes with the right action; row counts are drawn from
    {1, 2} unless given."""
    rng = np.random.default_rng(seed)
    alg = make_algebra(blocks)
    if counts is None:
        counts = [int(c) for c in rng.integers(1, 3, size=len(blocks))]
    e = standard_module(alg, counts)
    v = np.zeros((e.dim, e.dim), dtype=complex)
    at = 0
    for k, n in zip(counts, blocks):
        v[at:at + k * n, at:at + k * n] = np.kron(random_unitary(rng, k), np.eye(n))
        at += k * n
    skew = np.eye(e.dim) + 0.3 * (rng.standard_normal((e.dim,) * 2)
                                  + 1j * rng.standard_normal((e.dim,) * 2))
    inv = np.linalg.inv(skew)
    eplus = ModulePresentation(alg, inv @ e.right_action @ skew, pull_gram(skew, e.gram))
    assert validate_module(eplus).passed
    return eplus, inv @ v @ skew


def _oracle_balanced_gram(eplus, v, t):
    """``<e_i* (x) e_j, e_k* (x) e_l> = <e_j, theta^t(e_i e_k*) e_l>`` by loops,
    with ``theta^t(a) = v^t a v^{-t}`` applied to the rank-ones directly."""
    m, n = eplus.dim, eplus.algebra.size
    vt = np.linalg.matrix_power(v, t)
    vt_inv = np.linalg.inv(vt)
    out = np.zeros((m, m, m, m, n, n), dtype=complex)
    for i in range(m):
        for k in range(m):
            image = vt @ rank_one(eplus, _basis(m, i), _basis(m, k)) @ vt_inv
            for j in range(m):
                for l in range(m):
                    out[i, j, k, l] = sum(eplus.gram[j, q] * image[q, l] for q in range(m))
    return out.reshape(m * m, m * m, n, n)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("draw", range(len(INNER_DRAWS)))
def test_frame_realization_matches_the_balanced_pre_gram(draw, t, seed):
    """E_t has the oracle's rank, its Gram pulled back along the factor map is
    the balanced pre-Gram, and its scalar Gram is the identity."""
    eplus, v = _random_inner(*INNER_DRAWS[draw], seed)
    endo = endomorphism_from_conjugation(eplus, v)
    res = associated_correspondence(eplus, endo, t)
    pre = _oracle_balanced_gram(eplus, v, t)
    assert res.corr.dim == oracle_rank(oracle_scalarized(eplus.algebra, pre))
    assert max_dev(pull_gram(res.factor.matrix, res.corr.gram), pre) < 1e-12
    assert max_dev(res.corr.scalar_gram, np.eye(res.corr.dim)) < 1e-12
    assert max_dev(res.factor.matrix @ res.factor.section, np.eye(res.corr.dim)) < 1e-12
    assert validate_module(res.corr).passed


@pytest.mark.parametrize("name", ["identity-mixed", "block-collapse", "inner-rotation"])
@pytest.mark.parametrize("s,t", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_power_coherence_certifies_product_rule(name, s, t):
    inst = next(i for i in endomorphism_gallery() if i.name == name)
    es = associated_correspondence(inst.eplus, inst.endo, s)
    et = associated_correspondence(inst.eplus, inst.endo, t)
    est = associated_correspondence(inst.eplus, inst.endo, s + t)
    _, rep = power_coherence(inst.endo, es, et, est)
    assert rep.passed, [c.name for c in rep.failed_checks()]
    assert max_deviation(rep) < TOL
    # no command emits this family, so its names and order are pinned here
    assert [c.name for c in rep.checks] == [
        f"product-rule-{p}[{s},{t}]" for p in ("isometric", "unitary", "bilinear")
    ]


def test_power_coherence_stops_at_a_dimension_mismatch():
    """A stand-in for E_2 of another dimension gets the isometry check and
    then the failed dimension flag, nothing else."""
    inst = identity_scalar_instance()
    e1, e2 = (associated_correspondence(inst.eplus, inst.endo, t) for t in (1, 2))
    plane, m = plane_correspondence(), inst.eplus.dim
    assert plane.dim != e2.corr.dim
    other = replace(e2, corr=plane, factor=replace(e2.factor, form_matrix=lambda: np.zeros((2, m * m))))
    _, rep = power_coherence(inst.endo, e1, e1, other)
    assert [c.name for c in rep.checks] == [
        "product-rule-isometric[1,1]", "product-rule-dimensions[1,1]",
    ]
    assert not rep.checks[1].passed


def test_rank_one_images_are_built_once_per_time(monkeypatch):
    """E_t, u_t and the product rule share one product chain per time ``t``,
    and one expansion of the rank-ones."""
    import corrkit.endo as endo_mod

    calls = []

    def counted(e):
        calls.append(e)
        return rank_one_stack(e)

    monkeypatch.setattr(endo_mod, "rank_one_stack", counted)
    inst = inner_rotation_instance()
    endo = Endomorphism(inst.eplus, inst.endo.ops, inst.endo.matrix)
    e1 = associated_correspondence(inst.eplus, endo, 1)
    images = endo.rank_one_images(1)
    u_unitary(inst.eplus, endo, 1, e1)
    power_coherence(endo, e1, e1, associated_correspondence(inst.eplus, endo, 2))
    assert validate_endomorphism(endo).passed
    assert endo.rank_one_images(1) is images
    assert sorted(endo._rank_one_images) == [1, 2]
    assert len(calls) == 1
    m = inst.eplus.dim
    ref = np.stack([inst.endo.apply(op) for op in rank_one_stack(inst.eplus).reshape(-1, m, m)])
    assert max_dev(images, ref.reshape(m, m, m, m)) < TOL


# ---------------------------------------------------------------------------
# the action unitary
# ---------------------------------------------------------------------------

def test_action_unitary_identity_reduces_to_canonical():
    inst = identity_mixed_instance()
    alg = inst.eplus.algebra
    res = associated_correspondence(inst.eplus, inst.endo, 1)
    uu, uu_rep = u_unitary(inst.eplus, inst.endo, 1, res)
    assert uu_rep.passed
    # iso from the associated correspondence onto the algebra: x* . y -> <x, y>
    m = inst.eplus.dim
    psi = np.zeros((alg.dim, m * m), dtype=complex)
    for i in range(m):
        for j in range(m):
            psi[:, i * m + j] = alg.coords(inst.eplus.gram[i, j])
    psi_realized = psi @ res.factor.section
    e0 = algebra_correspondence(alg)
    tensor0, fm0 = internal_tensor(inst.eplus, e0)
    bridge = tensor_lift(psi_realized, uu.factor, fm0, side="right")
    canonical = right_unitor(inst.eplus, fm0)
    assert max_dev(canonical @ bridge, uu.u) < TOL


@pytest.mark.parametrize("t", [1, 2, 3])
def test_action_unitary_on_collapse(t):
    inst = block_collapse_instance()
    et = associated_correspondence(inst.eplus, inst.endo, t)
    _, rep = u_unitary(inst.eplus, inst.endo, t, et)
    assert rep.passed
    assert max_deviation(rep) < TOL


def test_action_unitary_requires_full_module():
    alg = make_algebra([1, 1])
    eplus = standard_module(alg, [1, 0])
    ops = adjointable_basis(eplus)
    endo = Endomorphism(eplus, ops, np.eye(len(ops)))
    with pytest.raises(PreconditionError):
        u_unitary(eplus, endo, 1, associated_correspondence(eplus, endo, 1))


# ---------------------------------------------------------------------------
# intertwining isometries
# ---------------------------------------------------------------------------

def test_intertwiner_for_identity():
    inst = identity_mixed_instance()
    result = find_intertwining_isometry(inst.eplus, inst.endo)
    assert result.status == "found"
    assert result.residuals["defect"] < TOL


def test_intertwiner_for_conjugation_recovers_the_unitary():
    alg = make_algebra([1])
    e = standard_module(alg, [3])
    rng = np.random.default_rng(17)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(z)
    endo = endomorphism_from_conjugation(e, q)
    result = find_intertwining_isometry(e, endo)
    assert result.status == "found"
    v = result.operator.matrix
    # v agrees with the conjugating unitary up to a phase
    phase = np.vdot(q.reshape(-1), v.reshape(-1))
    phase /= abs(phase)
    assert max_dev(v, phase * q) < 1e-8


def test_intertwiner_none_for_collapse_and_swap():
    for inst in (block_collapse_instance(), outer_swap_instance()):
        result = find_intertwining_isometry(inst.eplus, inst.endo)
        assert result.status == "none-exists"


def test_spatiality_searches_agree_on_gallery():
    for inst in endomorphism_gallery():
        central = find_central_unital_unit(
            associated_correspondence(inst.eplus, inst.endo, 1).corr
        )
        iso = find_intertwining_isometry(inst.eplus, inst.endo)
        assert central.status == ("found" if inst.spatial else "none-exists")
        assert not (central.status == "found" and iso.status == "none-exists")
        assert not (iso.status == "found" and central.status == "none-exists")
        if central.status == "found":
            assert fullness_check(inst.eplus)


def test_isometry_from_unit_identity_instance():
    inst = identity_mixed_instance()
    res = associated_correspondence(inst.eplus, inst.endo, 1)
    uu, _ = u_unitary(inst.eplus, inst.endo, 1, res)
    search = find_central_unital_unit(res.corr)
    op, rep = isometry_from_unit(
        inst.eplus, inst.endo, 1, uu.u, uu.factor, res.corr, search.vector
    )
    assert rep.passed
    # for the identity map the isometry is unitary, hence invertible
    assert max_dev(op.matrix @ op.adjoint, np.eye(inst.eplus.dim)) < TOL


def test_isometry_from_unit_rejects_noncentral_vector():
    inst = inner_rotation_instance()
    res = associated_correspondence(inst.eplus, inst.endo, 1)
    uu, _ = u_unitary(inst.eplus, inst.endo, 1, res)
    bad = np.zeros(res.corr.dim, dtype=complex)
    bad[0] = 1.0
    search = find_central_unital_unit(res.corr)
    if max_dev(bad, search.vector) < 1e-12:
        bad[0] = 0
        bad[-1] = 1.0
    with pytest.raises(PreconditionError):
        isometry_from_unit(
            inst.eplus, inst.endo, 1, uu.u, uu.factor, res.corr, bad
        )
