from pathlib import Path

import numpy as np
import pytest

from corrkit.algebra import make_algebra
from corrkit.dilation import (
    DilationPipeline,
    build_action_stages,
    build_w,
    compare_unit_limits,
    left_limit,
    primary_span_ranks,
    right_limit,
    spatiality_report,
    stage_map,
    unit_pairing_check,
    verify_main,
    verify_supplement,
    weak_dilation_check,
)
from corrkit.endo import Endomorphism
from corrkit.errors import PreconditionError
from corrkit.gallery import (
    block_collapse_instance,
    doubled_swap_correspondence,
    endomorphism_gallery,
    identity_mixed_instance,
    identity_scalar_instance,
    inner_rotation_instance,
    plane_correspondence,
    standard_module,
    weak_dilation_gallery,
)
from corrkit.hilbmod import _rebracket, adjointable_basis, algebra_correspondence, internal_tensor
from corrkit.prodsys import ProductSystem, find_central_unital_unit

from conftest import TOL, associator, ladder_endomorphism, max_dev, max_deviation

SHIPPED = Path(__file__).resolve().parent.parent / "instances"


# ---------------------------------------------------------------------------
# truncated limits
# ---------------------------------------------------------------------------

def test_right_limit_over_algebra():
    alg = make_algebra([1, 2])
    ps = ProductSystem(algebra_correspondence(alg), 4)
    lim = right_limit(ps, alg.coords(alg.unit))
    assert lim.report.passed
    assert max_deviation(lim.report) < TOL


def test_right_limit_plane_doubling():
    ps = ProductSystem(plane_correspondence(), 4)
    lim = right_limit(ps, np.array([1.0, 0.0]))
    assert lim.report.passed
    assert [e.shape for e in lim.embeddings] == [(2, 1), (4, 2), (8, 4), (16, 8)]
    # no command emits the right-embedding family, so its names and order are pinned here
    names = [c.name for c in lim.report.checks]
    assert names[:12] == [
        f"{family}[{n}]" for n in range(4)
        for family in ("right-embedding-isometry", "right-embedding-gram", "right-vector-coherence")
    ]
    assert not any(name.startswith("right-embedding") for name in names[12:])


def test_right_limit_increasing_with_eigen_oracle():
    rng = np.random.default_rng(5)
    ps = ProductSystem(plane_correspondence(), 3)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = v / np.linalg.norm(v)
    lim = right_limit(ps, v)
    assert lim.report.passed
    # oracle: sampled expectation values of the projection difference
    from corrkit.hilbmod import amplify, map_adjoint, rank_one

    unit = lim.unit
    e1, e2 = ps.power(1), ps.power(2)
    p1 = rank_one(e1, unit.levels[1], unit.levels[1])
    u = ps.u(1, 1)
    e11, fm11 = internal_tensor(e1, e1)
    lifted = u @ amplify(p1, fm11, side="left") @ map_adjoint(u, e11, e2)
    diff = lifted - rank_one(e2, unit.levels[2], unit.levels[2])
    s = e2.scalar_gram
    for _ in range(50):
        x = rng.standard_normal(e2.dim) + 1j * rng.standard_normal(e2.dim)
        val = np.real(x.conj() @ s @ diff @ x)
        assert val >= -1e-9


def test_right_limit_needs_unital_unit():
    ps = ProductSystem(plane_correspondence(), 3)
    with pytest.raises(PreconditionError):
        right_limit(ps, np.array([2.0, 0.0]))


def test_left_limit_over_algebra():
    alg = make_algebra([1, 2])
    ps = ProductSystem(algebra_correspondence(alg), 4)
    search = find_central_unital_unit(ps.generator)
    lim = left_limit(ps, search.vector)
    assert lim.report.passed
    names = {c.name for c in lim.report.checks}
    assert "central-vector-expectation[4]" in names
    assert "left-faithful[4]" in names


def test_left_limit_rejects_noncentral_vector():
    ps = ProductSystem(doubled_swap_correspondence(), 2)
    # unital but not central: supported on the swapped copy
    with pytest.raises(PreconditionError):
        left_limit(ps, np.array([0.0, 0.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# staged unitaries
# ---------------------------------------------------------------------------

def test_staged_unitaries_identity_instance():
    inst = identity_mixed_instance()
    pipe = DilationPipeline(inst.eplus, inst.endo, levels=4)
    w, rep = pipe.w()
    assert rep.passed
    assert max_deviation(rep) < TOL
    names = {c.name for c in rep.checks}
    assert "w-identity[0]" in names
    assert "w-semigroup[1,1,1]" in names
    assert "w-embedding-square[1,1]" in names


def test_staged_unitaries_rotation_instance():
    inst = inner_rotation_instance()
    pipe = DilationPipeline(inst.eplus, inst.endo, levels=4)
    _, rep = pipe.w()
    assert rep.passed, [c.name for c in rep.failed_checks()]


def test_w_requires_spatial_instance():
    inst = block_collapse_instance()
    pipe = DilationPipeline(inst.eplus, inst.endo, levels=3)
    with pytest.raises(PreconditionError) as err:
        pipe.w()
    assert "non-spatial" in str(err.value)


# ---------------------------------------------------------------------------
# main verification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("inst", endomorphism_gallery(), ids=lambda i: i.name)
def test_verify_main_over_gallery(inst):
    rep = verify_main(DilationPipeline(inst.eplus, inst.endo, levels=4))
    if inst.spatial:
        assert rep.status == "pass", [c.name for c in rep.failed_checks()]
        assert max_deviation(rep) < TOL
    else:
        assert rep.status == "not-applicable"
        assert "not applicable (non-spatial)" in rep.detail


def test_verify_main_independent_of_basis_order():
    inst = identity_mixed_instance()
    rep1 = verify_main(DilationPipeline(inst.eplus, inst.endo, levels=3))
    ops = adjointable_basis(inst.eplus)
    perm = list(reversed(range(len(ops))))
    permuted_ops = [ops[i] for i in perm]
    p = np.zeros((len(ops), len(ops)))
    for new, old in enumerate(perm):
        p[new, old] = 1.0
    matrix = p @ inst.endo.matrix @ p.T
    endo = Endomorphism(inst.eplus, permuted_ops, matrix)
    rep2 = verify_main(DilationPipeline(inst.eplus, endo, levels=3))
    assert rep1.status == rep2.status == "pass"
    assert max_deviation(rep2) < TOL


def test_restriction_chain_checked_independently():
    inst = inner_rotation_instance()
    rep = verify_main(DilationPipeline(inst.eplus, inst.endo, levels=3))
    names = {c.name for c in rep.checks}
    assert "restriction-identity[1,1]" in names
    assert "restriction-chain-agree[1,2]" in names
    assert "amplification-injective[3]" in names


# ---------------------------------------------------------------------------
# weak dilations and the vector expectation
# ---------------------------------------------------------------------------

def test_weak_dilation_applies_theta_once_per_level(monkeypatch):
    inst = inner_rotation_instance()
    calls = []
    real = inst.endo.apply

    def counted(a, t=1):
        calls.append(t)
        return real(a, t)

    monkeypatch.setattr(inst.endo, "apply", counted)
    pipe = DilationPipeline(inst.eplus, inst.endo, levels=3)
    wd = weak_dilation_check(pipe, inst.unit_vectors["xi"])
    assert wd.ok
    assert calls == [1, 2, 3]


def test_non_hermitian_choi_fails_choi_positive(monkeypatch):
    """A Choi matrix off Hermitian by a skew-Hermitian 1e-6 i, whose Hermitian
    part stays positive, fails ``choi-positive[t]`` in both reports that run
    the CP checks, and nothing else does."""
    import corrkit.prodsys as prodsys
    from corrkit.prodsys import ProductSystem, cp_of_unit

    real = prodsys.choi_matrix
    monkeypatch.setattr(prodsys, "choi_matrix",
                        lambda alg, tm: real(alg, tm) + 1e-6j * np.eye(alg.size ** 2))
    inst = inner_rotation_instance()
    pipe = DilationPipeline(inst.eplus, inst.endo, levels=2)
    e1 = algebra_correspondence(make_algebra([1, 2]))
    reports = [weak_dilation_check(pipe, inst.unit_vectors["xi"]).report,
               cp_of_unit(ProductSystem(e1, 2), find_central_unital_unit(e1).vector).report]
    for rep in reports:
        assert {c.name for c in rep.failed_checks()} == {"choi-positive[1]", "choi-positive[2]"}


def test_weak_dilation_identity():
    inst = identity_mixed_instance()
    wd = weak_dilation_check(DilationPipeline(inst.eplus, inst.endo, levels=4), inst.unit_vectors["xi"])
    assert wd.ok
    alg = inst.eplus.algebra
    for t in wd.cp_matrices:
        assert max_dev(t, np.eye(alg.dim)) < TOL


def test_weak_dilation_rotation_nontrivial():
    inst = inner_rotation_instance()
    wd = weak_dilation_check(DilationPipeline(inst.eplus, inst.endo, levels=4), inst.unit_vectors["xi"])
    assert wd.ok
    assert max_dev(wd.cp_matrices[0], np.eye(inst.eplus.algebra.dim)) > 1e-3


def test_weak_dilation_rotation_closed_form():
    """For conjugation by left multiplication with a unitary g*, the
    compression at the identity vector is b -> g* b g; the pipeline must
    reproduce that closed form at every level."""
    angle = np.pi / 5
    inst = inner_rotation_instance(angle)
    alg = inst.eplus.algebra
    g = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]], dtype=complex
    )
    wd = weak_dilation_check(DilationPipeline(inst.eplus, inst.endo, levels=4), inst.unit_vectors["xi"])
    for t, tmat in enumerate(wd.cp_matrices, start=1):
        gt = np.linalg.matrix_power(g, t)
        # the algebra is the one block M_2, so each basis element is its block
        cols = [alg.coords(gt.conj().T @ block @ gt) for block in alg.basis]
        assert max_dev(tmat, np.stack(cols, axis=1)) < TOL


def test_weak_dilation_needs_unit_vector():
    inst = identity_mixed_instance()
    with pytest.raises(PreconditionError):
        weak_dilation_check(DilationPipeline(inst.eplus, inst.endo), 2.0 * inst.unit_vectors["xi"])


@pytest.mark.parametrize("pair", weak_dilation_gallery(), ids=lambda p: p[0].name)
def test_verify_supplement_gallery(pair):
    inst, xi = pair
    rep = verify_supplement(DilationPipeline(inst.eplus, inst.endo, levels=4), xi)
    assert rep.status == "pass", [c.name for c in rep.failed_checks()]
    assert max_deviation(rep) < TOL
    names = {c.name for c in rep.checks}
    assert "expectation-identity[1,0]" in names
    assert "dilation-diagram[1,1]" in names
    assert "filtration-projection[2,1]" in names


def test_each_tensor_and_associator_realized_once_per_run(monkeypatch):
    """Within one verification no module is placed twice from the same
    operands, factor maps are formed on no other operands, and no
    rebracketing realizes a bracketing: the pipeline and the product system
    share their factor maps.

    At levels L a run reads the (L+1)(L+2)/2 pair factor maps of ``E_s . E_t``
    with ``s + t <= L``, the L+1 stages ``E+ . E_t``, and one
    ``(E+ . E_t) . E_m`` per restriction-chain check, L(L+1)/2 of them:
    15 + 5 + 10 = 30 at L = 4.  The product system holds only the maps placing
    its powers, so a pair's map is formed again where it is read.  It places
    the same 30 modules: the L-1 powers on construction, every other pair
    module once, in the coherence sweep that ``verify_main`` runs (``uinv``
    places none), and one module with each stage and chain factor map."""
    import sys

    import corrkit.hilbmod as hilbmod
    from corrkit.instance import parse_instance

    inst = parse_instance(str(SHIPPED / "weak-dilation-seed0.json"))
    eplus, endo = inst.make_endo()
    _, xi = inst.vector("xi")
    held, calls = [], {"_tensor_factor": [], "_tensor_module": []}

    def tracked(name, real):
        def call(e, f):
            held.append((e, f))  # keeps the operand ids unique during a run
            calls[name].append((id(e), id(f)))
            return real(e, f)
        return call

    for name in calls:
        real = getattr(hilbmod, name)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("corrkit") and mod is not None and vars(mod).get(name) is real:
                monkeypatch.setattr(mod, name, tracked(name, real))
    for run in (
        lambda: verify_main(DilationPipeline(eplus, endo, levels=4)),
        lambda: verify_supplement(DilationPipeline(eplus, endo, levels=4), xi),
    ):
        held.clear()
        for seen in calls.values():
            seen.clear()
        assert run().status == "pass"
        assert len(set(calls["_tensor_factor"])) == 30
        assert len(calls["_tensor_module"]) == len(set(calls["_tensor_module"])) == 30


def test_endomorphism_validated_once_per_pipeline(monkeypatch):
    """The pipeline holds the endomorphism's validation: ``verify_supplement``
    (which runs ``verify_main``) and a second ``verify_main`` validate the map
    once, and the main report carries those checks first."""
    import corrkit.dilation as dilation
    from corrkit.endo import validate_endomorphism
    from corrkit.instance import parse_instance

    inst = parse_instance(str(SHIPPED / "weak-dilation-seed0.json"))
    pipe = DilationPipeline(*inst.make_endo(), levels=2)
    calls = []
    monkeypatch.setattr(dilation, "validate_endomorphism",
                        lambda *args: calls.append(args) or validate_endomorphism(*args))
    assert verify_supplement(pipe, inst.vector("xi")[1]).status == "pass"
    rep = verify_main(pipe)
    assert len(calls) == 1
    held = [(c.name, c.deviation) for c in pipe.endomorphism_report().checks]
    assert [(c.name, c.deviation) for c in rep.checks[:len(held)]] == held


def test_operator_basis_amplified_once_per_stage(monkeypatch):
    """``verify_main`` amplifies the operator basis onto each stage
    ``E+ . E_t``, t = 0..L, exactly once: the recovery, restriction,
    restriction-chain and injectivity checks read the stack the stage holds."""
    import sys

    import corrkit.hilbmod as hilbmod
    from corrkit.instance import parse_instance

    eplus, endo = parse_instance(str(SHIPPED / "weak-dilation-seed0.json")).make_endo()
    real = hilbmod.amplify
    lifted = []

    def counted(a, fm, **kwargs):
        if a is endo.op_stack:
            lifted.append(id(fm))
        return real(a, fm, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("corrkit") and mod is not None and vars(mod).get("amplify") is real:
            monkeypatch.setattr(mod, "amplify", counted)
    pipe = DilationPipeline(eplus, endo, levels=4)
    assert verify_main(pipe).status == "pass"
    assert sorted(lifted) == sorted(id(stage.factor) for stage in pipe.stages()[0])
    assert len(lifted) == 5


def test_action_unitaries_match_the_associator_recursion():
    """``u_t = u_1 (u_{t-1} . id)`` through the stage map equals the recursion
    through a realized rebracketing ``(E+ . E_{t-1}) . E_1 -> E+ . E_t``."""
    from corrkit.hilbmod import tensor_lift
    from corrkit.instance import parse_instance

    eplus, endo = parse_instance(str(SHIPPED / "weak-dilation-seed0.json")).make_endo()
    pipe = DilationPipeline(eplus, endo, levels=4)
    stages, rep = pipe.stages()
    assert rep.passed
    ps = pipe.ps()
    old = {1: stages[1].u}
    for t in range(2, 5):
        a = associator(eplus, ps.power(t - 1), ps.power(1), pipe.tol,
                       ef=(stages[t - 1].tensor, stages[t - 1].factor),
                       fg=internal_tensor(ps.power(t - 1), ps.power(1)))
        lifted = tensor_lift(old[t - 1], a.left_factor, stages[1].factor, side="left")
        old[t] = stages[1].u @ lifted @ a.adjoint
        assert max_dev(stages[t].u, old[t]) < 1e-12, t


def test_stage_map_skips_only_the_exact_identity():
    """``stage_map(t, 1)`` takes the section of ``E_t . E_1`` alone, since
    ``u(t, 1)^-1`` is the exact identity for ``t >= 1``: on the m = 9 ladder
    every stage map is bitwise the composition with it."""
    eplus, endo = ladder_endomorphism([3])
    pipe = DilationPipeline(eplus, endo, levels=4)
    ps, stages = pipe.ps(), pipe.stages()[0]
    for t in range(ps.levels + 1):
        for m in range(ps.levels + 1 - t):
            full = _rebracket(stages[t + m].factor, ps.tensor(t, m).section @ ps.uinv(t, m),
                              stages[t].u @ stages[t].factor.matrix, stages[m].factor, "right")
            assert np.array_equal(stage_map(ps, stages, t, m), full), (t, m)


def test_skewed_identification_fails_coherence_and_verify_main(monkeypatch, tmp_path):
    """Fault witness: ``u(1,2)`` scaled by 1 + 1e-6 when it is built breaks
    a ``coherence[r,s,t]`` check with ``t >= 2``, and ``verify-main`` exits 1."""
    import json
    import re

    from corrkit.cli import EXIT_FAIL, main
    from corrkit.prodsys import ProductSystem

    built = ProductSystem.u

    def skewed(ps, s, t):
        if (s, t) == (1, 2) and (1, 2) not in ps._u:
            ps._u[(1, 2)] = built(ps, 1, 2) * (1 + 1e-6)
        return built(ps, s, t)

    monkeypatch.setattr(ProductSystem, "u", skewed)
    out = tmp_path / "out.json"
    argv = ["verify-main", str(SHIPPED / "weak-dilation-seed0.json"), "--levels", "5",
            "--report", "machine", "--out", str(out)]
    assert main(argv) == EXIT_FAIL
    failed = [c["name"] for c in json.loads(out.read_text())["checks"] if not c["passed"]]
    assert any(re.fullmatch(r"coherence\[\d+,\d+,[2-9]\]", name) for name in failed), failed


def test_alpha_takes_one_adjoint_per_stage_pair(monkeypatch):
    """``alpha`` reuses the adjoint that the ``w-unitary`` check formed in
    ``build_w``: no adjoint is solved for after ``pipe.w()``."""
    import corrkit.dilation as dilation

    inst = inner_rotation_instance()
    pipe = DilationPipeline(inst.eplus, inst.endo, levels=3)
    stages, _ = pipe.stages()
    pipe.w()
    calls = []
    real = dilation.map_adjoint

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(dilation, "map_adjoint", counted)
    rng = np.random.default_rng(9)
    pairs = [(t, m) for t in range(1, 4) for m in range(4 - t)]
    for t, m in pairs:
        dim = stages[t + m].tensor.dim
        stack = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
        moved = pipe.alpha(t, m, stack)
        for a, one in zip(stack, moved):
            assert max_dev(pipe.alpha(t, m, a), one) < 1e-12
    assert calls == []


def test_weak_dilation_fails_when_projection_moves():
    # the collapse sends this vector projection to an incomparable one
    inst = block_collapse_instance()
    xi = np.array([1.0, 0.0, 0.0, 1.0])
    wd = weak_dilation_check(DilationPipeline(inst.eplus, inst.endo, levels=3), xi)
    assert not wd.ok
    failed = {c.name for c in wd.report.failed_checks()}
    assert any(name.startswith("projection-increasing") for name in failed)
    # the expectation verifier treats this as a precondition failure
    with pytest.raises(PreconditionError, match="not a weak dilation"):
        verify_supplement(DilationPipeline(inst.eplus, inst.endo, levels=3), xi)


def test_collapse_carries_idempotent_compression():
    """With both rows aligned the collapse fixes the vector projection and
    compresses to a nontrivial idempotent map; the expectation checks are
    still not applicable because the instance is non-spatial."""
    inst = block_collapse_instance()
    xi = np.array([1.0, 0.0, 1.0, 0.0])
    wd = weak_dilation_check(DilationPipeline(inst.eplus, inst.endo, levels=3), xi)
    assert wd.ok
    t1 = wd.cp_matrices[0]
    assert max_dev(t1 @ t1, t1) < TOL
    assert max_dev(t1, np.eye(2)) > 0.5
    rep = verify_supplement(DilationPipeline(inst.eplus, inst.endo, levels=3), xi)
    assert rep.status == "not-applicable"


# ---------------------------------------------------------------------------
# primary dilations
# ---------------------------------------------------------------------------

def test_primary_for_algebra_module():
    inst = identity_mixed_instance()
    pipe = DilationPipeline(inst.eplus, inst.endo, levels=4)
    assert primary_span_ranks(pipe, inst.unit_vectors["xi"])[-1] == inst.eplus.dim


def test_not_primary_on_larger_module():
    inst = identity_scalar_instance()
    pipe = DilationPipeline(inst.eplus, inst.endo, levels=4)
    assert primary_span_ranks(pipe, inst.unit_vectors["xi"]) == [1] * 5
    assert inst.eplus.dim > 1


def test_primary_ranks_on_collapse_by_oracle():
    inst = block_collapse_instance()
    xi = np.array([1.0, 0.0, 1.0, 0.0])
    pipe = DilationPipeline(inst.eplus, inst.endo, levels=3)
    ranks = primary_span_ranks(pipe, xi)
    # by hand: the moved projections keep their ranges inside two coordinates
    assert ranks == [2, 2, 2, 2]
    assert ranks[-1] < inst.eplus.dim


# ---------------------------------------------------------------------------
# unit pairing
# ---------------------------------------------------------------------------

def test_unit_pairing_equal_units():
    alg = make_algebra([1, 2])
    ps = ProductSystem(algebra_correspondence(alg), 4)
    one = alg.coords(alg.unit)
    rep = unit_pairing_check(ps, one, one)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert "unit-coincide[4]" in names and "projection-equal[2]" in names


def test_unit_pairing_vacuous_branch():
    ps = ProductSystem(plane_correspondence(), 3)
    rep = unit_pairing_check(ps, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert rep.passed
    assert any(c.name == "pairing-vacuous" for c in rep.checks)
    assert "vacuous" in rep.detail


def test_unit_pairing_orthogonal_perturbation_forces_zero():
    """A unit pairing to the identity against a central unit must equal it:
    perturbing orthogonally breaks unitality unless the perturbation is zero."""
    e1 = plane_correspondence()
    ps = ProductSystem(e1, 3)
    omega = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert max_dev(e1.inner(omega, v), 0) == 0.0
    for eps in (1.0, 0.1):
        xi = omega + eps * v
        norm_defect = max_dev(e1.inner(xi, xi), np.eye(1))
        assert norm_defect > 1e-6  # unitality forces the perturbation to vanish
        with pytest.raises(PreconditionError):
            unit_pairing_check(ps, xi, omega)
    rep = unit_pairing_check(ps, omega, omega)
    assert rep.passed
    assert any(c.name == "unit-coincide[3]" for c in rep.checks)


def test_unit_pairing_rejects_bad_flags():
    ps = ProductSystem(plane_correspondence(), 2)
    with pytest.raises(PreconditionError):
        unit_pairing_check(ps, np.array([2.0, 0.0]), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# comparing limits over two units
# ---------------------------------------------------------------------------

def test_compare_units_identity():
    ps = ProductSystem(plane_correspondence(), 3)
    xi = np.array([1.0, 0.0])
    out = compare_unit_limits(ps, xi, xi)
    assert out.verdict == "automorphism-found"
    assert out.report.passed


def test_compare_units_coordinate_swap():
    ps = ProductSystem(plane_correspondence(), 3)
    out = compare_unit_limits(ps, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert out.verdict == "automorphism-found"
    assert out.report.passed
    assert max_dev(out.unitary @ np.array([1.0, 0.0]), np.array([0.0, 1.0])) < TOL


def test_compare_units_distinct_compressions():
    ps = ProductSystem(doubled_swap_correspondence(), 3)
    out = compare_unit_limits(
        ps, np.array([1.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 1.0])
    )
    assert out.verdict == "necessary-condition-fails"
    assert "refutes only the automorphism route" in out.report.detail


# ---------------------------------------------------------------------------
# spatiality report
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("inst", endomorphism_gallery(), ids=lambda i: i.name)
def test_spatiality_report_gallery(inst):
    status, rep = spatiality_report(DilationPipeline(inst.eplus, inst.endo, levels=3))
    assert status == ("found" if inst.spatial else "none-exists")
    assert rep.passed, [c.name for c in rep.failed_checks()]
    if inst.spatial:
        names = {c.name for c in rep.checks}
        assert "isometry[3]" in names
        assert "isometry-semigroup[1,2]" in names
        assert "fullness-necessary-condition" in names


# ---------------------------------------------------------------------------
# one source for every run parameter
# ---------------------------------------------------------------------------

def test_verify_main_reads_levels_and_budget_from_the_pipeline():
    inst = inner_rotation_instance()
    rep = verify_main(DilationPipeline(inst.eplus, inst.endo, levels=3, budget=500))
    assert rep.status == "pass", [c.name for c in rep.failed_checks()]
    assert rep.provenance["levels"] == 3 and rep.provenance["budget"] == 500
    semigroup = {c.name for c in rep.checks if c.name.startswith("w-semigroup[")}
    assert "w-semigroup[3,0,0]" in semigroup
    assert semigroup == {
        f"w-semigroup[{s},{t},{m}]"
        for s in range(4) for t in range(4 - s) for m in range(4 - s - t)
    }


def test_no_entry_point_takes_a_second_source_of_run_parameters():
    import inspect

    import corrkit.dilation as dilation
    import corrkit.prodsys as prodsys

    holders = (DilationPipeline, prodsys.ProductSystem)
    banned = {"levels", "tol", "budget", "pipeline", "ps", "assocs"}
    functions = [
        fn for mod in (dilation, prodsys) for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
    ]
    methods = [
        fn for cls in holders for name, fn in vars(cls).items()
        if inspect.isfunction(fn) and not name.startswith("_")
    ]
    checked = set()
    for fn in functions + methods:
        params = list(inspect.signature(fn, eval_str=True).parameters.values())
        if fn in methods or params and params[0].annotation in holders:
            checked.add(fn.__name__)
            assert not banned & {p.name for p in params[1:]}, fn.__qualname__
    assert {
        "verify_main", "verify_supplement", "weak_dilation_check", "spatiality_report",
        "build_action_stages", "build_w", "derive_unit", "check_unit", "right_limit",
        "left_limit", "unit_pairing_check", "compare_unit_limits", "cp_of_unit",
        "primary_span_ranks",
    } <= checked
