"""Acceptance suite: every criterion at tolerance 1e-9, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
verdict lines; the whole suite is designed to finish well under a minute at
the default configuration (four levels, dimension budget 4096).
"""
import json
import subprocess
import sys

import numpy as np
import pytest

from corrkit.cli import EXIT_DEGENERATE, run
from corrkit.dilation import (
    DilationPipeline,
    primary_span_ranks,
    spatiality_report,
    unit_pairing_check,
    verify_main,
    verify_supplement,
)
from corrkit.endo import associated_correspondence, power_coherence, u_unitary
from corrkit.errors import PreconditionError
from corrkit.gallery import (
    block_collapse_instance,
    endomorphism_gallery,
    identity_mixed_instance,
    identity_scalar_instance,
    outer_swap_instance,
    plane_correspondence,
    weak_dilation_gallery,
)
from corrkit.hilbmod import algebra_correspondence, fullness_check, internal_tensor
from corrkit.instance import Instance, emit_instance
from corrkit.prodsys import ProductSystem, find_central_unital_unit

from conftest import (
    max_dev,
    max_deviation,
    oracle_pre_gram,
    oracle_rank,
    oracle_scalarized,
    seeded_correspondence,
    seeded_module,
    small_generator,
)

TOL = 1e-9
LEVELS = 4


def verdict(name: str, ok: bool, extra: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({extra})" if extra else "")
    print(line)
    assert ok, line


def test_criterion_1_internal_tensor_correctness():
    """Realized inner products match the balanced rule; quotient dimensions
    match an independent rank oracle, on 50 seeded pairs."""
    worst = 0.0
    for seed in range(50):
        e = seeded_module(seed)
        f = seeded_correspondence(seed)
        tensor, fm = internal_tensor(e, f)
        pre = oracle_pre_gram(e, f)
        pulled = np.einsum("ui,vj,uvab->ijab", fm.matrix.conj(), fm.matrix, tensor.gram)
        worst = max(worst, max_dev(pulled, pre))
        assert tensor.dim == oracle_rank(oracle_scalarized(e.algebra, pre)), seed
    verdict("criterion-1 internal-tensor", worst <= TOL, f"max deviation {worst:.2e} over 50 pairs")


def test_criterion_2_product_system_coherence():
    """Both composite identifications agree for all r+s+t <= 4 on 20 seeded
    generators."""
    worst = 0.0
    for seed in range(20):
        ps = ProductSystem(small_generator(seed), LEVELS, TOL)
        rep = ps.coherence_report()
        assert rep.passed, (seed, [c.name for c in rep.failed_checks()])
        worst = max(worst, max_deviation(rep))
    verdict("criterion-2 coherence", worst <= TOL, f"max deviation {worst:.2e} over 20 generators")


def test_criterion_3_endomorphism_recovery():
    """Recovery identity, unitarity of the action map, and the isometric
    product rule on the identity and block-collapse instances."""
    worst = 0.0
    for inst in (identity_mixed_instance(), block_collapse_instance()):
        assoc = {
            t: associated_correspondence(inst.eplus, inst.endo, t, TOL)
            for t in range(1, LEVELS + 1)
        }
        for t in range(1, LEVELS + 1):
            _, uu_rep = u_unitary(inst.eplus, inst.endo, t, assoc[t], TOL)
            assert uu_rep.passed, (inst.name, t)
            worst = max(worst, max_deviation(uu_rep))
        for s in range(1, LEVELS):
            for t in range(1, LEVELS + 1 - s):
                _, rep = power_coherence(inst.endo, assoc[s], assoc[t], assoc[s + t], TOL)
                assert rep.passed, (inst.name, s, t)
                worst = max(worst, max_deviation(rep))
    verdict("criterion-3 recovery", worst <= TOL, f"max deviation {worst:.2e}")


def test_criterion_4_main_restriction_identity():
    """On every spatial gallery instance the staged unitaries restrict the
    extended semigroup to the endomorphism semigroup; the gallery includes
    the identity and block-collapse instances, and at least three spatial
    ones."""
    gallery = endomorphism_gallery()
    names = {inst.name for inst in gallery}
    assert {"identity-mixed", "identity-scalar", "block-collapse"} <= names
    spatial_count = 0
    worst = 0.0
    for inst in gallery:
        rep = verify_main(DilationPipeline(inst.eplus, inst.endo, LEVELS, TOL))
        if inst.spatial:
            spatial_count += 1
            assert rep.status == "pass", (inst.name, [c.name for c in rep.failed_checks()])
            worst = max(worst, max_deviation(rep))
            names_t = {c.name for c in rep.checks}
            assert f"restriction-identity[1,{LEVELS - 1}]" in names_t
            assert "w-semigroup[1,1,2]" in names_t
            assert f"amplification-injective[{LEVELS}]" in names_t
        else:
            assert rep.status == "not-applicable", inst.name
    verdict(
        "criterion-4 restriction-identity",
        spatial_count >= 3 and worst <= TOL,
        f"{spatial_count} spatial instances, max deviation {worst:.2e}",
    )


def test_criterion_5_vector_expectation():
    """Expectation identity and unital CP compressions with positive Choi
    matrices on every weak-dilation gallery instance."""
    worst = 0.0
    count = 0
    for inst, xi in weak_dilation_gallery():
        rep = verify_supplement(DilationPipeline(inst.eplus, inst.endo, LEVELS, TOL), xi)
        assert rep.status == "pass", (inst.name, [c.name for c in rep.failed_checks()])
        names = {c.name for c in rep.checks}
        assert f"expectation-identity[{LEVELS},0]" in names
        assert f"choi-positive[{LEVELS}]" in names
        assert f"cp-unital[{LEVELS}]" in names
        worst = max(worst, max_deviation(rep))
        count += 1
    verdict(
        "criterion-5 vector-expectation",
        count >= 3 and worst <= TOL,
        f"{count} weak dilations, max deviation {worst:.2e}",
    )


def test_criterion_6_remark_cross_checks():
    """Intertwining isometries from central units on every spatial instance;
    the pairing-forces-equality implication on constructed instances; the
    primary-dilation rank argument; fullness on every spatial instance."""
    worst = 0.0
    for inst in endomorphism_gallery():
        status, rep = spatiality_report(DilationPipeline(inst.eplus, inst.endo, LEVELS, TOL))
        assert rep.passed, (inst.name, [c.name for c in rep.failed_checks()])
        if inst.spatial:
            assert status == "found"
            names = {c.name for c in rep.checks}
            assert f"isometry[{LEVELS}]" in names and f"intertwining[{LEVELS}]" in names
            assert "fullness-necessary-condition" in names
            assert fullness_check(inst.eplus)
            worst = max(worst, max_deviation(rep))

    # pairing forces unit equality: aligned, perturbed, and vacuous cases
    alg_corr = algebra_correspondence(identity_mixed_instance().eplus.algebra)
    ps = ProductSystem(alg_corr, LEVELS, TOL)
    omega = find_central_unital_unit(alg_corr, TOL).vector
    rep = unit_pairing_check(ps, omega, omega)
    assert rep.passed and any(c.name == f"unit-coincide[{LEVELS}]" for c in rep.checks)
    worst = max(worst, max_deviation(rep))
    plane_ps = ProductSystem(plane_correspondence(), LEVELS, TOL)
    with pytest.raises(PreconditionError):
        unit_pairing_check(plane_ps, np.array([1.0, 0.5]), np.array([1.0, 0.0]))
    vac = unit_pairing_check(plane_ps, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert vac.passed and any(c.name == "pairing-vacuous" for c in vac.checks)

    # primary dilations decided by the hand rank argument
    for obj, primary in ((identity_mixed_instance(), True), (identity_scalar_instance(), False)):
        pipe = DilationPipeline(obj.eplus, obj.endo, levels=LEVELS)
        assert (primary_span_ranks(pipe, obj.unit_vectors["xi"])[-1] == obj.eplus.dim) == primary

    verdict("criterion-6 remark-cross-checks", worst <= TOL, f"max deviation {worst:.2e}")


def _instance_for(inst_obj) -> Instance:
    inst = Instance(inst_obj.eplus.algebra, {"E": inst_obj.eplus})
    inst.endomorphism = ("E", inst_obj.endo.matrix)
    return inst


def test_criterion_7_degenerate_handling():
    """Certified non-spatial instances give the not-applicable verdict and
    exit code 3, never a crash or a false pass."""
    for inst_obj in (block_collapse_instance(), outer_swap_instance()):
        inst = _instance_for(inst_obj)
        code, rep = run("verify-main", inst)
        assert code == EXIT_DEGENERATE, inst_obj.name
        assert rep.status == "not-applicable"
        assert "not applicable (non-spatial)" in rep.detail
        assert rep.passed  # everything that was checked passed; no false claims
    verdict("criterion-7 degenerate-handling", True, "exit 3 with certificates on 2 instances")


def test_criterion_8_determinism(tmp_path):
    """Identical seeds and inputs produce byte-identical machine reports,
    in process and across processes."""
    inst = _instance_for(identity_mixed_instance())
    path = tmp_path / "inst.json"
    path.write_text(emit_instance(inst))

    def run_cli(out):
        res = subprocess.run(
            [sys.executable, "-m", "corrkit.cli", "verify-main", str(path),
             "--report", "machine", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        return out.read_bytes()

    a = run_cli(tmp_path / "a.json")
    b = run_cli(tmp_path / "b.json")
    assert a == b
    _, rep1 = run("verify-main", inst)
    _, rep2 = run("verify-main", inst)
    assert rep1.to_machine() == rep2.to_machine()
    # seeded generation is byte-stable too
    from corrkit.instance import generate_instance

    assert emit_instance(generate_instance(9, "weak-dilation")) == emit_instance(
        generate_instance(9, "weak-dilation")
    )
    verdict("criterion-8 determinism", True, "byte-identical across processes")
