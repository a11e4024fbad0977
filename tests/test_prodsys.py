import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from corrkit.algebra import make_algebra
from corrkit.errors import PreconditionError, ResourceBudgetError
from corrkit.dilation import DilationPipeline, compare_unit_limits, verify_main
from corrkit.endo import associated_correspondence
from corrkit.gallery import (
    block_swap_correspondence,
    conjugated,
    doubled_swap_correspondence,
    endomorphism_gallery,
    inner_two_block_instance,
    plane_correspondence,
    random_unitary,
    standard_module,
)
from corrkit.hilbmod import (
    Correspondence,
    _rebracket,
    algebra_correspondence,
    check_map,
    internal_tensor,
    null_space,
    tensor_lift,
)
from corrkit.instance import PROFILES, generate_instance
from corrkit.prodsys import (
    ProductSystem,
    check_unit,
    choi_matrix,
    cp_of_unit,
    derive_unit,
    find_central_unital_unit,
    unit_cp_matrix_level,
)
from corrkit.report import VerificationReport

from conftest import (
    TOL,
    associator,
    ladder_e1,
    max_dev,
    max_deviation,
    oracle_pre_gram,
    oracle_rank,
    oracle_scalarized,
    oracles,
    random_element,
    skew_correspondence,
    small_generator,
    traced_peak,
    triple_copy,
)


@pytest.mark.parametrize("gen, levels", [
    (plane_correspondence(), 6),
    (doubled_swap_correspondence(), 4),
    (block_swap_correspondence(), 3),
    (triple_copy(), 3),
    (standard_module(make_algebra([1, 2]), [2, 1], multiplicities=[[0, 1], [1, 0]]), 3),
], ids=["plane", "doubled-swap", "block-swap", "triple-copy", "unconjugated-swap"])
def test_tensor_dimensions_match_the_multiplicity_oracle(gen, levels):
    """Every ``E_s . E_t`` with ``s + t <= levels`` has the oracle's dimension
    ``n^T Lambda^(s+t) n``.

    Tensors are realized by increasing ``s + t``, each with a peak under
    64 MiB (the largest here, ``E_0 . E_3`` of the triple copy, takes about
    40 MiB), so a realization whose intermediates grow with the square of
    the carrier fails on a small tensor before it reaches a large one.
    """
    blocks = list(gen.algebra.blocks)
    mod = oracles.Module.from_arrays(blocks, gen.right_action, gen.left_action, gen.gram)
    want = oracles.stage_dimensions(blocks, oracles.multiplicity_matrix(mod), levels)
    ps = ProductSystem(gen, levels)
    for total in range(levels + 1):
        for s in range(total + 1):
            k, peak = traced_peak(lambda: ps.tensor(s, total - s).matrix)
            assert peak < 64 * 2**20, (s, total - s)
            assert len(k) == want[total], (s, total - s)


def test_powers_of_scalar_plane():
    ps = ProductSystem(plane_correspondence(), 4)
    assert [ps.power(n).dim for n in range(5)] == [1, 2, 4, 8, 16]
    assert ps.coherence_report().passed


def test_powers_of_algebra_are_multiplication():
    alg = make_algebra([1, 2])
    ps = ProductSystem(algebra_correspondence(alg), 3)
    assert all(ps.power(n).dim == alg.dim for n in range(4))
    assert ps.coherence_report().passed
    rng = np.random.default_rng(0)
    a, b = random_element(alg, rng, 0.5), random_element(alg, rng, 0.5)
    # the canonical identification with the algebra factor is multiplication
    fm01 = ps.tensor(0, 1)
    image = ps.u(0, 1) @ fm01.matrix @ np.kron(alg.coords(a), alg.coords(b))
    assert max_dev(image, alg.coords(a @ b)) < TOL
    # at level two, the class of a (x) b depends on the product only
    fm = ps.tensor(1, 1)
    balanced = fm.matrix @ np.kron(alg.coords(a), alg.coords(b))
    moved = fm.matrix @ np.kron(alg.coords(alg.unit), alg.coords(a @ b))
    assert max_dev(balanced, moved) < TOL


def test_powers_of_block_swap_stay_two_dimensional():
    swap = block_swap_correspondence()
    ps = ProductSystem(swap, 4)
    assert [ps.power(n).dim for n in range(5)] == [2, 2, 2, 2, 2]
    pre = oracle_pre_gram(swap, swap)
    assert oracle_rank(oracle_scalarized(swap.algebra, pre)) == 2


def test_budget_exceeded():
    with pytest.raises(ResourceBudgetError) as err:
        ProductSystem(plane_correspondence(), 4, budget=8)
    assert err.value.required == 16


def test_assoc_reuses_collapsed_bracketing_within_budget(monkeypatch):
    """The coherence sweep reads the pair tensors ``E_s . E_t`` with
    ``s + t <= L`` and nothing else: every one of them is read by the
    identification checks anyway, so the sweep can raise no budget error
    that building the identifications would not."""
    levels = 4
    read, tensor = set(), ProductSystem.tensor
    monkeypatch.setattr(ProductSystem, "tensor", lambda ps, s, t: read.add((s, t)) or tensor(ps, s, t))
    ps = ProductSystem(plane_correspondence(), levels)
    assert ps.coherence_report().passed
    assert read == {(s, t) for s in range(levels + 1) for t in range(levels + 1 - s)}
    # the largest pair carrier, 4 x 4 = 16, is budget enough for the whole sweep
    ps = ProductSystem(plane_correspondence(), levels, budget=16)
    assert ps.coherence_report().passed
    with pytest.raises(ResourceBudgetError):
        ps.tensor(3, 3)


@pytest.mark.parametrize("rst", [(1, 1, 2), (3, 1, 0), (0, 3, 0), (-1, 1, 1), (1, 0, -1)])
def test_assoc_outside_truncation_is_a_precondition_error(rst):
    ps = ProductSystem(plane_correspondence(), 2)
    with pytest.raises(PreconditionError):
        ps.rebracket(*rst)
    rep = VerificationReport("rebracket")
    check_map(rep, ps.rebracket(1, 1, 1), internal_tensor(ps.power(1), ps.power(2))[0],
              internal_tensor(ps.power(2), ps.power(1))[0], TOL,
              {"gram": "gram", "unitary": "unitary", "bilinear": "bilinear"})
    assert rep.passed


def _old_rebracket(ps, r, s, t):
    """The rebracketing as the associator route built it: realize both
    bracketings of ``E_r . E_s . E_t``, then ``(u(r,s) . id) a^-1
    (id . u(s,t))^-1``."""
    a = associator(ps.power(r), ps.power(s), ps.power(t), ps.tol,
                   ef=internal_tensor(ps.power(r), ps.power(s)),
                   fg=internal_tensor(ps.power(s), ps.power(t)))
    to_right = tensor_lift(ps.u(s, t), a.right_factor, ps.tensor(r, s + t), side="right")
    to_left = tensor_lift(ps.u(r, s), a.left_factor, ps.tensor(r + s, t), side="left")
    return to_left @ np.linalg.inv(to_right @ a.matrix)


@pytest.mark.parametrize("gen, levels", [(small_generator(k), 3) for k in range(4)] + [
    (plane_correspondence(), 4), (doubled_swap_correspondence(), 3)],
    ids=[f"seed{k}" for k in range(4)] + ["plane", "doubled-swap"])
def test_rebracket_matches_the_associator_route(gen, levels):
    ps = ProductSystem(gen, levels)
    for r in range(levels + 1):
        for s in range(levels + 1 - r):
            for t in range(levels + 1 - r - s):
                got = ps.rebracket(r, s, t)
                assert max_dev(got, _old_rebracket(ps, r, s, t)) < 1e-12, (r, s, t)


@pytest.mark.parametrize("gen, levels", [
    (plane_correspondence(), 4), (doubled_swap_correspondence(), 3), (ladder_e1([3]), 4)],
    ids=["plane", "doubled-swap", "m9-ladder"])
def test_rebracket_skips_only_exact_identities(gen, levels):
    """``rebracket`` takes the section alone for ``t = 1 <= s`` and ``K(r, 1)``
    alone for ``s = 1 <= r``, where ``u(s, 1)`` and ``u(r, 1)`` are exact
    identities: ``I @ X`` is exact, so every rebracketing is bitwise the
    composition with them."""
    ps = ProductSystem(gen, levels)
    for r in range(levels + 1):
        for s in range(levels + 1 - r):
            for t in range(levels + 1 - r - s):
                full = _rebracket(ps.tensor(r, s + t), ps.tensor(s, t).section @ ps.uinv(s, t),
                                  ps.u(r, s) @ ps.tensor(r, s).matrix, ps.tensor(r + s, t), "right")
                assert np.array_equal(ps.rebracket(r, s, t), full), (r, s, t)


def test_product_system_holds_powers_factors_and_identifications():
    """After the coherence sweep the product system holds the powers, the
    corner factors ``K(n-1, 1)`` that place them, and ``u(s,t)`` (but the
    identities ``u(s,1)``): no other pair's ``K``, no section, no inverse
    identification and no pair module.  A factor map forms its section, and
    one not held its ``K``, from the two powers when read, bitwise the same
    array on every read; ``uinv`` is formed when read, the exact identity for
    ``t = 1 <= s``."""
    levels = 3
    ps = ProductSystem(small_generator(3), levels)
    assert ps.coherence_report().passed
    pairs = {(s, t) for s in range(levels + 1) for t in range(levels + 1 - s)}
    assert set(vars(ps)) == {"algebra", "generator", "levels", "tol", "budget",
                             "powers", "_tensors", "_u"}
    assert set(ps._tensors) == {(n - 1, 1) for n in range(2, levels + 1)}
    # u(s, 1) for s >= 1 is the identity onto the power E_{s+1}, formed where read
    assert set(ps._u) == {(s, t) for s, t in pairs if not (t == 1 and s)}
    closure = lambda fn: sorted(id(cell.cell_contents) for cell in fn.__closure__)
    for s, t in pairs:
        fm, powers = ps.tensor(s, t), sorted(map(id, (ps.power(s), ps.power(t))))
        assert set(vars(fm)) == {"form_matrix", "source_dims", "form_section"}
        assert closure(fm.form_section) == powers
        assert fm.section is not fm.section
        if (s, t) in ps._tensors:
            assert fm is ps.tensor(s, t) and fm.matrix is fm.matrix
        else:
            assert fm is not ps.tensor(s, t) and closure(fm.form_matrix) == powers
            assert fm.matrix is not fm.matrix and np.array_equal(fm.matrix, ps.tensor(s, t).matrix)
    uinv = ps.uinv(1, 2)
    assert uinv is not ps.uinv(1, 2)
    dim = internal_tensor(ps.power(1), ps.power(2))[0].dim
    assert max_dev(uinv @ ps.u(1, 2), np.eye(dim)) < TOL
    for s in range(1, levels):
        assert np.array_equal(ps.u(s, 1), np.eye(ps.power(s + 1).dim))
        assert np.array_equal(ps.uinv(s, 1), np.eye(ps.power(s + 1).dim))


def test_swept_plane_product_system_holds_under_1_85_mib():
    """``E_1 = C^2`` over C at levels 6 after the coherence sweep: the powers,
    the placing ``K(n-1, 1)`` and the identifications take about 1.7 MiB as
    ``tracemalloc`` sees them; holding every pair's ``K`` took 2.2 MiB, of
    which the ``(2^n, 2^n)`` factors of the pairs with ``s + t = n`` grow as 4^n."""
    gen = plane_correspondence()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ps = ProductSystem(gen, 6)
        assert ps.coherence_report().passed
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 1.85 * 2**20, held / 2**20


@pytest.mark.parametrize("blocks", [[1], [2], [1, 1], [1, 2]], ids=lambda b: "-".join(map(str, b)))
def test_uinv_inverts_u_on_non_whitened_generators(blocks, monkeypatch):
    """On seeded generators in a skew carrier basis, ``uinv(s,t) u(s,t) = I =
    u(s,t) uinv(s,t)`` for every pair at levels 4, and ``uinv`` is formed with
    no linear solve and without placing the pair module; the powers' placed
    scalar-Gram inverses are the inverses of their scalar Grams."""
    import corrkit.prodsys as prodsys

    levels = 4
    ps = ProductSystem(skew_correspondence(blocks, 0), levels)
    placed = []
    monkeypatch.setattr(prodsys, "_tensor_module", lambda e, f: placed.append((e, f)))
    monkeypatch.setattr(np.linalg, "solve", lambda *args: pytest.fail("solve taken"))
    for s in range(levels + 1):
        for t in range(levels + 1 - s):
            u, uinv = ps.u(s, t), ps.uinv(s, t)
            assert max_dev(uinv @ u, np.eye(u.shape[1])) < 1e-12, (s, t)
            assert max_dev(u @ uinv, np.eye(len(u))) < 1e-12, (s, t)
    assert placed == []
    for n in range(2, levels + 1):
        en = ps.power(n)
        assert max_dev(en._scalar_inv, np.linalg.inv(en.scalar_gram)) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_coherence_on_seeded_generators(seed):
    ps = ProductSystem(small_generator(seed), 3)
    rep = ps.coherence_report()
    assert rep.passed and max_deviation(rep) < TOL


def _non_bilinear(u):
    """``u`` followed by a seeded unitary of the whitened ``E_3``: still unitary
    on its scalar Gram, but commuting with neither action of M_2."""
    return random_unitary(np.random.default_rng(5), len(u)) @ u


def _with_nan(u):
    u = u.copy()
    u[0, 0] = np.nan
    return u


@pytest.mark.parametrize("fault, family", [
    (lambda u: u * (1 + 1e-6), "gram"), (_non_bilinear, "bilinear"), (_with_nan, "unitary")],
    ids=["scaled", "non-bilinear", "nan"])
def test_faulty_identification_fails_its_own_family(fault, family, monkeypatch, tmp_path):
    """Fault witness for ``identification[s,t]-*``: ``u(1,2)`` of the shipped
    M_2 generator, scaled by 1 + 1e-6, composed with a non-bilinear unitary,
    or with a NaN entry when it is built, fails ``identification[1,2]-<family>``
    and no check outside ``identification[1,2]-*``; ``derive-ps`` exits 1, and
    no check whose deviation is NaN passes."""
    import json
    from pathlib import Path

    from corrkit.cli import EXIT_FAIL, main

    built = ProductSystem.u

    def faulty(ps, s, t):
        if (s, t) == (1, 2) and (1, 2) not in ps._u:
            ps._u[1, 2] = fault(built(ps, 1, 2))
        return built(ps, s, t)

    monkeypatch.setattr(ProductSystem, "u", faulty)
    path = Path(__file__).resolve().parent.parent / "instances" / "correspondence-seed1.json"
    out = tmp_path / "out.json"
    argv = ["derive-ps", str(path), "--levels", "3", "--report", "machine", "--out", str(out)]
    assert main(argv) == EXIT_FAIL
    checks = json.loads(out.read_text())["checks"]
    failed = {c["name"] for c in checks if not c["passed"]}
    assert f"identification[1,2]-{family}" in failed
    assert all(name.startswith("identification[1,2]-") for name in failed), failed
    assert not any(c["passed"] for c in checks if c["deviation"] == "nan")


def _plane_units():
    return plane_correspondence(), 6, [np.array([1.0, 0.0]), np.array([0.0, np.exp(0.3j)])]


def _conjugated_swap_units():
    basis = random_unitary(np.random.default_rng(8), 4)
    units = [basis.conj().T @ np.array(v, dtype=complex) for v in ([1, 1, 0, 0], [0, 0, 1, 1])]
    return conjugated(doubled_swap_correspondence(), basis), 4, units


def _placed_modules(monkeypatch) -> list:
    """Weak references to every module that ``_tensor_module`` places from now on."""
    import corrkit.hilbmod as hilbmod
    import corrkit.prodsys as prodsys

    real, placed = hilbmod._tensor_module, []

    def recorded(e, f):
        placed.append(weakref.ref(mod := real(e, f)))
        return mod

    for module in (hilbmod, prodsys):
        monkeypatch.setattr(module, "_tensor_module", recorded)
    return placed


def _assert_only_powers_alive(placed: list, ps: ProductSystem) -> None:
    gc.collect()
    alive = {id(ref()) for ref in placed if ref() is not None}
    assert alive == {id(ps.power(n)) for n in range(2, ps.levels + 1)}


@pytest.mark.parametrize("read", [
    lambda ps, xi1, xi2: ps.coherence_report(),
    lambda ps, xi1, xi2: check_unit(ps, xi1),
    compare_unit_limits,
], ids=["sweep", "check-unit", "compare-units"])
@pytest.mark.parametrize("case", [_plane_units, _conjugated_swap_units], ids=["plane", "swap"])
def test_only_powers_outlive_a_unit_route(case, read, monkeypatch):
    """A pair module is placed where it is read, by the identification checks
    (``uinv`` places none), and is not held: after the coherence sweep, the
    unit checks (the route of ``dilate`` and ``spatial``) or the comparison of
    two units, of the modules ``_tensor_module`` placed only the powers
    ``E_2 .. E_L`` are alive."""
    placed = _placed_modules(monkeypatch)
    gen, _, units = case()
    ps = ProductSystem(gen, 4)
    read(ps, *units)
    _assert_only_powers_alive(placed, ps)


def test_only_powers_outlive_verify_main(monkeypatch):
    placed = _placed_modules(monkeypatch)
    inst = inner_two_block_instance()
    pipe = DilationPipeline(inst.eplus, inst.endo, levels=4)
    assert verify_main(pipe).status == "pass"
    ps = pipe.ps()
    del pipe  # with its stages and their modules
    _assert_only_powers_alive(placed, ps)


def test_budget_error_repeats_after_a_stopped_sweep(monkeypatch):
    """A sweep stopped by the budget can be run again and stops the same way;
    the budget is checked before the pair's factor map or module is formed,
    and forming a factor map places no module."""
    import corrkit.prodsys as prodsys

    ps = ProductSystem(plane_correspondence(), 4)
    ps.budget = 8
    formed = []
    for name in ("_tensor_factor", "_tensor_module"):
        real = getattr(prodsys, name)
        monkeypatch.setattr(prodsys, name,
                            lambda e, f, real=real, name=name: formed.append((name, e, f)) or real(e, f))
    for _ in range(2):
        with pytest.raises(ResourceBudgetError, match=r"E_0\.E_4 needs dimension 16 > budget 8"):
            ps.coherence_report()
    assert not any(e is ps.power(0) and f is ps.power(4) for _, e, f in formed)
    del formed[:]
    ps.tensor(1, 2)
    assert [name for name, _, _ in formed] == ["_tensor_factor"]


@pytest.mark.parametrize("case", [_plane_units, _conjugated_swap_units], ids=["plane", "swap"])
def test_unit_reports_do_not_depend_on_reading_verification(case):
    gen, levels, (xi1, xi2) = case()

    def reports(ps):
        return [
            compare_unit_limits(ps, xi1, xi2).report.to_machine(),
            compare_unit_limits(ps, xi1, xi1).report.to_machine(),
            check_unit(ps, xi1).to_machine(),
            check_unit(ps, xi2).to_machine(),
        ]

    swept = ProductSystem(gen, levels)
    assert swept.coherence_report().passed
    assert reports(swept) == reports(ProductSystem(gen, levels))


def test_check_unit_identity():
    alg = make_algebra([1, 2])
    ps = ProductSystem(algebra_correspondence(alg), 4)
    rep = check_unit(ps, alg.coords(alg.unit))
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert "unitality-level-4" in names
    assert "centrality-level-4" in names


def test_check_unit_plane_vector():
    ps = ProductSystem(plane_correspondence(), 4)
    xi = np.array([1.0, 0.0])
    rep = check_unit(ps, xi)
    assert rep.passed
    unit = derive_unit(ps, xi)
    e2 = ps.power(2)
    assert max_dev(e2.inner(unit.levels[2], unit.levels[2]), np.eye(1)) < TOL


def test_check_unit_scaled_fails_unitality():
    ps = ProductSystem(plane_correspondence(), 3)
    rep = check_unit(ps, np.array([2.0, 0.0]))
    failed = {c.name for c in rep.failed_checks()}
    assert "unitality-level-1" in failed
    level1 = next(c for c in rep.checks if c.name == "unitality-level-1")
    assert abs(level1.deviation - 3.0) < 1e-12   # <xi, xi> = 4


def test_central_unit_of_algebra():
    alg = make_algebra([1, 2])
    search = find_central_unital_unit(algebra_correspondence(alg))
    assert search.status == "found"
    assert search.residuals["unitality"] < TOL
    assert search.residuals["centrality"] < TOL


def test_central_unit_of_plane():
    search = find_central_unital_unit(plane_correspondence())
    assert search.status == "found"


def test_central_unit_none_for_block_swap():
    swap = block_swap_correspondence()
    search = find_central_unital_unit(swap)
    assert search.status == "none-exists"
    assert search.certificate == "central-subspace-trivial"
    # oracle: the stacked constraint has trivial kernel
    stacked = np.concatenate(
        [swap.left_action[c] - swap.right_action[c] for c in range(swap.algebra.dim)]
    )
    assert null_space(stacked).shape[1] == 0


def test_central_unit_none_when_block_gram_vanishes():
    # one-dimensional central subspace whose length misses a block
    alg = make_algebra([1, 1])
    right = np.zeros((2, 1, 1), dtype=complex)
    right[0, 0, 0] = 1.0
    gram = np.zeros((1, 1, 2, 2), dtype=complex)
    gram[0, 0, 0, 0] = 1.0
    f = Correspondence(alg, right, gram, right.copy())
    search = find_central_unital_unit(f)
    assert search.status == "none-exists"
    assert "vanishes" in search.certificate or "zero-length" in search.certificate


def _trace_rank_modules():
    """The gallery's modules and correspondences, the generated profiles at
    seeds 0-3, the ``E_1`` of every endomorphism among them, and the realized
    square of every correspondence."""
    out = {"block-swap": block_swap_correspondence(), "plane": plane_correspondence(),
           "doubled-swap": doubled_swap_correspondence(), "triple-copy": triple_copy()}
    endos = [(inst.name, inst.eplus, inst.endo) for inst in endomorphism_gallery()]
    out.update((name, eplus) for name, eplus, _ in endos)
    for seed in range(4):
        for profile in PROFILES:
            inst = generate_instance(seed, profile)
            out.update((f"{profile}-{seed}-{k}", v) for k, v in inst.modules.items())
            if inst.endomorphism is not None:
                endos.append((f"{profile}-{seed}", *inst.make_endo()))
    for name, eplus, endo in endos:
        out[f"{name}-E1"] = associated_correspondence(eplus, endo, 1).corr
    for name, e in list(out.items()):
        if e.is_correspondence:
            out[f"{name}^2"] = ProductSystem(e, 2).power(2)
    return out


def test_trace_ranks_match_the_oracle_ranks():
    """On every module at hand the Gram factor keeps ``P_b = tr R(e^b_00)`` rows,
    the rank of the block Gram, and rebuilds the Gram; on every correspondence
    the central subspace has the dimension of the kernel of the stacked
    ``L(b) - R(b)`` by an SVD rank with an absolute floor, and its Haar average
    is an idempotent."""
    modules = _trace_rank_modules()
    assert len(modules) > 60
    for name, e in modules.items():
        alg, m = e.algebra, e.dim
        for w, sl, units, nb in zip(e._gram_factor, alg.block_slices, alg.unit_slices, alg.blocks):
            block = e.gram[:, :, sl, sl]
            assert len(w) == round(np.trace(e.right_action[units.start]).real), name
            assert len(w) == oracle_rank(block.transpose(0, 2, 1, 3).reshape(m * nb, m * nb)), name
            assert max_dev(np.einsum("pia,pkc->ikac", w.conj(), w), block) < 1e-12, name
        if not e.is_correspondence:
            continue
        # oracle: singular values above 1e-9 times the size of the actions
        stacked = (e.left_action - e.right_action).reshape(alg.dim * m, m)
        sv = np.linalg.svd(stacked, compute_uv=False)
        floor = 1e-9 * max(np.abs(e.left_action).max(), np.abs(e.right_action).max())
        dim = find_central_unital_unit(e).residuals["central-dimension"]
        assert dim == m - np.sum(sv > floor), name
        weights = [1.0 / n for n in alg.blocks for _ in range(n * n)]
        haar = sum(w * e.left_action[c] @ e.right_action[alg.star_index[c]]
                   for c, w in enumerate(weights))
        assert max_dev(haar @ haar, haar) < 1e-12, name


def test_cp_of_central_unit_is_identity():
    alg = make_algebra([1, 2])
    e1 = algebra_correspondence(alg)
    search = find_central_unital_unit(e1)
    fam = cp_of_unit(ProductSystem(e1, 3), search.vector)
    assert fam.report.passed
    for cp in fam.maps:
        assert max_dev(cp.matrix, np.eye(alg.dim)) < TOL


def test_cp_scalar_scaling():
    e1 = plane_correspondence()
    xi = np.array([0.6, 0.8j])
    fam = cp_of_unit(ProductSystem(e1, 3), xi)
    norm = 0.6**2 + 0.8**2
    for cp in fam.maps:
        assert abs(cp.matrix[0, 0] - norm**cp.level) < 1e-12


@pytest.mark.parametrize("blocks", [[1], [2], [1, 2], [2, 3, 1]])
def test_choi_matrix_matches_the_kron_loop(blocks):
    """The Choi matrix written blockwise equals the sum of ``kron(e_rc, T(e_rc))``
    over the matrix units, entry for entry."""
    alg = make_algebra(blocks)
    rng = np.random.default_rng(sum(blocks))
    tmat = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim))
    rows, cols = alg.basis_positions
    ref = np.zeros((alg.size ** 2, alg.size ** 2), dtype=complex)
    for k in range(alg.dim):
        unit = np.zeros((alg.size, alg.size))
        unit[rows[k], cols[k]] = 1.0
        ref += np.kron(unit, alg.from_coords(tmat[:, k]))
    assert np.array_equal(choi_matrix(alg, tmat), ref)


@pytest.mark.parametrize("seed", range(4))
def test_cp_seeded_choi_and_semigroup(seed):
    rng = np.random.default_rng(400 + seed)
    alg = make_algebra([1, 2])
    e1 = algebra_correspondence(alg)
    xi = rng.standard_normal(e1.dim) + 1j * rng.standard_normal(e1.dim)
    fam = cp_of_unit(ProductSystem(e1, 3), xi / 4.0)
    assert fam.report.passed
    # independent composition oracle
    ps = ProductSystem(e1, 1)
    t1 = unit_cp_matrix_level(ps, derive_unit(ps, xi / 4.0), 1)
    assert max_dev(fam.maps[2].matrix, t1 @ t1 @ t1) < TOL
    for cp in fam.maps:
        eigs = np.linalg.eigvalsh((cp.choi + cp.choi.conj().T) / 2.0)
        assert eigs.min() >= -TOL * max(1.0, eigs.max())


def test_levels_must_be_positive():
    with pytest.raises(PreconditionError):
        ProductSystem(plane_correspondence(), 0)
