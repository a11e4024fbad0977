"""Truncated inductive limits and the unitary dilation of an endomorphism.

Two staged limits are built over the product system of an endomorphism: the
right-sided one along a unital unit (embedding ``x -> xi_1 . x``), whose
stages carry the compressed semigroup, and the left-sided one along a
central unital unit (embedding ``x -> x . omega_1``), whose embeddings are
bilinear so the stages form correspondences.  On the doubled module
``E+ . E_-`` the staged unitaries

    ``W_t : E+ . E_{t+m} -> E+ . E_m,   x . (y_t . z) -> u_t(x . y_t) . z``

move a time-``t`` factor from the left-limit side to the module side.  The
central verification is the restriction identity
``W_t (a . id) W_t* = theta^t(a) . id`` on every stage, together with the
semigroup law, embedding compatibility, and stage-wise injectivity of
``a -> a . id``.  An identity "holds in the limit" exactly when it holds on
every stage within budget and commutes with the embeddings; degenerate
verdicts (non-spatial, unknown) are first-class outcomes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL
from .endo import (
    ActionStage,
    AssociatedCorrespondence,
    Endomorphism,
    associated_correspondence,
    find_intertwining_isometry,
    isometry_from_unit,
    u_unitary,
    validate_endomorphism,
)
from .errors import PreconditionError
from .hilbmod import (
    ModulePresentation,
    _dev,
    _range_basis,
    _rebracket,
    _unitary_dev,
    amplify,
    check_map,
    fullness_check,
    internal_tensor,
    left_faithful_check,
    map_adjoint,
    matrix_rank_tol,
    rank_one,
    rank_one_stack,
    right_unitor,
    tensor_lift,
    tensor_vector,
    validate_module,
)
from .prodsys import (
    DEFAULT_BUDGET,
    CentralUnitSearch,
    ProductSystem,
    Unit,
    check_unit,
    cp_checks,
    derive_unit,
    find_central_unital_unit,
    unit_cp_matrix_level,
)
from .report import NOT_APPLICABLE, VerificationReport, _worst


# ---------------------------------------------------------------------------
# truncated inductive limits
# ---------------------------------------------------------------------------

@dataclass
class TruncatedLimit:
    ps: ProductSystem
    unit: Unit
    embeddings: list[np.ndarray]   # stage n -> n+1
    report: VerificationReport


def right_limit(ps: ProductSystem, xi1: np.ndarray) -> TruncatedLimit:
    """Stage the limit along a unital unit with embeddings ``x -> xi . x``.

    Verifies that every embedding is an isometry preserving the
    algebra-valued inner product, that the distinguished vectors cohere,
    that the identifications commute with the embeddings, and that the
    lifted projections ``xi_s xi_s* . id`` dominate ``xi_{s+t} xi_{s+t}*``.
    """
    tol = ps.tol
    unit = derive_unit(ps, xi1)
    if not unit.unital:
        raise PreconditionError(
            f"unit is not unital (deviation {unit.unitality_deviation:.3e})"
        )
    rep = VerificationReport("right limit", provenance={"levels": ps.levels})
    embeddings = _limit_embeddings(ps, unit, "right", rep)
    _limit_squares(ps, embeddings, "right", rep)
    projs = [rank_one(ps.power(n), v, v) for n, v in enumerate(unit.levels)]
    for s in range(1, ps.levels):
        for t in range(1, ps.levels + 1 - s):
            lifted = stage_shift(ps, projs[s], s, t)
            rep.add(f"increasing-projection[{s},{t}]",
                    ps.power(s + t).positivity_defect(lifted - projs[s + t]), tol)
    _stage_endomorphism_checks(ps, rep)
    return TruncatedLimit(ps, unit, embeddings, rep)


def stage_shift(ps: ProductSystem, a: np.ndarray, n: int, t: int = 1) -> np.ndarray:
    """The staged endomorphism ``a -> a . id``: move an operator (or a stack
    of them) on the n-th power to the (n+t)-th power through the
    identification."""
    return ps.u(n, t) @ amplify(a, ps.tensor(n, t), side="left") @ ps.uinv(n, t)


def _stage_endomorphism_checks(ps: ProductSystem, rep: VerificationReport) -> None:
    """Two single steps of ``a -> a . id`` agree with one double step."""
    for n in range(ps.levels - 1):
        en = ps.power(n)
        # every basis rank-one operator e_i e_j*
        a = rank_one_stack(en).reshape(-1, en.dim, en.dim)
        stepwise = stage_shift(ps, stage_shift(ps, a, n), n + 1)
        rep.add(
            f"stage-endomorphism-coherence[{n}]", _dev(stepwise, stage_shift(ps, a, n, 2)), ps.tol
        )


def _limit_embeddings(
    ps: ProductSystem, unit: Unit, side: str, rep: VerificationReport | None = None
) -> list[np.ndarray]:
    """The embeddings of stage n into stage n + 1 of the limit along ``unit``:
    ``x -> xi . x`` through ``u(1,n)`` (``side="right"``) or ``x -> x . omega``
    through ``u(n,1)`` (``side="left"``).  With ``rep``, each is checked as an
    isometry preserving the Gram (on the left also bilinear) that carries the
    unit's level n to level n + 1."""
    props = {"isometry": "isometry", "gram": "gram"}
    if side == "left":
        props["left-linear"] = "bilinear"
    out = []
    for n in range(ps.levels):
        pair = (1, n) if side == "right" else (n, 1)
        j = ps.u(*pair) @ tensor_vector(ps.tensor(*pair), unit.vector, side)
        if rep is not None:
            check_map(rep, j, ps.power(n), ps.power(n + 1), ps.tol,
                      {p: f"{side}-embedding-{name}[{n}]" for p, name in props.items()})
            rep.add(f"{side}-vector-coherence[{n}]",
                    _dev(j @ unit.levels[n], unit.levels[n + 1]), ps.tol)
        out.append(j)
    return out


def _limit_squares(
    ps: ProductSystem, embeddings: list[np.ndarray], side: str, rep: VerificationReport
) -> None:
    """The identifications commute with the embeddings ``j`` on ``E_a . E_b``:
    ``u(a+1,b) (j_a . id) = j_{a+b} u(a,b)`` for the right limit
    (``right-factorization-square[a,b]``, ``b >= 1``) and
    ``u(a,b+1) (id . j_b) = j_{a+b} u(a,b)`` for the left one
    (``left-embedding-square[a,b]``, ``a >= 1``)."""
    left = side == "left"
    name = "left-embedding-square" if left else "right-factorization-square"
    for a in range(int(left), ps.levels):
        for b in range(int(not left), ps.levels - a):
            n, cod = (b, (a, b + 1)) if left else (a, (a + 1, b))
            lifted = tensor_lift(embeddings[n], ps.tensor(a, b), ps.tensor(*cod),
                                 side="right" if left else "left")
            rep.add(f"{name}[{a},{b}]",
                    _dev(ps.u(*cod) @ lifted, embeddings[a + b] @ ps.u(a, b)), ps.tol)


def left_limit(ps: ProductSystem, omega1: np.ndarray) -> TruncatedLimit:
    """Stage the limit along a central unital unit, ``x -> x . omega``.

    Centrality makes every embedding bilinear, so the staged limit is a
    correspondence; the report also verifies ``<omega_n, b omega_n> = b``
    and left faithfulness at every stage.
    """
    tol = ps.tol
    unit = derive_unit(ps, omega1)
    if not (unit.unital and unit.central):
        raise PreconditionError(
            f"vector is not a central unital unit (unitality "
            f"{unit.unitality_deviation:.3e}, centrality {unit.centrality_deviation:.3e})"
        )
    rep = VerificationReport("left limit", provenance={"levels": ps.levels})
    embeddings = _limit_embeddings(ps, unit, "left", rep)
    for n in range(ps.levels + 1):
        en = ps.power(n)
        v = unit.levels[n]
        rep.add(f"central-vector-expectation[{n}]",
                _dev(en.inner(v, en.left_action @ v), ps.algebra.basis), tol)
        rep.add_flag(f"left-faithful[{n}]", left_faithful_check(en))
    _limit_squares(ps, embeddings, "left", rep)
    return TruncatedLimit(ps, unit, embeddings, rep)


# ---------------------------------------------------------------------------
# the module action of the product system and the staged unitaries
# ---------------------------------------------------------------------------

def stage_map(ps: ProductSystem, stages: list[ActionStage], t: int, m: int) -> np.ndarray:
    """The map ``E+ . E_{t+m} -> E+ . E_m`` given by ``(u_t . id)(id . u(t,m)^-1)``,
    composed on the triple carrier between the stages ``t + m`` and ``m``; the
    exact identity ``u(t, 1)^-1`` (``t >= 1``) is not multiplied."""
    expand = ps.tensor(t, m).section
    return _rebracket(
        stages[t + m].factor, expand if m == 1 <= t else expand @ ps.uinv(t, m),
        stages[t].u @ stages[t].factor.matrix, stages[m].factor, "right",
    )


def build_action_stages(pipe: DilationPipeline) -> tuple[list[ActionStage], VerificationReport]:
    """Iterate the action unitary along the realized powers.

    Stage 0 is the canonical identification with the algebra factor; stage 1
    is built from the defining formula; stage ``t`` realizes ``E+ . E_t`` and
    peels one generator factor, ``u_t = u_1 stage_map(t - 1, 1)``.  The
    recovery identity ``theta^t(a) = u_t (a . id) u_t*`` is verified at every
    stage.
    """
    eplus, endo, tol = pipe.eplus, pipe.endo, pipe.tol
    ps = pipe.ps()
    rep = VerificationReport("module action of the product system")
    t0, f0 = internal_tensor(eplus, ps.power(0))
    lift = lambda fm: amplify(endo.op_stack, fm, side="left")
    stages = [ActionStage(0, t0, f0, right_unitor(eplus, f0), lift(f0))]
    stage, stage_rep = u_unitary(eplus, endo, 1, pipe.e1(), tol)
    rep.extend(stage_rep)
    stages.append(stage)
    for t in range(2, ps.levels + 1):
        tensor, fm = internal_tensor(eplus, ps.power(t))
        stages.append(ActionStage(t, tensor, fm, None, lift(fm)))
        u_t = stages[t].u = stages[1].u @ stage_map(ps, stages, t - 1, 1)
        adj = check_map(rep, u_t, tensor, eplus, tol, {
            "unitary": f"action-unitary[{t}]", "gram": f"action-isometric[{t}]"})
        rep.add(f"recovery-identity[{t}]",
                _dev(u_t @ stages[t].ops @ adj, endo.image_ops(t)), tol)
    return stages, rep


@dataclass
class StagedUnitary:
    """Family ``W_t^{(m)} : E+ . E_{t+m} -> E+ . E_m`` for one time step, with adjoints."""

    t: int
    blocks: dict[int, np.ndarray]
    adjoints: dict[int, np.ndarray]


def build_w(pipe: DilationPipeline) -> tuple[dict[int, StagedUnitary], VerificationReport]:
    """Assemble and verify the staged unitaries of the dilation.

    ``W_t^(m)`` is :func:`stage_map`: the inverse identification on the
    left-limit side, then the lifted action unitary.  Verified: unitarity,
    ``W_0 = id``, commutation with the bilinear embeddings on both sides, and
    the semigroup law on all stage-compatible domains.
    """
    ps, left, stages = pipe.ps(), pipe.left(), pipe.stages()[0]
    n_levels, tol = ps.levels, pipe.tol
    rep = VerificationReport("staged unitaries", provenance={"levels": n_levels})
    w: dict[int, StagedUnitary] = {}
    for t in range(n_levels + 1):
        blocks, adjoints = {}, {}
        for m in range(n_levels + 1 - t):
            wtm = blocks[m] = stage_map(ps, stages, t, m)
            dom = stages[t + m].tensor
            adjoints[m] = check_map(rep, wtm, dom, stages[m].tensor, tol,
                                    {"unitary": f"w-unitary[{t},{m}]"})
            if t == 0:
                rep.add(f"w-identity[{m}]", _dev(wtm, np.eye(dom.dim)), tol)
        w[t] = StagedUnitary(t, blocks, adjoints)

    embeds = {
        m: tensor_lift(left.embeddings[m], stages[m].factor, stages[m + 1].factor, side="right")
        for m in range(n_levels)
    }
    for t in range(1, n_levels):
        for m in range(n_levels - t):
            rep.add(
                f"w-embedding-square[{t},{m}]",
                _dev(w[t].blocks[m + 1] @ embeds[t + m], embeds[m] @ w[t].blocks[m]),
                tol,
            )
    for s in range(n_levels + 1):
        for t in range(n_levels + 1 - s):
            for m in range(n_levels + 1 - s - t):
                rep.add(
                    f"w-semigroup[{s},{t},{m}]",
                    _dev(w[s].blocks[m] @ w[t].blocks[s + m], w[s + t].blocks[m]),
                    tol,
                )
    return w, rep


# ---------------------------------------------------------------------------
# main pipeline
# ---------------------------------------------------------------------------

@dataclass
class DilationPipeline:
    """The full construction for one instance, built lazily.

    The pipeline is the one holder of a run's parameters (``levels``,
    ``tol``, ``budget``) and of its caches: every stage, limit and ``W_t``
    is built from these fields once, and every dilation entry
    point reads them from here.
    """

    eplus: ModulePresentation
    endo: Endomorphism
    levels: int = 4
    tol: float = DEFAULT_TOL
    budget: int = DEFAULT_BUDGET
    _cache: dict = field(default_factory=dict)

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def endomorphism_report(self) -> VerificationReport:
        """The endomorphism's validation, the gate of every dilation command."""
        return self._get("endo", lambda: validate_endomorphism(self.endo, self.tol))

    def e1(self) -> AssociatedCorrespondence:
        return self._get("e1", lambda: associated_correspondence(self.eplus, self.endo, 1, self.tol))

    def spatial(self) -> CentralUnitSearch:
        return self._get("spatial", lambda: find_central_unital_unit(self.e1().corr, self.tol))

    def ps(self) -> ProductSystem:
        return self._get(
            "ps", lambda: ProductSystem(self.e1().corr, self.levels, self.tol, self.budget)
        )

    def left(self) -> TruncatedLimit:
        search = self.spatial()
        if search.status != "found":
            raise PreconditionError(
                f"instance is non-spatial (central unit search: "
                f"{search.status}, {search.certificate})"
            )
        return self._get("left", lambda: left_limit(self.ps(), search.vector))

    def stages(self) -> tuple[list[ActionStage], VerificationReport]:
        return self._get("stages", lambda: build_action_stages(self))

    def w(self) -> tuple[dict[int, StagedUnitary], VerificationReport]:
        return self._get("w", lambda: build_w(self))

    def alpha(self, t: int, m: int, lifted_op: np.ndarray) -> np.ndarray:
        """Conjugate a stage-(t+m) operator (or a stack of them) down to
        stage m, with the adjoint of ``W_t`` that its unitarity check formed."""
        w = self.w()[0][t]
        return w.blocks[m] @ lifted_op @ w.adjoints[m]


def _certified_non_spatial(rep: VerificationReport, search: CentralUnitSearch) -> bool:
    """Whether the search certified that no central unital unit exists; if so,
    ``rep`` records it and gets the ``not-applicable`` verdict."""
    if search.status != "none-exists":
        return False
    rep.add_flag("spatiality-certified-none", True)
    rep.set_status(NOT_APPLICABLE, f"not applicable (non-spatial); {search.certificate}")
    return True


def verify_main(pipe: DilationPipeline) -> VerificationReport:
    """Full verification that the endomorphism semigroup extends to a
    semigroup of unitaries on the doubled module.

    Pipeline: associated correspondence, spatiality decision, left limit,
    staged unitaries; then the restriction identity
    ``W_t (a . id) W_t* = theta^t(a) . id`` for every basis operator at
    every stage, an independently composed rebracketing chain for the same
    identity, and stage-wise injectivity of ``a -> a . id``.  A certified
    non-spatial instance yields the ``not-applicable`` verdict.
    """
    eplus, endo, levels, tol = pipe.eplus, pipe.endo, pipe.levels, pipe.tol
    rep = VerificationReport(
        "main verification",
        provenance={"levels": levels, "budget": pipe.budget, "tol": tol},
    )
    rep.extend(pipe.endomorphism_report())
    rep.add_flag("module-full", fullness_check(eplus))
    rep.extend(validate_module(pipe.e1().corr, tol), prefix="associated-")

    search = pipe.spatial()
    if _certified_non_spatial(rep, search):
        return rep

    ps = pipe.ps()
    rep.extend(ps.coherence_report())
    rep.extend(check_unit(ps, search.vector))
    rep.extend(pipe.left().report)
    stages, stage_rep = pipe.stages()
    rep.extend(stage_rep)
    rep.extend(pipe.w()[1])

    for t in range(1, levels + 1):
        for m in range(levels + 1 - t):
            want = amplify(endo.image_ops(t), stages[m].factor, side="left")
            got = pipe.alpha(t, m, stages[t + m].ops)
            rep.add(f"restriction-identity[{t},{m}]", _dev(got, want), tol)
            rep.add(f"restriction-chain-agree[{t},{m}]",
                    _restriction_chain_dev(pipe, t, m, want), tol)

    for m in range(levels + 1):
        vecs = stages[m].ops.reshape(len(stages[m].ops), -1)
        rep.add_flag(f"amplification-injective[{m}]", matrix_rank_tol(vecs) == len(vecs))
    return rep


def _restriction_chain_dev(pipe: DilationPipeline, t: int, m: int, want: np.ndarray) -> float:
    """Independently compose ``(u_t . id)(a . id . id)(u_t . id)*`` on its own
    realization of ``(E+ . E_t) . E_m`` and compare it with ``want``, the
    stack ``theta^t(a) . id`` on stage ``m``: no ``W`` and no stage map
    enters, and it is the one three-fold bracketing a run realizes."""
    stages = pipe.stages()[0]
    left_mod, left_factor = internal_tensor(stages[t].tensor, pipe.ps().power(m))
    lout = tensor_lift(stages[t].u, left_factor, stages[m].factor, side="left")
    lout_adj = map_adjoint(lout, left_mod, stages[m].tensor)
    chain = lout @ amplify(stages[t].ops, left_factor, side="left") @ lout_adj
    return _dev(chain, want)


# ---------------------------------------------------------------------------
# weak dilations
# ---------------------------------------------------------------------------

@dataclass
class WeakDilation:
    ok: bool
    report: VerificationReport
    cp_matrices: list[np.ndarray]       # T_1 .. T_N in the matrix-unit basis
    unit: Unit                          # the candidate unit of E_1 and its powers
    # theta^t, t = 0..N, of the probes: the stack of p0 = xi xi* and the
    # corners xi b_c xi* of the algebra basis elements b_c
    probes: list[np.ndarray]


def weak_dilation_check(pipe: DilationPipeline, xi_plus: np.ndarray) -> WeakDilation:
    """Check the weak-dilation structure carried by a unit vector.

    Verifies that the vector projection is increasing, that the compressed
    maps form a unital CP semigroup with positive Choi matrices, and that
    the class of ``xi* (x) xi`` is a unital unit of the product system
    reproducing the compressions.
    """
    eplus, endo, levels, tol = pipe.eplus, pipe.endo, pipe.levels, pipe.tol
    xi_plus = np.asarray(xi_plus, dtype=complex)
    alg = eplus.algebra
    norm_dev = _dev(eplus.inner(xi_plus, xi_plus), alg.unit)
    if norm_dev > tol:
        raise PreconditionError(f"vector is not a unit vector (deviation {norm_dev:.3e})")
    rep = VerificationReport("weak dilation", provenance={"levels": levels})
    p0 = rank_one(eplus, xi_plus, xi_plus)
    # theta^t once per level, on p0 and the corners xi b xi* together
    probes = [np.stack([p0] + [rank_one(eplus, r @ xi_plus, xi_plus) for r in eplus.right_action])]
    tmats = []
    for t in range(1, levels + 1):
        moved = endo.apply(probes[0], t)
        probes.append(moved)
        rep.add(f"projection-increasing[{t}]", eplus.positivity_defect(moved[0] - p0), tol)
        # column c holds the coordinates of T_t(b_c) = <xi, theta^t(xi b_c xi*) xi>
        tmats.append(alg.coords(eplus.inner(xi_plus, moved[1:] @ xi_plus)).T)
    cp_checks(rep, alg, tmats, tol, unital=True)
    for s in range(1, levels + 1):
        for t in range(1, levels + 1 - s):
            rep.add(
                f"cp-semigroup[{s},{t}]",
                _dev(tmats[s - 1] @ tmats[t - 1], tmats[s + t - 1]),
                tol,
            )

    e1 = pipe.e1()
    xi1 = tensor_vector(e1.factor, xi_plus, "left") @ xi_plus.conj()
    rep.add("candidate-unit-norm", _dev(e1.corr.inner(xi1, xi1), alg.unit), tol)
    ps = pipe.ps()
    rep.extend(check_unit(ps, xi1))
    unit = derive_unit(ps, xi1)
    for t in range(1, levels + 1):
        rep.add(
            f"cp-compression-crosscheck[{t}]",
            _dev(unit_cp_matrix_level(ps, unit, t), tmats[t - 1]),
            tol,
        )
    return WeakDilation(rep.passed, rep, tmats, unit, probes)


def primary_span_ranks(pipe: DilationPipeline, xi_plus: np.ndarray) -> list[int]:
    """Ranks of the growing span of the moved projection ranges, at times
    ``0..pipe.levels``."""
    eplus, endo = pipe.eplus, pipe.endo
    p0 = rank_one(eplus, xi_plus, xi_plus)
    cols = []
    ranks = []
    for t in range(pipe.levels + 1):
        cols.append(endo.apply(p0, t) if t else p0)
        stacked = np.concatenate(cols, axis=1)
        ranks.append(matrix_rank_tol(stacked))
    return ranks


# ---------------------------------------------------------------------------
# vector expectation identities on the doubled module
# ---------------------------------------------------------------------------

def verify_supplement(pipe: DilationPipeline, xi_plus: np.ndarray) -> VerificationReport:
    """Verify the vector-expectation form of the dilation.

    On every stage the expectation at ``xi+ . omega_m`` of the extended
    semigroup reproduces the compression at ``xi+``, both on the operator
    basis and through the corner embedding ``b -> xi b xi* . id``; the
    filtration identity for the vector projection and the equivalence
    "extended projection increasing iff the unit pairings are the identity"
    are checked as well.
    """
    eplus, endo, levels, tol = pipe.eplus, pipe.endo, pipe.levels, pipe.tol
    wd = weak_dilation_check(pipe, xi_plus)
    if not wd.ok:
        failed = ", ".join(c.name for c in wd.report.failed_checks())
        raise PreconditionError(f"not a weak dilation: {failed}")
    rep = VerificationReport(
        "vector expectation verification",
        provenance={"levels": levels, "budget": pipe.budget, "tol": tol},
    )
    rep.extend(wd.report)

    if _certified_non_spatial(rep, pipe.spatial()):
        return rep

    rep.extend(verify_main(pipe))
    stages = pipe.stages()[0]
    omega = pipe.left().unit
    alg = eplus.algebra
    xi_plus = np.asarray(xi_plus, dtype=complex)

    p0, corners = wd.probes[0][0], wd.probes[0][1:]
    # the vector xi+ . omega_m on every stage, and its projection
    vs = [tensor_vector(stages[m].factor, omega.levels[m], "left") @ xi_plus
          for m in range(levels + 1)]
    projs = [rank_one(stages[m].tensor, v, v) for m, v in enumerate(vs)]
    for t in range(1, levels + 1):
        moved = endo.image_ops(t)
        moved_p0 = wd.probes[t][0]
        for m in range(levels + 1 - t):
            stage, v = stages[m], vs[m]
            lifted = amplify(moved, stage.factor, side="left")
            rep.add(
                f"expectation-identity[{t},{m}]",
                _dev(stage.tensor.inner(v, lifted @ v), eplus.inner(xi_plus, moved @ xi_plus)),
                tol,
            )
            lifted = pipe.alpha(t, m, amplify(corners, stages[t + m].factor, side="left"))
            lhs = alg.coords(stage.tensor.inner(v, lifted @ v))
            rep.add(f"dilation-diagram[{t},{m}]", _dev(lhs, wd.cp_matrices[t - 1].T), tol)
            filt = _dev(
                pipe.alpha(t, m, amplify(p0, stages[t + m].factor, side="left")),
                amplify(moved_p0, stage.factor, side="left"),
            )
            rep.add(f"filtration-projection[{t},{m}]", filt, tol)

    rep.extend(
        unit_pairing_check(pipe.ps(), wd.unit.vector, pipe.spatial().vector),
        prefix="pairing.",
    )

    # the extended vector projection increases exactly when the two unit
    # projections coincide levelwise; a unit pairing forces that outright
    # (the pairing itself is only determined up to a central unitary)
    for t in range(1, levels + 1):
        et = pipe.ps().power(t)
        pairing = et.inner(omega.levels[t], wd.unit.levels[t])
        pairing_is_unit = _dev(pairing, alg.unit) <= tol
        p_xi = rank_one(et, wd.unit.levels[t], wd.unit.levels[t])
        p_om = rank_one(et, omega.levels[t], omega.levels[t])
        projections_match = _dev(p_xi, p_om) <= tol
        worst = _worst([stages[m].tensor.positivity_defect(pipe.alpha(t, m, p_tm) - projs[m])
                        for m, p_tm in enumerate(projs[t:])])
        rep.add_flag(
            f"alpha-increasing-iff-projection-match[{t}]",
            projections_match == (worst <= tol),
        )
        if pairing_is_unit:
            rep.add(f"pairing-unit-implies-increasing[{t}]", worst, tol)
    return rep


# ---------------------------------------------------------------------------
# pairing forces unit equality
# ---------------------------------------------------------------------------

def unit_pairing_check(ps: ProductSystem, xi1: np.ndarray, omega1: np.ndarray) -> VerificationReport:
    """If every pairing ``<omega_t, xi_t>`` is the unit, the units coincide.

    When the pairings are all the identity the report asserts the mutual
    domination of the two vector projections, their equality, and the
    entrywise equality of the units; otherwise the implication is vacuous
    and the report records that the extended projection fails to increase.
    """
    tol = ps.tol
    xi = derive_unit(ps, xi1)
    omega = derive_unit(ps, omega1)
    if not xi.unital:
        raise PreconditionError("first vector is not a unital unit")
    if not (omega.unital and omega.central):
        raise PreconditionError("second vector is not a central unital unit")
    alg = ps.algebra
    rep = VerificationReport("unit pairing", provenance={"levels": ps.levels})
    pair_devs = []
    for t in range(1, ps.levels + 1):
        et = ps.power(t)
        pair_devs.append(_dev(et.inner(omega.levels[t], xi.levels[t]), alg.unit))
    if _worst(pair_devs) <= tol:
        for t in range(1, ps.levels + 1):
            rep.add(f"pairing-unit[{t}]", pair_devs[t - 1], tol)
            et = ps.power(t)
            p_xi = rank_one(et, xi.levels[t], xi.levels[t])
            p_om = rank_one(et, omega.levels[t], omega.levels[t])
            rep.add(f"projection-dominates[{t}]", et.positivity_defect(p_xi - p_om), tol)
            rep.add(f"projection-dominated[{t}]", et.positivity_defect(p_om - p_xi), tol)
            rep.add(f"projection-equal[{t}]", _dev(p_xi, p_om), tol)
            rep.add(f"unit-coincide[{t}]", _dev(xi.levels[t], omega.levels[t]), tol)
    else:
        rep.add_flag("pairing-vacuous", True)
        rep.detail = (
            f"pairings differ from the unit (max deviation {_worst(pair_devs):.3e}); "
            "the implication is vacuous and the extended vector projection is "
            "not increasing on this instance"
        )
    return rep


# ---------------------------------------------------------------------------
# comparing the limits over two units
# ---------------------------------------------------------------------------

@dataclass
class UnitComparison:
    verdict: str   # "automorphism-found" | "necessary-condition-fails" | "unknown"
    report: VerificationReport
    unitary: np.ndarray | None


def compare_unit_limits(ps: ProductSystem, xi1: np.ndarray, xi2: np.ndarray) -> UnitComparison:
    """Decide whether a bilinear unitary of the generator carries one unit to
    the other, and transport it through the limits.

    The compressions generated by the two units must coincide.  When they
    do, the unitary is constructed from the bimodule decomposition of the
    whitened generator ``S^{1/2} E_1 S^{-1/2} = (+)_ij C^{n_i} (x) C^{L_ij}
    (x) C^{n_j}``, on which bilinear unitaries are ``(+) I (x) U_ij (x) I``:
    each unit reads as an ``L_ij x n_i n_j`` matrix ``X`` per block pair,
    the level-1 compressions agree exactly when ``X1^H X1 = X2^H X2``, and
    then the polar factor of ``X2 X1^H`` is a ``U_ij`` with ``U_ij X1 = X2``.
    The unitary is transported through all stages and the right-limit
    embeddings; ``unknown`` remains only for a constructed unitary that
    fails those checks.
    """
    tol = ps.tol
    u1 = derive_unit(ps, xi1)
    u2 = derive_unit(ps, xi2)
    if not (u1.unital and u2.unital):
        raise PreconditionError("both vectors must be unital units")
    rep = VerificationReport("unit comparison", provenance={"levels": ps.levels})

    cp_devs = []
    for t in range(1, ps.levels + 1):
        cp_devs.append(_dev(unit_cp_matrix_level(ps, u1, t), unit_cp_matrix_level(ps, u2, t)))
        rep.add(f"cp-semigroups-coincide[{t}]", cp_devs[-1], tol)
    cp_dev = _worst(cp_devs)
    dims = [ps.power(n).dim for n in range(ps.levels + 1)]
    if cp_dev > tol:
        rep.detail = (
            "the compressions generated by the two units differ; this refutes "
            "only the automorphism route, not isomorphy of the limits "
            f"(stage dimensions {dims} are shared by construction)"
        )
        return UnitComparison("necessary-condition-fails", rep, None)

    e1 = ps.generator
    m = e1.dim
    sq, isq = (e1._scalar(np.eye(m), p) for p in (0.5, -0.5))
    blocks = list(zip(e1.algebra.unit_slices, e1.algebra.blocks))
    # whitened, both actions are *-representations on the standard inner product
    left, right = (sq @ action @ isq for action in (e1.left_action, e1.right_action))
    whitened = np.zeros((m, m), dtype=complex)
    for ui, ni in blocks:
        li = left[ui].reshape(ni, ni, m, m)  # li[a, c] = L(e^i_ac)
        for uj, nj in blocks:
            rj = right[uj].reshape(nj, nj, m, m)
            corner = li[0, 0] @ rj[0, 0]  # a projection: whitened, L and R commute
            y = _range_basis(corner, corner)
            if y.shape[1] == 0:
                continue
            # the copy (a, c) of C^{L_ij} is spanned by B_ac Y, B_ac = L(e^i_a0) R(e^j_0c)
            copies = (li[:, 0, None] @ rj[None, 0] @ y).reshape(ni * nj, m, -1)
            adj = copies.conj().transpose(0, 2, 1)
            x1, x2 = ((adj @ sq @ u.vector).T for u in (u1, u2))
            uu, _, vh = np.linalg.svd(x2 @ x1.conj().T)
            whitened += (copies @ (uu @ vh) @ adj).sum(axis=0)
    found = isq @ whitened @ sq

    rep.add("transport-defect[1]", _worst((
        _dev(found @ e1.left_action, e1.left_action @ found),
        _dev(found @ e1.right_action, e1.right_action @ found),
        _unitary_dev(found, map_adjoint(found, e1, e1)),
        _dev(found @ u1.vector, u2.vector),
    )), tol)
    v_stage = found
    j1, j2 = (_limit_embeddings(ps, u, "right") for u in (u1, u2))
    for n in range(1, ps.levels):
        fm = ps.tensor(n, 1)
        v_next = fm.matrix @ np.kron(v_stage, found) @ fm.section
        en1 = ps.power(n + 1)
        check_map(rep, v_next, en1, en1, tol, {"unitary": f"transport-unitary[{n + 1}]"})
        rep.add(f"transport-unit[{n + 1}]", _dev(v_next @ u1.levels[n + 1], u2.levels[n + 1]), tol)
        rep.add(f"transport-embedding[{n}]", _dev(v_next @ j1[n], j2[n] @ v_stage), tol)
        v_stage = v_next
    verdict = "automorphism-found" if rep.passed else "unknown"
    return UnitComparison(verdict, rep, found)


# ---------------------------------------------------------------------------
# spatiality probes combining both routes
# ---------------------------------------------------------------------------

def spatiality_report(pipe: DilationPipeline) -> tuple[str, VerificationReport]:
    """Decide whether a central unital unit and an intertwining isometry exist.

    Both are decided by construction from the block structure of the
    algebra's center.  The two decisions certify each other: a central
    unital unit always yields an intertwining isometry, so the verdicts may
    never contradict.  Fullness of the module is a necessary condition and
    is recorded.
    """
    eplus, endo, levels, tol = pipe.eplus, pipe.endo, pipe.levels, pipe.tol
    rep = VerificationReport("spatiality", provenance={"levels": levels})
    search = pipe.spatial()
    rep.add_flag("central-unit-search-decided", search.status in ("found", "none-exists"))
    iso = find_intertwining_isometry(eplus, endo, tol)
    rep.add_flag("isometry-search-decided", iso.status in ("found", "none-exists"))
    rep.add_flag(
        "spatiality-cross-consistent",
        not (search.status == "found" and iso.status == "none-exists")
        and not (iso.status == "found" and search.status == "none-exists"),
    )
    if search.status == "found":
        rep.add_flag("fullness-necessary-condition", fullness_check(eplus))
        rep.add("central-unit-unitality", search.residuals.get("unitality", 0.0), tol)
        rep.add("central-unit-centrality", search.residuals.get("centrality", 0.0), tol)
        stages = pipe.stages()[0]
        omega = derive_unit(pipe.ps(), search.vector)
        vs = {}
        for t in range(1, levels + 1):
            op, iso_rep = isometry_from_unit(
                eplus, endo, t, stages[t].u, stages[t].factor,
                pipe.ps().power(t), omega.levels[t], tol,
            )
            rep.extend(iso_rep)
            vs[t] = op.matrix
        for s in range(1, levels):
            for t in range(1, levels + 1 - s):
                rep.add(f"isometry-semigroup[{s},{t}]", _dev(vs[s] @ vs[t], vs[s + t]), tol)
    rep.detail = (
        f"central unit: {search.status} ({search.certificate}); "
        f"isometry: {iso.status} ({iso.certificate})"
    )
    return search.status, rep
