"""Unital *-endomorphisms of the adjointable operators of a Hilbert module.

An endomorphism is given as a square matrix in the canonical operator basis
of :func:`corrkit.hilbmod.adjointable_basis`: Gram-Schmidt, in lex order of
``(u, v)``, on the images of the carrier matrix units ``E_uv`` under the
conditional expectation onto the commutant of the right action ``R``.  It
depends on ``R`` alone and is orthonormal in ``tr(A* B)``, so coordinates
are inner products with it.  From the matrix the package builds,
for each time ``t >= 1``, the associated correspondence: the conjugate
carrier tensored with the carrier, reduced under the inner
product ``<x* (x) y, x'* (x) y'> = <y, theta^t(x x'*) y'>``, with left
action ``b . (x* (x) y) = (x b*)* (x) y`` and right action on the second
slot.  Like every realized module it is whitened: its factor map has a
section with ``proj @ section = I``, and its scalar Gram is ``I``.  The
identification unitaries between these realizations use the type-checked
product rule ``(x* . x') (x) (y* . y') -> x* . theta^t(x' y*) y'``,
and the action unitary ``u_t : E+ . E_t -> E+`` sends
``x (x) (y* . z)`` to ``theta^t(x y*) z`` and recovers the endomorphism as
``theta^t(a) = u_t (a . id) u_t*``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import DEFAULT_TOL
from .errors import (
    ConstructionError,
    InvalidPresentationError,
    PreconditionError,
)
from .hilbmod import (
    AdjointableOperator,
    Correspondence,
    FactorMap,
    ModulePresentation,
    _dev,
    _lift,
    _range_basis,
    _trace_rank,
    adjointable_basis,
    algebra_correspondence,
    amplify,
    check_map,
    fullness_check,
    internal_tensor,
    map_adjoint,
    matrix_rank_tol,
    null_space,
    pull_gram,
    rank_one_stack,
    tensor_vector,
)
from .prodsys import _unit_from_blocks
from .report import VerificationReport, _worst


def operator_rows(ops: list[AdjointableOperator], m: int) -> np.ndarray:
    """The matrices of ``ops`` as the rows of a (q, m^2) array."""
    return np.array([op.matrix.reshape(-1) for op in ops], dtype=complex).reshape(len(ops), m * m)


def basis_coords(rows: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, float]:
    """Coordinates of the rows of ``a`` in the rows of ``rows``, orthonormal in
    ``tr(A* B)``: the inner products ``a @ rows^H``, with the residual."""
    coeffs = a @ rows.conj().T
    return coeffs, _dev(coeffs @ rows, a)


def rank_ones_span(e: ModulePresentation, coords: np.ndarray, resid: float, tol: float) -> bool:
    """Strictness from the (m^2, q) rank-one coordinates in an orthonormal
    operator basis and their residual: the rank-ones lie in its span (residual
    at most ``tol`` times the larger of 1 and the top Gram entry) and span it."""
    scale = max(1.0, float(np.abs(e.gram).max(initial=0.0)))
    return resid <= tol * scale and matrix_rank_tol(coords) == coords.shape[1]


@dataclass
class Endomorphism:
    """Linear map on the adjointable operators, in a fixed operator basis.

    The basis must be orthonormal in ``tr(A* B)`` within 1e-9 (any other is
    refused), so coordinates are inner products with it; :meth:`expand` and
    :meth:`apply` take one (m, m) operator or a stack of them.
    """

    module: ModulePresentation
    ops: list[AdjointableOperator]
    matrix: np.ndarray  # (q, q); column i holds the coordinates of the image of ops[i]

    def __post_init__(self):
        q, m = len(self.ops), self.module.dim
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (q, q):
            raise InvalidPresentationError(
                f"endomorphism matrix of shape {self.matrix.shape}, expected {(q, q)}"
            )
        self._flat = operator_rows(self.ops, m)
        defect = _dev(self._flat.conj() @ self._flat.T, np.eye(q))
        if not defect <= 1e-9:
            raise InvalidPresentationError(f"operator basis not orthonormal ({defect:.3e})")
        self.op_stack = self._flat.reshape(q, m, m)
        self._powers: dict[int, np.ndarray] = {}
        self._rank_one_images: dict[int, np.ndarray] = {}

    def power(self, t: int) -> np.ndarray:
        if t not in self._powers:
            self._powers[t] = np.linalg.matrix_power(self.matrix, t)
        return self._powers[t]

    def _moved(self, coeffs: np.ndarray, t: int) -> np.ndarray:
        """Flat images under the t-th iterate of the operators with coordinates ``coeffs``."""
        return coeffs @ self.power(t).T @ self._flat

    @cached_property
    def rank_one_coords(self) -> tuple[np.ndarray, float]:
        """Basis coordinates of all basis rank-ones ``e_i e_j*``, shape
        (m^2, q), with the residual of that expansion."""
        m = self.module.dim
        return self.expand(rank_one_stack(self.module).reshape(m * m, m, m))

    def rank_one_images(self, t: int) -> np.ndarray:
        """Images ``theta^t(e_i e_j*)`` of all basis rank-ones, stacked (m,m,m,m)."""
        if t not in self._rank_one_images:
            m = self.module.dim
            self._rank_one_images[t] = self._moved(self.rank_one_coords[0], t).reshape(m, m, m, m)
        return self._rank_one_images[t]

    def expand(self, a: np.ndarray) -> tuple[np.ndarray, float]:
        """Coordinates of a carrier operator, or of a stack of them, with residual."""
        coeffs, resid = basis_coords(self._flat, a.reshape(-1, self._flat.shape[1]))
        return coeffs.reshape(a.shape[:-2] + (len(self.ops),)), resid

    def apply(self, a: np.ndarray, t: int = 1) -> np.ndarray:
        """Image of a carrier operator, or of a stack of them, under the t-th iterate."""
        return self._moved(self.expand(a)[0], t).reshape(a.shape)

    def image_ops(self, t: int) -> np.ndarray:
        """Images of the basis operators under the t-th iterate, stacked."""
        return (self.power(t).T @ self._flat).reshape(self.op_stack.shape)


def endomorphism_from_map(
    eplus: ModulePresentation, mapping,
    ops: list[AdjointableOperator] | None = None, tol: float = DEFAULT_TOL,
) -> Endomorphism:
    """A map of carrier operators, applied once to the (q, m, m) basis stack,
    in the operator basis; ``ConstructionError`` when an image leaves the
    span by more than ``tol`` times the larger of 1 and the largest entry."""
    ops = adjointable_basis(eplus, tol) if ops is None else ops
    rows = operator_rows(ops, eplus.dim)
    images = mapping(rows.reshape(len(ops), eplus.dim, eplus.dim)).reshape(rows.shape)
    coeffs, resid = basis_coords(rows, images)
    if not resid <= tol * max(1.0, float(np.abs(images).max(initial=0.0))):
        raise ConstructionError("the map leaves the adjointable operators", residual=resid)
    return Endomorphism(eplus, ops, coeffs.T)


def endomorphism_from_conjugation(
    eplus: ModulePresentation, v: np.ndarray,
    ops: list[AdjointableOperator] | None = None, tol: float = DEFAULT_TOL,
) -> Endomorphism:
    """The inner map ``a -> v a v^{-1}`` expressed in the operator basis."""
    vinv = np.linalg.inv(v)
    return endomorphism_from_map(eplus, lambda a: v @ a @ vinv, ops, tol)


def validate_endomorphism(endo: Endomorphism, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Multiplicativity, *-preservation, unitality, and the strictness
    certificate, read off :attr:`Endomorphism.rank_one_coords`."""
    eplus = endo.module
    q = len(endo.ops)
    rep = VerificationReport(f"endomorphism checks (operator dimension {q})")
    stack = endo.op_stack
    images = endo.image_ops(1)

    # every product of two basis operators, expanded in the basis at once
    prods = stack[:, None] @ stack[None]
    coeffs, closure = endo.expand(prods)
    rep.add("operator-basis-closure", closure, tol)
    moved = endo._moved(coeffs, 1).reshape(prods.shape)
    rep.add("endomorphism-multiplicative", _dev(moved, images[:, None] @ images[None]), tol)

    adjoints = np.stack([op.adjoint for op in endo.ops])
    rep.add("endomorphism-star", _dev(endo.apply(adjoints), map_adjoint(images, eplus, eplus)), tol)
    rep.add("endomorphism-unital", _dev(endo.apply(np.eye(eplus.dim)), np.eye(eplus.dim)), tol)

    strict = rank_ones_span(eplus, *endo.rank_one_coords, tol)
    rep.add_flag("strictness-compacts-span", strict)
    if strict:
        rep.detail = (
            "rank-one operators span all adjointable operators, so every "
            "unital endomorphism acts nondegenerately on the module"
        )
    return rep


# ---------------------------------------------------------------------------
# the associated correspondence
# ---------------------------------------------------------------------------

@dataclass
class AssociatedCorrespondence:
    """Reduced conjugate-tensor realization for one time step."""

    level: int
    corr: Correspondence
    factor: FactorMap | None      # from the m^2 conjugate-tensor carrier
    warnings: list[str] = field(default_factory=list)


def _frame(eplus: ModulePresentation) -> np.ndarray:
    """Frame ``xi`` of shape (P, m): ``sum_p <xi_p, xi_p>`` is the unit of every
    block ``j`` the module reaches, i.e. with ``tr R(e^j_00) > 0``.  With
    ``(i, a)`` the pair of largest ``c = <e_i, e_i>^j_aa`` on block ``j``,
    ``xi_{j,b} = R(e^j_ab) e_i / sqrt(c)`` has inner square ``e^j_bb``.
    """
    alg = eplus.algebra
    diag = np.real(np.einsum("iiaa->ia", eplus.gram))  # (m, n)
    out = []
    for sl, units, nb in zip(alg.block_slices, alg.unit_slices, alg.blocks):
        right = eplus.right_action[units]  # R(e^j_ab) at a * nb + b
        if _trace_rank(right[0]) > 0:
            c = diag[:, sl]
            i, a = np.unravel_index(np.argmax(c), c.shape)
            out.append(right[a * nb:(a + 1) * nb, :, i] / np.sqrt(c[i, a]))  # R(e^j_ab) e_i
    return np.concatenate(out)


def associated_correspondence(
    eplus: ModulePresentation,
    endo: Endomorphism,
    t: int,
    tol: float = DEFAULT_TOL,
) -> AssociatedCorrespondence:
    """Realize the correspondence carrying the t-th step of the semigroup.

    At ``t = 0`` the algebra itself is returned.  For ``t >= 1`` the
    conjugate-tensor carrier is reduced under the inner product
    ``<x* (x) y, x'* (x) y'> = <y, theta^t(x x'*) y'>``.  For the frame ``xi``
    of :func:`_frame`, ``theta^t(x x'*) = sum_p theta^t(xi_p x*)^* theta^t(xi_p x'*)``,
    so that inner product is pulled back from ``E+^P`` along the map
    ``x* (x) y -> (theta^t(xi_p x*) y)_p``, which is onto ``(+)_p Q_p E+`` for
    the idempotents ``Q_p = theta^t(xi_p xi_p*)``: in the first ``tr Q_p`` left
    singular vectors of ``S^{1/2} Q_p`` it is a factor ``K`` of full row rank,
    realized as in :func:`internal_tensor`.
    """
    alg = eplus.algebra
    if t == 0:
        return AssociatedCorrespondence(0, algebra_correspondence(alg), None)
    warnings = []
    if not fullness_check(eplus):
        warnings.append("module is not full; the dual span may be degenerate")

    m = eplus.dim
    resid = endo.rank_one_coords[1]
    if resid > tol * max(1.0, float(np.abs(eplus.gram).max())):
        raise ConstructionError("rank-one operators leave the operator basis", residual=resid)

    # frame[p, u, (i, j)] = theta^t(xi_p e_i*)[u, j], the p-th map on e_i* (x) e_j
    xi = _frame(eplus)
    frame = np.tensordot(xi, endo.rank_one_images(t), axes=([1], [0]))
    frame = frame.transpose(0, 2, 1, 3).reshape(len(frame), m, m * m)
    # Q_p = theta^t(xi_p xi_p*) = sum_i conj(xi_p[i]) theta^t(xi_p e_i*)
    idem = np.einsum("pi,puij->puj", xi.conj(), frame.reshape(len(frame), m, m, m))
    sq = eplus.scalar_sqrt
    proj = np.concatenate([_range_basis(sq @ q, q).conj().T @ sq @ rows
                           for q, rows in zip(idem, frame)])
    section = np.linalg.solve(proj @ proj.conj().T, proj).conj().T
    gram = sum(pull_gram(v, eplus.gram) for v in frame @ section)
    right = proj @ _lift(eplus.right_action, section, (m, m), "right")
    left = proj @ _lift(eplus.right_action[alg.star_index].conj(), section, (m, m), "left")
    reduced = Correspondence(alg, right, gram, left)
    return AssociatedCorrespondence(t, reduced, FactorMap(lambda: proj, (m, m), lambda: section), warnings)


def power_coherence(
    endo: Endomorphism,
    es: AssociatedCorrespondence,
    et: AssociatedCorrespondence,
    est: AssociatedCorrespondence,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, VerificationReport]:
    """Identification realize(E_s . E_t) -> E_{s+t} via the product rule.

    On representatives the map sends ``(x* . x') (x) (y* . y')`` to
    ``x* . theta^t(x' y*) y'``; the report certifies that it preserves inner
    products (so the rule is the type-correct one) and is a bilinear unitary.
    """
    eplus = endo.module
    m = eplus.dim
    s, t = es.level, et.level
    if est.level != s + t or min(s, t) < 1:
        raise PreconditionError("power coherence needs levels s, t >= 1 with their sum realized")
    tensor, fm = internal_tensor(es.corr, et.corr)

    # bridge[u, (j, k, l)] = theta^t(e_j e_k*)[u, l], as in u_unitary
    bridge = endo.rank_one_images(t).transpose(2, 0, 1, 3).reshape(m, m ** 3)
    # representatives (i, j, k, l) of e_i* . e_j (x) e_k* . e_l for the realized tensor
    inner = _lift(et.factor.section, fm.section, fm.source_dims, "right")
    sec = _lift(es.factor.section, inner, (es.corr.dim, m * m), "left")
    u = est.factor.matrix @ _lift(bridge, sec, (m, m ** 3), "right")
    rep = VerificationReport(f"power coherence [{s},{t}]")
    cod = est.corr
    check_map(rep, u, tensor, cod, tol, {"gram": f"product-rule-isometric[{s},{t}]"})
    if tensor.dim != cod.dim:
        rep.add_flag(f"product-rule-dimensions[{s},{t}]", False)
    else:
        check_map(rep, u, tensor, cod, tol, {"unitary": f"product-rule-unitary[{s},{t}]",
                                             "bilinear": f"product-rule-bilinear[{s},{t}]"})
    return u, rep


# ---------------------------------------------------------------------------
# the action unitary and recovery of the endomorphism
# ---------------------------------------------------------------------------

@dataclass
class ActionStage:
    """Realized ``E+ . E_t`` with the action unitary ``u`` onto the module, and
    the operator basis amplified to it once, ``a . id``."""

    t: int
    tensor: ModulePresentation
    factor: FactorMap
    u: np.ndarray
    ops: np.ndarray


def u_unitary(
    eplus: ModulePresentation,
    endo: Endomorphism,
    t: int,
    et: AssociatedCorrespondence,
    tol: float = DEFAULT_TOL,
) -> tuple[ActionStage, VerificationReport]:
    """Build and verify ``u_t : x (x) (y* . z) -> theta^t(x y*) z`` on
    ``E+ . et``, with ``et`` the associated level ``t``.  Requires a full module;
    the recovery identity ``theta^t(a) = u_t (a . id) u_t*`` is verified over
    the operator basis.  Returns the stage ``t`` and the report.
    """
    if t < 1:
        raise PreconditionError("the action unitary is built for t >= 1")
    if not fullness_check(eplus):
        raise PreconditionError("the module must be full")
    m = eplus.dim
    tensor, fm = internal_tensor(eplus, et.corr)
    bridge = endo.rank_one_images(t).transpose(2, 0, 1, 3).reshape(m, m * m * m)  # [u,(i,k,l)]
    u = bridge @ _lift(et.factor.section, fm.section, fm.source_dims, "right")

    rep = VerificationReport(f"action unitary [t={t}]")
    iso_dev = _dev(pull_gram(u, eplus.gram), tensor.gram)
    rep.add(f"action-isometric[{t}]", iso_dev, tol)
    if iso_dev > tol:
        raise ConstructionError(
            f"action map at t={t} is not well defined", residual=iso_dev
        )
    if tensor.dim != m:
        raise ConstructionError(
            f"action map at t={t} is not surjective: tensor dimension "
            f"{tensor.dim} != {m}",
            residual=float(abs(tensor.dim - m)),
        )
    adj = check_map(rep, u, tensor, eplus, tol, {"unitary": f"action-unitary[{t}]"})
    lifted = amplify(endo.op_stack, fm, side="left")
    rep.add(f"recovery-identity[{t}]", _dev(u @ lifted @ adj, endo.image_ops(t)), tol)
    return ActionStage(t, tensor, fm, u, lifted), rep


# ---------------------------------------------------------------------------
# intertwining isometries
# ---------------------------------------------------------------------------

@dataclass
class IntertwinerSearch:
    status: str                        # "found" | "none-exists"
    operator: AdjointableOperator | None
    certificate: str
    residuals: dict


def _isometry_defect(eplus: ModulePresentation, endo: Endomorphism, v: np.ndarray) -> float:
    inter = _dev(endo.image_ops(1) @ v, v @ endo.op_stack)
    return _worst((inter, _dev(map_adjoint(v, eplus, eplus) @ v, np.eye(eplus.dim))))


def find_intertwining_isometry(
    eplus: ModulePresentation,
    endo: Endomorphism,
    tol: float = DEFAULT_TOL,
) -> IntertwinerSearch:
    """Decide whether an isometry ``v`` with ``theta(a) v = v a`` exists, and
    construct one.

    The intertwiner space ``I`` is computed exactly.  For ``v, w`` in ``I``
    the product ``w* v`` commutes with every adjointable operator, so it is
    ``sum_j M_j[w, v] q_j`` with ``q_j = R(p_j)`` the central projections
    that do not vanish on the module.  An isometry exists exactly when every
    ``M_j`` is nonzero; then ``sum_j q_j (basis @ z_j) / sqrt(lam_j)``, with
    ``(lam_j, z_j)`` the top eigenpair of ``M_j``, is one.
    """
    q = len(endo.ops)
    stack = endo.op_stack
    images = endo.image_ops(1)
    # row (i, u, v), column w: (theta(a_i) a_w - a_w a_i)[u, v]
    system = images[:, None] @ stack[None] - stack[None] @ stack[:, None]
    system = system.transpose(0, 2, 3, 1).reshape(-1, q)
    size = max(float(np.abs(stack).max(initial=0.0)), float(np.abs(images).max(initial=0.0)))
    kernel = null_space(system, scale=size * size)
    if kernel.shape[1] == 0:
        return IntertwinerSearch("none-exists", None, "intertwiner-space-trivial", {})

    ops = np.einsum("wk,wuv->kuv", kernel, stack)
    products = map_adjoint(ops, eplus, eplus)[:, None] @ ops  # [a, b] = ops[a]* ops[b]
    blocks, grams, projections = [], [], []
    for j, c in enumerate(eplus.algebra.center_basis()):
        proj = eplus.right_of(c)
        rank = _trace_rank(proj)
        if rank > 0:  # a block the module does not reach asks for nothing
            blocks.append(j)
            grams.append(np.einsum("abuv,vu->ab", products, proj) / rank)
            projections.append(proj)
    v, block = _unit_from_blocks(ops.transpose(1, 2, 0), grams, projections, tol)
    if v is None:
        return IntertwinerSearch(
            "none-exists", None, f"block-{blocks[block]}-gram-vanishes-on-intertwiner-space",
            {"space-dimension": len(ops)},
        )
    return IntertwinerSearch(
        "found", AdjointableOperator(v, map_adjoint(v, eplus, eplus)), "constructed",
        {"defect": _isometry_defect(eplus, endo, v)},
    )


def isometry_from_unit(
    eplus: ModulePresentation,
    endo: Endomorphism,
    t: int,
    u_matrix: np.ndarray,
    tensor_factor: FactorMap,
    et: Correspondence,
    omega_t: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> tuple[AdjointableOperator, VerificationReport]:
    """The intertwining isometry ``x -> u_t(x (x) omega_t)``.

    ``omega_t`` must be a central unital vector of the correspondence at
    level ``t``; the report verifies the isometry and intertwining relations.
    """
    omega_t = np.asarray(omega_t, dtype=complex)
    unit_dev = _dev(et.inner(omega_t, omega_t), eplus.algebra.unit)
    cent_dev = _dev(et.left_action @ omega_t, et.right_action @ omega_t)
    if unit_dev > tol or cent_dev > tol:
        raise PreconditionError(
            f"vector is not central unital (unitality {unit_dev:.3e}, "
            f"centrality {cent_dev:.3e})"
        )
    v = u_matrix @ tensor_vector(tensor_factor, omega_t, "left")
    rep = VerificationReport(f"intertwining isometry from unit [t={t}]")
    adj = check_map(rep, v, eplus, eplus, tol, {"isometry": f"isometry[{t}]"})
    rep.add(f"intertwining[{t}]", _dev(endo.image_ops(t) @ v, v @ endo.op_stack), tol)
    return AdjointableOperator(v, adj), rep
