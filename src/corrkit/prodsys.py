"""Discrete-time product systems generated by one correspondence.

A product system here is the family of realized tensor powers of a single
correspondence ``E_1``: ``E_0`` is the algebra over itself and
``E_n = realize(E_{n-1} . E_1)``.  Identification unitaries
``u_{s,t}: realize(E_s . E_t) -> E_{s+t}`` are the canonical ones for
``s = 0`` or ``t = 0``, the identity for ``t = 1`` (by construction of the
powers), and otherwise the rebracketing ``E_s . E_t -> E_{s+t-1} . E_1``,
composed on the triple carrier from the pairs' factor maps: no three-fold
bracketing is realized.  Of the pairs' factor maps only the ``K(n-1, 1)``
that place the powers are held; every other pair's ``K`` and every section
are formed from the two powers' cached frames where read.  The coherence
report verifies that every identification is a bilinear unitary and that the
two ways of collapsing a triple product agree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, Algebra
from .errors import (
    IncompatibleOperandsError,
    PreconditionError,
    ResourceBudgetError,
)
from .hilbmod import (
    Correspondence,
    FactorMap,
    ModulePresentation,
    _dev,
    _placed_blocks,
    _rebracket,
    _scalar_apply,
    _tensor_factor,
    _tensor_module,
    _trace_rank,
    algebra_correspondence,
    check_map,
    psd_defect,
    pull_gram,
    right_unitor,
    tensor_vector,
)
from .report import VerificationReport

DEFAULT_BUDGET = 4096


def left_unitor(f: Correspondence, fm: FactorMap) -> np.ndarray:
    """Canonical map realize(B (.) F) -> F, ``b (x) y -> L(b) y``: the
    identification ``u(0, t)``."""
    c = f.left_action.transpose(1, 0, 2).reshape(f.dim, f.dim * len(f.left_action))
    return c @ fm.section


class ProductSystem:
    """Truncated family of tensor powers with coherent identifications.

    It holds the powers, the corner factors ``K(n-1, 1)`` that place them
    (:meth:`tensor`), and ``u`` but the identities ``u(s, 1)``; every other
    pair's ``K``, a section, ``uinv`` and a pair module not a power are formed
    where read (:meth:`_module`), not held.  A power's scalar Gram is the
    generator's corner blocks with their inverses and roots, shared and
    applied per block: no power forms a dense ``S``, root or inverse; only
    the generator, an input module, keeps a dense block.  Only
    :meth:`coherence_report` runs the O(levels^3) sweep.
    """

    def __init__(
        self,
        generator: Correspondence,
        levels: int,
        tol: float = DEFAULT_TOL,
        budget: int = DEFAULT_BUDGET,
    ):
        if levels < 1:
            raise PreconditionError("at least one level is required")
        if generator.dim > budget:
            raise ResourceBudgetError(
                f"generator dimension {generator.dim} exceeds budget {budget}",
                required=generator.dim,
            )
        self.algebra: Algebra = generator.algebra
        self.generator = generator
        self.levels = int(levels)
        self.tol = tol
        self.budget = int(budget)
        self.powers: list[Correspondence] = [algebra_correspondence(self.algebra), generator]
        self._tensors: dict[tuple[int, int], FactorMap] = {}
        self._u: dict[tuple[int, int], np.ndarray] = {}
        for n in range(2, self.levels + 1):
            fm = self.tensor(n - 1, 1)
            self._tensors[n - 1, 1] = FactorMap(lambda held=fm.matrix: held, fm.source_dims, fm.form_section)
            self.powers.append(_tensor_module(self.powers[n - 1], generator))  # E_{n-1} . E_1

    def power(self, n: int) -> Correspondence:
        if not 0 <= n <= self.levels:
            raise PreconditionError(f"level {n} outside truncation 0..{self.levels}")
        return self.powers[n]

    def tensor(self, s: int, t: int) -> FactorMap:
        """Factor map onto the realized tensor ``E_s . E_t``, within the budget:
        the held map placing ``E_{s+1}`` when ``t = 1 <= s``, else one whose
        ``K`` and section are formed from the powers when read; the realized
        module is not formed (:meth:`_module`)."""
        if (s, t) in self._tensors:
            return self._tensors[s, t]
        es, et = self.power(s), self.power(t)
        needed = es.dim * et.dim
        if needed > self.budget:
            raise ResourceBudgetError(
                f"tensor E_{s}.E_{t} needs dimension {needed} > budget {self.budget}",
                required=needed,
            )
        return _tensor_factor(es, et)

    def _module(self, s: int, t: int) -> ModulePresentation:
        """The realized ``E_s . E_t``: the power ``E_{s+1}`` when ``t = 1 <= s``,
        else placed anew, after :meth:`tensor` has checked the budget."""
        self.tensor(s, t)
        return self.powers[s + 1] if t == 1 and s else _tensor_module(self.power(s), self.power(t))

    def rebracket(self, r: int, s: int, t: int) -> np.ndarray:
        """Rebracketing unitary realize(E_r . E_{s+t}) -> realize(E_{r+s} . E_t).

        ``id . u(s,t)^-1`` expands the right factor on the triple carrier and
        ``u(r,s) . id`` contracts the left pair: only pair tensors are used.
        The exact identities ``u(s, 1)`` (``s >= 1``) are not multiplied.
        """
        if not all(0 <= n <= self.levels for n in (r, s, t, r + s, s + t)):
            raise PreconditionError(f"rebracket({r},{s},{t}) outside truncation 0..{self.levels}")
        src, expand = self.tensor(r, s + t), self.tensor(s, t).section
        if not t == 1 <= s:
            expand = expand @ self.uinv(s, t)
        contract = self.tensor(r, s).matrix if s == 1 <= r else self.u(r, s) @ self.tensor(r, s).matrix
        return _rebracket(src, expand, contract, self.tensor(r + s, t), "right")

    def u(self, s: int, t: int) -> np.ndarray:
        """Identification unitary realize(E_s . E_t) -> E_{s+t}."""
        key = (s, t)
        if key in self._u:
            return self._u[key]
        if s + t > self.levels:
            raise PreconditionError(f"u({s},{t}) exceeds truncation level {self.levels}")
        if t == 0:
            out = right_unitor(self.power(s), self.tensor(s, 0))
        elif s == 0:
            out = left_unitor(self.power(t), self.tensor(0, t))
        elif t == 1:  # E_s . E_1 is the power E_{s+1}: the identity, formed where read
            return np.eye(self.power(s + 1).dim, dtype=complex)
        else:
            # peel the last generator factor: E_{s+t-1} . E_1 is the power E_{s+t}
            out = self.rebracket(s, t - 1, 1)
        self._u[key] = out
        return out

    def uinv(self, s: int, t: int) -> np.ndarray:
        """Inverse E_{s+t} -> realize(E_s . E_t) of ``u(s,t)``, its adjoint
        ``S^{-1} u^H S`` on the scalar Grams, applied per block, the pair's
        from ``E_t``'s corners without placing the pair module; the exact
        identity when ``t = 1 <= s``."""
        u, es, et = self.u(s, t), self.power(s), self.power(t)
        if t == 1 and s:
            return u
        return self.power(s + t)._scalar(_scalar_apply(_placed_blocks(es, et), u, -1, right=True), 1).conj().T

    # -- verification --------------------------------------------------------

    def coherence_report(self) -> VerificationReport:
        """Verify every identification and the triple-product coherence.  Each
        pair module is placed once, for its ``identification[s,t]-*`` checks,
        and is dropped after them."""
        rep = VerificationReport(
            "product system coherence",
            provenance={"levels": self.levels, "budget": self.budget},
        )
        tol = self.tol
        for s in range(self.levels + 1):
            for t in range(self.levels + 1 - s):
                check_map(rep, self.u(s, t), self._module(s, t), self.power(s + t), tol,
                          {p: f"identification[{s},{t}]-{p}" for p in ("gram", "unitary", "bilinear")},
                          self.uinv(s, t))
        # t = 1 holds by definition: u(r, s+1) is rebracket(r, s, 1) and u(r+s, 1) = I
        for r in range(1, self.levels - 2):
            for s in range(1, self.levels - r - 1):
                for t in range(2, self.levels + 1 - r - s):
                    # both collapse realize(E_r . E_{s+t}) onto E_{r+s+t}
                    via_left = self.u(r + s, t) @ self.rebracket(r, s, t)
                    rep.add(f"coherence[{r},{s},{t}]", _dev(via_left, self.u(r, s + t)), tol)
        return rep


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

@dataclass
class Unit:
    """A vector of the generator together with its derived tensor powers."""

    vector: np.ndarray
    levels: list[np.ndarray]
    unital: bool
    central: bool
    unitality_deviation: float
    centrality_deviation: float


def derive_unit(ps: ProductSystem, xi1: np.ndarray) -> Unit:
    """Propagate a generator vector through the realized powers."""
    xi1 = np.asarray(xi1, dtype=complex)
    e1 = ps.generator
    if xi1.shape != (e1.dim,):
        raise IncompatibleOperandsError(
            f"vector of shape {xi1.shape} on a generator of dimension {e1.dim}"
        )
    levels = [ps.algebra.coords(ps.algebra.unit), xi1]
    for n in range(2, ps.levels + 1):
        levels.append(tensor_vector(ps.tensor(n - 1, 1), xi1, "left") @ levels[n - 1])
    unit_dev = _dev(e1.inner(xi1, xi1), ps.algebra.unit)
    cent_dev = _dev(e1.left_action @ xi1, e1.right_action @ xi1)
    return Unit(xi1, levels, unit_dev <= ps.tol, cent_dev <= ps.tol, unit_dev, cent_dev)


def check_unit(ps: ProductSystem, xi1: np.ndarray) -> VerificationReport:
    """Verify the unit property, unitality, and (when claimed) centrality."""
    tol = ps.tol
    unit = derive_unit(ps, xi1)
    rep = VerificationReport("unit checks", provenance={"levels": ps.levels})
    for s in range(ps.levels + 1):
        for t in range(ps.levels + 1 - s):
            pair = tensor_vector(ps.tensor(s, t), unit.levels[t], "left") @ unit.levels[s]
            image = ps.u(s, t) @ pair
            rep.add(f"unit-propagation[{s},{t}]", _dev(image, unit.levels[s + t]), tol)
    for n, v in enumerate(unit.levels):
        rep.add(f"unitality-level-{n}", _dev(ps.power(n).inner(v, v), ps.algebra.unit), tol)
    if unit.central:
        for n, v in enumerate(unit.levels):
            en = ps.power(n)
            rep.add(f"centrality-level-{n}", _dev(en.left_action @ v, en.right_action @ v), tol)
    else:
        rep.detail = f"not central (level-1 deviation {unit.centrality_deviation:.3e})"
    return rep


# ---------------------------------------------------------------------------
# central unital units
# ---------------------------------------------------------------------------

def _unit_from_blocks(
    basis: np.ndarray, grams: list[np.ndarray], projections: list[np.ndarray], tol: float
) -> tuple[np.ndarray | None, int | None]:
    """An element of length one built blockwise, or the block that rules it out.
    The span of ``basis`` (last axis) has inner products ``grams[j]`` times the
    unit on the block of the central projection ``q_j = projections[j]``; with
    ``(lam_j, z_j)`` the top eigenpair of ``grams[j]``, ``sum_j q_j (basis @ z_j)
    / sqrt(lam_j)`` has length one, and none has when some ``grams[j]``
    vanishes: ``(None, j)`` for the first such ``j``."""
    spectra = [np.linalg.eigh((g + g.conj().T) / 2.0) for g in grams]
    scale = max((float(vals[-1]) for vals, _ in spectra), default=0.0)
    out = 0.0
    for j, ((vals, vecs), q) in enumerate(zip(spectra, projections)):
        if vals[-1] <= tol * max(1.0, scale):
            return None, j
        out = out + q @ (basis @ vecs[:, -1]) / np.sqrt(vals[-1])
    return out, None


@dataclass
class CentralUnitSearch:
    status: str                 # "found" | "none-exists"
    vector: np.ndarray | None
    certificate: str
    residuals: dict


def find_central_unital_unit(e1: Correspondence, tol: float = DEFAULT_TOL) -> CentralUnitSearch:
    """Decide whether a central unital vector exists, and construct one.

    The central subspace ``C = {v : L(b) v = R(b) v}`` is the range of the
    Haar average ``P = sum_j (1/n_j) sum_ab L(e^j_ab) R(e^j_ba)``, an
    idempotent, so its dimension is ``tr P``; its basis is that many last right
    singular vectors of the stacked system ``L(b) - R(b)``, with no cutoff.
    ``C`` carries center-valued inner products, which the central projections
    ``q_j = R(p_j)`` split into one scalar Gram ``M_j`` per algebra block.  A
    central unital vector exists exactly when every ``M_j`` is nonzero; then
    ``omega = sum_j q_j (basis @ z_j) / sqrt(lam_j)``, with ``(lam_j, z_j)``
    the top eigenpair of ``M_j``, has ``<omega, omega> = 1``.  Nonexistence
    is certified when ``C`` is trivial or when some ``M_j`` vanishes (then
    no central vector has invertible length).
    """
    alg = e1.algebra
    haar = np.tensordot(alg.haar_weights, e1.left_action @ e1.right_action[alg.star_index], axes=1)
    dim = _trace_rank(haar)
    residuals = {"central-dimension": dim}
    if dim == 0:
        return CentralUnitSearch("none-exists", None, "central-subspace-trivial", residuals)
    stacked = (e1.left_action - e1.right_action).reshape(alg.dim * e1.dim, e1.dim)
    basis = np.linalg.svd(stacked, full_matrices=False)[2][e1.dim - dim:].conj().T
    grams = pull_gram(basis, e1.gram)
    blockwise = [np.trace(grams[:, :, sl, sl], axis1=2, axis2=3) / n
                 for sl, n in zip(alg.block_slices, alg.blocks)]
    projections = [e1.right_of(c) for c in alg.center_basis()]
    omega, block = _unit_from_blocks(basis, blockwise, projections, tol)
    if omega is None:
        return CentralUnitSearch(
            "none-exists", None, f"block-{block}-gram-vanishes-on-central-subspace", residuals
        )
    residuals["unitality"] = _dev(e1.inner(omega, omega), alg.unit)
    residuals["centrality"] = _dev(e1.left_action @ omega, e1.right_action @ omega)
    return CentralUnitSearch("found", omega, "constructed", residuals)


# ---------------------------------------------------------------------------
# CP maps generated by units
# ---------------------------------------------------------------------------

@dataclass
class CPMap:
    """Linear map on the algebra with the Choi matrix of its extension."""

    level: int
    matrix: np.ndarray  # (d, d) in the matrix-unit basis
    choi: np.ndarray    # (n^2, n^2)


@dataclass
class CPFamily:
    maps: list[CPMap]
    report: VerificationReport


def choi_matrix(alg: Algebra, tmat: np.ndarray) -> np.ndarray:
    """Choi matrix of the map extended by the block conditional expectation."""
    n = alg.size
    rows, cols = alg.basis_positions
    choi = np.zeros((n, n, n, n), dtype=complex)
    choi[rows, :, cols, :] = alg.from_coords(tmat.T)  # block (r, c) is the image of e_rc
    return choi.reshape(n * n, n * n)


def cp_checks(
    rep: VerificationReport, alg: Algebra, tmats: list[np.ndarray], tol: float, unital: bool
) -> list[np.ndarray]:
    """Add, for each level ``t`` of the maps ``T_t`` with matrices ``tmats[t - 1]``,
    ``cp-unital[t]`` (when ``unital``), ``choi-positive[t]`` (the
    :func:`psd_defect` of the Choi matrix, against ``tol`` times its scale) and
    ``cp-star[t]``; returns the Choi matrices."""
    unit_coords, star = alg.coords(alg.unit), alg.star_index
    chois = []
    for t, tm in enumerate(tmats, 1):
        if unital:
            rep.add(f"cp-unital[{t}]", _dev(tm @ unit_coords, unit_coords), tol)
        chois.append(choi_matrix(alg, tm))
        defect, scale = psd_defect(chois[-1])
        rep.add(f"choi-positive[{t}]", defect, tol * scale)
        images = alg.from_coords(tm.T)  # images[c] is T_t(basis[c])
        rep.add(f"cp-star[{t}]", _dev(images[star], images.conj().transpose(0, 2, 1)), tol)
    return chois


def cp_of_unit(ps: ProductSystem, xi1: np.ndarray) -> CPFamily:
    """The CP semigroup generated by a unit, verified level by level.

    ``T_t`` is the t-th power of ``b -> <xi, L(b) xi>``; every level gets the
    checks of :func:`cp_checks` (unitality when the unit is unital), then each
    is cross-checked against the inner product taken in the realized power.
    """
    unit, tol = derive_unit(ps, xi1), ps.tol
    t1 = unit_cp_matrix_level(ps, unit, 1)
    rep = VerificationReport("cp maps of unit", provenance={"levels": ps.levels})
    tmats = [np.linalg.matrix_power(t1, t) for t in range(1, ps.levels + 1)]
    chois = cp_checks(rep, ps.algebra, tmats, tol, unit.unital)
    for t, tm in enumerate(tmats, 1):
        rep.add(f"cp-semigroup-crosscheck[{t}]", _dev(tm, unit_cp_matrix_level(ps, unit, t)), tol)
    return CPFamily([CPMap(t, tm, c) for t, (tm, c) in enumerate(zip(tmats, chois), 1)], rep)


def unit_cp_matrix_level(ps: ProductSystem, unit: Unit, t: int) -> np.ndarray:
    """Matrix of ``b -> <xi_t, L(b) xi_t>`` computed in the realized power."""
    et = ps.power(t)
    v = unit.levels[t]
    return ps.algebra.coords(et.inner(v, et.left_action @ v)).T
