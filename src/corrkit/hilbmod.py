"""Hilbert modules and correspondences over a block-diagonal C*-algebra.

A module presentation is a finite carrier ``C^m`` together with

* a right action ``R``: for each algebra basis element a complex ``m x m``
  matrix acting on coordinate columns, so ``coords(x . b) = R(b) coords(x)``
  and consequently ``R(b b') = R(b') R(b)``;
* an algebra-valued Gram tensor ``gram[i, j] = <e_i, e_j>``, conjugate-linear
  in the first slot and linear in the second.

A correspondence adds a unital *-homomorphic left action ``L`` commuting
with ``R``.  All maps between presentations are plain matrices on carrier
coordinates.  The internal tensor product of a module with a correspondence
is the algebraic tensor carrier with the balanced pre-inner product
``<x (x) y, x' (x) y'> = <y, L(<x, x'>) y'>``, quotiented by its length-zero
vectors.

Factoring the Gram of the left module as ``<e_i, e_k> = sum_p u[p, i]* u[p, k]``
(:attr:`ModulePresentation._gram_factor`) embeds the algebraic tensor
isometrically in ``F^P`` by ``x_i (x) y_j -> (L(u[p, i]) y_j)_p``.  Each
``u[p, i]`` lies in row 0 of one algebra block ``b``, so the image lies in the
corner sum ``(+)_p L(e^b_00) F`` of dimension ``sum_p rank L(e^b_00)``: in the
frame ``Y_b`` of each corner, that embedding is the corner factor ``K`` with
rows ``(b, p, alpha)``.  Over a block algebra the tensor is the standard form
``(+)_b C^{P_b} (x) L(e^b_00) F``, so ``K`` has full row rank ``sum_b P_b r_b``
and :func:`internal_tensor` realizes the tensor on its rows, ``proj = K``,
with no rank decision of its own.  With ``S`` the scalar Gram of ``F`` and
``W[(b, p, a), i] = w_b[p, i, a]`` the Gram factor rows of ``E``, the
realized structure is block diagonal on modules that satisfy the axioms:

* right action: ``right(c) = (+)_{b,p} R~_b(c)``, since
  ``K (I (x) R_F(c)) = ((+)_{b,p} R~_b(c)) K`` with
  ``R~_b(c) = Y_b^H S^{1/2} R_F(c) S^{-1/2} Y_b``;
* Gram: ``gram = (+)_{b,p} G~_b``, since the pre-Gram is
  ``sum_{b,p} pull_gram(K_{bp}, G~_b)`` with ``G~_b = pull_gram(S^{-1/2} Y_b, gram_F)``;
* left action: ``left(c) = (+)_b M~_b(c) (x) I_{r_b}``, because
  ``W L_E(c) = ((+)_b M~_b(c) (x) I_{n_b}) W``.

Every realized module is whitened: its factor map ``proj`` has a section with
``proj @ section = I`` and the realized scalar Gram is ``I``, so scale does
not compound with depth.  A tensor's section is formed when read, from the
frames, with no linear solve: for ``M = S_E (x) S_F``, the square ``W`` has
``W S_E^{-1} W^H = n I`` and the corner maps have ``C_b[c] S_F^{-1} C_b'[c']^H
= delta_bb' delta_cc' I``, so ``K M^{-1} K^H = D = (+)_b n n_b I`` and the
section is ``M^{-1} K^H D^{-1}`` (:func:`_tensor_section`).  The realized
scalar Gram ``(+)_{b,p} s_b``, ``s_b`` the scalar part of ``G~_b``, is
inverted per corner.

The corner maps behind ``K`` and the stacks ``R~_b``, ``G~_b`` are one cached
frame on ``F`` (:attr:`Correspondence.corner_frame`), ``M~_b`` is cached on
``E`` (:attr:`Correspondence._left_blocks`).  Every rank is the trace of an
idempotent (:func:`_trace_rank`): ``P_b = tr R_E(e^b_00)`` and
``r_b = tr L_F(e^b_00)`` here, and ``tr theta^t(xi_p xi_p*)`` for the
projection frame on which :func:`corrkit.endo.associated_correspondence`
realizes ``E_t`` the same way.

Every named module is built from one standard form, :func:`standard_module`,
of which every correspondence over a block algebra is a unitary change of basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import DEFAULT_TOL, Algebra
from .errors import IncompatibleOperandsError, InvalidPresentationError
from .report import VerificationReport, _worst

RANK_RTOL = 1e-10


def _dev(a, b=None) -> float:
    arr = np.abs(np.asarray(a) - (0 if b is None else np.asarray(b)))
    return float(arr.max()) if arr.size else 0.0


def _unitary_dev(v: np.ndarray, adj: np.ndarray) -> float:
    """How far ``v`` is from a unitary with inverse ``adj``: both products
    against the identity, NaN when either is NaN."""
    return _worst((_dev(adj @ v, np.eye(v.shape[1])), _dev(v @ adj, np.eye(v.shape[0]))))


def matrix_rank_tol(m: np.ndarray) -> int:
    m = np.atleast_2d(np.asarray(m))
    s = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(1)
    return int(np.sum(s > RANK_RTOL * s[0])) if s[0] != 0.0 else 0


def null_space(m: np.ndarray, *, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the kernel, as columns.  Rank counts the singular
    values above ``RANK_RTOL`` times the larger of the top one and ``scale``, the
    size of the operands, so a system that cancels to rounding has a full kernel."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    # a tall system's thin vh is already square; a wide one needs the full vh
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    top = max(float(s[0]) if s.size else 0.0, scale)
    rank = int(np.sum(s > RANK_RTOL * top)) if top > 0.0 else 0
    return vh[rank:].conj().T


def pull_gram(v: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Gram transported along a carrier map: ``out[i, j] = <v e_i, v e_j>``.

    ``gram`` is the (m, m, n, n) Gram of the codomain and ``v`` an (m, r)
    matrix; the result is the (r, r, n, n) Gram of the domain.
    """
    pulled = v.conj().T @ gram.transpose(2, 3, 0, 1) @ v
    return np.ascontiguousarray(pulled.transpose(2, 3, 0, 1))


def psd_defect(a: np.ndarray) -> tuple[float, float]:
    """``(defect, scale)`` of a square matrix ``a``: the defect is the worse of
    the distance of ``a`` from Hermitian and minus the least eigenvalue of its
    Hermitian part (0 when ``a`` is positive semidefinite, NaN when an entry is
    not finite); the scale is ``max(1, top eigenvalue)``, what a tolerance
    relative to the size of ``a`` multiplies."""
    if not a.size:
        return 0.0, 1.0
    herm = _dev(a, a.conj().T)
    if not math.isfinite(herm):  # eigvalsh reads one triangle and may drop a NaN
        return herm, 1.0
    eigs = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return _worst((herm, -eigs[0])), max(1.0, float(eigs[-1]))


def _trace_rank(p: np.ndarray) -> int:
    """The rank of the idempotent ``p``: its trace, rounded."""
    return round(float(np.trace(p).real))


def _range_basis(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of ``a``, as columns, where ``a`` has the
    rank of the idempotent ``p``: the first ``tr p`` left singular vectors of
    ``a``, with no singular-value cutoff."""
    return np.linalg.svd(a)[0][:, :_trace_rank(p)]


def _lift(a: np.ndarray, s: np.ndarray, dims: tuple[int, int], side: str) -> np.ndarray:
    """``kron(a, I) @ s`` (or ``kron(I, a) @ s``) without forming the kron.

    The rows of ``s`` are indexed by pairs of a ``dims`` tensor carrier; ``a``
    acts on the first (``side="left"``) or second factor of each pair.  A
    stack ``a`` of shape (q, k, k) gives the stack of the q lifts.
    """
    first, second = dims
    cols = s.shape[1]
    # explicit sizes: a -1 is ambiguous when a factor has dimension zero
    if side == "left":
        out = a.reshape(math.prod(a.shape[:-1]), first) @ s.reshape(first, second * cols)
        return out.reshape(a.shape[:-2] + (a.shape[-2] * second, cols))
    out = a[..., None, :, :] @ s.reshape(first, second, cols)
    return out.reshape(out.shape[:-3] + (out.shape[-3] * out.shape[-2], cols))


@dataclass
class ModulePresentation:
    """Right Hilbert module over ``algebra`` on the carrier ``C^m``."""

    algebra: Algebra
    right_action: np.ndarray  # (d, m, m)
    gram: np.ndarray          # (m, m, n, n)

    def __post_init__(self):
        self.right_action = np.asarray(self.right_action, dtype=complex)
        self.gram = np.asarray(self.gram, dtype=complex)
        d, n, m = self.algebra.dim, self.algebra.size, self.dim
        if self.right_action.shape != (d, m, m):
            raise InvalidPresentationError(
                f"right action of shape {self.right_action.shape}, expected {(d, m, m)}"
            )
        if self.gram.shape != (m, m, n, n):
            raise InvalidPresentationError(
                f"gram of shape {self.gram.shape}, expected {(m, m, n, n)}"
            )

    @property
    def dim(self) -> int:
        return self.right_action.shape[1]

    @property
    def is_correspondence(self) -> bool:
        return isinstance(self, Correspondence)

    @cached_property
    def gram_coords(self) -> np.ndarray:
        """Gram entries in algebra coordinates, shape (m, m, d)."""
        return self.algebra.coords(self.gram)

    @cached_property
    def _gram_factor(self) -> tuple[np.ndarray, ...]:
        """Gram factor rows ``u[p, i]`` with ``<e_i, e_k> = sum_p u[p, i]* u[p, k]``,
        per algebra block ``b``: the rows living in row 0 of that block, as
        coefficients ``w[p, i, c]`` with ``u[p, i] = sum_c w[p, i, c] e^b_{0c}``,
        of shape (P_b, m, n_b).

        On a nondegenerate module the (m n_b)-square block Gram
        ``G[(i, a), (k, c)] = <e_i, e_k>[a, c]`` has the rank
        ``P_b = tr R(e^b_00)`` of the idempotent ``R(e^b_00)``, the dimension of
        ``E e^b_00``; its top ``P_b`` eigenpairs give the rows, with no cutoff.
        A degenerate module has a null vector in some ``E e^b_00``, so a kept
        eigenvalue vanishes there (up to ``DEFAULT_TOL`` times the top): it is
        refused.
        """
        alg, m = self.algebra, self.dim
        out, kept = [], []
        for sl, units, nb in zip(alg.block_slices, alg.unit_slices, alg.blocks):
            g = self.gram[:, :, sl, sl].transpose(0, 2, 1, 3).reshape(m * nb, m * nb)
            vals, vecs = np.linalg.eigh((g + g.conj().T) / 2.0)
            first = len(vals) - _trace_rank(self.right_action[units.start])  # R(e^b_00)
            kept.extend(vals[first:])
            w = (vecs[:, first:] * np.sqrt(vals[first:])).conj().T  # G = w^H w
            out.append(w.reshape(len(w), m, nb))
        if kept and not min(kept) > DEFAULT_TOL * max(kept):
            raise InvalidPresentationError("the Gram factor needs a nondegenerate presentation")
        return tuple(out)

    @cached_property
    def scalar_gram(self) -> np.ndarray:
        """State applied to the Gram: an ordinary PSD matrix on the carrier."""
        return np.trace(self.gram, axis1=2, axis2=3) / self.algebra.size

    @cached_property
    def _scalar_sqrts(self) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = np.linalg.eigh(self.scalar_gram)
        root = np.sqrt(vals)
        make = lambda w: (vecs * w) @ vecs.conj().T
        return make(root), make(1.0 / root)

    @cached_property
    def _scalar_inv(self) -> np.ndarray:
        """``S^{-1}``, per corner from the factors on a module :func:`_tensor_module` placed."""
        placed = vars(self).get("_factors")
        return _tensor_scalar_inv(*placed) if placed else self.scalar_isqrt @ self.scalar_isqrt

    scalar_sqrt = property(lambda self: self._scalar_sqrts[0])
    scalar_isqrt = property(lambda self: self._scalar_sqrts[1])

    # -- pointwise operations ----------------------------------------------

    def right_of(self, b: np.ndarray) -> np.ndarray:
        """Matrix of the right action of the algebra element ``b``."""
        return np.einsum("c,cuv->uv", self.algebra.coords(b), self.right_action)

    def inner(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Algebra-valued inner product ``<x, y>``; a stack of vectors ``y``
        gives the stack of inner products."""
        return np.einsum("i,...j,ijab->...ab", np.conj(x), y, self.gram)

    def positivity_defect(self, a: np.ndarray) -> float:
        """How far the operator ``a`` is from being positive in B^a(E): the
        :func:`psd_defect` of ``a`` whitened by the scalar Gram."""
        return psd_defect(self.scalar_sqrt @ a @ self.scalar_isqrt)[0]


@dataclass
class Correspondence(ModulePresentation):
    """Module presentation with a unital adjointable left action."""

    left_action: np.ndarray = None  # (d, m, m)

    def __post_init__(self):
        super().__post_init__()
        if self.left_action is None:
            raise InvalidPresentationError("correspondence requires a left action")
        self.left_action = np.asarray(self.left_action, dtype=complex)
        if self.left_action.shape != self.right_action.shape:
            raise InvalidPresentationError(
                f"left action of shape {self.left_action.shape}, "
                f"expected {self.right_action.shape}"
            )

    @cached_property
    def corner_frame(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per algebra block ``b``, the corner map ``C_b`` and the corner actions
        ``A_b``, in an orthonormal basis ``Y_b`` of the range of
        ``S^{1/2} L(e^b_00)``, with ``S`` the scalar Gram: its first ``r_b``
        left singular vectors, ``r_b = tr L(e^b_00)`` the rank of the idempotent.

        * ``C_b[c] = Y_b^H S^{1/2} L(e^b_{0c})``, of shape (n_b, r_b, m).  Since
          ``L(e^b_{0c}) = L(e^b_00) L(e^b_{0c})``, the range of ``Y_b`` holds
          every ``S^{1/2} L(e^b_{0c})``, so ``C_b`` loses nothing of it.
        * ``A_b``, of shape (d + n^2, r_b, r_b): first the right action
          ``R~_b(c) = Y_b^H S^{1/2} R(c) S^{-1/2} Y_b``, then the entries
          ``(x, y)`` of ``G~_b = pull_gram(S^{-1/2} Y_b, gram)`` in row-major
          order.  Since ``R`` commutes with ``L(e^b_00)``, ``S^{1/2} R(c) S^{-1/2}``
          keeps the range of ``Y_b``, so ``R~_b`` is the right action there.
        """
        n = self.algebra.size
        out = []
        for sl, nb in zip(self.algebra.unit_slices, self.algebra.blocks):
            units = self.left_action[sl][:nb]  # L(e^b_{0c})
            row0 = self.scalar_sqrt @ units
            y = _range_basis(row0[0], units[0])
            r, back = y.shape[1], self.scalar_isqrt @ y
            right = (self.scalar_sqrt @ y).conj().T @ self.right_action @ back
            gram = pull_gram(back, self.gram).transpose(2, 3, 0, 1).reshape(n * n, r, r)
            out.append((y.conj().T @ row0, np.concatenate([right, gram])))
        return tuple(out)

    @cached_property
    def _corner_scalar_invs(self) -> tuple[np.ndarray, ...]:
        """Per algebra block, ``s_b^{-1}`` for ``s_b`` the scalar part of ``G~_b``."""
        n = self.algebra.size
        return tuple(np.linalg.inv(np.trace(s[-n * n:].reshape(n, n, *s.shape[1:])) / n)
                     for _, s in self.corner_frame)

    @cached_property
    def _left_blocks(self) -> tuple[np.ndarray, ...]:
        """Per algebra block ``b``, the left action on the Gram factor rows: the
        (d, P_b, P_b) stack ``M~_b`` with ``W L(c) = (+)_b (M~_b(c) (x) I_{n_b}) W``,
        where ``W[(b, p, a), i] = w_b[p, i, a]`` (:attr:`_gram_factor`).

        ``W`` maps onto ``(+)_b C^{P_b} (x) C^{n_b}``, on which the adjointable
        ``L(c)`` acts as a matrix on the first factor; ``W^+ = (n S)^+ W^H``
        since ``W^H W = n S``, so ``M~_b(c)`` is read from the ``a = 0`` rows and
        columns of ``W L(c) W^+``."""
        pinv = self.scalar_isqrt @ self.scalar_isqrt / self.algebra.size
        return tuple(w[:, :, 0] @ self.left_action @ (pinv @ w[:, :, 0].conj().T) for w in self._gram_factor)

    def left_of(self, b: np.ndarray) -> np.ndarray:
        return np.einsum("c,cuv->uv", self.algebra.coords(b), self.left_action)


@dataclass
class AdjointableOperator:
    """Carrier map together with its algebra-valued adjoint."""

    matrix: np.ndarray
    adjoint: np.ndarray


@dataclass
class FactorMap:
    """Surjection from an algebraic tensor carrier onto its realization.

    ``section`` picks representatives: ``matrix @ section = I``, and the
    realized scalar Gram, the pre-Gram pulled back along ``section``, is ``I``.
    Both are formed when read, by ``form_matrix`` and ``form_section``; for a
    tensor from the frames, ``K`` by :func:`_corner_factor` and its section by
    ``K M^{-1} K^H = D``, which makes ``M^{-1} K^H D^{-1}`` one (module
    docstring).  A map whose caller holds it holds its arrays in the closures.
    """

    form_matrix: Callable[[], np.ndarray]
    source_dims: tuple[int, int]
    form_section: Callable[[], np.ndarray]
    matrix = property(lambda self: self.form_matrix())
    section = property(lambda self: self.form_section())


def map_adjoint(v: np.ndarray, dom: ModulePresentation, cod: ModulePresentation) -> np.ndarray:
    """Adjoint ``S_dom^{-1} v^H S_cod`` of a map between presentations, on the
    scalarized Grams; a stack of maps gives the stack of adjoints."""
    return dom._scalar_inv @ np.swapaxes(v.conj(), -1, -2) @ cod.scalar_gram


def check_map(
    rep: VerificationReport, v: np.ndarray, dom: ModulePresentation, cod: ModulePresentation,
    tol: float, names: dict[str, str], adj: np.ndarray | None = None,
) -> np.ndarray | None:
    """Add to ``rep``, in the order of ``names``, the checks of the map
    ``v: dom -> cod`` that ``names`` maps to check names: ``gram``, ``isometry``,
    ``unitary``, ``right-linear``, ``left-linear`` or ``bilinear`` (both).  Only
    those are computed, and the adjoint (returned, else ``None``) only for an
    isometry or a unitary."""
    if adj is None and not names.keys().isdisjoint(("isometry", "unitary")):
        adj = map_adjoint(v, dom, cod)
    right = lambda: _dev(v @ dom.right_action, cod.right_action @ v)
    left = lambda: _dev(v @ dom.left_action, cod.left_action @ v)
    devs = {
        "gram": lambda: _dev(pull_gram(v, cod.gram), dom.gram),
        "isometry": lambda: _dev(adj @ v, np.eye(dom.dim)),
        "unitary": lambda: _unitary_dev(v, adj),
        "right-linear": right, "left-linear": left,
        "bilinear": lambda: _worst((right(), left())),
    }
    for prop, name in names.items():
        rep.add(name, devs[prop](), tol)
    return adj


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_module(pres: ModulePresentation, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check every structural axiom of a module presentation.

    One named check per axiom; the left-action axioms are included exactly
    when the presentation is a correspondence.
    """
    alg = pres.algebra
    d, m, n = alg.dim, pres.dim, alg.size
    rep = VerificationReport(f"module axioms (dim {m} over {list(alg.blocks)})")
    r = pres.right_action

    rep.add("right-action-unit", _dev(pres.right_of(alg.unit), np.eye(m)), tol)

    # R(b b') = R(b') R(b) on all basis pairs.
    prod = alg.basis_products  # (d, d, d) coordinates of basis[i] @ basis[j]
    lhs = (prod.reshape(d * d, d) @ r.reshape(d, m * m)).reshape(d, d, m, m)
    rep.add("right-action-composition", _dev(lhs, _products(r, r).transpose(2, 0, 1, 3)), tol)

    rep.add(
        "gram-hermitian",
        _dev(pres.gram.transpose(0, 1, 3, 2).conj(), pres.gram.transpose(1, 0, 2, 3)),
        tol,
    )

    off = np.where(alg.support_mask, 0.0, pres.gram).astype(complex)
    rep.add("gram-block-support", _dev(off), tol)

    # <e_i, e_j . b> = <e_i, e_j> b for every basis element b, as [c, j, i, a, q]
    by_second = pres.gram.transpose(1, 0, 2, 3).reshape(m, m * n * n)  # [l, (i, a, b)]
    lhs = (r.transpose(0, 2, 1).reshape(d * m, m) @ by_second).reshape(d, m, m, n, n)
    rhs = _products(pres.gram.reshape(m * m, n, n), alg.basis).reshape(m, m, n, d, n)
    rep.add("gram-right-linearity", _dev(lhs, rhs.transpose(3, 1, 0, 2, 4)), tol)

    defect, scale = psd_defect(pres.gram.transpose(0, 2, 1, 3).reshape(m * n, m * n))
    rep.add("gram-positive", defect, tol * scale)

    rep.add("scalar-gram-nondegenerate", _degeneracy(pres, tol), 0.0)

    if pres.is_correspondence:
        _validate_left_action(pres, rep, tol)
    return rep


def _validate_left_action(corr: Correspondence, rep: VerificationReport, tol: float) -> None:
    alg = corr.algebra
    d, m, n = alg.dim, corr.dim, alg.size
    left, right = corr.left_action, corr.right_action

    rep.add("left-action-unital", _dev(corr.left_of(alg.unit), np.eye(m)), tol)

    # L(b b') = L(b) L(b') on all basis pairs.
    lhs = (alg.basis_products.reshape(d * d, d) @ left.reshape(d, m * m)).reshape(d, d, m, m)
    rhs = _products(left, left).transpose(0, 2, 1, 3)
    rep.add("left-action-multiplicative", _dev(lhs, rhs), tol)

    # <L(b) e_i, e_j> = <e_i, L(b*) e_j>, as [c, i, j, a, b]
    adj = left.conj().transpose(0, 2, 1).reshape(d * m, m)
    lhs = (adj @ corr.gram.reshape(m, m * n * n)).reshape(d, m, m, n, n)
    star = left[alg.star_index].transpose(0, 2, 1).reshape(d * m, m)
    by_second = corr.gram.transpose(1, 0, 2, 3).reshape(m, m * n * n)
    rhs = (star @ by_second).reshape(d, m, m, n, n)  # [c, j, i, a, b]
    rep.add("left-action-star", _dev(lhs, rhs.transpose(0, 2, 1, 3, 4)), tol)

    # L(b) R(b') = R(b') L(b), as [c, u, e, v]
    comm = _dev(_products(left, right), _products(right, left).transpose(2, 1, 0, 3))
    rep.add("left-right-commute", comm, tol)


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every product ``a[i] @ b[j]`` of two stacks of matrices, in one matmul,
    as ``out[i, u, j, v]``."""
    (p, k, l), (q, _, w) = a.shape, b.shape
    return (a.reshape(p * k, l) @ b.transpose(1, 0, 2).reshape(l, q * w)).reshape(p, k, q, w)


def _degeneracy(pres: ModulePresentation, tol: float) -> float:
    """``tol`` times the top eigenvalue of the scalar Gram (1 when none is
    positive, so an all-zero Gram fails) less the least one, clamped at 0:
    positive or NaN exactly when the presentation is degenerate."""
    s = pres.scalar_gram
    if s.size == 0:
        return 0.0
    vals = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
    return _worst((tol * (vals[-1] if vals[-1] > 0.0 else 1.0) - vals[0],))


def is_nondegenerate(pres: ModulePresentation, tol: float = DEFAULT_TOL) -> bool:
    return _degeneracy(pres, tol) <= 0.0


# ---------------------------------------------------------------------------
# internal tensor product
# ---------------------------------------------------------------------------

def tensor_pre_gram(e: ModulePresentation, f: Correspondence) -> np.ndarray:
    """Balanced pre-inner product on the algebraic tensor carrier:
    ``pre[(i, j), (k, l)] = sum_q gram_F[j, q] L(<e_i, e_k>)[q, l]``."""
    me, mf, n = e.dim, f.dim, e.algebra.size
    lg = np.tensordot(e.gram_coords, f.left_action, axes=([2], [0]))  # [i, k, q, l]
    pre = np.tensordot(lg, f.gram, axes=([2], [1])).transpose(0, 3, 1, 2, 4, 5)
    return pre.reshape(me * mf, me * mf, n, n)


def _corner_factor(rows: list[np.ndarray], corners: list[np.ndarray]) -> np.ndarray:
    """``sum_c w_b[p, i, c] C_b[c][alpha, j]`` on the rows ``(b, p, alpha)`` and
    columns ``(i, j)``, for stacks ``w_b`` (P_b, m_E, n_b) and ``C_b`` (n_b, r_b, m_F).
    On the Gram factor rows of ``e`` and the corner maps of ``f`` it is ``K``, with
    ``K^H K`` the scalarized pre-Gram: row block ``p`` is ``Y_b^H S_F^{1/2} L(u[p, i])``."""
    parts = []
    for w, corner in zip(rows, corners):
        (p, me, nb), (r, mf) = w.shape, corner.shape[1:]
        k = (w.reshape(p * me, nb) @ corner.reshape(nb, r * mf)).reshape(p, me, r, mf)
        parts.append(k.transpose(0, 2, 1, 3).reshape(p * r, me * mf))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _tensor_factor(e: ModulePresentation, f: ModulePresentation) -> FactorMap:
    """The factor map of ``e . f``: ``K`` and :func:`_tensor_section`, each formed
    from the factors' cached frames when read."""
    if e.algebra.blocks != f.algebra.blocks:
        raise IncompatibleOperandsError(
            f"operands over different algebras: {list(e.algebra.blocks)} vs {list(f.algebra.blocks)}")
    if not f.is_correspondence:
        raise IncompatibleOperandsError("right tensor factor must be a correspondence")
    return FactorMap(lambda: _corner_factor(e._gram_factor, [corner for corner, _ in f.corner_frame]),
                     (e.dim, f.dim), lambda: _tensor_section(e, f))


def _tensor_section(e: ModulePresentation, f: Correspondence) -> np.ndarray:
    """``M^{-1} K^H D^{-1}``: the transpose of the corner factor of the rows
    ``S_E^{-1} conj(w_b) / (n n_b)`` and the maps ``conj(C_b) S_F^{-T}``."""
    rows = [e._scalar_inv @ w.conj() / (e.algebra.size * w.shape[2]) for w in e._gram_factor]
    return _corner_factor(rows, [c.conj() @ f._scalar_inv.T for c, _ in f.corner_frame]).T


def _tensor_scalar_inv(e: ModulePresentation, f: Correspondence) -> np.ndarray:
    """``S^{-1}`` of the realized ``e . f``, ``(+)_{b,p} s_b^{-1}`` on the rows of ``K``."""
    pairs = list(zip(e._gram_factor, f._corner_scalar_invs))
    out, at = np.zeros((sum(len(w) * len(inv) for w, inv in pairs),) * 2, dtype=complex), 0
    for w, inv in pairs:
        rows = np.arange(at, at + len(w) * len(inv)).reshape(len(w), len(inv))
        out[rows[:, :, None], rows[:, None, :]] = inv
        at += rows.size
    return out


def _tensor_module(e: ModulePresentation, f: Correspondence) -> ModulePresentation:
    """The realized ``e . f`` on the ``sum_b P_b r_b`` rows ``(b, p, alpha)`` of ``K``,
    placed block diagonally from the factors' cached stacks; ``K`` is not formed.  It
    keeps its factors, from which its scalar-Gram inverse is placed when read."""
    d, n = e.algebra.dim, e.algebra.size
    r = sum(len(w) * stack.shape[1] for w, (_, stack) in zip(e._gram_factor, f.corner_frame))
    right, gram = np.zeros((d, r, r), dtype=complex), np.zeros((r, r, n, n), dtype=complex)
    left = np.zeros((d, r, r), dtype=complex) if e.is_correspondence else None
    at = 0
    for b, (w, (_, stack)) in enumerate(zip(e._gram_factor, f.corner_frame)):
        p, rb = len(w), stack.shape[1]
        rows = np.arange(at, at + p * rb).reshape(p, rb)  # rows[p, alpha] of K
        at += p * rb
        right[:, rows[:, :, None], rows[:, None, :]] = stack[:d, None]
        gram[rows[:, :, None], rows[:, None, :]] = stack[d:].reshape(n, n, rb, rb).transpose(2, 3, 0, 1)
        if left is not None:
            left[:, rows[:, None, :], rows[None, :, :]] = e._left_blocks[b][..., None]
    out = ModulePresentation(e.algebra, right, gram) if left is None else Correspondence(
        e.algebra, right, gram, left)
    out._factors = (e, f)
    return out


def internal_tensor(e: ModulePresentation, f: ModulePresentation) -> tuple[ModulePresentation, FactorMap]:
    """Internal tensor product of a module with a correspondence (a correspondence
    when ``e`` is one): :func:`_tensor_module` with :func:`_tensor_factor`, whose
    ``K`` and section are formed once here and held with the map, as the caller
    holds both."""
    fm = _tensor_factor(e, f)
    return _tensor_module(e, f), FactorMap(
        lambda held=fm.matrix: held, fm.source_dims, lambda held=fm.section: held)


# ---------------------------------------------------------------------------
# adjointable, rank-one and compact operators
# ---------------------------------------------------------------------------

def adjointable_basis(
    e: ModulePresentation, tol: float = DEFAULT_TOL
) -> list[AdjointableOperator]:
    """Canonical basis of the adjointable operators on ``e``: a function of the
    right action alone, so callers can address operators by index.

    The commutant of ``R`` is the range of the conditional expectation
    ``E(X) = sum_j (1/n_j) sum_{a,b} R(e^j_ab) X R(e^j_ba)``, an idempotent
    (``R`` is a unital anti-homomorphism) whose trace is its rank.  Walking the
    nonzero images ``E(E_uv)`` of the carrier matrix units in lex order of
    ``(u, v)``, Gram-Schmidt keeps each image whose residual against those
    kept is above ``RANK_RTOL`` times the largest image norm, until that rank
    is reached.
    Each candidate's adjoint comes from the scalarized Gram, and the
    candidates whose algebra-valued adjoint relation verifies are kept.
    """
    if not is_nondegenerate(e, tol):
        raise InvalidPresentationError("adjointable operators need a reduced presentation")
    alg, m, r = e.algebra, e.dim, e.right_action
    # with vec(A X B) = kron(A, B^T) vec(X) on row-major vec, row (u, v) is vec E(E_uv)
    images = np.einsum("c,cij,ckl->jkil", alg.haar_weights, r, r[alg.star_index], optimize=True)
    images = images.reshape(m * m, m * m)
    rank = int(round(float(np.trace(images).real)))
    norms = np.linalg.norm(images, axis=1)
    top = float(norms.max(initial=0.0))
    kept = np.zeros((rank, m * m), dtype=complex)
    k = 0
    for v, norm in zip(images, norms):
        if norm == 0.0:  # its residual is 0, so it is never kept
            continue
        for _ in range(2):  # orthogonalized twice, the kept rows are orthonormal to rounding
            v = v - (kept[:k] @ v.conj()).conj() @ kept[:k]
        size = float(np.linalg.norm(v))
        if size > RANK_RTOL * top:
            kept[k] = v / size
            k += 1
            if k == rank:
                break
    ops = kept[:k].reshape(k, m, m)
    adj = map_adjoint(ops, e, e)
    # <a e_i, e_j> = <e_i, a* e_j>, one (n, n) block pair per candidate
    g = e.gram.transpose(2, 3, 0, 1)[None]
    defect = np.abs(np.swapaxes(ops.conj(), 1, 2)[:, None, None] @ g - g @ adj[:, None, None])
    scale = max(1.0, float(np.abs(e.gram).max(initial=0.0)))
    keep = defect.reshape(k, -1).max(axis=1, initial=0.0) <= tol * scale
    return [AdjointableOperator(a, b) for a, b, ok in zip(ops, adj, keep) if ok]


def rank_one(e: ModulePresentation, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (m, m) matrix of the operator ``z -> x <y, z>``."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    if x.shape != (e.dim,) or y.shape != (e.dim,):
        raise IncompatibleOperandsError(
            f"vectors of shapes {x.shape}, {y.shape} on a carrier of dimension {e.dim}")
    gy = np.tensordot(np.conj(y), e.gram_coords, axes=([0], [0]))  # [j, c]: <y, e_j>
    return np.tensordot(e.right_action @ x, gy, axes=([0], [1]))


def rank_one_stack(e: ModulePresentation) -> np.ndarray:
    """All basis rank-one operators ``e_i e_j*`` as an (m, m, m, m) stack:
    ``out[i, j] = rank_one(e, e_i, e_j)``."""
    return np.tensordot(e.gram_coords, e.right_action, axes=([2], [0])).transpose(3, 0, 2, 1)


def fullness_check(e: ModulePresentation) -> bool:
    """Whether the inner products span the whole algebra.  Their span is an
    ideal, a sum of blocks; on a nondegenerate module it holds block ``b``
    exactly when ``E e^b_00`` is not zero, i.e. ``tr R(e^b_00) >= 1``."""
    return all(_trace_rank(e.right_action[sl.start]) >= 1 for sl in e.algebra.unit_slices)


def left_faithful_check(f: Correspondence) -> bool:
    """Whether the left action annihilates only the zero element.  The kernel
    of a unital *-homomorphism is a sum of blocks, and it misses block ``b``
    exactly when ``tr L(e^b_00) >= 1``."""
    return all(_trace_rank(f.left_action[sl.start]) >= 1 for sl in f.algebra.unit_slices)


# ---------------------------------------------------------------------------
# lifted maps and canonical identifications
# ---------------------------------------------------------------------------

def amplify(a: np.ndarray, fm: FactorMap, *, side: str = "left") -> np.ndarray:
    """Descend ``a (x) id`` (or ``id (x) a``) through a factor map; a stack
    of operators gives the stack of their amplifications."""
    return fm.matrix @ _lift(a, fm.section, fm.source_dims, side)


def tensor_vector(fm: FactorMap, vec: np.ndarray, side: str) -> np.ndarray:
    """The (r, k) matrix of ``x -> [x (x) vec]`` (``x`` in the left factor,
    ``side="left"``) or of ``x -> [vec (x) x]`` (``side="right"``), read off the
    factor map without forming ``kron(I, vec)``."""
    rows = fm.matrix.reshape(len(fm.matrix), *fm.source_dims)
    return rows @ vec if side == "left" else np.tensordot(rows, vec, axes=([1], [0]))


def tensor_lift(
    v: np.ndarray, fm_dom: FactorMap, fm_cod: FactorMap, *, side: str = "left"
) -> np.ndarray:
    """Descend ``v (x) id`` (or ``id (x) v``) between two realized tensors."""
    shared = 1 if side == "left" else 0
    if fm_cod.source_dims[shared] != fm_dom.source_dims[shared]:
        raise IncompatibleOperandsError("lifted map does not match the shared factor")
    return fm_cod.matrix @ _lift(v, fm_dom.section, fm_dom.source_dims, side)


def left_unitor(f: Correspondence, fm: FactorMap) -> np.ndarray:
    """Canonical map realize(B (.) F) -> F, ``b (x) y -> L(b) y``."""
    c = f.left_action.transpose(1, 0, 2).reshape(f.dim, f.dim * len(f.left_action))
    return c @ fm.section


def right_unitor(e: ModulePresentation, fm: FactorMap) -> np.ndarray:
    """Canonical map realize(E (.) B) -> E, ``x (x) b -> x . b``."""
    c = e.right_action.transpose(1, 2, 0).reshape(e.dim, e.dim * len(e.right_action))
    return c @ fm.section


# ---------------------------------------------------------------------------
# rebracketing
# ---------------------------------------------------------------------------

def _rebracket(
    src: FactorMap, expand: np.ndarray, contract: np.ndarray, dst: FactorMap, side: str
) -> np.ndarray:
    """The rebracketing of a triple tensor from the range of ``src.matrix`` to
    that of ``dst.matrix``, composed on the algebraic triple carrier: ``expand``
    takes the ``side`` factor of a ``src.section`` representative to a pair
    carrier, ``contract`` takes the pair it leaves with the other factor to one
    of ``dst``'s factors, and ``dst.matrix`` descends.  No bracketing is
    realized on the way."""
    triple = _lift(expand, src.section, src.source_dims, side)
    pair = contract.shape[1]
    if side == "left":  # (E F) G -> E (F G)
        return dst.matrix @ _lift(contract, triple, (dst.source_dims[0], pair), "right")
    return dst.matrix @ _lift(contract, triple, (pair, dst.source_dims[1]), "left")


# ---------------------------------------------------------------------------
# standard forms
# ---------------------------------------------------------------------------

def standard_module(
    alg: Algebra,
    row_counts: list[int],
    multiplicities: list[list[int]] | None = None,
) -> ModulePresentation | Correspondence:
    """Blockwise row-space module, optionally with a multiplicity left action.

    ``row_counts[i]`` rows of length ``blocks[i]`` form the i-th carrier
    group ``C^{k_i} (x) C^{n_i}``, on which ``R(e^i_pq) = I (x) E_qp`` and
    ``<(r, a), (r', c)> = delta_{rr'} e^i_ac``.  When ``multiplicities`` is
    given, group ``i`` must decompose as ``sum_j multiplicities[i][j] * blocks[j]``
    rows, and ``L(e^j_pq) = ((+)_{j'} delta_{jj'} I_{mu_ij'} (x) E_pq) (x) I_{n_i}``
    embeds algebra block ``j`` with that multiplicity.
    """
    if len(row_counts) != len(alg.blocks):
        raise InvalidPresentationError("one row count per algebra block is required")
    blocks, d, n = alg.blocks, alg.dim, alg.size
    # the matrix units of every block in basis order, and where each row group
    # starts in the carrier
    units = [np.eye(nb * nb).reshape(nb * nb, nb, nb) for nb in blocks]
    rows = np.cumsum([0] + [k * nb for k, nb in zip(row_counts, blocks)])
    groups = [slice(a, b) for a, b in zip(rows[:-1], rows[1:])]
    right = np.zeros((d, rows[-1], rows[-1]), dtype=complex)
    gram = np.zeros((rows[-1], rows[-1], n, n), dtype=complex)
    for i, (k, nb, sl, g) in enumerate(zip(row_counts, blocks, alg.block_slices, groups)):
        right[alg.unit_slices[i], g, g] = np.kron(np.eye(k)[None], units[i].transpose(0, 2, 1))
        gram[g, g, sl, sl] = np.kron(np.eye(k)[:, :, None, None], units[i].reshape((nb,) * 4))
    if multiplicities is None:
        return ModulePresentation(alg, right, gram)

    left = np.zeros_like(right)
    for i, (k, nb, g) in enumerate(zip(row_counts, blocks, groups)):
        sizes = [mu * nj for mu, nj in zip(multiplicities[i], blocks)]
        if sum(sizes) != k:
            raise InvalidPresentationError(
                f"row group {i} of size {k} does not match its multiplicities"
            )
        copies = np.cumsum([0] + sizes)
        for j, mu in enumerate(multiplicities[i]):
            on_rows = np.zeros((len(units[j]), k, k))  # L(e^j_pq) on the rows of group i
            span = slice(copies[j], copies[j + 1])
            on_rows[:, span, span] = np.kron(np.eye(mu)[None], units[j])
            left[alg.unit_slices[j], g, g] = np.kron(on_rows, np.eye(nb)[None])
    return Correspondence(alg, right, gram, left)


def algebra_correspondence(alg: Algebra) -> Correspondence:
    """The algebra as a correspondence over itself, ``<a, b> = a* b``: the
    standard form with identity multiplicities, ``E_0`` of every product system."""
    return standard_module(alg, list(alg.blocks), np.eye(len(alg.blocks), dtype=int).tolist())
