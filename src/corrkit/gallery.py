"""Named desk-scale instances used by the test suite, docs, and generators.

Every module here is built from the standard form
``(+)_i C^{k_i} (x) C^{n_i}`` of :func:`corrkit.hilbmod.standard_module`
(re-exported here), optionally moved by a unitary change of carrier basis
(:func:`conjugated`), which hides the block structure while preserving every
axiom exactly.  Operators on the row index of each group come from the one
builder :func:`row_operator`.

In finite dimensions an intertwining isometry is automatically unitary, so
an endomorphism semigroup admits a central unital unit exactly when it is
inner; the gallery therefore pairs inner instances (spatial) with a
block-collapsing and an outer automorphism instance (certified non-spatial).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, make_algebra
from .endo import Endomorphism, endomorphism_from_conjugation, endomorphism_from_map
from .errors import InvalidPresentationError
from .hilbmod import (
    Correspondence,
    ModulePresentation,
    adjointable_basis,
    pull_gram,
    standard_module,
)


def conjugated(pres: ModulePresentation, u: np.ndarray):
    """Unitary change of carrier basis; preserves every axiom exactly."""
    uh = u.conj().T
    right = uh @ pres.right_action @ u
    gram = pull_gram(u, pres.gram)
    if pres.is_correspondence:
        left = uh @ pres.left_action @ u
        return Correspondence(pres.algebra, right, gram, left)
    return ModulePresentation(pres.algebra, right, gram)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def row_operator(alg: Algebra, mats: list[np.ndarray]) -> np.ndarray:
    """``(+)_i mats[i] (x) I_{n_i}`` on a standard-form carrier: ``mats[i]`` acts
    on the row index of group ``i``, so the result commutes with the right
    action (and is left multiplication by ``(+)_i mats[i]`` on the algebra
    over itself)."""
    parts = [np.kron(a, np.eye(n)) for a, n in zip(mats, alg.blocks)]
    out = np.zeros((sum(len(p) for p in parts),) * 2, dtype=complex)
    at = 0
    for p in parts:
        out[at:at + len(p), at:at + len(p)] = p
        at += len(p)
    return out


def unit_vector_of_identity(alg: Algebra, row_counts: list[int]) -> np.ndarray:
    """Coordinates of the identity when the module is the algebra itself."""
    if list(row_counts) != list(alg.blocks):
        raise InvalidPresentationError("the module is not the algebra over itself")
    out = []
    for n in alg.blocks:
        block = np.eye(n, dtype=complex).reshape(-1)
        out.append(block)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# correspondences for product-system experiments
# ---------------------------------------------------------------------------

def block_swap_correspondence() -> Correspondence:
    """The algebra over two scalar blocks with the left action swapped."""
    return standard_module(make_algebra([1, 1]), [1, 1], [[0, 1], [1, 0]])


def plane_correspondence() -> Correspondence:
    """Two-dimensional space over the scalars with trivial actions."""
    return standard_module(make_algebra([1]), [2], [[2]])


def doubled_swap_correspondence() -> Correspondence:
    """Two copies of the algebra over two scalar blocks, one with the
    left action swapped; its unital units generate different compressions.

    The carrier is ordered copy by copy: coordinates 0, 1 hold the plain copy
    and 2, 3 the swapped one."""
    corr = standard_module(make_algebra([1, 1]), [2, 2], [[1, 1], [1, 1]])
    return conjugated(corr, np.eye(4, dtype=complex)[:, [0, 3, 1, 2]])


# ---------------------------------------------------------------------------
# endomorphism instances
# ---------------------------------------------------------------------------

@dataclass
class EndomorphismInstance:
    name: str
    eplus: ModulePresentation
    endo: Endomorphism
    spatial: bool
    unit_vectors: dict[str, np.ndarray] = field(default_factory=dict)


def identity_scalar_instance() -> EndomorphismInstance:
    alg = make_algebra([1])
    eplus = standard_module(alg, [2])
    ops = adjointable_basis(eplus)
    endo = Endomorphism(eplus, ops, np.eye(len(ops)))
    xi = np.zeros(2, dtype=complex)
    xi[0] = 1.0
    return EndomorphismInstance("identity-scalar", eplus, endo, True, {"xi": xi})


def identity_mixed_instance() -> EndomorphismInstance:
    alg = make_algebra([1, 2])
    eplus = standard_module(alg, list(alg.blocks))
    ops = adjointable_basis(eplus)
    endo = Endomorphism(eplus, ops, np.eye(len(ops)))
    one = unit_vector_of_identity(alg, list(alg.blocks))
    return EndomorphismInstance("identity-mixed", eplus, endo, True, {"xi": one})


def inner_rotation_instance(angle: float = np.pi / 5) -> EndomorphismInstance:
    """Conjugation by left multiplication with a noncentral unitary.

    Spatial, and the distinguished unit vector compresses it to a
    nontrivial automorphism semigroup of the base algebra.
    """
    alg = make_algebra([2])
    eplus = standard_module(alg, [2])
    g = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]], dtype=complex
    )
    v = row_operator(alg, [g.conj().T])  # left multiplication by g*
    endo = endomorphism_from_conjugation(eplus, v)
    one = unit_vector_of_identity(alg, [2])
    return EndomorphismInstance("inner-rotation", eplus, endo, True, {"xi": one})


def inner_two_block_instance(seed: int = 5) -> EndomorphismInstance:
    """Conjugation by a seeded unitary on a two-block operator algebra."""
    alg = make_algebra([1, 1])
    eplus = standard_module(alg, [2, 2])
    rng = np.random.default_rng(seed)
    v = row_operator(alg, [random_unitary(rng, 2) for _ in range(2)])
    endo = endomorphism_from_conjugation(eplus, v)
    return EndomorphismInstance("inner-two-block", eplus, endo, True, {})


def block_collapse_instance() -> EndomorphismInstance:
    """Proper endomorphism collapsing both operator blocks onto the second.

    Not injective, hence certified non-spatial; the recovery identity and
    the associated product system remain fully verifiable.
    """
    alg = make_algebra([1, 1])
    eplus = standard_module(alg, [2, 2])

    def collapse(a):
        out = np.zeros_like(a)
        out[..., :2, :2] = a[..., 2:, 2:]
        out[..., 2:, 2:] = a[..., 2:, 2:]
        return out

    endo = endomorphism_from_map(eplus, collapse)
    return EndomorphismInstance("block-collapse", eplus, endo, False, {})


def outer_swap_instance() -> EndomorphismInstance:
    """The flip automorphism of a two-block commutative operator algebra.

    An automorphism, but not inner, hence certified non-spatial.
    """
    alg = make_algebra([1, 1])
    eplus = standard_module(alg, [1, 1])

    def swap(a):
        out = np.zeros_like(a)
        out[..., 0, 0] = a[..., 1, 1]
        out[..., 1, 1] = a[..., 0, 0]
        return out

    endo = endomorphism_from_map(eplus, swap)
    return EndomorphismInstance("outer-swap", eplus, endo, False, {})


def endomorphism_gallery() -> list[EndomorphismInstance]:
    return [
        identity_scalar_instance(),
        identity_mixed_instance(),
        inner_rotation_instance(),
        inner_two_block_instance(),
        block_collapse_instance(),
        outer_swap_instance(),
    ]


def weak_dilation_gallery() -> list[tuple[EndomorphismInstance, np.ndarray]]:
    """Instances carrying a distinguished unit vector; the rotation one
    compresses to a nontrivial semigroup."""
    out = []
    for inst in (identity_scalar_instance(), identity_mixed_instance(), inner_rotation_instance()):
        out.append((inst, inst.unit_vectors["xi"]))
    return out
