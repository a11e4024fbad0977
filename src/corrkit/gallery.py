"""Named desk-scale instances used by the test suite, docs, and generators.

Modules over a block algebra are built in the standard form
``(+)_i C^{k_i} (x) C^{n_i}``: one group of ``k_i`` rows of length ``n_i`` per
algebra block, with blockwise matrix multiplication from the right and the
blockwise ``x* y`` Gram, each a Kronecker product of matrix units.  Left
actions come from a multiplicity matrix assigning algebra blocks to operator
blocks.  A unitary change of basis produces presentations with no visible
block structure while preserving every axiom exactly.

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
    algebra_correspondence,
    pull_gram,
)


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
    # the matrix units of every block in basis order, where each block's units
    # start in the basis, and where each row group starts in the carrier
    units = [np.eye(nb * nb).reshape(nb * nb, nb, nb) for nb in blocks]
    at = np.cumsum([0] + [nb * nb for nb in blocks])
    rows = np.cumsum([0] + [k * nb for k, nb in zip(row_counts, blocks)])
    groups = [slice(a, b) for a, b in zip(rows[:-1], rows[1:])]
    right = np.zeros((d, rows[-1], rows[-1]), dtype=complex)
    gram = np.zeros((rows[-1], rows[-1], n, n), dtype=complex)
    for i, (k, nb, sl, g) in enumerate(zip(row_counts, blocks, alg.block_slices, groups)):
        right[at[i]:at[i + 1], g, g] = np.kron(np.eye(k)[None], units[i].transpose(0, 2, 1))
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
            left[at[j]:at[j + 1], g, g] = np.kron(on_rows, np.eye(nb)[None])
    return Correspondence(alg, right, gram, left)


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
    alg = make_algebra([1, 1])
    e0 = algebra_correspondence(alg)
    return Correspondence(alg, e0.right_action, e0.gram, e0.left_action[[1, 0]])


def plane_correspondence() -> Correspondence:
    """Two-dimensional space over the scalars with trivial actions."""
    alg = make_algebra([1])
    eye = np.eye(2, dtype=complex)[None, :, :]
    return Correspondence(alg, eye.copy(), np.eye(2, dtype=complex).reshape(2, 2, 1, 1), eye.copy())


def doubled_swap_correspondence() -> Correspondence:
    """Two copies of the algebra over two scalar blocks, one with the
    left action swapped; its unital units generate different compressions."""
    alg = make_algebra([1, 1])
    e0 = algebra_correspondence(alg)
    d = alg.dim
    right = np.zeros((d, 4, 4), dtype=complex)
    left = np.zeros((d, 4, 4), dtype=complex)
    gram = np.zeros((4, 4, 2, 2), dtype=complex)
    swapped = e0.left_action[[1, 0]]
    for c in range(d):
        right[c][:2, :2] = e0.right_action[c]
        right[c][2:, 2:] = e0.right_action[c]
        left[c][:2, :2] = e0.left_action[c]
        left[c][2:, 2:] = swapped[c]
    gram[:2, :2] = e0.gram
    gram[2:, 2:] = e0.gram
    return Correspondence(alg, right, gram, left)


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
    v = np.kron(g.conj().T, np.eye(2))  # left multiplication by g* on row coordinates
    endo = endomorphism_from_conjugation(eplus, v)
    one = unit_vector_of_identity(alg, [2])
    return EndomorphismInstance("inner-rotation", eplus, endo, True, {"xi": one})


def inner_two_block_instance(seed: int = 5) -> EndomorphismInstance:
    """Conjugation by a seeded unitary on a two-block operator algebra."""
    alg = make_algebra([1, 1])
    eplus = standard_module(alg, [2, 2])
    rng = np.random.default_rng(seed)
    v = np.zeros((4, 4), dtype=complex)
    v[:2, :2] = random_unitary(rng, 2)
    v[2:, 2:] = random_unitary(rng, 2)
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
