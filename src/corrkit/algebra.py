"""Finite-dimensional C*-algebras as direct sums of full complex matrix blocks.

An algebra with signature ``[n1, ..., nk]`` is ``M_n1(C) + ... + M_nk(C)``,
embedded block-diagonally in the square matrices of size ``n1 + ... + nk``.
Elements are plain complex ndarrays supported on the diagonal blocks;
multiplication is the matrix product, the involution is the conjugate
transpose, and the canonical basis consists of the matrix units of every
block, ordered block by block and row-major inside each block.

The fixed faithful state is the normalized trace ``a -> tr(a) / (n1+...+nk)``.
It scalarizes algebra-valued inner products so that length-zero vectors can
be detected by ordinary eigenvalue computations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidSignatureError

DEFAULT_TOL = 1e-9

# Supplied matrices are required to have operator norm at most this bound,
# so that absolute entrywise tolerances are meaningful.
NORM_BOUND = 16.0


@dataclass(frozen=True)
class Algebra:
    """Direct sum of full matrix blocks, with a fixed matrix-unit basis."""

    blocks: tuple[int, ...]

    @cached_property
    def size(self) -> int:
        """Edge length of the block-diagonal embedding."""
        return int(sum(self.blocks))

    @cached_property
    def dim(self) -> int:
        """Complex dimension, the number of matrix units."""
        return int(sum(n * n for n in self.blocks))

    @cached_property
    def block_slices(self) -> tuple[slice, ...]:
        out, start = [], 0
        for n in self.blocks:
            out.append(slice(start, start + n))
            start += n
        return tuple(out)

    @cached_property
    def unit_slices(self) -> tuple[slice, ...]:
        """Per block, the slice of the basis that holds its matrix units."""
        ends = np.cumsum([n * n for n in self.blocks]).tolist()
        return tuple(slice(end - n * n, end) for n, end in zip(self.blocks, ends))

    @cached_property
    def haar_weights(self) -> np.ndarray:
        """``1/n_j`` per matrix unit of block ``j``: the weights of the Haar
        averages ``sum_j (1/n_j) sum_ab x(e^j_ab) y(e^j_ba)`` over basis pairs."""
        return np.repeat([1.0 / n for n in self.blocks], [n * n for n in self.blocks])

    @cached_property
    def basis_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Row/column indices of the matrix units, in basis order."""
        rows, cols = [], []
        start = 0
        for n in self.blocks:
            for r in range(n):
                for c in range(n):
                    rows.append(start + r)
                    cols.append(start + c)
            start += n
        return np.array(rows), np.array(cols)

    @cached_property
    def basis(self) -> np.ndarray:
        """Stack of the d matrix units, shape (dim, size, size)."""
        rows, cols = self.basis_positions
        out = np.zeros((self.dim, self.size, self.size), dtype=complex)
        out[np.arange(self.dim), rows, cols] = 1.0
        return out

    @cached_property
    def unit(self) -> np.ndarray:
        return np.eye(self.size, dtype=complex)

    @cached_property
    def star_index(self) -> np.ndarray:
        """Permutation sending each basis index to the index of its adjoint."""
        rows, cols = self.basis_positions
        lookup = {(int(r), int(c)): k for k, (r, c) in enumerate(zip(rows, cols))}
        return np.array([lookup[(int(c), int(r))] for r, c in zip(rows, cols)])

    @cached_property
    def basis_products(self) -> np.ndarray:
        """Coordinates of basis[i] @ basis[j], shape (dim, dim, dim)."""
        prods = np.einsum("iab,jbc->ijac", self.basis, self.basis)
        return self.coords(prods)

    @cached_property
    def support_mask(self) -> np.ndarray:
        """Boolean mask of entries allowed to be nonzero."""
        mask = np.zeros((self.size, self.size), dtype=bool)
        for sl in self.block_slices:
            mask[sl, sl] = True
        return mask

    # -- element helpers ---------------------------------------------------

    def coords(self, a: np.ndarray) -> np.ndarray:
        """Coordinates in the matrix-unit basis; batched over leading axes."""
        rows, cols = self.basis_positions
        return np.asarray(a)[..., rows, cols]

    def from_coords(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        rows, cols = self.basis_positions
        out = np.zeros(v.shape[:-1] + (self.size, self.size), dtype=complex)
        out[..., rows, cols] = v
        return out

    def split(self, a: np.ndarray) -> list[np.ndarray]:
        return [np.array(a[sl, sl]) for sl in self.block_slices]

    # -- operations --------------------------------------------------------

    def center_basis(self) -> list[np.ndarray]:
        """Blockwise identities: a basis of the center."""
        out = []
        for sl in self.block_slices:
            z = np.zeros((self.size, self.size), dtype=complex)
            z[sl, sl] = np.eye(sl.stop - sl.start)
            out.append(z)
        return out


def make_algebra(blocks) -> Algebra:
    """Build the direct-sum algebra with the given block sizes."""
    blocks = list(blocks)
    if not blocks:
        raise InvalidSignatureError("signature must contain at least one block")
    for n in blocks:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidSignatureError(f"block size {n!r} is not a positive integer")
    return Algebra(tuple(int(n) for n in blocks))
