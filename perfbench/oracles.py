"""Expected values computed from instance files in plain numpy.

Nothing here imports corrkit: each oracle decodes the instance JSON itself
and derives the quantity from the definitions, so a fault in the package's
realization code cannot hide behind an oracle that shares it.

* Multiplicity matrix.  A correspondence over ``M_n1 + ... + M_nk`` is fixed
  up to isomorphism by the integers ``L[i, j] = dim(1_i E 1_j) / (n_i n_j)``;
  tensor products multiply these matrices, so the n-th power has dimension
  ``n^T L^n n`` with ``n`` the vector of block sizes.
* Operator-basis dimension.  A right module ``E = sum_j C^{k_j} (x) C^{n_j}``
  has ``sum_j k_j^2`` linearly independent adjointable operators.
* Central unital unit.  One exists exactly when every diagonal entry of the
  multiplicity matrix is positive: a central vector lives in the diagonal
  corners, and its length is invertible only if every corner is nonzero.
* Unit compression ``b -> <xi, L(b) xi>`` as a matrix in the matrix-unit basis.
* Inner endomorphism ``theta^t(a) = v^t a v^-t``.
"""
from __future__ import annotations

import json

import numpy as np

TOL = 1e-9
RANK_RTOL = 1e-10


# ---------------------------------------------------------------------------
# decoding instance files
# ---------------------------------------------------------------------------

def decode_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def decode_vector(entries) -> np.ndarray:
    return np.array([complex(re, im) for re, im in entries], dtype=complex)


class Module:
    """Carrier matrices of one module entry of an instance file."""

    def __init__(self, blocks: list[int], entry: dict):
        self.blocks = list(blocks)
        self.right = np.stack([decode_matrix(m) for m in entry["right_action"]])
        self.left = (
            np.stack([decode_matrix(m) for m in entry["left_action"]])
            if "left_action" in entry else None
        )
        dim = entry["dim"]
        size = sum(blocks)
        self.gram = np.zeros((dim, dim, size, size), dtype=complex)
        starts = np.cumsum([0] + self.blocks)
        for i in range(dim):
            for j in range(dim):
                for b, blk in enumerate(entry["gram"][i][j]):
                    sl = slice(starts[b], starts[b + 1])
                    self.gram[i, j, sl, sl] = decode_matrix(blk)

    @classmethod
    def from_arrays(cls, blocks, right, left, gram) -> "Module":
        mod = cls.__new__(cls)
        mod.blocks, mod.right, mod.left, mod.gram = list(blocks), right, left, gram
        return mod

    @property
    def dim(self) -> int:
        return self.right.shape[1]


def load_instance(path) -> dict:
    """The instance document with every module decoded to matrices."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    blocks = doc["algebra"]["blocks"]
    doc["decoded"] = {name: Module(blocks, entry) for name, entry in doc["modules"].items()}
    return doc


# ---------------------------------------------------------------------------
# matrix-unit coordinates
# ---------------------------------------------------------------------------

def _unit_positions(blocks: list[int]) -> list[tuple[int, int]]:
    """(row, column) of each matrix unit in basis order: block by block, row-major."""
    out, start = [], 0
    for n in blocks:
        out.extend((start + r, start + c) for r in range(n) for c in range(n))
        start += n
    return out


def central_projection_coords(blocks: list[int], i: int) -> np.ndarray:
    """Coordinates of the unit of block ``i``."""
    start = sum(blocks[:i])
    rows = range(start, start + blocks[i])
    return np.array(
        [1.0 if (r == c and r in rows) else 0.0 for r, c in _unit_positions(blocks)]
    )


def _act(action: np.ndarray, coords: np.ndarray) -> np.ndarray:
    return np.einsum("c,cuv->uv", coords, action)


def _rank(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > RANK_RTOL * s[0])) if s.size and s[0] > 0 else 0


def _exact_ratio(num: int, den: int, what: str) -> int:
    if num % den:
        raise ValueError(f"{what}: dimension {num} is not a multiple of {den}")
    return num // den


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def multiplicity_matrix(mod: Module) -> np.ndarray:
    """``L[i, j] = rank(L(1_i) R(1_j)) / (n_i n_j)`` for a correspondence."""
    k = len(mod.blocks)
    lam = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        li = _act(mod.left, central_projection_coords(mod.blocks, i))
        for j in range(k):
            rj = _act(mod.right, central_projection_coords(mod.blocks, j))
            n = mod.blocks[i] * mod.blocks[j]
            lam[i, j] = _exact_ratio(_rank(li @ rj), n, f"corner ({i}, {j})")
    return lam


def stage_dimensions(blocks: list[int], lam: np.ndarray, levels: int) -> list[int]:
    """``n^T L^t n`` for t = 0..levels."""
    n = np.array(blocks, dtype=np.int64)
    return [int(n @ np.linalg.matrix_power(lam, t) @ n) for t in range(levels + 1)]


def operator_basis_dimension(mod: Module) -> int:
    """``sum_j k_j^2`` with ``k_j n_j = rank R(1_j)``."""
    total = 0
    for j, n in enumerate(mod.blocks):
        rj = _act(mod.right, central_projection_coords(mod.blocks, j))
        total += _exact_ratio(_rank(rj), n, f"right corner {j}") ** 2
    return total


def has_central_unital_unit(lam: np.ndarray) -> bool:
    return bool(np.all(np.diag(lam) >= 1))


def unit_compression(mod: Module, xi: np.ndarray) -> np.ndarray:
    """Matrix of ``b -> <xi, L(b) xi>`` in the matrix-unit basis."""
    rows, cols = zip(*_unit_positions(mod.blocks))
    out = []
    for c in range(mod.left.shape[0]):
        val = np.einsum("u,v,uvab->ab", xi.conj(), mod.left[c] @ xi, mod.gram)
        out.append(val[list(rows), list(cols)])
    return np.stack(out, axis=1)


def compressions_agree(mod: Module, xi1: np.ndarray, xi2: np.ndarray) -> bool:
    diff = unit_compression(mod, xi1) - unit_compression(mod, xi2)
    return float(np.abs(diff).max()) <= TOL


def commutes_with_right_action(mod: Module, op: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(op).max()))
    return all(
        float(np.abs(op @ r - r @ op).max()) <= TOL * scale for r in mod.right
    )


def inner_power(v: np.ndarray, a: np.ndarray, t: int) -> np.ndarray:
    """``v^t a v^-t``."""
    vt = np.linalg.matrix_power(v, t)
    return vt @ a @ np.linalg.inv(vt)


# ---------------------------------------------------------------------------
# self-test on cases small enough to check by hand
# ---------------------------------------------------------------------------

def _algebra_over_itself(blocks: list[int], twist: np.ndarray | None = None) -> Module:
    """``B`` over ``B``, optionally with the left action twisted by
    ``b -> g b g*`` (the correspondence of an inner endomorphism)."""
    units = _unit_positions(blocks)
    size, d = sum(blocks), len(units)
    basis = np.zeros((d, size, size), dtype=complex)
    for k, (r, c) in enumerate(units):
        basis[k, r, c] = 1.0
    g = np.eye(size) if twist is None else twist

    def coords(a):
        return np.array([a[r, c] for r, c in units])

    right = np.stack([np.stack([coords(basis[u] @ basis[c]) for u in range(d)], axis=1)
                      for c in range(d)])
    left = np.stack([np.stack([coords(g @ basis[c] @ g.conj().T @ basis[u]) for u in range(d)],
                              axis=1) for c in range(d)])
    gram = np.einsum("iba,jbc->ijac", basis.conj(), basis)
    return Module.from_arrays(blocks, right, left, gram)


def _direct_sum(first: Module, second: Module) -> Module:
    m1, dim = first.dim, first.dim + second.dim

    def actions(a, b):
        out = np.zeros((a.shape[0], dim, dim), dtype=complex)
        out[:, :m1, :m1], out[:, m1:, m1:] = a, b
        return out

    gram = np.zeros((dim, dim) + first.gram.shape[2:], dtype=complex)
    gram[:m1, :m1], gram[m1:, m1:] = first.gram, second.gram
    return Module.from_arrays(first.blocks, actions(first.right, second.right),
                              actions(first.left, second.left), gram)


def self_test() -> list[str]:
    """Run every oracle on hand-checkable cases; returns the failures."""
    failures = []

    def expect(name, got, want):
        if got != want:
            failures.append(f"{name}: got {got}, expected {want}")

    eye = np.eye(2, dtype=complex)[None]
    plane = Module.from_arrays([1], eye, eye, np.eye(2, dtype=complex).reshape(2, 2, 1, 1))
    lam = multiplicity_matrix(plane)
    expect("plane multiplicity", lam.tolist(), [[2]])
    expect("plane stages", stage_dimensions([1], lam, 4), [1, 2, 4, 8, 16])
    expect("plane operators", operator_basis_dimension(plane), 4)
    expect("plane compressions agree",
           compressions_agree(plane, np.array([1, 0j]), np.array([0, 1j])), True)

    # C+C over itself, one copy plain and one with the blocks swapped
    swap = _algebra_over_itself([1, 1], np.array([[0, 1], [1, 0]], dtype=complex))
    expect("swap multiplicity", multiplicity_matrix(swap).tolist(), [[0, 1], [1, 0]])
    expect("swap has no central unit", has_central_unital_unit(multiplicity_matrix(swap)), False)
    doubled = _direct_sum(_algebra_over_itself([1, 1]), swap)
    lam = multiplicity_matrix(doubled)
    expect("doubled swap multiplicity", lam.tolist(), [[1, 1], [1, 1]])
    expect("doubled swap stages", stage_dimensions([1, 1], lam, 4), [2, 4, 8, 16, 32])
    expect("doubled swap has central unit", has_central_unital_unit(lam), True)
    expect("doubled swap compressions differ",
           compressions_agree(doubled, np.array([1, 1, 0, 0j]), np.array([0, 0, 1, 1j])), False)

    # M_2 over itself twisted by an inner automorphism: m = 4 at every level
    g = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]], dtype=complex)
    inner = _algebra_over_itself([2], g)
    lam = multiplicity_matrix(inner)
    expect("inner multiplicity", lam.tolist(), [[1]])
    expect("inner stages", stage_dimensions([2], lam, 3), [4, 4, 4, 4])
    expect("inner operators", operator_basis_dimension(inner), 4)
    expect("left multiplication commutes with the right action",
           commutes_with_right_action(inner, inner.left[1]), True)
    expect("right multiplication does not",
           commutes_with_right_action(inner, inner.right[1]), False)

    v = np.array([[0, 1], [1, 0]], dtype=complex)
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    expect("inner power", inner_power(v, a, 1).tolist(), [[4, 3], [2, 1]])
    expect("inner power even", inner_power(v, a, 2).tolist(), a.tolist())
    return failures
