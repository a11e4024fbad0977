import itertools

import numpy as np
import pytest

from corrkit.algebra import make_algebra
from corrkit.errors import InvalidPresentationError
from corrkit.gallery import (
    block_swap_correspondence,
    doubled_swap_correspondence,
    plane_correspondence,
    row_operator,
    standard_module,
)
from corrkit.hilbmod import (
    Correspondence,
    ModulePresentation,
    algebra_correspondence,
    validate_module,
)

BLOCKS = ([1], [2], [1, 1], [1, 2], [3], [2, 3])


def ref_standard_module(alg, row_counts, multiplicities=None):
    """The row-space module built entry by entry over an explicit carrier index
    ``(group, row, column)``."""
    index = []
    for i, (k, n) in enumerate(zip(row_counts, alg.blocks)):
        for r in range(k):
            for c in range(n):
                index.append((i, r, c))
    m = len(index)
    pos = {key: w for w, key in enumerate(index)}
    rows_of, cols_of = alg.basis_positions
    d = alg.dim

    right = np.zeros((d, m, m), dtype=complex)
    block_of = []
    for i, n in enumerate(alg.blocks):
        block_of.extend([i] * (n * n))
    starts = np.cumsum([0] + list(alg.blocks))
    for kappa in range(d):
        b = block_of[kappa]
        p = rows_of[kappa] - starts[b]
        q = cols_of[kappa] - starts[b]
        for r in range(row_counts[b]):
            right[kappa, pos[(b, r, q)], pos[(b, r, p)]] = 1.0

    gram = np.zeros((m, m, alg.size, alg.size), dtype=complex)
    for w, (i, r, c) in enumerate(index):
        for w2, (i2, r2, c2) in enumerate(index):
            if i == i2 and r == r2:
                gram[w, w2, starts[i] + c, starts[i2] + c2] = 1.0

    if multiplicities is None:
        return ModulePresentation(alg, right, gram)

    left = np.zeros((d, m, m), dtype=complex)
    for i, k in enumerate(row_counts):
        segments = []  # (algebra block j, copy, local row) in order
        for j, n in enumerate(alg.blocks):
            for copy in range(multiplicities[i][j]):
                for p in range(n):
                    segments.append((j, copy, p))
        for kappa in range(d):
            b = block_of[kappa]
            p = rows_of[kappa] - starts[b]
            q = cols_of[kappa] - starts[b]
            for ridx, (j, copy, local) in enumerate(segments):
                if j == b and local == q:
                    target = segments.index((j, copy, p))
                    for c in range(alg.blocks[i]):
                        left[kappa, pos[(i, target, c)], pos[(i, ridx, c)]] = 1.0
    return Correspondence(alg, right, gram, left)


def _cases():
    """Every row-count vector with entries 1-2, and every 0/1 multiplicity
    matrix, with the row counts it fixes."""
    for blocks in BLOCKS:
        for counts in itertools.product((1, 2), repeat=len(blocks)):
            yield blocks, list(counts), None
        for flat in itertools.product((0, 1), repeat=len(blocks) ** 2):
            mult = [list(flat[i:i + len(blocks)]) for i in range(0, len(flat), len(blocks))]
            yield blocks, [sum(mu * n for mu, n in zip(row, blocks)) for row in mult], mult


@pytest.mark.parametrize("blocks", BLOCKS, ids=str)
def test_standard_module_equals_the_index_loop(blocks):
    cases = [case for case in _cases() if case[0] == blocks]
    for _, counts, mult in cases:
        alg = make_algebra(blocks)
        got, want = standard_module(alg, counts, mult), ref_standard_module(alg, counts, mult)
        assert got.is_correspondence == want.is_correspondence == (mult is not None)
        names = ("right_action", "gram") + (("left_action",) if mult is not None else ())
        for name in names:
            assert np.array_equal(getattr(got, name), getattr(want, name)), (counts, mult, name)
        if min(counts) > 0:
            assert validate_module(got).passed
    assert len(cases) == 2 ** len(blocks) + 2 ** len(blocks) ** 2


def test_standard_module_rejects_mismatched_multiplicities():
    alg = make_algebra([1, 2])
    with pytest.raises(InvalidPresentationError, match="row group 1 of size 3"):
        standard_module(alg, [1, 3], [[1, 0], [0, 1]])
    with pytest.raises(InvalidPresentationError, match="one row count per algebra block"):
        standard_module(alg, [1])


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_arrays(corr, right, gram, left):
    for name, want in (("right_action", right), ("gram", gram), ("left_action", left)):
        assert same_bits(getattr(corr, name), np.asarray(want, dtype=complex)), name


@pytest.mark.parametrize("blocks", ([1], [2], [1, 1], [1, 2], [2, 3]), ids=str)
def test_algebra_correspondence_is_the_algebra_over_itself(blocks):
    """E_0 from the standard form equals, bit for bit, the algebra read off its
    basis products (``R(c) u = u c``, ``L(c) u = c u``) with ``<a, b> = a* b``."""
    alg = make_algebra(blocks)
    prod = alg.basis_products  # coordinates of basis[i] @ basis[j]
    gram = np.einsum("iba,jbc->ijac", alg.basis.conj(), alg.basis)
    want = (prod.transpose(1, 2, 0), gram, prod.transpose(0, 2, 1))
    assert_arrays(algebra_correspondence(alg), *want)


def test_plane_correspondence_literal():
    eye = np.eye(2)[None]
    assert_arrays(plane_correspondence(), eye, np.eye(2).reshape(2, 2, 1, 1), eye)


def test_block_swap_correspondence_literal():
    units = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    gram = np.zeros((2, 2, 2, 2))
    gram[0, 0], gram[1, 1] = units
    assert_arrays(block_swap_correspondence(), units, gram, units[::-1])


def test_doubled_swap_correspondence_literal():
    """Coordinates 0, 1 are the plain copy of C + C, and 2, 3 the swapped one."""
    right = [np.diag([1.0, 0.0, 1.0, 0.0]), np.diag([0.0, 1.0, 0.0, 1.0])]
    left = [np.diag([1.0, 0.0, 0.0, 1.0]), np.diag([0.0, 1.0, 1.0, 0.0])]
    gram = np.zeros((4, 4, 2, 2))
    for i in range(4):
        gram[i, i, i % 2, i % 2] = 1.0
    assert_arrays(doubled_swap_correspondence(), right, gram, left)


@pytest.mark.parametrize("blocks, counts", [([2], [3]), ([1, 2], [2, 2]), ([2, 1, 3], [1, 3, 2])])
def test_row_operator_is_the_kron_direct_sum(blocks, counts):
    alg = make_algebra(blocks)
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in counts]
    parts = [np.kron(a, np.eye(n)) for a, n in zip(mats, blocks)]
    want = np.block([[p if i == j else np.zeros((len(p), len(q))) for j, q in enumerate(parts)]
                     for i, p in enumerate(parts)])
    got = row_operator(alg, mats)
    assert same_bits(got, want.astype(complex))
    # it acts on the row index, so it commutes with the right action
    right = standard_module(alg, counts).right_action
    assert np.abs(got @ right - right @ got).max() < 1e-12
