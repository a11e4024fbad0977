import itertools

import numpy as np
import pytest

from corrkit.algebra import make_algebra
from corrkit.errors import InvalidPresentationError
from corrkit.gallery import standard_module
from corrkit.hilbmod import Correspondence, ModulePresentation, validate_module

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
