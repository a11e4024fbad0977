import numpy as np
import pytest

from corrkit.algebra import make_algebra
from corrkit.errors import InvalidSignatureError
from corrkit.hilbmod import algebra_correspondence

from conftest import ALGEBRA_SIGNATURES, TOL, max_dev, random_element


def test_make_algebra_scalar():
    alg = make_algebra([1])
    assert alg.dim == 1
    assert alg.size == 1
    assert alg.unit[0, 0] == 1.0


def test_make_algebra_m2():
    alg = make_algebra([2])
    assert alg.dim == 4
    assert max_dev(alg.unit, np.eye(2)) == 0.0


def test_make_algebra_mixed():
    alg = make_algebra([1, 2])
    assert alg.dim == 5
    assert alg.size == 3
    assert max_dev(alg.unit, np.eye(3)) == 0.0
    # per-block identity pieces
    blocks = alg.split(alg.unit)
    assert blocks[0].shape == (1, 1) and blocks[1].shape == (2, 2)


@pytest.mark.parametrize("bad", [[], [0], [-1], [1, 0], [1.5]])
def test_make_algebra_rejects_bad_signatures(bad):
    with pytest.raises(InvalidSignatureError):
        make_algebra(bad)


# Positivity and the faithful state of an algebra element are read through the
# algebra as a correspondence over itself: ``a >= 0`` exactly when its left
# multiplication is a positive operator, and the state that scalarizes inner
# products is ``phi(a) = <1, a>`` under the scalar Gram.

def _positivity_defect(alg, a):
    e = algebra_correspondence(alg)
    return e.positivity_defect(e.left_of(a))


def _state(alg, a):
    one, x = alg.coords(alg.unit), alg.coords(a)
    return complex(one.conj() @ algebra_correspondence(alg).scalar_gram @ x)


def test_is_positive_unit():
    alg = make_algebra([1, 2])
    assert _positivity_defect(alg, alg.unit) <= TOL


def test_is_positive_rejects_indefinite():
    alg = make_algebra([2])
    a = np.diag([1.0, -1.0]).astype(complex)  # the one block M_2
    assert _positivity_defect(alg, a) > 1.0 - TOL


@pytest.mark.parametrize("seed", range(10))
def test_is_positive_squares_with_eigen_oracle(seed):
    rng = np.random.default_rng(seed)
    alg = make_algebra(ALGEBRA_SIGNATURES[seed % 4])
    b = random_element(alg, rng)
    prod = b.conj().T @ b
    assert _positivity_defect(alg, prod) <= TOL
    # independent oracle: explicit eigendecomposition of the product
    eigs = np.linalg.eigvalsh(prod)
    assert eigs.min() >= -1e-12


def test_faithful_state_unit():
    for sig in ALGEBRA_SIGNATURES:
        alg = make_algebra(sig)
        assert abs(_state(alg, alg.unit) - 1.0) < 1e-15


def test_faithful_state_example():
    alg = make_algebra([1, 2])
    a = np.diag([3.0, 0.0, 0.0]).astype(complex)  # blocks [[3]] and 0 of M_2
    assert abs(_state(alg, a) - 1.0) < 1e-15


@pytest.mark.parametrize("seed", range(20))
def test_faithful_state_faithfulness(seed):
    rng = np.random.default_rng(100 + seed)
    alg = make_algebra(ALGEBRA_SIGNATURES[seed % 4])
    b = random_element(alg, rng)
    assert np.abs(b).max() > 0
    val = _state(alg, b.conj().T @ b)
    assert val.real > 0
    assert abs(val.imag) < 1e-12


@pytest.mark.parametrize("sig,count", [([2], 1), ([1, 1], 2), ([1, 3], 2)])
def test_center_basis_counts(sig, count):
    alg = make_algebra(sig)
    assert len(alg.center_basis()) == count


def test_center_basis_commutes_with_everything():
    for sig in ALGEBRA_SIGNATURES:
        alg = make_algebra(sig)
        for z in alg.center_basis():
            for c in range(alg.dim):
                b = alg.basis[c]
                assert max_dev(z @ b, b @ z) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_involution_and_trace_identities(seed):
    rng = np.random.default_rng(200 + seed)
    alg = make_algebra(ALGEBRA_SIGNATURES[seed % 4])
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    assert max_dev((a @ b).conj().T, b.conj().T @ a.conj().T) < 1e-12
    assert abs(_state(alg, a @ b) - _state(alg, b @ a)) < 1e-12
    block_norm = max(np.linalg.norm(blk, 2) for blk in alg.split(a))
    assert abs(_state(alg, a)) <= block_norm + 1e-12


def test_coords_roundtrip():
    alg = make_algebra([1, 2])
    rng = np.random.default_rng(7)
    a = random_element(alg, rng)
    assert max_dev(alg.from_coords(alg.coords(a)), a) == 0.0
    assert max_dev(alg.coords(alg.basis), np.eye(alg.dim)) == 0.0
