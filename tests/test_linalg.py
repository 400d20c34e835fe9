import numpy as np
import pytest
from numpy.testing import assert_allclose

from huacheck import linalg


def test_inverse_roundtrip():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert_allclose(linalg.inverse(m) @ m, np.eye(3), atol=1e-12)


def test_singular_matrix_raises():
    m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse(m)


def test_small_well_conditioned_matrix_inverts():
    # det = 1e-16, but every singular value is 0.01
    m = 0.01 * np.eye(8)
    assert_allclose(linalg.inverse(m), 100.0 * np.eye(8), rtol=1e-15)


def test_rank_deficient_matrix_raises():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse(a @ b)
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse(np.zeros((3, 3)))
