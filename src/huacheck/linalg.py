"""Thin complex linear-algebra helpers with loud failure near singularity."""

from __future__ import annotations

import numpy as np

SINGULARITY_FLOOR = 1e-12


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a matrix is too close to singular to invert reliably.

    For the kernel tensors this signals a point too close to the domain
    boundary, where V(z) or W(z,w) degenerates.
    """


def inverse(M):
    """Inverse of M.

    Raises SingularMatrixError when the smallest singular value is at most
    SINGULARITY_FLOOR times the largest, i.e. the condition number is 1e12
    or more. Unlike |det|, this does not depend on the scale of M.
    """
    M = np.asarray(M, dtype=complex)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= SINGULARITY_FLOOR * sv[0]:
        raise SingularMatrixError("matrix is singular to working precision")
    return np.linalg.inv(M)
