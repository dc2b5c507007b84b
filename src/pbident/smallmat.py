"""Small dense matrix kernels for the estimator and excitation monitor.

Everything here targets tiny matrices (dimension <= ~8).  The adjugate is
computed by cofactor expansion because the identity adj(M) @ M = det(M) * I
must hold even when M is singular -- the mixing step of the interlaced
estimator evaluates it at det = 0 every run (the extension matrix starts at
the identity).  Inverse-based shortcuts break exactly there.

The symmetric eigenproblems are solved by numpy's eigh / eigvalsh on the
symmetrized matrix (M + M')/2.
"""

from __future__ import annotations

import numpy as np


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def determinant(m) -> float:
    """Determinant; exact cofactor formulas up to 3x3, pivoted elimination above."""
    a = _as_square(m)
    n = a.shape[0]
    if n <= 3:
        # closed forms on Python floats: same operations, no scalar boxing
        r = a.tolist()
        if n == 1:
            return r[0][0]
        if n == 2:
            (a11, a12), (a21, a22) = r
            return a11 * a22 - a12 * a21
        (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = r
        return (a11 * (a22 * a33 - a23 * a32)
                - a12 * (a21 * a33 - a23 * a31)
                + a13 * (a21 * a32 - a22 * a31))
    a = a.copy()
    det = 1.0
    for k in range(n - 1):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0.0:
            return 0.0
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            det = -det
        det *= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k + 1:])
    return float(det * a[n - 1, n - 1])


def adjugate(m) -> np.ndarray:
    """Transpose of the cofactor matrix; adj(M) @ M = det(M) * I for any M."""
    a = _as_square(m)
    n = a.shape[0]
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        (a11, a12), (a21, a22) = a.tolist()
        return np.array([[a22, -a12], [-a21, a11]])
    if n == 3:
        (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a.tolist()
        return np.array([
            [a22 * a33 - a23 * a32, a13 * a32 - a12 * a33, a12 * a23 - a13 * a22],
            [a23 * a31 - a21 * a33, a11 * a33 - a13 * a31, a13 * a21 - a11 * a23],
            [a21 * a32 - a22 * a31, a12 * a31 - a11 * a32, a11 * a22 - a12 * a21],
        ])
    out = np.empty((n, n))
    rows = np.arange(n)
    for i in range(n):
        ri = rows[rows != i]
        for j in range(n):
            minor = a[np.ix_(ri, rows[rows != j])]
            out[j, i] = (-1.0) ** (i + j) * determinant(minor)
    return out


def symmetric_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the symmetrized matrix (M + M')/2.

    Returns (w, V) with m ~ V @ diag(w) @ V.T, eigenvalues ascending.
    """
    a = _as_square(m)
    return np.linalg.eigh(0.5 * (a + a.T))


def min_eig_symmetric(m) -> float:
    """Smallest eigenvalue of a symmetric matrix (symmetrized as (M+M')/2)."""
    a = _as_square(m)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])
