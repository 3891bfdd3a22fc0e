"""Dense complex Hermitian eigenvalues, solves and rank, self-contained.

Cyclic Jacobi with unitary 2x2 rotations.  Dimensions in this package stay
in the low hundreds, so the O(n^3) sweeps are plenty; no external eigensolver
is called.  numpy supplies the array arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12


class RankDeficiencyError(RuntimeError):
    """Linear solve hit a numerically zero eigenvalue."""

    def __init__(self, eigenvalue: float, tol: float):
        super().__init__(f"matrix is rank deficient: eigenvalue {eigenvalue:.3e} <= tol {tol:.3e}")
        self.eigenvalue = eigenvalue
        self.tol = tol


@dataclass
class HermitianMatrix:
    """Square complex matrix, symmetrized at construction.

    A hermiticity defect above HERMITICITY_TOL (relative to the largest entry)
    signals an upstream bug and is rejected.
    """

    entries: np.ndarray

    def __init__(self, entries):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"need a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("matrix has non-finite entries")
        scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
        defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if defect > HERMITICITY_TOL * scale:
            raise ValueError(f"hermiticity defect {defect:.3e} exceeds tolerance")
        self.entries = (m + m.conj().T) / 2.0

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _jacobi(matrix: np.ndarray, sweeps: int = 60, tol: float = 1e-30):
    """Cyclic Jacobi diagonalization.  Returns (diag, unitary V) with M = V D V^H."""
    a = matrix.astype(complex).copy()
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    if n == 1:
        return a.real.diagonal().copy(), v
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return np.zeros(n), v
    thresh = tol * norm
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diagonal(a))) ** 2))
        if off <= thresh * n:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                z = a[i, j]
                az = abs(z)
                if az <= thresh:
                    a[i, j] = 0.0
                    a[j, i] = 0.0
                    continue
                phase = z / az
                tau = (a[i, i].real - a[j, j].real) / (2.0 * az)
                # small root of t^2 - 2*tau*t - 1 = 0 zeroes the rotated (i, j) entry
                if tau >= 0:
                    t = -1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c * phase  # rotation zeroing the (i, j) entry
                # columns: A <- A U with U = [[c, s], [-conj(s), c]] on (i, j)
                col_i = a[:, i].copy()
                col_j = a[:, j].copy()
                a[:, i] = c * col_i - np.conj(s) * col_j
                a[:, j] = s * col_i + c * col_j
                # rows: A <- U^H A
                row_i = a[i, :].copy()
                row_j = a[j, :].copy()
                a[i, :] = c * row_i - s * row_j
                a[j, :] = np.conj(s) * row_i + c * row_j
                a[i, j] = 0.0
                a[j, i] = 0.0
                a[i, i] = a[i, i].real
                a[j, j] = a[j, j].real
                vec_i = v[:, i].copy()
                vec_j = v[:, j].copy()
                v[:, i] = c * vec_i - np.conj(s) * vec_j
                v[:, j] = s * vec_i + c * vec_j
    return np.diagonal(a).real.copy(), v


def _sorted_eigs(matrix: HermitianMatrix):
    """Eigenvalues (ascending) with matching orthonormal eigenvector columns."""
    vals, vecs = _jacobi(matrix.entries)
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def hermitian_eigs(matrix: HermitianMatrix):
    """All eigenvalues ascending plus the worst relative eigenpair residual."""
    if matrix.dim < 1:
        raise ValueError("dimension must be >= 1")
    vals, vecs = _sorted_eigs(matrix)
    norm = np.linalg.norm(matrix.entries)
    if norm == 0.0:
        return vals, 0.0
    resid = matrix.entries @ vecs - vecs * vals[np.newaxis, :]
    residual = float(np.max(np.linalg.norm(resid, axis=0))) / norm
    return vals, residual


def rank(matrix: HermitianMatrix, tol: float = 1e-9) -> int:
    """Number of eigenvalues above tol * max(1, largest magnitude eigenvalue)."""
    vals, _ = hermitian_eigs(matrix)
    top = float(np.max(np.abs(vals))) if len(vals) else 0.0
    cutoff = tol * max(1.0, top)
    return int(np.sum(np.abs(vals) > cutoff))


def solve_hermitian(matrix: HermitianMatrix, rhs, tol: float = 1e-9):
    """Solve M x = rhs through the eigendecomposition; requires min eig > tol.

    rhs may be a vector or a matrix of stacked right-hand sides (columns).
    """
    vals, vecs = _sorted_eigs(matrix)
    top = float(np.max(np.abs(vals))) if len(vals) else 0.0
    cutoff = tol * max(1.0, top)
    small = float(np.min(np.abs(vals))) if len(vals) else 0.0
    if small <= cutoff:
        raise RankDeficiencyError(small, cutoff)
    b = np.asarray(rhs, dtype=complex)
    proj = vecs.conj().T @ b
    if b.ndim == 1:
        return vecs @ (proj / vals)
    return vecs @ (proj / vals[:, np.newaxis])
