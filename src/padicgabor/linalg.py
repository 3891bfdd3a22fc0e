"""Dense complex Hermitian eigenvalues, solves and rank, self-contained.

Jacobi iteration with unitary 2x2 rotations in the Brent-Luk parallel order
(Brent & Luk 1985): each sweep is n - 1 rounds of disjoint pairs (n rounds
for odd n), and a round's rotations are applied together as array
operations.  Dimensions in this package stay in the low hundreds, so the
O(n^3) sweeps are plenty; no external eigensolver is called, and the
rotations use elementwise numpy arithmetic and einsum, not BLAS, so they do
not depend on thread count.  A matrix that does not converge within the
sweep cap raises ConvergenceError.
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


class ConvergenceError(RuntimeError):
    """Jacobi iteration hit its sweep cap with off-diagonal mass left."""

    def __init__(self, sweeps: int, off: float, target: float):
        super().__init__(
            f"Jacobi eigensolver did not converge in {sweeps} sweeps: "
            f"off-diagonal norm {off:.3e} > {target:.3e}"
        )
        self.sweeps = sweeps


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


_ROUNDS: dict[int, list[tuple[np.ndarray, ...]]] = {}


def _rounds(n: int) -> list[tuple[np.ndarray, ...]]:
    """Brent-Luk round-robin for n >= 2: every pair i < j exactly once per sweep.

    Players sit on a circle with slot 0 fixed and the rest turning by one
    each round; odd n adds a bye slot whose pair sits out.  Round r is the
    tuple (pairs, offsets of a_ij, float offsets of the real parts of a_ii
    then a_jj, float offsets of a_ij and a_ji, those plus the imaginary parts
    of a_ii and a_jj), offsets taken in the n x 2n array [A | V^H].
    """
    if n not in _ROUNDS:
        slots = n + n % 2
        ring = list(range(slots))
        rows = []
        for _ in range(slots - 1):
            pairs = [(ring[t], ring[slots - 1 - t]) for t in range(slots // 2)]
            rows.append(sorted((min(a, b), max(a, b)) for a, b in pairs if max(a, b) < n))
            ring = [ring[0], ring[-1]] + ring[1:-1]
        pairs = np.array(rows, dtype=np.intp)
        i, j = pairs[..., 0], pairs[..., 1]
        ij, ji = i * 2 * n + j, j * 2 * n + i
        diag = np.concatenate([i, j], axis=1) * (2 * n + 1)
        off = np.concatenate([2 * ij, 2 * ij + 1, 2 * ji, 2 * ji + 1], axis=1)
        clear = np.concatenate([off, 2 * diag + 1], axis=1)
        _ROUNDS[n] = list(zip(pairs, ij, 2 * diag, off, clear))
    return _ROUNDS[n]


def _jacobi(matrix: np.ndarray, sweeps: int = 60, tol: float = 1e-30):
    """Parallel-order Jacobi diagonalization with unitary 2x2 rotations.

    Returns (diag, unitary V, sweeps run) with M = V D V^H.  A sweep is the
    rounds of _rounds(n); the rotations of a round act on disjoint pairs, so
    they commute and are applied together.  With U the round's block
    rotation, the rows of [A | V^H] go to U^H [A | V^H], then A to its
    conjugate transpose, whose rows go to U^H once more: A <- U^H A U and
    V <- V U, with row operations only.  Entries at most tol * ||A|| get the
    identity rotation and are set to zero.  Raises ConvergenceError if the
    off-diagonal norm still exceeds that threshold times n after the last
    allowed sweep.
    """
    n = matrix.shape[0]
    both = np.concatenate([matrix.astype(complex), np.eye(n, dtype=complex)], axis=1)
    a = both[:, :n]
    flat = both.reshape(-1)
    floats = flat.view(float)
    if n == 1:
        return a.real.diagonal().copy(), np.eye(1, dtype=complex), 0
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return np.zeros(n), np.eye(n, dtype=complex), 0
    thresh = tol * norm
    half = n // 2
    done = 0
    while True:
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diagonal(a))) ** 2))
        if off <= thresh * n:
            break
        if done == sweeps:
            raise ConvergenceError(done, float(off), thresh * n)
        done += 1
        for pairs, ij, diag, offdiag, clear in _rounds(n):
            z = flat[ij]
            az = np.abs(z)
            dead = az <= thresh
            if np.count_nonzero(dead) == half:
                floats[offdiag] = 0.0
                continue
            # dead pairs divide by about 1 (tau^2 < ||A||^2 stays finite), then get c = 1, s = 0
            safe = az + dead
            d = floats[diag]
            tau = (d[:half] - d[half:]) / (2.0 * safe)
            # small root of t^2 - 2*tau*t - 1 = 0 zeroes the rotated (i, j) entry:
            # -1 / (tau + sqrt(1 + tau^2)) for tau >= 0, else 1 / (sqrt(1 + tau^2) - tau)
            root = np.sqrt(1.0 + tau * tau)
            t = -1.0 / (tau + np.copysign(root, tau + 0.0))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c * (z / safe)
            np.putmask(c, dead, 1.0)
            np.putmask(s, dead, 0.0)
            # U = [[c, s], [-conj(s), c]] on columns (i, j); uh[l, k] is U^H per pair
            uh = np.array([[c, -s], [np.conj(s), c]])
            both[pairs] = np.einsum("lkh,hkc->hlc", uh, both[pairs])
            a[...] = a.conj().T
            a[pairs] = np.einsum("lkh,hkc->hlc", uh, a[pairs])
            floats[clear] = 0.0
    return np.diagonal(a).real.copy(), both[:, n:].conj().T, done


def _sorted_eigs(matrix: HermitianMatrix):
    """Eigenvalues (ascending), matching orthonormal eigenvector columns, sweeps run."""
    vals, vecs, sweeps = _jacobi(matrix.entries)
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order], sweeps


def hermitian_eigs(matrix: HermitianMatrix):
    """All eigenvalues ascending, the worst relative eigenpair residual, Jacobi sweeps."""
    if matrix.dim < 1:
        raise ValueError("dimension must be >= 1")
    vals, vecs, sweeps = _sorted_eigs(matrix)
    norm = np.linalg.norm(matrix.entries)
    if norm == 0.0:
        return vals, 0.0, sweeps
    resid = matrix.entries @ vecs - vecs * vals[np.newaxis, :]
    residual = float(np.max(np.linalg.norm(resid, axis=0))) / norm
    return vals, residual, sweeps


def rank(matrix: HermitianMatrix, tol: float = 1e-9) -> int:
    """Number of eigenvalues above tol * max(1, largest magnitude eigenvalue)."""
    vals, _, _ = hermitian_eigs(matrix)
    top = float(np.max(np.abs(vals))) if len(vals) else 0.0
    cutoff = tol * max(1.0, top)
    return int(np.sum(np.abs(vals) > cutoff))


def solve_hermitian(matrix: HermitianMatrix, rhs, tol: float = 1e-9):
    """Solve M x = rhs through the eigendecomposition; requires min eig > tol.

    rhs may be a vector or a matrix of stacked right-hand sides (columns).
    """
    vals, vecs, _ = _sorted_eigs(matrix)
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
