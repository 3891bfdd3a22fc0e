"""Dense complex Hermitian eigendecomposition and solves, self-contained.

Jacobi iteration with unitary 2x2 rotations in the Brent-Luk parallel order
(Brent & Luk 1985): each sweep is n - 1 rounds of disjoint pairs (n rounds
for odd n), and a round's rotations are applied together as array
operations.  Dimensions in this package stay in the low hundreds, so the
O(n^3) sweeps are plenty; no external eigensolver is called, and the
rotations use elementwise numpy arithmetic and einsum, not BLAS, so they do
not depend on thread count.  A matrix that does not converge within the
sweep cap raises ConvergenceError.  A and V^H are separate arrays, and the
rotations are fixed by A alone (Demmel & Veselic 1992), so a values-only
decomposition never touches V and gives the same eigenvalue bits.
hermitian_eigs is the one decomposition entry point; solve_hermitian solves
from a decomposition it returned with vectors, so a caller that needs both
the spectrum and solves diagonalizes once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
RANK_TOL = 1e-9


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


@functools.cache
def _rounds(n: int) -> list[tuple[np.ndarray, ...]]:
    """Brent-Luk round-robin for n >= 2: every pair i < j exactly once per sweep.

    Players sit on a circle with slot 0 fixed and the rest turning by one
    each round; odd n adds a bye slot whose pair sits out.  Round r is the
    tuple (pairs (i, j), the same pairs as two index rows (the i's, the
    j's), offsets of a_ij, float offsets of the real parts of a_ii then a_jj,
    float offsets of a_ij and a_ji, those plus the imaginary parts of a_ii and
    a_jj), offsets taken in the n x n array A.
    """
    slots = n + n % 2
    ring = list(range(slots))
    rows = []
    for _ in range(slots - 1):
        pairs = [(ring[t], ring[slots - 1 - t]) for t in range(slots // 2)]
        rows.append(sorted((min(a, b), max(a, b)) for a, b in pairs if max(a, b) < n))
        ring = [ring[0], ring[-1]] + ring[1:-1]
    rows = np.ascontiguousarray(np.array(rows, dtype=np.intp).transpose(0, 2, 1))
    i, j = rows[:, 0], rows[:, 1]
    ij, ji = i * n + j, j * n + i
    diag = np.concatenate([i, j], axis=1) * (n + 1)
    off = np.concatenate([2 * ij, 2 * ij + 1, 2 * ji, 2 * ji + 1], axis=1)
    clear = np.concatenate([off, 2 * diag + 1], axis=1)
    return list(zip(rows.transpose(0, 2, 1), rows, ij, 2 * diag, off, clear))


def _jacobi(matrix: np.ndarray, sweeps: int = 60, tol: float = 1e-30, vectors: bool = True):
    """Parallel-order Jacobi diagonalization with unitary 2x2 rotations.

    Returns (diag, unitary V, sweeps run, off) with M = V (D + E) V^H, E the
    off-diagonal part left at exit and off its Frobenius norm; V is None when
    vectors is False.  A sweep is the rounds of _rounds(n); the rotations of a
    round act on disjoint pairs, so they commute and are applied together.
    A and V^H are separate n x n arrays.  With U the round's block rotation,
    the rows of A go to U^H A, A to its conjugate transpose, whose rows go to
    U^H once more: A <- U^H A U, with row operations only.  The rotations are
    fixed by A alone, so the rows of V^H go to U^H V^H (V <- V U) only when
    vectors are asked for, and the eigenvalues are the same bits either way.
    Entries at most tol * ||A|| get the identity rotation and are set to
    zero.  Raises ConvergenceError if the off-diagonal norm still exceeds that
    threshold times n after the last allowed sweep.
    """
    n = matrix.shape[0]
    a = np.array(matrix, dtype=complex, order="C")
    vh = np.eye(n, dtype=complex) if vectors else None
    if n == 1:
        return a.real.diagonal().copy(), vh, 0, 0.0
    norm = np.sqrt(np.sum(np.abs(a) ** 2))
    if norm == 0.0:
        return np.zeros(n), vh, 0, 0.0
    flat = a.reshape(-1)
    floats = flat.view(float)
    thresh = tol * norm
    half = n // 2
    # one work array, made once: an n x n temporary made every round can cost
    # fresh pages from the allocator at large n (dim 256 ran twice as long)
    work = np.empty(n * n, dtype=complex)
    rotated, spare = work[: 2 * half * n].reshape(2, half, n), work.reshape(n, n)
    done = 0
    while True:
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diagonal(a))) ** 2))
        if off <= thresh * n:
            break
        if done == sweeps:
            raise ConvergenceError(done, float(off), thresh * n)
        done += 1
        for _, rows, ij, diag, offdiag, clear in _rounds(n):
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
            a[rows] = np.einsum("lkh,khc->lhc", uh, a[rows], out=rotated)
            if vectors:
                vh[rows] = np.einsum("lkh,khc->lhc", uh, vh[rows], out=rotated)
            a[...] = np.conjugate(a, out=spare).T
            a[rows] = np.einsum("lkh,khc->lhc", uh, a[rows], out=rotated)
            floats[clear] = 0.0
    return np.diagonal(a).real.copy(), vh.conj().T if vectors else None, done, float(off)


def hermitian_eigs(matrix: HermitianMatrix, vectors: bool = True):
    """(eigenvalues ascending, error bound, Jacobi sweeps, vectors or None).

    The vectors are the matching orthonormal eigenvector columns; with vectors=False slot 3 is
    None and V is never rotated.  The bound is _jacobi's off: by Weyl's inequality each eigenvalue
    lies within it of an eigenvalue of the final rotated matrix.  Rounding in the rotations is not
    covered by it.
    """
    if matrix.dim < 1:
        raise ValueError("dimension must be >= 1")
    vals, vecs, sweeps, off = _jacobi(matrix.entries, vectors=vectors)
    order = np.argsort(vals, kind="stable")
    return vals[order], off, sweeps, None if vecs is None else vecs[:, order]


def solve_hermitian(eigs, rhs):
    """Solve M x = rhs given eigs = hermitian_eigs(M); requires min |eig| > RANK_TOL * max(1, top).

    rhs may be a vector or a matrix of stacked right-hand sides (columns).
    """
    vals, _, _, vecs = eigs
    if vecs is None:
        raise ValueError("solve_hermitian needs eigenvectors: pass hermitian_eigs(M, vectors=True)")
    top = float(np.max(np.abs(vals)))
    cutoff = RANK_TOL * max(1.0, top)
    small = float(np.min(np.abs(vals)))
    if small <= cutoff:
        raise RankDeficiencyError(small, cutoff)
    b = np.asarray(rhs, dtype=complex)
    proj = vecs.conj().T @ b
    if b.ndim == 1:
        return vecs @ (proj / vals)
    return vecs @ (proj / vals[:, np.newaxis])
