"""Dense complex Hermitian eigenvalues, eigendecomposition and solves, self-contained.

Eigenvalues alone come from a Householder reduction to a real symmetric
tridiagonal (Wilkinson 1965) and implicit QL with Wilkinson shifts on it
(Bowdler, Martin, Reinsch & Wilkinson 1968, EISPACK tql1).  Eigenvectors come
from Jacobi iteration with unitary 2x2 rotations in the Brent-Luk parallel
order (Brent & Luk 1985): each sweep is n - 1 rounds of disjoint pairs (n
rounds for odd n), applied together as array operations.  Both start with
the Jacobi's exit test, so a matrix already diagonal to it gives the same
bits either way.  No external eigensolver is called, and the array work is
elementwise numpy arithmetic and einsum, not BLAS, so it does not depend on
thread count.  Each iteration has a cap, past which it raises
ConvergenceError.  hermitian_eigs is the one decomposition entry point;
solve_hermitian solves from a decomposition it returned with vectors, so a
caller that needs both the spectrum and solves diagonalizes once.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from ._lazy import np

HERMITICITY_TOL = 1e-12
RANK_TOL = 1e-9
EXIT_TOL = 1e-30  # the Jacobi stops once ||off-diagonal||_F <= EXIT_TOL * ||A||_F * n
EPS = sys.float_info.epsilon


class RankDeficiencyError(RuntimeError):
    """Linear solve hit a numerically zero eigenvalue."""

    def __init__(self, eigenvalue: float, tol: float):
        super().__init__(f"matrix is rank deficient: eigenvalue {eigenvalue:.3e} <= tol {tol:.3e}")
        self.eigenvalue = eigenvalue
        self.tol = tol


class ConvergenceError(RuntimeError):
    """An iteration hit its cap (Jacobi sweeps, QL steps) with off-diagonal mass left."""

    def __init__(self, steps: int, off: float, target: float, unit: str = "Jacobi sweeps"):
        super().__init__(
            f"no convergence in {steps} {unit}: off-diagonal norm {off:.3e} > {target:.3e}"
        )
        self.steps = steps


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
        if not np.all(np.isfinite(m)):
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


def _frobenius(a: np.ndarray):
    """||a||_F, squared at an exact power-of-two scale near 1/max|a_ij|, so none over/underflows."""
    e = np.frexp(np.max(np.abs(a), initial=0.0))[1]
    return np.ldexp(np.sqrt(np.sum(np.ldexp(np.abs(a), -e) ** 2)), e)


def _jacobi(matrix: np.ndarray, sweeps: int = 60, tol: float = EXIT_TOL):
    """Parallel-order Jacobi diagonalization with unitary 2x2 rotations.

    Returns (diag, unitary V, sweeps run, off) with M = V (D + E) V^H, E the
    off-diagonal part left at exit and off its Frobenius norm.  A sweep is the
    rounds of _rounds(n); the rotations of a round act on disjoint pairs, so
    they commute and are applied together.  A and V^H are separate n x n
    arrays.  With U the round's block rotation, the rows of A go to U^H A, A
    to its conjugate transpose, whose rows go to U^H once more: A <- U^H A U,
    with row operations only, and the rows of V^H go to U^H V^H (V <- V U).
    Entries at most tol * ||A|| get the identity rotation and are set to
    zero.  The exit test is off <= tol * ||A|| * n; it holds at once for
    n = 1 and for the zero matrix.  Raises ConvergenceError if it still fails
    after the last allowed sweep.
    """
    n = matrix.shape[0]
    a = np.array(matrix, dtype=complex, order="C")
    vh = np.eye(n, dtype=complex)
    flat = a.reshape(-1)
    floats = flat.view(float)
    thresh = tol * _frobenius(a)
    half = n // 2
    # one work array, made once: an n x n temporary made every round can cost
    # fresh pages from the allocator at large n (dim 256 ran twice as long)
    work = np.empty(n * n, dtype=complex)
    rotated, spare = work[: 2 * half * n].reshape(2, half, n), work.reshape(n, n)
    done = 0
    while True:
        off = _frobenius(a - np.diag(np.diagonal(a)))
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
            vh[rows] = np.einsum("lkh,khc->lhc", uh, vh[rows], out=rotated)
            a[...] = np.conjugate(a, out=spare).T
            a[rows] = np.einsum("lkh,khc->lhc", uh, a[rows], out=rotated)
            floats[clear] = 0.0
    return np.diagonal(a).real.copy(), vh.conj().T, done, float(off)


def _tridiagonal(matrix: np.ndarray) -> tuple[list[float], list[float]]:
    """(d, e): a real symmetric tridiagonal T unitarily similar to Hermitian A, n >= 2.

    d is the diagonal and e[i] couples d[i] and d[i + 1].  Step k reflects the
    column x below the diagonal onto -phase(x_0) ||x|| e_1 (Householder;
    Wilkinson 1965): with v = x + phase(x_0) ||x|| e_1 and
    tau = 2 / ||v||^2 = 1 / (||x|| (||x|| + |x_0|)), the trailing block B goes
    to H B H for H = I - tau v v^H by one matvec p = tau B v and the rank-2
    update B -= v q^H + q v^H, q = p - (tau v^H p / 2) v.  A diagonal unitary
    similarity takes the phase off each sub-diagonal entry, so e holds ||x||.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    d, e = [], []
    for k in range(n - 1):
        x = a[k + 1 :, k]
        alpha = float(np.sqrt(np.sum(x.real**2 + x.imag**2)))
        d.append(float(a[k, k].real))
        e.append(alpha)
        if alpha == 0.0 or k == n - 2:
            continue
        x0 = complex(x[0])
        v = x.copy()
        v[0] += (x0 / abs(x0) if x0 else 1.0) * alpha
        tau = 1.0 / (alpha * (alpha + abs(x0)))
        b = a[k + 1 :, k + 1 :]
        p = tau * np.einsum("ij,j->i", b, v)
        q = p - (0.5 * tau * np.einsum("i,i->", v.conj(), p).real) * v
        b -= np.multiply.outer(v, q.conj())
        b -= np.multiply.outer(q, v.conj())
    d.append(float(a[n - 1, n - 1].real))
    return d, e


def _ql(d: list[float], e: list[float], cap: int = 30) -> list[float]:
    """All eigenvalues of the symmetric tridiagonal (d, e), ascending, by implicit QL.

    The QL steps use Wilkinson shifts (Bowdler, Martin, Reinsch & Wilkinson
    1968, EISPACK tql1).  An entry of e at most EPS * max(|d_i| + |e_i|) is
    neglected, which splits T there; eigenvalue l is found when e[l] is.
    Raises ConvergenceError after cap QL steps on one eigenvalue.
    """
    d, e = list(d), [*e, 0.0]
    n = len(d)
    small = EPS * max(abs(x) + abs(y) for x, y in zip(d, e))
    for l in range(n):
        for step in range(cap + 1):
            m = l
            while abs(e[m]) > small:  # e[n - 1] = 0 stops it
                m += 1
            if m == l:
                break
            if step == cap:
                raise ConvergenceError(cap, abs(e[l]), small, "QL steps on one eigenvalue")
            # the eigenvalue of the leading 2 x 2 block of T[l:m+1] nearer d[l], as the shift
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s, c, p = 1.0, 1.0, 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: T splits at i + 1; restart the step
                    d[i + 1], e[m] = d[i + 1] - p, 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l], e[l], e[m] = d[l] - p, g, 0.0
    return sorted(d)


def hermitian_eigs(matrix: HermitianMatrix, vectors: bool = True):
    """(eigenvalues ascending, error bound, Jacobi sweeps, vectors or None).

    With vectors the Jacobi runs: slot 3 holds the eigenvector columns, and the
    bound is its exit off-diagonal norm, within which each eigenvalue lies of
    one of the final rotated matrix (Weyl); rotation rounding is not covered.
    Without, slot 3 is None and slot 2 is 0.  A matrix that passes the Jacobi's
    exit test gives its sorted diagonal and that bound, the Jacobi's bits.  Any
    other takes the tridiagonal and QL, and the bound 4 n EPS ||A||_F, the usual
    c n EPS ||A||_F backward-error form of Householder reduction plus QL: it
    covers rounding in the reflections and rotations and the neglected
    sub-diagonal entries (each at most EPS ||T||).  The constant 4 is not
    proved; the tests check it against the Jacobi.
    """
    a, n = matrix.entries, matrix.dim
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if vectors:
        vals, vecs, sweeps, off = _jacobi(a)
        order = np.argsort(vals, kind="stable")
        return vals[order], off, sweeps, vecs[:, order]
    norm, off = _frobenius(a), _frobenius(a - np.diag(np.diagonal(a)))
    if off <= EXIT_TOL * norm * n:
        return np.sort(np.diagonal(a).real, kind="stable"), float(off), 0, None
    e = np.frexp(np.max(np.abs(a)))[1]  # the reduction squares too: scale a exactly first
    vals = np.ldexp(_ql(*_tridiagonal(np.ldexp(a.view(float), -e).view(complex))), e)
    return vals, 4 * n * EPS * float(norm), 0, None


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
    proj = np.einsum("ai,a...->i...", vecs.conj(), b)
    return np.einsum("ai,i...->a...", vecs, (proj.T / vals).T)
