"""Dense complex Hermitian eigenvalues and positive definite solves, self-contained.

Eigenvalues come from a Householder reduction to a real symmetric tridiagonal (Wilkinson
1965) and implicit QL with Wilkinson shifts on it (Bowdler, Martin, Reinsch & Wilkinson
1968, EISPACK tql1); a matrix already diagonal to EXIT_TOL skips both.  Solves come from a
Cholesky factorization M = L L^H and substitution.  No external solver is called, and the
array work is elementwise numpy arithmetic and einsum, not BLAS, so it does not depend on
thread count.  QL raises ConvergenceError at its step cap, and a solve RankDeficiencyError
at a pivot <= 0, so neither returns NaN.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._lazy import np

HERMITICITY_TOL = 1e-12
RANK_TOL = 1e-9
EXIT_TOL = 1e-30  # a matrix is diagonal once ||off-diagonal||_F <= EXIT_TOL * ||A||_F * n
EPS = sys.float_info.epsilon


class RankDeficiencyError(RuntimeError):
    """Not numerically positive definite: the least eigenvalue or a Cholesky pivot is <= tol."""

    def __init__(self, value: float, tol: float):
        super().__init__(f"matrix is not positive definite: {value:.3e} <= tol {tol:.3e}")
        self.value = value
        self.tol = tol


class ConvergenceError(RuntimeError):
    """QL hit its step cap on one eigenvalue with off-diagonal mass left."""

    def __init__(self, steps: int, off: float, target: float):
        super().__init__(f"no convergence in {steps} QL steps on one eigenvalue: "
                         f"off-diagonal norm {off:.3e} > {target:.3e}")
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


def _frobenius(a: np.ndarray):
    """||a||_F, squared at an exact power-of-two scale near 1/max|a_ij|, so none over/underflows."""
    e = np.frexp(np.max(np.abs(a), initial=0.0))[1]
    return np.ldexp(np.sqrt(np.sum(np.ldexp(np.abs(a), -e) ** 2)), e)


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
                raise ConvergenceError(cap, abs(e[l]), small)
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


def hermitian_eigs(matrix: HermitianMatrix):
    """(eigenvalues ascending, error bound); checked against the cyclic Jacobi in the tests.

    A matrix diagonal to EXIT_TOL gives its sorted diagonal and its off-diagonal Frobenius norm
    as the bound (Weyl).  Any other takes the tridiagonal and QL, and the bound 4 n EPS ||A||_F,
    the usual c n EPS ||A||_F backward-error form of Householder reduction plus QL: it covers
    rounding in the reflections and rotations and the neglected sub-diagonal entries (each at
    most EPS ||T||).  The constant 4 is not proved.
    """
    a, n = matrix.entries, matrix.dim
    if n < 1:
        raise ValueError("dimension must be >= 1")
    norm, off = _frobenius(a), _frobenius(a - np.diag(np.diagonal(a)))
    if off <= EXIT_TOL * norm * n:
        return np.sort(np.diagonal(a).real, kind="stable"), float(off)
    e = np.frexp(np.max(np.abs(a)))[1]  # the reduction squares too: scale a exactly first
    vals = np.ldexp(_ql(*_tridiagonal(np.ldexp(a.view(float), -e).view(complex))), e)
    return vals, 4 * n * EPS * float(norm)


def solve_hermitian(matrix: HermitianMatrix, rhs):
    """X with M X = rhs for positive definite M; rhs is a vector or stacked columns.

    M = L L^H is factored column by column (Cholesky), then L Y = rhs and L^H X = Y are
    solved by substitution.  L is of the order of sqrt(M), so its squares stay in range.
    A pivot <= 0 (M not numerically positive definite) raises RankDeficiencyError.
    """
    a, n = matrix.entries, matrix.dim
    low = np.zeros((n, n), dtype=complex)
    for j in range(n):
        row = low[j, :j]
        pivot = a[j, j].real - np.einsum("k,k->", row, row.conj()).real
        if not pivot > 0.0:
            raise RankDeficiencyError(pivot, 0.0)
        low[j, j] = root = math.sqrt(pivot)
        low[j + 1:, j] = (a[j + 1:, j] - np.einsum("ik,k->i", low[j + 1:, :j], row.conj())) / root
    x = np.array(rhs, dtype=complex)
    for j in range(n):
        x[j] = (x[j] - np.einsum("k,k...->...", low[j, :j], x[:j])) / low[j, j].real
    for j in reversed(range(n)):
        x[j] = (x[j] - np.einsum("k,k...->...", low[j + 1:, j].conj(), x[j + 1:])) / low[j, j].real
    return x
