"""Dense complex Hermitian spectra and positive definite solves, self-contained.

hermitian_eigs gives what every reader of a spectrum needs: the least and the largest
eigenvalue and the rank, the count above RANK_TOL * max(1, largest).  A matrix already
diagonal to EXIT_TOL reads them off its diagonal.  Any other is reduced to a real symmetric
tridiagonal T by Householder (Wilkinson 1965), whose Sturm count, the negative pivots of the
LDL^T factorization of T - sigma I, gives the extremes by bisection (Barth, Martin & Wilkinson
1967, LAPACK dstebz) and the rank as one count (the inertia of a matrix within a few ulps of
T, Kahan 1966).  Solves come from a Cholesky factorization M = L L^H and substitution.  No
external solver is called, and the array work is elementwise numpy arithmetic and einsum, not
BLAS, so it does not depend on thread count.  A solve raises RankDeficiencyError at a pivot
<= 0, so it never returns NaN.
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
TINY = sys.float_info.min  # the least normal float


class RankDeficiencyError(RuntimeError):
    """Not numerically positive definite: the least eigenvalue or a Cholesky pivot is <= tol."""

    def __init__(self, value: float, tol: float):
        super().__init__(f"matrix is not positive definite: {value:.3e} <= tol {tol:.3e}")
        self.value = value
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
    """(d, e): a real symmetric tridiagonal T unitarily similar to Hermitian A.

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


def _sturm_count(d: list[float], e: list[float]):
    """sigma -> #(lambda < sigma) of the symmetric tridiagonal (d, e): the negative pivots of
    T - sigma I = L D L^T, q_i = d_i - sigma - e_(i-1)^2 / q_(i-1) (Sylvester's inertia).  A
    pivot of modulus below pivmin = TINY max(1, max e_i^2) is taken as pivmin, so no division is
    by zero and no quotient exceeds 1 / TINY: the guard of LAPACK dstebz, whose -pivmin would
    count an eigenvalue at sigma in.  count(sigma, True) stops at the first negative pivot and
    count(sigma, False) at the first that is not (a guarded one included), which decide count > 0
    and count == n."""
    squares = [0.0, *(x * x for x in e)]
    pivmin = TINY * max(1.0, *squares)

    def count(sigma: float, until: bool | None = None) -> int:
        c, q = 0, 1.0
        for di, sq in zip(d, squares):
            q = di - sigma - sq / q
            if q <= -pivmin:
                c += 1
                if until:
                    break
            elif until is False:
                break
            elif q < pivmin:
                q = pivmin
        return c

    return count


def _extremes(d: list[float], e: list[float], count, width: float) -> tuple[float, float]:
    """(least, largest) eigenvalue of the tridiagonal (d, e), each to within width / 2 of the
    eigenvalue of a matrix within a few ulps of T.  One loop bisects both Gershgorin brackets,
    lambda_min in [min(d_i - r_i), min d_i] and lambda_max in [max d_i, max(d_i + r_i)] with
    r_i = e_(i-1) + e_i, until each is at most width wide.  With width 2 EPS ||T||_F, every
    step halves a wider bracket: its ends lie in the Gershgorin interval, within sqrt(3) ||T||_F
    of 0, where one ulp is below width, so its midpoint rounds strictly inside it.  Each count
    stops at the pivot that decides its question (_sturm_count)."""
    n = len(d)
    radii = [x + y for x, y in zip([0.0, *e], [*e, 0.0])]
    low = [min(x - r for x, r in zip(d, radii)), min(d)]
    high = [max(d), max(x + r for x, r in zip(d, radii))]
    while low[1] - low[0] > width or high[1] - high[0] > width:
        s, t = 0.5 * (low[0] + low[1]), 0.5 * (high[0] + high[1])
        low[count(s, True) > 0] = s  # an eigenvalue below s: lambda_min is in [low[0], s]
        high[count(t, False) == n] = t  # every eigenvalue below t: lambda_max is in [high[0], t]
    return 0.5 * (low[0] + low[1]), 0.5 * (high[0] + high[1])


def hermitian_eigs(matrix: HermitianMatrix):
    """((least eigenvalue, largest, rank), error bound); checked against the cyclic Jacobi in
    the tests.  The rank counts the eigenvalues above RANK_TOL * max(1, largest).

    A matrix diagonal to EXIT_TOL reads all three off its sorted diagonal, with its off-diagonal
    Frobenius norm as the bound (Weyl).  Any other takes the tridiagonal, bisection to a width
    of 2 EPS ||T||_F and one Sturm count, and the bound 4 n EPS ||A||_F, the usual c n EPS
    ||A||_F backward-error form of Householder reduction: it covers rounding in the reflections,
    in the counts (each exact for a matrix within a few ulps of T) and the bisection's half
    width.  The constant 4 is not proved.
    """
    a, n = matrix.entries, matrix.dim
    if n < 1:
        raise ValueError("dimension must be >= 1")
    norm, off = _frobenius(a), _frobenius(a - np.diag(np.diagonal(a)))
    if off <= EXIT_TOL * norm * n:
        vals = np.sort(np.diagonal(a).real, kind="stable")
        upper = float(vals[-1])
        return (float(vals[0]), upper, int(np.sum(vals > RANK_TOL * max(1.0, upper)))), float(off)
    e = int(np.frexp(np.max(np.abs(a)))[1])  # the reduction squares too: scale a exactly first
    d, sub = _tridiagonal(np.ldexp(a.view(float), -e).view(complex))
    count, width = _sturm_count(d, sub), 2 * EPS * float(np.ldexp(norm, -e))
    lower, upper = (float(x) for x in np.ldexp(_extremes(d, sub, count, width), e))
    rank = n - count(float(np.ldexp(RANK_TOL * max(1.0, upper), -e)))
    return (lower, upper, rank), 4 * n * EPS * float(norm)


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
