"""Hermitian extremes, ranks, Sturm counts and solves against small dense oracles."""

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from padicgabor import linalg
from padicgabor.linalg import (
    EPS,
    RANK_TOL,
    HermitianMatrix,
    TINY,
    RankDeficiencyError,
    _extremes,
    _sturm_count,
    _tridiagonal,
    hermitian_eigs,
    solve_hermitian,
)


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianMatrix((a + a.conj().T) / 2)


def lu_determinant(m):
    """Partial-pivot LU determinant; oracle for the sign of the eigenvalue product."""
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    det = 1.0 + 0j
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) == 0.0:
            return 0.0 + 0j
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            det = -det
        det *= a[col, col]
        for row in range(col + 1, n):
            a[row, col:] -= (a[row, col] / a[col, col]) * a[col, col:]
    return det


def test_identity_and_diagonal():
    (lower, upper, rank), res = hermitian_eigs(HermitianMatrix(np.eye(4)))
    assert (lower, upper, rank) == (1.0, 1.0, 4)
    assert res <= 1e-12
    spectrum, _ = hermitian_eigs(HermitianMatrix(np.diag([2.0, 1.0])))
    assert spectrum == (1.0, 2.0, 2)


def test_rank_one_spectrum():
    rng = np.random.default_rng(0)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    m = HermitianMatrix(np.outer(v, v.conj()))
    (lower, upper, rank), res = hermitian_eigs(m)
    assert abs(lower) <= 1e-12 and abs(upper - 1.0) <= 1e-12 and rank == 1
    assert res <= 1e-10


def test_residual_and_extremes_random():
    # each extreme lies beyond every diagonal entry, a Rayleigh quotient, up to the bound
    rng = np.random.default_rng(1)
    for n in (2, 5, 9, 17, 33):
        m = random_hermitian(n, rng)
        (lower, upper, rank), res = hermitian_eigs(m)
        diagonal = np.diagonal(m.entries).real
        assert res <= 1e-10
        assert lower <= np.min(diagonal) + res and upper >= np.max(diagonal) - res
        assert 0 < rank < n  # a random Hermitian matrix has eigenvalues of both signs


def test_negative_count_matches_the_lu_determinant_sign():
    # det = the product of the eigenvalues, so its sign is (-1)^#(lambda < 0)
    rng = np.random.default_rng(2)
    for n in (2, 4, 8):
        m = random_hermitian(n, rng)
        det = lu_determinant(m.entries)
        assert abs(det.imag) <= 1e-8 * max(1.0, abs(det))
        negative = _sturm_count(*_tridiagonal(m.entries))(0.0)
        assert np.sign(det.real) == (-1) ** negative


def test_solve_examples():
    rng = np.random.default_rng(3)
    b = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert np.allclose(solve_hermitian(HermitianMatrix(np.eye(6)), b), b)
    assert np.allclose(solve_hermitian(HermitianMatrix(2 * np.eye(6)), b), b / 2)


def test_solve_round_trip():
    rng = np.random.default_rng(4)
    for n in (1, 3, 8, 20):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = HermitianMatrix(a @ a.conj().T + np.eye(n))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = solve_hermitian(m, b)
        assert np.linalg.norm(m.entries @ x - b) <= 1e-10 * np.linalg.norm(b)
        stacked = rng.normal(size=(n, 3))
        xs = solve_hermitian(m, stacked)
        assert np.linalg.norm(m.entries @ xs - stacked) <= 1e-9
        assert np.array_equal(solve_hermitian(m, stacked[:, 1]), xs[:, 1])  # column by column


@pytest.mark.parametrize("scale", [1e-300, 2.0**-1000, 1e300])
def test_solve_at_extreme_scales(scale):
    # M's squares would under- or overflow at these scales, the factor's do not: X comes back
    # finite, the unscaled solution divided by the scale
    m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0j], [0.0, -1.0j, 2.0]])
    x = solve_hermitian(HermitianMatrix(m * scale), np.ones(3))
    ref = np.linalg.solve(m, np.ones(3))
    assert np.max(np.abs(x * scale - ref)) <= 16 * EPS * np.max(np.abs(ref))


@pytest.mark.parametrize("m", [
    np.zeros((3, 3)),
    np.outer([1, 2j, 3 - 1j], np.conj([1, 2j, 3 - 1j])),  # rank one: the second pivot is 0
    np.diag([1.0, 0.0, 2.0]),
    [[1.0, 2.0], [2.0, 1.0]],  # eigenvalues -1 and 3
    -np.eye(4),
    np.diag([1.0, 1.0, -1e-300]),
], ids=["zero", "rank-one", "zero-pivot", "indefinite", "negative", "tiny-negative"])
def test_solve_refuses_a_matrix_that_is_not_positive_definite(m):
    # a pivot <= 0 raises; the solve never returns NaN or infinity
    with pytest.raises(RankDeficiencyError, match="not positive definite") as exc:
        solve_hermitian(HermitianMatrix(m), np.ones(len(m)))
    assert exc.value.value <= exc.value.tol == 0.0


def test_construction_validation():
    with pytest.raises(ValueError):
        HermitianMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    # tiny defects are symmetrized away
    m = HermitianMatrix(np.array([[1.0, 1e-14], [0.0, 1.0]]))
    assert np.allclose(m.entries, m.entries.conj().T)


def test_zero_matrix():
    spectrum, bound = hermitian_eigs(HermitianMatrix(np.zeros((3, 3))))
    assert spectrum == (0.0, 0.0, 0)
    assert bound == 0.0


def cyclic_jacobi(matrix, sweeps=60, tol=1e-30):
    """Row-cyclic Jacobi, one rotation at a time: the eigenvalue oracle for hermitian_eigs
    and the Sturm count.

    Returns (eigenvalues in diagonal order, off-diagonal Frobenius norm at exit, sweeps run);
    each eigenvalue lies within that norm of one of the final rotated matrix (Weyl).
    """
    a = matrix.astype(complex).copy()
    n = a.shape[0]
    thresh = tol * np.linalg.norm(a)
    for sweep in range(sweeps + 1):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diagonal(a))) ** 2))
        if off <= thresh * n:
            return np.diagonal(a).real.copy(), off, sweep
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
                if tau >= 0:
                    t = -1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c * phase
                col_i = a[:, i].copy()
                col_j = a[:, j].copy()
                a[:, i] = c * col_i - np.conj(s) * col_j
                a[:, j] = s * col_i + c * col_j
                row_i = a[i, :].copy()
                row_j = a[j, :].copy()
                a[i, :] = c * row_i - s * row_j
                a[j, :] = np.conj(s) * row_i + c * row_j
                a[i, j] = 0.0
                a[j, i] = 0.0
                a[i, i] = a[i, i].real
                a[j, j] = a[j, j].real
    raise AssertionError(f"the reference Jacobi did not converge in {sweeps} sweeps")


def assert_matches_jacobi(m):
    """hermitian_eigs against cyclic_jacobi: where the reference runs no sweep, the ends of the
    sorted diagonal with their bytes and the reference's off-diagonal norm as the bound; else
    the bound 4 n EPS ||A||_F, within which, twice over, plus the reference's exit norm, the
    extremes lie of the reference's, the second bound standing for the reference's own rounding.
    The rank is the reference's count above the cutoff wherever no reference eigenvalue lies
    that close to it.  Returns ((lower, upper, rank), bound) and the reference's spectrum,
    ascending."""
    m = HermitianMatrix(m).entries
    vals, off, sweeps = cyclic_jacobi(m)
    ref = np.sort(vals, kind="stable")
    (lower, upper, rank), bound = result = hermitian_eigs(HermitianMatrix(m))
    assert lower <= upper and isinstance(rank, int)
    if sweeps == 0:
        assert np.array([lower, upper]).tobytes() == ref[[0, -1]].tobytes()
        assert bound == pytest.approx(off, rel=1e-12)
    else:
        assert bound == pytest.approx(4 * len(m) * EPS * np.linalg.norm(m), rel=1e-12)
        assert max(abs(lower - ref[0]), abs(upper - ref[-1])) <= 2 * bound + off
    cutoff = RANK_TOL * max(1.0, upper)
    if np.min(np.abs(ref - cutoff)) > 2 * bound + off:
        assert rank == int(np.sum(ref > cutoff))
    return result, ref


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 16, 27, 64, 81])
def test_values_path_matches_cyclic_reference(n):
    assert_matches_jacobi(random_hermitian(n, np.random.default_rng(100 + n)).entries)


@pytest.mark.parametrize("n", [3, 8, 9])
def test_values_path_degenerate_and_special_spectra(n):
    rng = np.random.default_rng(200 + n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    # a tight frame's operator: n + 3 random vectors, orthonormalized jointly
    frame = np.linalg.qr(rng.normal(size=(n + 3, n)) + 1j * rng.normal(size=(n + 3, n)))[0]
    cases = [
        2.5 * np.eye(n),
        2.5 * np.eye(n) + np.outer(v, v.conj()),
        3.0 * (frame.conj().T @ frame),
        np.zeros((n, n)),
        np.diag(np.arange(n, 0, -1.0)),
        1j * np.triu(np.ones((n, n)), 1) - 1j * np.tril(np.ones((n, n)), -1),
    ]
    for m in cases:
        assert_matches_jacobi(HermitianMatrix(m).entries)


def test_values_path_extreme_scales():
    # zero pairs sit next to nonzero ones; nothing may overflow or divide by zero
    rng = np.random.default_rng(7)
    for scale in (1e-150, 1e150):
        m = random_hermitian(6, rng).entries * scale
        m[0, 3] = m[3, 0] = 0.0
        assert_matches_jacobi(m)


# The extremes and the rank against the cyclic Jacobi.  Entries are dyadic, k / 64 for
# |k| <= 2^16, times 2^j for |j| <= 64: squares and their sums stay normal floats, so both
# paths' Frobenius norms are exact to rounding.  The stated bound is assert_matches_jacobi's.
ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=100)
SIZES = st.integers(1, 12)
SCALES = st.integers(-64, 64).map(lambda j: 2.0**j)


def _dyadic(draw, shape):
    ks = draw(st.lists(st.integers(-(2**16), 2**16), min_size=int(np.prod(shape)),
                       max_size=int(np.prod(shape))))
    return np.array(ks, dtype=float).reshape(shape) / 64.0


@st.composite
def hermitian_matrices(draw):
    n = draw(SIZES)
    a = (_dyadic(draw, (n, n)) + 1j * _dyadic(draw, (n, n))) * draw(SCALES)
    return HermitianMatrix((a + a.conj().T) / 2).entries


def _unitary(n, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


@ORACLE
@given(hermitian_matrices())
def test_values_path_matches_jacobi_on_random_hermitian(m):
    assert_matches_jacobi(m)


@ORACLE
@given(SIZES, st.data(), st.integers(0, 2**32 - 1))
def test_values_path_rank_count_on_low_rank_psd(n, data, seed):
    # r orthonormal directions with weights in [1, 2^10]: the eigenvalues are the weights and
    # n - r zeros, so the count above RANK_TOL * max(1, top) is r on both paths
    r = data.draw(st.integers(0, n))
    weights = np.array(data.draw(st.lists(st.integers(64, 2**16), min_size=r, max_size=r))) / 64
    u = _unitary(n, seed)[:, :r]
    m = HermitianMatrix(np.einsum("ai,i,bi->ab", u, weights, u.conj())).entries
    ((_, _, rank), _), ref = assert_matches_jacobi(m)
    assert rank == r
    assert int(np.sum(ref > RANK_TOL * max(1.0, float(np.max(ref))))) == r


@ORACLE
@given(SIZES, st.data(), st.integers(0, 2**32 - 1))
def test_rank_on_eigenvalues_clustered_at_the_cutoff(n, data, seed):
    # a top eigenvalue 2^j and the rest at cutoff * (1 + i 2^-s), cutoff = RANK_TOL max(1, 2^j),
    # 0 < |i| <= 8: with s <= 12 every eigenvalue lies clear of the cutoff, some above and some
    # below it; with s up to 60 some lie within the bound of it, where the rank is not checked
    top = 2.0 ** data.draw(st.integers(-8, 16))
    cutoff = RANK_TOL * max(1.0, top)
    finest = data.draw(st.sampled_from([12, 60]))
    steps = st.integers(1, 8).flatmap(lambda i: st.sampled_from([-i, i]))
    offsets = data.draw(st.lists(st.tuples(steps, st.integers(3, finest)),
                                 min_size=n - 1, max_size=n - 1))
    spectrum = np.array([top, *(cutoff * (1.0 + i * 2.0**-s) for i, s in offsets)])
    u = _unitary(n, seed)
    m = HermitianMatrix(np.einsum("ai,i,bi->ab", u, spectrum, u.conj())).entries
    assert_matches_jacobi(m)  # the rank is the reference's count where all lie clear


@ORACLE
@given(hermitian_matrices(), st.lists(st.integers(0, 2**10), max_size=8))
def test_sturm_count_against_jacobi(m, fractions):
    # on the tridiagonal of m: nondecreasing in sigma, 0 below the Gershgorin interval and n past
    # it, and #(oracle < sigma) at every sigma at least 2 bound from every oracle eigenvalue,
    # bound = 4 n EPS ||A||_F (1 for the zero matrix)
    n = len(m)
    d, e = _tridiagonal(m)
    count = _sturm_count(d, e)
    radii = np.array([0.0, *e]) + np.array([*e, 0.0])
    low, high = float(np.min(np.array(d) - radii)), float(np.max(np.array(d) + radii))
    ref, off, _ = cyclic_jacobi(m)
    margin = 2 * (4 * n * EPS * np.linalg.norm(m) or 1.0) + off
    sigmas = sorted([low - margin, high + margin, *ref,
                     *(low + (high - low) * f / 2**10 for f in fractions)])
    counts = [count(sigma) for sigma in sigmas]
    assert counts == sorted(counts)
    assert (counts[0], counts[-1]) == (0, n)
    for sigma, c in zip(sigmas, counts):
        if np.min(np.abs(ref - sigma)) >= margin:
            assert c == int(np.sum(ref < sigma))


def _full_count_extremes(d, e, width):
    """_extremes with every count taken over all pivots, and the pivots the guard moved."""
    squares = [0.0, *(x * x for x in e)]
    pivmin = TINY * max(1.0, *squares)
    guarded = []

    def count(sigma):
        c, q = 0, 1.0
        for di, sq in zip(d, squares):
            q = di - sigma - sq / q
            if -pivmin < q < pivmin:
                guarded.append(q)
                q = pivmin
            elif q < 0.0:
                c += 1
        return c

    n, radii = len(d), [x + y for x, y in zip([0.0, *e], [*e, 0.0])]
    low = [min(x - r for x, r in zip(d, radii)), min(d)]
    high = [max(d), max(x + r for x, r in zip(d, radii))]
    while low[1] - low[0] > width or high[1] - high[0] > width:
        s, t = 0.5 * (low[0] + low[1]), 0.5 * (high[0] + high[1])
        low[count(s) > 0] = s
        high[count(t) == n] = t
    return (0.5 * (low[0] + low[1]), 0.5 * (high[0] + high[1])), guarded


# quarter-integer entries: midpoints of the brackets meet the diagonal exactly, so pivots fall
# inside pivmin; zero off-diagonals split T, and a few repeated values cluster the eigenvalues
QUARTERS = st.integers(-8, 8).map(lambda k: k / 4)


GUARDED = (([-0.25, -1.0, 0.75, 1.0], [0.75, 0.0, 0.0]), ([0.0, 0.0, -0.5], [0.25, 0.75]))


@st.composite
def tridiagonals(draw):
    n = draw(SIZES)
    values = draw(st.lists(QUARTERS, min_size=1, max_size=3))
    d = [draw(st.sampled_from(values)) if draw(st.booleans()) else draw(QUARTERS)
         for _ in range(n)]
    e = [abs(draw(QUARTERS)) if draw(st.booleans()) else 0.0 for _ in range(n - 1)]
    scale = draw(st.sampled_from([1.0, 2.0**-30, 2.0**40, 1e-3]))
    return [x * scale for x in d], [x * scale for x in e]


@ORACLE
@given(tridiagonals())
@example(GUARDED[0])
@example(GUARDED[1])
def test_extremes_from_stopped_counts_match_full_counts(tri):
    # the counts that stop at the deciding pivot give the bits of a bisection that counts every
    # pivot, guarded pivots included
    d, e = tri
    width = _width(d, e)
    want, guarded = _full_count_extremes(d, e, width)
    assert _extremes(d, e, _sturm_count(d, e), width) == want
    event(f"guarded pivots: {bool(guarded)}")


def _width(d, e):
    """hermitian_eigs's width 2 EPS ||T||_F (2 EPS for the zero matrix, whose brackets are 0)."""
    return 2 * EPS * (float(np.sqrt(sum(x * x for x in d) + 2 * sum(x * x for x in e))) or 1.0)


def test_the_guard_examples_reach_the_guard():
    for d, e in GUARDED:
        assert _full_count_extremes(d, e, _width(d, e))[1]


@ORACLE
@given(SIZES.flatmap(lambda n: st.lists(
    st.floats(-1e100, 1e100, allow_nan=False), min_size=n, max_size=n)))
def test_values_path_keeps_a_diagonal_bit_for_bit(diagonal):
    # the diagonal test comes first, so the ends of a sorted diagonal (signed zeros, subnormals
    # and all) are returned bit for bit, with the count above the cutoff and the bound 0
    m = np.diag(np.array(diagonal, dtype=complex))
    (lower, upper, rank), bound = hermitian_eigs(HermitianMatrix(m))
    ends = np.array(sorted(diagonal), dtype=float)[[0, -1]]
    assert np.array([lower, upper]).tobytes() == ends.tobytes()
    assert rank == sum(x > RANK_TOL * max(1.0, upper) for x in diagonal)
    assert bound == 0.0


@ORACLE
@given(SIZES, st.data(), st.integers(0, 2**32 - 1))
def test_values_path_on_repeated_eigenvalues(n, data, seed):
    # a few distinct values, each repeated, in a random unitary basis
    distinct = data.draw(st.lists(st.integers(-(2**10), 2**10), min_size=1, max_size=3))
    spectrum = np.array([distinct[i % len(distinct)] for i in range(n)], dtype=float) / 4
    u = _unitary(n, seed)
    m = HermitianMatrix(np.einsum("ai,i,bi->ab", u, spectrum, u.conj())).entries
    ((lower, upper, _), _), _ = assert_matches_jacobi(m)
    # and against the exact spectrum: the path's bound, plus twice that for the rounding of
    # u diag(spectrum) u^H itself
    errors = (lower - np.min(spectrum), upper - np.max(spectrum))
    assert np.max(np.abs(errors)) <= 12 * n * EPS * np.linalg.norm(m)


def test_values_path_small_and_zero():
    for m in ([[2.5]], [[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -3.0]], [[0.0, 1.0], [1.0, 0.0]]):
        assert_matches_jacobi(np.array(m, dtype=complex))
    (lower, upper, rank), bound = hermitian_eigs(HermitianMatrix(np.zeros((4, 4))))
    assert np.array([lower, upper]).tobytes() == np.zeros(2).tobytes() and rank == 0
    assert bound == 0.0
    (lower, upper, rank), bound = hermitian_eigs(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
    assert max(abs(lower + 1.0), abs(upper - 1.0)) <= bound and rank == 1


def test_tridiagonal_is_unitarily_similar():
    # same eigenvalues, same Frobenius norm, and only real entries left
    m = random_hermitian(9, np.random.default_rng(11)).entries
    d, e = _tridiagonal(m)
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert len(d) == 9 and len(e) == 8 and min(e) >= 0.0
    assert abs(np.linalg.norm(t) - np.linalg.norm(m)) <= 64 * EPS * np.linalg.norm(m)
    ref = np.sort(cyclic_jacobi(m)[0])
    assert np.max(np.abs(np.sort(cyclic_jacobi(t)[0]) - ref)) <= 64 * EPS * np.linalg.norm(m)


@pytest.mark.parametrize("scale", [1e-200, 2.0**-1000, 1e200, 1e300])
def test_norms_and_eigenvalues_at_extreme_scales(scale):
    # squares of the entries under- or overflow at these scales, the entries do not
    m = HermitianMatrix(np.array([[0.0, scale], [scale, 0.0]]))
    (lower, upper, rank), bound = hermitian_eigs(m)
    assert np.all(np.isfinite([lower, upper])) and bound < 1e-12 * scale
    assert max(abs(lower + scale), abs(upper - scale)) <= bound
    assert rank == (1 if scale > RANK_TOL else 0)
    assert linalg._frobenius(m.entries) == pytest.approx(np.sqrt(2.0) * scale, rel=2 * EPS)


@pytest.mark.parametrize("e", [-1000, -600, 600, 990])
def test_values_path_commutes_with_power_of_two_scaling(e):
    # a power of two scales exactly, so the bits of the extremes and the bound scale with it
    rng = np.random.default_rng(abs(e))
    a = random_hermitian(7, rng).entries
    (lower, upper, _), bound = hermitian_eigs(HermitianMatrix(a))
    scaled = np.ldexp(a.view(float), e).view(complex)
    (got_lower, got_upper, _), got_bound = hermitian_eigs(HermitianMatrix(scaled))
    assert np.array_equal([got_lower, got_upper], np.ldexp([lower, upper], e))
    assert got_bound == np.ldexp(bound, e)


def test_fortran_ordered_input_is_accepted():
    m = HermitianMatrix(np.asfortranarray(np.eye(3) + 0j))
    assert np.array_equal(m.entries, np.eye(3))
    with pytest.raises(ValueError, match="non-finite"):
        HermitianMatrix(np.asfortranarray(np.array([[0, np.inf], [np.inf, 0]], dtype=complex)))
