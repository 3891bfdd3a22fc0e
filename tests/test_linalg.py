"""Hermitian eigenvalues, solves and rank against small dense oracles."""

import numpy as np
import pytest

from padicgabor.linalg import (
    ConvergenceError,
    HermitianMatrix,
    RankDeficiencyError,
    _jacobi,
    _rounds,
    hermitian_eigs,
    rank,
    solve_hermitian,
)


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianMatrix((a + a.conj().T) / 2)


def lu_determinant(m):
    """Partial-pivot LU determinant; oracle for the eigenvalue product."""
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
    vals, res, _ = hermitian_eigs(HermitianMatrix(np.eye(4)))
    assert np.array_equal(vals, np.ones(4)) or np.allclose(vals, 1)
    assert res <= 1e-12
    vals, _, _ = hermitian_eigs(HermitianMatrix(np.diag([2.0, 1.0])))
    assert np.allclose(vals, [1.0, 2.0])


def test_rank_one_spectrum():
    rng = np.random.default_rng(0)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    m = HermitianMatrix(np.outer(v, v.conj()))
    vals, res, _ = hermitian_eigs(m)
    assert np.allclose(vals[:7], 0.0, atol=1e-12)
    assert abs(vals[7] - 1.0) <= 1e-12
    assert res <= 1e-10
    assert rank(m) == 1


def test_residual_and_trace_random():
    rng = np.random.default_rng(1)
    for n in (2, 5, 9, 17, 33):
        m = random_hermitian(n, rng)
        vals, res, _ = hermitian_eigs(m)
        assert res <= 1e-10
        assert list(vals) == sorted(vals)
        assert abs(vals.sum() - np.trace(m.entries).real) <= 1e-10 * np.linalg.norm(m.entries)


def test_eigenvalue_product_matches_lu_determinant():
    rng = np.random.default_rng(2)
    for n in (2, 4, 8):
        m = random_hermitian(n, rng)
        vals, _, _ = hermitian_eigs(m)
        det = lu_determinant(m.entries)
        assert abs(np.prod(vals) - det.real) <= 1e-8 * max(1.0, abs(det))
        assert abs(det.imag) <= 1e-8 * max(1.0, abs(det))


def test_solve_examples():
    rng = np.random.default_rng(3)
    b = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert np.allclose(solve_hermitian(HermitianMatrix(np.eye(6)), b), b)
    assert np.allclose(solve_hermitian(HermitianMatrix(2 * np.eye(6)), b), b / 2)


def test_solve_round_trip():
    rng = np.random.default_rng(4)
    for n in (3, 8, 20):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = HermitianMatrix(a @ a.conj().T + np.eye(n))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = solve_hermitian(m, b)
        assert np.linalg.norm(m.entries @ x - b) <= 1e-10 * np.linalg.norm(b)
        stacked = rng.normal(size=(n, 3))
        xs = solve_hermitian(m, stacked)
        assert np.linalg.norm(m.entries @ xs - stacked) <= 1e-9


def test_singular_solve_reports_eigenvalue():
    rng = np.random.default_rng(5)
    v = rng.normal(size=5)
    v /= np.linalg.norm(v)
    m = HermitianMatrix(np.outer(v, v))
    with pytest.raises(RankDeficiencyError) as exc:
        solve_hermitian(m, np.ones(5))
    assert exc.value.eigenvalue <= exc.value.tol


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
    vals, res, _ = hermitian_eigs(HermitianMatrix(np.zeros((3, 3))))
    assert np.array_equal(vals, np.zeros(3))
    assert res == 0.0
    assert rank(HermitianMatrix(np.zeros((3, 3)))) == 0


def cyclic_jacobi(matrix, sweeps=60, tol=1e-30):
    """Row-cyclic Jacobi, one rotation at a time: the reference for _jacobi."""
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
                vec_i = v[:, i].copy()
                vec_j = v[:, j].copy()
                v[:, i] = c * vec_i - np.conj(s) * vec_j
                v[:, j] = s * vec_i + c * vec_j
    return np.diagonal(a).real.copy(), v


def assert_matches_reference(m):
    """Eigenvalues against the cyclic reference; residual and unitarity of V."""
    vals, vecs, _ = _jacobi(m)
    ref, _ = cyclic_jacobi(m)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(np.sort(vals) - np.sort(ref))) <= 1e-12 * scale
    norm = max(np.linalg.norm(m), 1.0)
    assert np.max(np.abs(m @ vecs - vecs * vals)) <= 1e-12 * norm
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(m)))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 16, 27, 64, 81])
def test_parallel_jacobi_matches_cyclic_reference(n):
    assert_matches_reference(random_hermitian(n, np.random.default_rng(100 + n)).entries)


@pytest.mark.parametrize("n", [3, 8, 9])
def test_parallel_jacobi_degenerate_and_special_spectra(n):
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
        assert_matches_reference(HermitianMatrix(m).entries)


def test_parallel_jacobi_extreme_scales():
    # dead pairs sit next to live ones; nothing may overflow or divide by zero
    rng = np.random.default_rng(7)
    for scale in (1e-150, 1e150):
        m = random_hermitian(6, rng).entries * scale
        m[0, 3] = m[3, 0] = 0.0
        assert_matches_reference(m)


def test_dead_pairs_get_identity_rotations():
    # with a coarse zeroing threshold, the small entries are zeroed, not rotated
    rng = np.random.default_rng(8)
    small = 1e-4 * random_hermitian(6, rng).entries
    m = np.diag(np.arange(1.0, 7.0)) + small - np.diag(np.diagonal(small))
    m[0, 1] = m[1, 0] = 0.5
    vals, vecs, _ = _jacobi(m, tol=1e-3)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(6))) <= 1e-12
    assert np.max(np.abs(vecs[2:, 2:] - np.eye(4))) == 0.0  # only the (0, 1) pair rotated


def test_rounds_cover_every_pair_once():
    for n in (2, 3, 4, 7, 8, 9, 16):
        seen = []
        for pairs, *_ in _rounds(n):
            flat = pairs.reshape(-1)
            assert len(set(flat.tolist())) == len(flat) == 2 * (n // 2)  # disjoint
            assert all(i < j for i, j in pairs)
            seen += [tuple(pair) for pair in pairs.tolist()]
        assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)]


def test_sweep_cap_raises_convergence_error():
    m = random_hermitian(8, np.random.default_rng(6)).entries
    with pytest.raises(ConvergenceError) as exc:
        _jacobi(m, sweeps=1)
    assert exc.value.sweeps == 1
    _, _, sweeps = _jacobi(m)
    assert 1 < sweeps < 60
