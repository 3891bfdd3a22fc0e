"""Gabor systems: construction, frame bounds, duals, and stress checks."""

import inspect

import numpy as np
import pytest

from padicgabor.density import PointSet, density_profile
from padicgabor.gabor import (
    GaborSystem,
    bessel_chain_check,
    bessel_stress,
    build,
    canonical_dual,
    frame_bounds,
    frame_operator,
    gram,
    reconstruct,
    riesz_check,
)
from padicgabor.geometry import section
from padicgabor.linalg import HermitianMatrix, RankDeficiencyError
from padicgabor.localfield import CARRY, MODULAR, GroupElement, GroupParams
from padicgabor import gabor
from padicgabor.model import (
    ModelFunction,
    ModelSpace,
    ResolutionError,
    indicator,
    inner,
    modulate,
    translate,
)
from padicgabor.rng import SplitMix64

P2 = GroupParams(2, CARRY)
P3 = GroupParams(3, CARRY)
M2 = GroupParams(2, MODULAR)


def onb_points(space):
    xs = section(space.params, space.m, 0)
    xis = section(space.params, space.k, 0)
    return PointSet.phase(tuple((x, xi) for x in xs for xi in xis), space.params)


def ladder_points(space, step):
    xs = section(space.params, space.m, 0)
    xis = section(space.params, space.k, -step)
    return PointSet.phase(tuple((x, xi) for x in xs for xi in xis), space.params)


def tight_lattice(params, k=1):
    space = ModelSpace(params, k, k)
    window = indicator(space, set_scale=-k).scaled(float(params.p) ** (k / 2))
    pts = section(params, k, -k)
    lam = PointSet.phase(tuple((x, xi) for x in pts for xi in pts), params)
    return build(window, lam)


def rand_fn(space, rng):
    return ModelFunction(space, rng.complex_vector(space.dim))


def test_build_examples():
    space = ModelSpace(P2, 1, 1)
    chi = indicator(space)
    origin = (GroupElement.zero(P2), GroupElement.zero(P2))
    sys = build(chi, PointSet.phase([origin], P2))
    assert np.array_equal(sys.vector_matrix()[:, 0], chi.coeffs)
    dup = build(chi, PointSet.phase([origin, origin], P2))
    assert np.array_equal(dup.vector_matrix()[:, 0], dup.vector_matrix()[:, 1])
    assert dup.count == 2


def test_build_coset_invariance_exact():
    space = ModelSpace(P2, 2, 2)
    chi = indicator(space)
    x = GroupElement.from_rational(P2, 1, 1)
    xi = GroupElement.from_rational(P2, 3, 2)
    h = GroupElement.integer(P2, 4)    # in A^-k H
    eta = GroupElement.integer(P2, 4)  # annihilates the support window
    v1 = build(chi, PointSet.phase([(x, xi)], P2)).vector_matrix()[:, 0]
    v2 = build(chi, PointSet.phase([(x + h, xi + eta)], P2)).vector_matrix()[:, 0]
    assert np.array_equal(v1, v2)


def test_build_rejects_zero_window_and_out_of_resolution():
    space = ModelSpace(P2, 1, 1)
    with pytest.raises(ValueError):
        build(ModelFunction(space, np.zeros(4)), PointSet.phase((), P2))
    chi = indicator(space)
    bad_x = GroupElement.from_rational(P2, 1, 2)
    with pytest.raises(ResolutionError, match="1/2\\^2"):
        build(chi, PointSet.phase([(bad_x, GroupElement.zero(P2))], P2))
    with pytest.raises(ResolutionError, match="resolution"):
        build(chi, PointSet.phase([(GroupElement.zero(P2), bad_x)], P2))
    with pytest.raises(ValueError):
        build(chi, PointSet.group([GroupElement.zero(P2)], P2))


def test_gram_and_frame_operator_basics():
    space = ModelSpace(P2, 2, 2)
    chi = indicator(space)
    sys = build(chi, onb_points(space))
    assert np.max(np.abs(gram(sys) - np.eye(16))) <= 1e-12
    assert np.max(np.abs(frame_operator(sys) - np.eye(16))) <= 1e-12
    single = build(chi.scaled(2.0), PointSet.phase([(GroupElement.zero(P2),) * 2], P2))
    g = gram(single)
    assert g.shape == (1, 1) and abs(g[0, 0] - 4.0) <= 1e-14  # [||phi||^2]


def test_frame_operator_hermitian_psd():
    rng = SplitMix64(41)
    space = ModelSpace(P3, 1, 1)
    f = rand_fn(space, rng)
    pts = tuple(
        (space.index_section[rng.next_below(9)], space.dual.index_section[rng.next_below(9)])
        for _ in range(12)
    )
    op = frame_operator(build(f, PointSet.phase(pts, P3)))
    assert np.max(np.abs(op - op.conj().T)) <= 1e-12
    w = np.linalg.eigvalsh(op)
    assert w.min() >= -1e-12


def test_classification_onb():
    for params, m, k in ((P2, 2, 2), (P3, 1, 1), (M2, 2, 2)):
        space = ModelSpace(params, m, k)
        rep = frame_bounds(build(indicator(space), onb_points(space)))
        assert rep.classification == "ONB"
        assert rep.count == rep.dim == params.p ** (m + k)
        assert abs(rep.lower - 1) <= 1e-9 and abs(rep.upper - 1) <= 1e-9


def test_classification_tight_lattice():
    for params, expected in ((P2, 4.0), (P3, 9.0), (M2, 4.0)):
        rep = frame_bounds(tight_lattice(params))
        assert rep.classification == "TightFrame"
        assert abs(rep.tight_constant - expected) <= 1e-9
        # tight means the frame operator is a multiple of the identity
        sys = tight_lattice(params)
        op = frame_operator(sys)
        assert np.max(np.abs(op - expected * np.eye(sys.dim))) <= 1e-10


def test_classification_ladder_trichotomy():
    space = ModelSpace(P2, 2, 2)
    chi = indicator(space)
    assert frame_bounds(build(chi, ladder_points(space, 0))).classification == "ONB"
    plus = frame_bounds(build(chi, ladder_points(space, 1)))
    assert plus.classification == "TightFrame" and abs(plus.tight_constant - 2) <= 1e-9
    minus = frame_bounds(build(chi, ladder_points(space, -1)))
    assert minus.classification == "Incomplete"
    assert minus.rank < minus.dim


def test_frame_inequality_random_sampling():
    # analysis energy of unit vectors stays inside [lower, upper]
    rng = SplitMix64(42)
    space = ModelSpace(P2, 1, 1)
    chi = indicator(space)
    extra = tuple(
        (space.index_section[rng.next_below(4)], space.dual.index_section[rng.next_below(4)])
        for _ in range(3)
    )
    sys = build(chi, PointSet.phase(onb_points(space).points + extra, P2))
    rep = frame_bounds(sys)
    for _ in range(100):
        f = rand_fn(space, rng)
        f = f.scaled(1.0 / f.norm())
        energy = sum(abs(inner(f, ModelFunction(space, v))) ** 2 for v in sys.vector_matrix().T)
        assert rep.lower - 1e-8 <= energy <= rep.upper + 1e-8


def test_canonical_dual_of_onb_and_tight():
    space = ModelSpace(P2, 2, 2)
    sys = build(indicator(space), onb_points(space))
    duals = canonical_dual(sys)
    assert np.max(np.abs(duals - sys.vector_matrix())) <= 1e-10
    tight = tight_lattice(P2)
    duals_t = canonical_dual(tight)
    c = frame_bounds(tight).tight_constant
    assert np.max(np.abs(duals_t - tight.vector_matrix() / c)) <= 1e-10


def test_canonical_dual_reconstruction_and_reciprocity():
    rng = SplitMix64(43)
    space = ModelSpace(P2, 2, 2)
    chi = indicator(space)
    extra = tuple(
        (space.index_section[rng.next_below(16)], space.dual.index_section[rng.next_below(16)])
        for _ in range(4)
    )
    sys = build(chi, PointSet.phase(onb_points(space).points + extra, P2))
    rep = frame_bounds(sys)
    duals = canonical_dual(sys)
    worst = 0.0
    for _ in range(50):
        f = rand_fn(space, rng)
        worst = max(worst, (reconstruct(sys, duals, f) - f).norm() / f.norm())
    assert worst <= 1e-8
    dual_rep = frame_bounds(GaborSystem(chi, sys.lam, duals))
    assert abs(dual_rep.lower - 1 / rep.upper) <= 1e-8
    assert abs(dual_rep.upper - 1 / rep.lower) <= 1e-8


def test_canonical_dual_requires_spanning():
    space = ModelSpace(P2, 1, 1)
    sys = build(indicator(space), PointSet.phase([(GroupElement.zero(P2),) * 2], P2))
    with pytest.raises(RankDeficiencyError):
        canonical_dual(sys)


def test_riesz_check():
    space = ModelSpace(P2, 2, 2)
    sys = build(indicator(space), onb_points(space))
    assert riesz_check(sys) is True
    assert riesz_check(tight_lattice(P2)) is False  # overcomplete
    dup_points = onb_points(space).points + (onb_points(space).points[0],)
    dup = build(indicator(space), PointSet.phase(dup_points, P2))
    assert riesz_check(dup) is False  # duplicated vector makes the Gram singular
    incomplete = build(indicator(space), ladder_points(space, -1))
    with pytest.raises(RankDeficiencyError):
        riesz_check(incomplete)


def ill_conditioned(s, seed):
    """The 16 x 16 ONB of ModelSpace(P2, 2, 2) times a Householder reflector H and diag(s, 1, ...):
    a spanning square system whose frame operator has eigenvalues s^2 and 1 (15 times)."""
    space = ModelSpace(P2, 2, 2)
    onb = build(indicator(space), onb_points(space))
    v = SplitMix64(seed).complex_vector(space.dim)
    reflector = np.eye(space.dim) - 2 * np.outer(v, v.conj()) / np.vdot(v, v).real
    scale = np.diag([s] + [1.0] * (space.dim - 1))
    return GaborSystem(onb.window, onb.lam, onb.vector_matrix() @ reflector @ scale)


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("s", [1e-4, 5e-5, 4e-5, 3.5e-5])
def test_riesz_check_of_ill_conditioned_square_systems(s, seed):
    # lambda_min = s^2 sits above the rank cutoff 1e-9, so the system spans and is square:
    # a basis, however far its dual's rounding is from biorthogonal
    sys = ill_conditioned(s, seed)
    assert frame_bounds(sys).rank == sys.dim == 16
    assert riesz_check(sys) is True


def test_canonical_dual_of_square_system_is_biorthogonal():
    space = ModelSpace(P2, 2, 2)
    onb = build(indicator(space), onb_points(space))
    shear = np.eye(space.dim)
    shear[0, 1] = 1.0
    sheared = GaborSystem(onb.window, onb.lam, onb.vector_matrix() @ shear)
    for sys in (onb, sheared):
        duals = canonical_dual(sys)
        bio = space.coset_measure * duals.conj().T @ sys.vector_matrix()  # <v_j, dual_i>
        assert np.max(np.abs(bio - np.eye(sys.count))) <= 1e-8


def test_bessel_stress_growth_and_scaling():
    space = ModelSpace(P2, 1, 1)
    chi = indicator(space)
    sys = build(chi, onb_points(space))
    origin = (GroupElement.zero(P2), GroupElement.zero(P2))
    results, ok = bessel_stress(sys, origin, [0, 1, 2, 4, 8])
    assert ok
    assert abs(results[0][1] - 1.0) <= 1e-9  # zero repetitions reproduces the base
    for n_reps, bound in results:
        assert bound >= n_reps * 1.0 - 1e-9
    # scaling the window by c scales every bound by c^2
    scaled_sys = build(chi.scaled(2.0), onb_points(space))
    scaled_results, ok2 = bessel_stress(scaled_sys, origin, [1, 2])
    assert ok2
    for (_, b), (_, sb) in zip(results[1:3], scaled_results):
        assert abs(sb - 4.0 * b) <= 1e-9


def test_bessel_chain_check():
    rng = SplitMix64(44)
    sys = tight_lattice(P2)
    space = sys.window.space
    fs = [rand_fn(space, rng) for _ in range(30)]
    results = bessel_chain_check(fs, sys)
    assert len(results) == 30
    for f, (lhs, mid, rhs) in zip(fs, results):
        assert lhs <= mid + 1e-10
        assert rhs > 0
        assert bessel_chain_check([f], sys) == [(lhs, mid, rhs)]  # a batch of one, same floats
    assert bessel_chain_check([], sys) == []
    # empty system: both sides vanish
    empty = GaborSystem(sys.window, PointSet.phase((), P2), np.zeros((space.dim, 0), complex))
    [(lhs, mid, rhs)] = bessel_chain_check([rand_fn(space, rng)], empty)
    assert lhs == 0.0 and mid == 0.0
    # one point per unit cell (N_0 = 1), unit-ball window: the bound is met exactly
    space2 = ModelSpace(P2, 1, 1)
    chi = indicator(space2)
    onb = build(chi, onb_points(space2))
    [(lhs, mid, rhs)] = bessel_chain_check([chi], onb)
    assert abs(lhs - 1.0) <= 1e-12 and abs(mid - 1.0) <= 1e-12 and abs(rhs - 1.0) <= 1e-12
    assert lhs <= mid + 1e-10


def test_bessel_chain_check_with_resolution_above_extent():
    # k > m: a point (0, xi) with xi in A^k H lies outside A^m H, so N_0 is counted in A^k H
    rng = SplitMix64(47)
    space = ModelSpace(P2, 1, 2)
    chi = indicator(space)
    sys = build(chi, onb_points(space))
    for lhs, mid, _ in bessel_chain_check([chi] + [rand_fn(space, rng) for _ in range(10)], sys):
        assert lhs <= mid + 1e-10


def test_report_json():
    space = ModelSpace(P2, 1, 1)
    rep = frame_bounds(build(indicator(space), onb_points(space)))
    doc = rep.to_json_dict()
    assert doc["classification"] == "ONB"
    assert doc["dim"] == doc["count"] == 4
    assert "c" not in doc
    tight_doc = frame_bounds(tight_lattice(P2)).to_json_dict()
    assert abs(tight_doc["c"] - 4.0) <= 1e-9
    assert set(tight_doc["tol"]) == {"rank", "onb", "tight"}


def test_density_profile_of_frames_meets_threshold():
    # spanning systems sit at density >= 1; the orthonormal ones exactly at 1
    for params, m, k in ((P2, 2, 2), (P3, 1, 1)):
        space = ModelSpace(params, m, k)
        chi = indicator(space)
        onb = build(chi, onb_points(space))
        prof = density_profile(onb.lam, (0, m), m)
        assert all(r.upper_ratio == 1 and r.lower_ratio == 1 for r in prof.rows)
        overfull = build(chi, ladder_points(space, 1))
        prof2 = density_profile(overfull.lam, (0, m), m)
        assert all(r.lower_ratio >= 1 for r in prof2.rows)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("params", [P2, P3, M2, GroupParams(3, MODULAR)], ids=str)
@pytest.mark.parametrize("m,k", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)])
def test_build_matrix_bitwise_matches_translate_modulate(params, m, k):
    rng = SplitMix64(45 + 7 * m + k)
    space = ModelSpace(params, m, k)
    window = rand_fn(space, rng)
    pts = [
        (space.index_section[rng.next_below(space.dim)],
         space.dual.index_section[rng.next_below(space.dim)])
        for _ in range(6)
    ]
    pts += [pts[0], pts[3], pts[0]]  # repeated points keep their multiplicity
    sys = build(window, PointSet.phase(tuple(pts), params))
    ref = np.stack([modulate(translate(window, x), xi).coeffs for x, xi in pts], axis=1)
    assert same_bits(sys.vector_matrix(), ref)
    assert sys.vector_matrix().flags.c_contiguous
    assert sys.count == len(pts)


def test_build_empty_system():
    space = ModelSpace(P2, 1, 1)
    sys = build(indicator(space), PointSet.phase((), P2))
    assert sys.vector_matrix().shape == (space.dim, 0) and sys.count == 0


def test_frame_bounds_forms_gram_only_for_square_systems(monkeypatch):
    space = ModelSpace(P2, 2, 2)
    chi = indicator(space)
    square = build(chi, onb_points(space))
    overfull = build(chi, ladder_points(space, 1))
    incomplete = build(chi, ladder_points(space, -1))
    calls = []
    real_gram = gabor.gram

    def counting_gram(sys):
        calls.append(sys.count)
        return real_gram(sys)

    monkeypatch.setattr(gabor, "gram", counting_gram)
    assert frame_bounds(square).classification == "ONB"
    assert calls == []

    def no_gram(sys):
        raise AssertionError("the Gram of a non-square system was formed")

    monkeypatch.setattr(gabor, "gram", no_gram)
    for sys, label in ((overfull, "TightFrame"), (incomplete, "Incomplete"),
                       (tight_lattice(P3), "TightFrame")):
        rep = frame_bounds(sys)
        assert rep.classification == label
        assert rep.gram_identity_defect is None


def test_analysis_products_match_inner_loops():
    rng = SplitMix64(46)
    sys = tight_lattice(P3)
    space = sys.window.space
    vecs = [ModelFunction(space, v) for v in sys.vector_matrix().T]
    for _ in range(5):
        f = rand_fn(space, rng)
        [(lhs, _, _)] = bessel_chain_check([f], sys)
        ref = sum(abs(inner(f, v)) ** 2 for v in vecs)
        assert abs(lhs - ref) <= 1e-12 * ref
    space2 = ModelSpace(P2, 2, 2)
    extra = ((space2.index_section[3], space2.dual.index_section[5]),)
    frame = build(indicator(space2), PointSet.phase(onb_points(space2).points + extra, P2))
    duals = canonical_dual(frame)
    f = rand_fn(space2, rng)
    loop = sum(inner(f, ModelFunction(space2, v)) * d
               for v, d in zip(frame.vector_matrix().T, duals.T))
    assert np.max(np.abs(reconstruct(frame, duals, f).coeffs - loop)) <= 1e-12 * f.norm()
    with pytest.raises(ValueError):
        reconstruct(frame, duals, rand_fn(ModelSpace(P3, 1, 1), rng))


def test_one_spectrum_per_system(monkeypatch):
    # the bounds, a Riesz test and a dual's rank test read one cached spectrum, in any
    # order; each dual adds one solve with S, formed again for it; no call forms the Gram
    eigs_dims, solve_dims, grams = [], [], []
    eigs, solve = gabor.hermitian_eigs, gabor.solve_hermitian

    def recorded_eigs(matrix):
        eigs_dims.append(matrix.dim)
        return eigs(matrix)

    def recorded_solve(matrix, rhs):
        solve_dims.append(matrix.dim)
        return solve(matrix, rhs)

    monkeypatch.setattr(gabor, "hermitian_eigs", recorded_eigs)
    monkeypatch.setattr(gabor, "solve_hermitian", recorded_solve)
    monkeypatch.setattr(gabor, "gram", lambda sys: grams.append(sys))
    space = ModelSpace(P2, 2, 2)
    chi = indicator(space)
    extra = ((space.index_section[3], space.dual.index_section[5]),)
    for points, riesz in ((onb_points(space), True),
                          (PointSet.phase(onb_points(space).points + extra, P2), False)):
        for first in (canonical_dual, frame_bounds, riesz_check):
            sys = build(chi, points)
            eigs_dims.clear(), solve_dims.clear()
            first(sys)
            frame_bounds(sys)
            assert riesz_check(sys) is riesz
            canonical_dual(sys)
            assert eigs_dims == [16]
            assert solve_dims == [16] * (1 + (first is canonical_dual))
    assert grams == []


@pytest.mark.parametrize("mode", [CARRY, MODULAR])
@pytest.mark.parametrize("p,m,k", [(2, 2, 2), (2, 3, 1), (3, 1, 1), (3, 1, 2)])
def test_canonical_dual_against_a_dense_solve(p, m, k, mode):
    # a random window over the unit-cell lattice plus seeded extra points, one of them three
    # times: a spanning system whose S is far from diagonal.  Cholesky is backward stable, so
    # the residual of S D = W stays within a small multiple of n EPS ||S|| ||D||, and D within
    # that times the condition number of the LAPACK solve
    params = GroupParams(p, mode)
    space = ModelSpace(params, m, k)
    rng = SplitMix64(1000 * p + 10 * m + k)
    window = ModelFunction(space, rng.complex_vector(space.dim))
    extra = tuple((space.index_section[rng.next_below(space.dim)],
                   space.dual.index_section[rng.next_below(space.dim)]) for _ in range(4))
    points = onb_points(space).points + extra + extra[:1] * 2
    sys = build(window, PointSet.phase(points, params))
    assert frame_bounds(sys).rank == space.dim
    duals = canonical_dual(sys)
    s, w = HermitianMatrix(frame_operator(sys)).entries, sys.vector_matrix()
    n, norm_s, norm_d = space.dim, np.linalg.norm(s), np.linalg.norm(duals)
    assert np.linalg.norm(s @ duals - w) <= 4 * n * EPS * norm_s * norm_d
    ref = np.linalg.solve(s, w)
    assert np.linalg.norm(duals - ref) <= 4 * n * EPS * np.linalg.cond(s) * norm_d
def test_square_non_onb_classification_and_defect():
    space = ModelSpace(P2, 2, 2)
    doubled = build(indicator(space).scaled(2.0), onb_points(space))
    rep = frame_bounds(doubled)
    assert rep.classification == "TightFrame"
    assert abs(rep.tight_constant - 4.0) <= 1e-12
    assert abs(rep.gram_identity_defect - 3.0) <= 1e-12
    # a sheared ONB W (I + E_01): the defect is the spectral norm ||G - I||_2, the
    # golden ratio here, not the largest entry of G - I (which is 1)
    onb = build(indicator(space), onb_points(space))
    shear = np.eye(space.dim)
    shear[0, 1] = 1.0
    sheared = GaborSystem(onb.window, onb.lam, onb.vector_matrix() @ shear)
    rep = frame_bounds(sheared)
    assert rep.classification == "Frame"
    assert abs(rep.gram_identity_defect - (1 + 5 ** 0.5) / 2) <= 1e-12
    g_minus_i = gram(sheared) - np.eye(space.dim)
    assert abs(rep.gram_identity_defect - np.linalg.norm(g_minus_i, 2)) <= 1e-12


# -- the frame operator from transforms, against the einsum ------------------------------

EPS = np.finfo(float).eps
# on these multisets the transform route lies within 3 eps (m + k) max|S| of a long-double
# einsum, and the einsum within 13 (the lattices, with the most points); their difference is
# held to TRANSFORM_TOL of that unit
TRANSFORM_TOL = 16
# (params, m, k): each p with m != k, both modes
TRANSFORM_SPACES = [(P2, 3, 2), (M2, 2, 3), (P3, 2, 1), (GroupParams(3, MODULAR), 1, 2),
                    (GroupParams(5, CARRY), 0, 2), (GroupParams(5, MODULAR), 2, 0)]


def _draw_indices(dim, kind, rng):
    """(x indices, xi dual indices) of a seeded multiset of the named kind."""
    draw = [rng.next_below(dim) for _ in range(6 * dim)]
    if kind == "lattice":
        return [a for a in range(dim) for _ in range(dim)], list(range(dim)) * dim
    if kind == "one-x":  # a single x with repeated xi
        return [draw[0]] * (2 * dim), [b % (dim // 2 + 1) for b in draw[1:2 * dim + 1]]
    count = {"random": dim, "tripled": 3 * dim, "single": 1, "empty": 0}[kind]
    # a pool of dim // 2 + 1 values per axis forces repeated points
    pool = dim // 2 + 1
    return [a % pool for a in draw[:count]], [b % pool for b in draw[3 * dim:3 * dim + count]]


KINDS = ["random", "tripled", "one-x", "lattice", "single", "empty"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("params,m,k", TRANSFORM_SPACES, ids=lambda v: str(v))
def test_transform_frame_operator_matches_the_einsum(params, m, k, kind):
    space = ModelSpace(params, m, k)
    rng = SplitMix64(48 + 8 * TRANSFORM_SPACES.index((params, m, k)) + KINDS.index(kind))
    window = rand_fn(space, rng)
    ax, bx = _draw_indices(space.dim, kind, rng)
    points = tuple((space.index_section[a], space.dual.index_section[b]) for a, b in zip(ax, bx))
    sys = build(window, PointSet.phase(points, params))
    assert sys.indices[0].tolist() == ax and sys.indices[1].tolist() == bx
    dense = frame_operator(GaborSystem(window, sys.lam, sys.vector_matrix()))
    fast = gabor._transform_frame_operator(window, *sys.indices)
    unit = EPS * max(1, m + k) * np.max(np.abs(dense))
    assert np.max(np.abs(fast - dense)) <= TRANSFORM_TOL * unit
    if kind == "empty":
        assert not np.any(fast)


def test_the_route_reads_only_dim_and_count(monkeypatch):
    assert list(inspect.signature(gabor.takes_transforms).parameters) == ["dim", "count"]
    # the four frame-diagnostics systems of perfbench/workloads.py: a dim-32 lattice of 1024
    # points and random multisets of 256 points at dim 64 (both modes) and 243 at dim 81
    assert all(gabor.takes_transforms(dim, count)
               for dim, count in [(32, 1024), (64, 256), (81, 243)])
    # the einsum below the crossover: few MACs, or few points per p (m + k)
    assert not gabor.takes_transforms(4, 8191) and gabor.takes_transforms(4, 8192)
    assert not gabor.takes_transforms(509, 6107) and gabor.takes_transforms(509, 6108)
    assert not gabor.takes_transforms(256, 191) and gabor.takes_transforms(256, 192)
    # frame_operator asks the rule of built systems only, with their dim and count
    asked = []
    monkeypatch.setattr(gabor, "takes_transforms", lambda dim, count: asked.append((dim, count)))
    space = ModelSpace(P2, 2, 2)
    onb = build(indicator(space), onb_points(space))
    frame_operator(onb)
    frame_operator(GaborSystem(onb.window, onb.lam, onb.vector_matrix()))
    assert asked == [(16, 16)]


def test_the_transform_route_gives_the_bounds_of_the_einsum():
    rng = SplitMix64(47)
    space = ModelSpace(M2, 3, 3)
    window = rand_fn(space, rng)
    points = tuple((space.index_section[rng.next_below(64)],
                    space.dual.index_section[rng.next_below(64)]) for _ in range(256))
    sys = build(window, PointSet.phase(points, M2))
    assert gabor.takes_transforms(sys.dim, sys.count)
    fast = frame_bounds(sys)
    assert "matrix" not in sys.__dict__  # the route never made the vectors
    dense = frame_bounds(GaborSystem(window, sys.lam, sys.vector_matrix()))
    assert (fast.rank, fast.classification) == (dense.rank, dense.classification)
    assert abs(fast.lower - dense.lower) <= 1e-12 * dense.upper
    assert abs(fast.upper - dense.upper) <= 1e-12 * dense.upper
