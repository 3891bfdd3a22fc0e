"""Acceptance gate: every verification-suite check must pass at full size.

Runs the suite once per session and asserts each check separately, printing
one PASS/FAIL line per criterion (visible with `pytest -s` or on failure).
"""

import math

import numpy as np
import pytest

from padicgabor import density, gabor, model, verify
from padicgabor.density import PointSet
from padicgabor.localfield import CARRY, MODULAR, GroupElement, GroupParams
from padicgabor.model import ModelFunction, ModelSpace
from padicgabor.rng import SplitMix64
from padicgabor.verify import CHECKS, run_suite
from test_localfield import product_route_phase

_RESULTS = None


def suite_results():
    global _RESULTS
    if _RESULTS is None:
        _RESULTS = {r.name: r for r in run_suite(p_list=(2, 3), size="full")}
    return _RESULTS

CRITERIA = [
    "onb-gram-identity",            # Gram = identity, count = dim, tol 1e-12
    "tight-frame-constant",         # all eigenvalues at p**2, tol 1e-9
    "section-trichotomy",           # ONB / TightFrame(p) / Incomplete
    "section-density-one",          # section counts p**n, ratios exactly 1
    "product-lattice-density",      # ratios exactly p**2k at admissible scales
    "stft-energy-identity",         # ||V_g f||_2 = ||f|| ||g||, tol 1e-10
    "sample-sum-amalgam-bound",     # sampled energy <= N_0 * amalgam^2 + 1e-10
    "wiener-two-route-equality",    # sum route == integral route, exact floats
    "transform-unitarity",          # Plancherel + fast-vs-naive, tol 1e-12
    "dual-reconstruction",          # rel err 1e-8; dual bounds (1/B, 1/A)
    "repeated-point-bound-growth",  # B(N) >= N ||phi||^2, nondecreasing, 1e-9
    "separated-decomposition",      # exact multiset checks on random corpora
    "scale-propagation-bound",      # per-ball caps propagate, exact
    "automorphism-invariance",      # squared-map ratios equal row-by-row
    "frame-density-necessity",      # frames >= 1, Riesz bases exactly 1
]


def test_suite_covers_all_criteria():
    assert len(CHECKS) == len(CRITERIA) == 15
    assert set(suite_results()) == set(CRITERIA)


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(name):
    result = suite_results()[name]
    print(result.line())
    assert result.passed, result.line()


def _product_route_dual_sums(f):
    """_naive_dual_sums's loop with each pairing read off the product element x * xi."""
    space = f.space
    out = np.zeros(space.dual.dim, dtype=complex)
    for b, xi in enumerate(space.dual.index_section):
        acc = 0.0 + 0.0j
        for a, x in enumerate(space.index_section):
            acc += f.coeffs[a] * product_route_phase(x, xi).complex_value().conjugate()
        out[b] = space.coset_measure * acc
    return out


# the transform-unitarity configs of --sizes full, then of --sizes small, then spaces
# with m != k and p > 3 that no suite config reaches
ORACLE_CONFIGS = [(2, CARRY, 3, 3), (3, CARRY, 2, 2), (2, MODULAR, 3, 3), (3, MODULAR, 1, 1),
                  (2, CARRY, 2, 2), (3, CARRY, 1, 1), (2, MODULAR, 2, 2),
                  (5, MODULAR, 1, 2), (3, MODULAR, 2, 1), (2, CARRY, 1, 4)]


def _oracle_input(config):
    space = ModelSpace(GroupParams(*config[:2]), *config[2:])
    return ModelFunction(space, SplitMix64(verify.DEFAULT_SEED).complex_vector(space.dim))


@pytest.mark.parametrize("config", ORACLE_CONFIGS)
def test_the_oracle_keeps_its_bytes(config):
    f = _oracle_input(config)
    assert verify._naive_dual_sums(f).tobytes() == _product_route_dual_sums(f).tobytes()


def _kernel_table(*args):
    raise AssertionError("the oracle read a table of the kernel it checks")


@pytest.mark.parametrize("config", ORACLE_CONFIGS)
def test_the_oracle_shares_no_table_with_the_kernel(monkeypatch, config):
    expected = verify._naive_dual_sums(_oracle_input(config)).tobytes()
    for name in ("raw_dual_sums", "char_rows"):
        monkeypatch.setattr(ModelSpace, name, _kernel_table)
    for name in ("_neg_root_table", "_unit_root_table"):
        monkeypatch.setattr(ModelSpace, name, property(_kernel_table))
    f = _oracle_input(config)  # a fresh space, with no table cached
    with pytest.raises(AssertionError, match="kernel"):
        model.fourier(f)
    assert verify._naive_dual_sums(f).tobytes() == expected


def _cells_over_wrong_axes(grid):
    space = grid.space
    p = space.params.p
    blocks = grid.magnitudes.reshape(p**space.k, p**space.m, p**space.m, p**space.k)
    return blocks.max(axis=(1, 3))


def _cells_keyed_by_high_digits(grid):
    space = grid.space
    p = space.params.p
    blocks = grid.magnitudes.reshape(p**space.m, p**space.k, p**space.k, p**space.m)
    return blocks.max(axis=(1, 3))


@pytest.mark.parametrize("mutant", [_cells_over_wrong_axes, _cells_keyed_by_high_digits])
@pytest.mark.parametrize("size", ["small", "full"])
def test_wiener_two_route_equality_sees_wrong_cells(monkeypatch, mutant, size):
    # the second route keys cells by group arithmetic, so a wrong cell layout shows
    monkeypatch.setattr(model, "_cell_sups", mutant)
    result = verify.check_wiener_two_route_equality(
        (2, 3), size, SplitMix64(verify.DEFAULT_SEED), verify._Systems())
    assert not result.passed, result.line()


def _counts_at_scale_j(lam, r, n_range, region):
    # row j counts the A-scale j balls instead of the A-scale r*j ones
    return density.automorphism_invariance_check(lam, 1, n_range, region)


@pytest.mark.parametrize("size", ["small", "full"])
def test_automorphism_invariance_sees_a_wrong_scale(monkeypatch, size):
    # the second route counts the image under A**r as a fresh point set
    monkeypatch.setattr(verify, "automorphism_invariance_check", _counts_at_scale_j)
    result = verify.check_automorphism_invariance(
        (2, 3), size, SplitMix64(verify.DEFAULT_SEED), verify._Systems())
    assert not result.passed, result.line()


_FOLD = density._fold


def _fold_mod_finer(counts, q, qf):
    # reduces mod the finer modulus qf (q*p after one step), so no two balls merge
    return _FOLD(counts, qf, qf)


def _fold_split_at_q(counts, q, qf):
    # splits a key k_x + qf * k_xi at q, so the digits of k_x above q land in k_xi
    return _FOLD(counts, q, q)


def test_a_wrong_fold_fails_a_density_check(monkeypatch):
    for mutant in (_fold_mod_finer, _fold_split_at_q):
        monkeypatch.setattr(density, "_fold", mutant)
        failed = {r.name for r in run_suite(size="small") if not r.passed}
        assert failed & {"section-density-one", "product-lattice-density",
                         "scale-propagation-bound", "automorphism-invariance"}, (mutant, failed)


_BUILD = gabor.build


def _with_points(move):
    # a build whose vectors sit at move(point) while the system keeps the points asked for
    def mutant(window, lam):
        moved = PointSet.phase(tuple(move(x, xi) for x, xi in lam.points), lam.params)
        return gabor.GaborSystem(window, lam, _BUILD(window, moved).matrix)
    return mutant


_dropped_characters = _with_points(lambda x, xi: (x, GroupElement.zero(xi.params)))
_negated_translations = _with_points(lambda x, xi: (-x, xi))
_conjugated_characters = _with_points(lambda x, xi: (x, -xi))  # <y, -xi> = conj <y, xi>


def _patch(monkeypatch, name, mutant):
    # every layer that imported the function by name sees the mutant
    for module in (model, gabor, density, verify):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, mutant)


def test_a_build_without_characters_fails_the_frame_checks(monkeypatch):
    _patch(monkeypatch, "build", _dropped_characters)
    results = run_suite(size="small")
    assert len(results) == 15
    failed = {r.name for r in results if not r.passed}
    assert {"onb-gram-identity", "section-trichotomy", "dual-reconstruction",
            "frame-density-necessity"} <= failed, failed


@pytest.mark.parametrize("mutant", [_negated_translations, _conjugated_characters])
@pytest.mark.parametrize("size", ["small", "full"])
def test_sample_sum_amalgam_bound_sees_the_sign_of_build(monkeypatch, mutant, size):
    # the analysis coefficients must be the STFT samples at the points themselves
    _patch(monkeypatch, "build", mutant)
    result = verify.check_sample_sum_amalgam_bound(
        (2, 3), size, SplitMix64(verify.DEFAULT_SEED), verify._Systems())
    assert not result.passed, result.line()


_STFT_GRIDS = model.stft_grids  # the one STFT path: stft takes the grid of one pair


def _nan_stft_grids(space, fs, gs):
    return (values * math.nan for values in _STFT_GRIDS(space, fs, gs))


def test_a_nan_measurement_fails_its_check(monkeypatch):
    # max() drops a NaN and NaN > tol is False, so a NaN grid must still fail
    _patch(monkeypatch, "stft_grids", _nan_stft_grids)
    failed = {r.name for r in run_suite(size="small") if not r.passed}
    assert {"stft-energy-identity", "sample-sum-amalgam-bound"} <= failed, failed


def _frame_operator_without_measure(sys):
    w = sys.vector_matrix()
    return np.einsum("ac,bc->ab", w, np.conj(w))


def _stft_grids_without_measure(space, fs, gs):
    return (values / space.coset_measure for values in _STFT_GRIDS(space, fs, gs))


_RADIX_DFT = model._radix_dft


def _radix_dft_with_conjugated_roots(rows, p, roots):
    return _RADIX_DFT(rows, p, np.conj(roots))


def _build_without_repeats(window, lam):
    return _BUILD(window, PointSet.phase(tuple(dict.fromkeys(lam.points)), lam.params))


_SEPARATED = density.separated_decomposition


def _parts_all_labelled_one(lam, n, region):
    # the parts of one C0 member merge, so a ball's points share a part
    merged = {}
    for part in _SEPARATED(lam, n, region):
        merged.setdefault(part.c0_index, []).extend(part.points.points)
    return [density.DecompositionPart(1, c0, PointSet.group(tuple(pts), lam.params))
            for c0, pts in merged.items()]


MUTANTS = {  # check: (patched name, one plausible defect of it)
    "tight-frame-constant": ("frame_operator", _frame_operator_without_measure),
    "stft-energy-identity": ("stft_grids", _stft_grids_without_measure),
    "transform-unitarity": ("_radix_dft", _radix_dft_with_conjugated_roots),
    "repeated-point-bound-growth": ("build", _build_without_repeats),
    "separated-decomposition": ("separated_decomposition", _parts_all_labelled_one),
}


@pytest.mark.parametrize("check", list(MUTANTS))
def test_each_check_fails_under_its_mutant(monkeypatch, check):
    _patch(monkeypatch, *MUTANTS[check])
    results = {r.name: r for r in run_suite(size="small")}
    assert not results[check].passed, results[check].line()


_BINARY_DUAL_SUMS = ModelSpace._binary_dual_sums


def _binary_dual_sums_without_reversal(space, rows):
    # digit reversal is its own inverse, so gathering by it first undoes the kernel's gather
    return _BINARY_DUAL_SUMS(space, rows[:, space._reversal])


def test_transform_unitarity_sees_a_modular_kernel_defect(monkeypatch):
    monkeypatch.setattr(ModelSpace, "_binary_dual_sums", _binary_dual_sums_without_reversal)
    result = {r.name: r for r in run_suite(size="small")}["transform-unitarity"]
    assert not result.passed, result.line()
    # the oracle alone sees it, not only the unit-ball image
    f = _oracle_input((2, MODULAR, 2, 2))
    assert np.max(np.abs(model.fourier(f).coeffs - verify._naive_dual_sums(f))) > 1e-12


def test_a_build_patched_between_runs_takes_effect(monkeypatch):
    # the systems live for one run_suite call, so a later run builds its own
    assert all(r.passed for r in run_suite(size="small"))
    _patch(monkeypatch, "build", _dropped_characters)
    assert not run_suite(size="small")[0].passed
