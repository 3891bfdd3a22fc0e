"""Built-in verification suite: finite-scale checks of the classic identities.

Every check pins an exact or toleranced expectation that the rest of the
package is supposed to reproduce at desk scale: orthonormality of the
unit-window product systems, tight-frame constants of the scaled-indicator
lattices, exact section densities, the STFT energy identity, the
counting-times-amalgam majorant for sampled energy, two-route equality of
the amalgam norm, transform unitarity against a quadratic-cost oracle, dual
reconstruction, growth of the upper bound under repeated points, separated
decompositions, the per-scale propagation bound, and invariance of density
ratios under powers of the scaling map.

`run_suite` executes all checks for the requested primes and returns one
result per check; the CLI prints them as PASS/FAIL lines and pytest asserts
them individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import (
    PointSet,
    automorphism_invariance_check,
    density_profile,
    finite_density_check,
    is_uniformly_separated,
    separated_decomposition,
)
from .gabor import (
    GaborSystem,
    bessel_chain_check,
    bessel_stress,
    build,
    canonical_dual,
    frame_bounds,
    gram,
    reconstruct,
    riesz_check,
)
from .geometry import section
from .localfield import CARRY, MODULAR, GroupElement, GroupParams, pairing_phase
from .model import (
    ModelFunction,
    ModelSpace,
    fourier,
    indicator,
    stft,
    wiener_norm,
    wiener_norm_amalgam,
)
from .rng import SplitMix64

DEFAULT_SEED = 0x5EED_CAFE

# (p, mode, m, k) for the orthonormal-basis family and everything built on it
ONB_CONFIGS = ((2, CARRY, 2, 2), (3, CARRY, 1, 1), (2, MODULAR, 2, 2))
# (p, mode) for the scaled-indicator tight frames, one scaling step (bound p**2)
TIGHT_CONFIGS = ((2, CARRY), (3, CARRY), (2, MODULAR))


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    tolerance: str
    configs: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.configs}]" if self.configs else ""
        return f"{status}  {self.name}: {self.measured} (tol {self.tolerance}){extra}"


def _space(p: int, mode: str, m: int, k: int) -> ModelSpace:
    return ModelSpace(GroupParams(p, mode), m, k)


def _modulation_ladder_points(space: ModelSpace, step: int) -> PointSet:
    """Translations along H-cosets, modulations refined (step > 0), kept (the ONB) or coarsened."""
    xs = section(space.params, space.m, 0)
    xis = section(space.params, space.k, -step)
    return PointSet.phase(tuple((x, xi) for x in xs for xi in xis), space.params)


def _tight_lattice_system(p: int, mode: str, scaling_steps: int = 1) -> GaborSystem:
    """Unit-norm indicator of the refined ball, shifted over the full grid."""
    k = scaling_steps
    space = _space(p, mode, k, k)
    window = indicator(space, set_scale=-k).scaled(float(p) ** (k / 2.0))
    pts = section(space.params, k, -k)
    lam = PointSet.phase(tuple((x, xi) for x in pts for xi in pts), space.params)
    return build(window, lam)


def _random_function(space: ModelSpace, rng: SplitMix64) -> ModelFunction:
    return ModelFunction(space, rng.complex_vector(space.dim))


def _naive_dual_sums(f: ModelFunction) -> np.ndarray:
    """Quadratic-cost transform straight from the exact pairing; test oracle."""
    space = f.space
    out = np.zeros(space.dual.dim, dtype=complex)
    for b, xi in enumerate(space.dual.index_section):
        acc = 0.0 + 0.0j
        for a, x in enumerate(space.index_section):
            acc += f.coeffs[a] * pairing_phase(x, xi).complex_value().conjugate()
        out[b] = space.coset_measure * acc
    return out


def _config_tag(configs) -> str:
    return "; ".join(configs)


def _random_group_corpus(count: int, rng: SplitMix64):
    """Seeded multisets in A^3 H with digits down to exponent -2 allowed."""
    cycle = ((2, CARRY), (3, CARRY), (2, MODULAR), (3, MODULAR))
    region = 3
    out = []
    for i in range(count):
        p, mode = cycle[i % len(cycle)]
        params = GroupParams(p, mode)
        pool = section(params, region, -2)
        size = 1 + rng.next_below(64)
        pts = []
        for _ in range(size):
            if pts and rng.next_below(4) == 0:
                pts.append(pts[-1])  # exercise multiset semantics
            else:
                pts.append(pool[rng.next_below(len(pool))])
        out.append((params, PointSet.group(tuple(pts), params), region))
    return out


# -- individual checks ---------------------------------------------------------


def check_onb_gram_identity(p_list, size, rng) -> CheckResult:
    worst = 0.0
    used = []
    ok = True
    for p, mode, m, k in ONB_CONFIGS:
        if p not in p_list:
            continue
        space = _space(p, mode, m, k)
        sys = build(indicator(space), _modulation_ladder_points(space, 0))
        g = gram(sys)
        dev = float(np.max(np.abs(g - np.eye(sys.count))))
        worst = max(worst, dev)
        if sys.count != space.dim or dev > 1e-12:
            ok = False
        used.append(f"p={p} {mode} ({m},{k})")
    return CheckResult(
        "onb-gram-identity", ok and bool(used),
        f"max Gram deviation {worst:.2e}, count == dim", "1e-12", _config_tag(used),
    )


def check_tight_frame_constant(p_list, size, rng) -> CheckResult:
    worst = 0.0
    used = []
    ok = True
    for p, mode in TIGHT_CONFIGS:
        if p not in p_list:
            continue
        sys = _tight_lattice_system(p, mode)
        expected = float(p * p)
        vals = sys.spectrum[0]
        dev = float(np.max(np.abs(vals - expected)))
        worst = max(worst, dev)
        if dev > 1e-9:
            ok = False
        used.append(f"p={p} {mode} bound {expected:g}")
    return CheckResult(
        "tight-frame-constant", ok and bool(used),
        f"max eigenvalue deviation {worst:.2e}", "1e-9", _config_tag(used),
    )


def check_section_trichotomy(p_list, size, rng) -> CheckResult:
    used = []
    ok = True
    notes = []
    for p, mode, m, k in ONB_CONFIGS:
        if p not in p_list:
            continue
        space = _space(p, mode, m, k)
        chi = indicator(space)
        rep0 = frame_bounds(build(chi, _modulation_ladder_points(space, 0)))
        rep_plus = frame_bounds(build(chi, _modulation_ladder_points(space, 1)))
        rep_minus = frame_bounds(build(chi, _modulation_ladder_points(space, -1)))
        good = (
            rep0.classification == "ONB"
            and rep_plus.classification == "TightFrame"
            and abs((rep_plus.tight_constant or 0.0) - p) <= 1e-9
            and rep_minus.rank < space.dim
            and rep_minus.classification == "Incomplete"
        )
        ok = ok and good
        constant = rep_plus.tight_constant if rep_plus.tight_constant is not None else math.nan
        notes.append(
            f"{rep0.classification}/{rep_plus.classification}({constant:.6g})/"
            f"{rep_minus.classification}(rank {rep_minus.rank}<{space.dim})"
        )
        used.append(f"p={p} {mode} ({m},{k})")
    return CheckResult(
        "section-trichotomy", ok and bool(used),
        "; ".join(notes) if notes else "no configs", "1e-9 / 1e-12", _config_tag(used),
    )


def check_section_density_one(p_list, size, rng) -> CheckResult:
    used = []
    ok = True
    region = 4
    for p, mode in ((2, CARRY), (3, CARRY), (2, MODULAR)):
        if p not in p_list:
            continue
        params = GroupParams(p, mode)
        lam = PointSet.group(section(params, region, 0), params)
        prof = density_profile(lam, (0, region), region)
        for row in prof.rows:
            if row.max_count != p**row.n or row.min_count != p**row.n:
                ok = False
            if row.upper_ratio != 1 or row.lower_ratio != 1:
                ok = False
        used.append(f"p={p} {mode} N={region}")
    return CheckResult(
        "section-density-one", ok and bool(used),
        "per-ball counts p**n, ratios exactly 1/1", "exact", _config_tag(used),
    )


def check_product_lattice_density(p_list, size, rng) -> CheckResult:
    used = []
    ok = True
    for p, mode in TIGHT_CONFIGS:
        if p not in p_list:
            continue
        sys = _tight_lattice_system(p, mode)
        k = sys.window.space.k
        expected = Fraction(p) ** (2 * k)
        prof = density_profile(sys.lam, (-k, k), k)
        for row in prof.rows:
            if row.upper_ratio != expected or row.lower_ratio != expected:
                ok = False
        used.append(f"p={p} {mode} density {expected}")
    return CheckResult(
        "product-lattice-density", ok and bool(used),
        "upper = lower = p**2k at every admissible scale", "exact", _config_tag(used),
    )


def check_stft_energy_identity(p_list, size, rng) -> CheckResult:
    pairs = 100 if size == "full" else 20
    worst = 0.0
    used = []
    for p, mode, m, k in ONB_CONFIGS:
        if p not in p_list:
            continue
        space = _space(p, mode, m, k)
        for _ in range(pairs):
            f = _random_function(space, rng)
            g = _random_function(space, rng)
            grid = stft(f, g)
            target = f.norm() * g.norm()
            worst = max(worst, abs(grid.l2_norm() - target) / target)
        used.append(f"p={p} {mode} ({m},{k}) x{pairs}")
    ok = bool(used) and worst <= 1e-10
    return CheckResult(
        "stft-energy-identity", ok,
        f"max relative error {worst:.2e}", "1e-10", _config_tag(used),
    )


def check_sample_sum_amalgam_bound(p_list, size, rng) -> CheckResult:
    draws = 100 if size == "full" else 20
    worst_slack = -math.inf
    used = []
    ok = True
    for p, mode in TIGHT_CONFIGS:
        if p not in p_list:
            continue
        sys = _tight_lattice_system(p, mode)
        space = sys.window.space
        for _ in range(draws):
            f = _random_function(space, rng)
            lhs, mid, _ = bessel_chain_check(f, sys, space.m)
            slack = lhs - mid
            worst_slack = max(worst_slack, slack)
            if lhs > mid + 1e-10:
                ok = False
        used.append(f"p={p} {mode} x{draws}")
    return CheckResult(
        "sample-sum-amalgam-bound", ok and bool(used),
        f"max(lhs - majorant) = {worst_slack:.2e}", "1e-10", _config_tag(used),
    )


def check_wiener_two_route_equality(p_list, size, rng) -> CheckResult:
    grids = 20 if size == "full" else 6
    configs = [c for c in ((2, CARRY, 1, 1), (3, CARRY, 1, 1), (2, MODULAR, 2, 1)) if c[0] in p_list]
    if not configs:
        return CheckResult("wiener-two-route-equality", False, "no configs", "exact")
    exact = True
    for i in range(grids):
        p, mode, m, k = configs[i % len(configs)]
        space = _space(p, mode, m, k)
        grid = stft(_random_function(space, rng), _random_function(space, rng))
        for p_exp in (1, 2, math.inf):
            if wiener_norm(grid, p_exp) != wiener_norm_amalgam(grid, p_exp):
                exact = False
    return CheckResult(
        "wiener-two-route-equality", exact,
        f"{grids} grids x (1, 2, inf): sum route == integral route", "exact float equality",
        _config_tag(f"p={p} {mode}" for p, mode, _, _ in configs),
    )


def check_transform_unitarity(p_list, size, rng) -> CheckResult:
    if size == "full":
        configs = ((2, CARRY, 3, 3), (3, CARRY, 2, 2), (2, MODULAR, 3, 3), (3, MODULAR, 1, 1))
    else:
        configs = ((2, CARRY, 2, 2), (3, CARRY, 1, 1), (2, MODULAR, 2, 2))
    worst = 0.0
    used = []
    for p, mode, m, k in configs:
        if p not in p_list:
            continue
        space = _space(p, mode, m, k)
        chi = indicator(space)
        f_chi = fourier(chi)
        dev = float(np.max(np.abs(f_chi.coeffs - indicator(space.dual).coeffs)))
        worst = max(worst, dev)
        f = _random_function(space, rng)
        ff = fourier(f)
        worst = max(worst, abs(ff.norm() - f.norm()) / f.norm())
        worst = max(worst, float(np.max(np.abs(ff.coeffs - _naive_dual_sums(f)))))
        used.append(f"p={p} {mode} dim {space.dim}")
    ok = bool(used) and worst <= 1e-12
    return CheckResult(
        "transform-unitarity", ok,
        f"max deviation {worst:.2e} (unit-ball image, norm, oracle)", "1e-12",
        _config_tag(used),
    )


def check_dual_reconstruction(p_list, size, rng) -> CheckResult:
    draws = 50 if size == "full" else 10
    worst_recon = 0.0
    worst_bounds = 0.0
    used = []
    ok = True
    for p, mode, m, k in ONB_CONFIGS:
        if p not in p_list:
            continue
        space = _space(p, mode, m, k)
        chi = indicator(space)
        extra = tuple(
            (
                space.index_section[rng.next_below(space.dim)],
                space.dual.index_section[rng.next_below(space.dim)],
            )
            for _ in range(4)
        )
        lam = PointSet.phase(_modulation_ladder_points(space, 0).points + extra, space.params)
        sys = build(chi, lam)
        report = frame_bounds(sys)
        duals = canonical_dual(sys)
        for _ in range(draws):
            f = _random_function(space, rng)
            err = (reconstruct(sys, duals, f) - f).norm() / f.norm()
            worst_recon = max(worst_recon, err)
        dual_report = frame_bounds(GaborSystem(chi, lam, duals))
        worst_bounds = max(
            worst_bounds,
            abs(dual_report.lower - 1.0 / report.upper),
            abs(dual_report.upper - 1.0 / report.lower),
        )
        used.append(f"p={p} {mode} ({m},{k}) +4 extra, x{draws}")
        if worst_recon > 1e-8 or worst_bounds > 1e-8:
            ok = False
    return CheckResult(
        "dual-reconstruction", ok and bool(used),
        f"max reconstruction error {worst_recon:.2e}, max bound reciprocity error {worst_bounds:.2e}",
        "1e-8", _config_tag(used),
    )


def check_repeated_point_bound_growth(p_list, size, rng) -> CheckResult:
    reps = [1, 2, 4, 8] if size == "full" else [1, 2, 4]
    used = []
    ok = True
    detail = []
    for p, mode, m, k in ONB_CONFIGS:
        if p not in p_list:
            continue
        space = _space(p, mode, m, k)
        chi = indicator(space)
        sys = build(chi, _modulation_ladder_points(space, 0))
        origin = (GroupElement.zero(space.params), GroupElement.zero(space.params))
        results, grew = bessel_stress(sys, origin, reps)  # grew: B(N) >= N||chi||^2, nondecreasing
        ok = ok and grew
        detail.append(",".join(f"B({n})={b:.3f}" for n, b in results))
        used.append(f"p={p} {mode}")
    return CheckResult(
        "repeated-point-bound-growth", ok and bool(used),
        "; ".join(detail) if detail else "no configs", "1e-9", _config_tag(used),
    )


def check_separated_decomposition(p_list, size, rng) -> CheckResult:
    corpus = _random_group_corpus(20 if size == "full" else 8, rng)
    checked = 0
    ok = True
    for i, (params, lam, region) in enumerate(corpus):
        if params.p not in p_list:
            continue
        scale = i % 2
        parts = separated_decomposition(lam, scale, region)
        n_cap = finite_density_check(lam, scale, region).max_per_ball
        merged = sorted(pt.text() for part in parts for pt in part.points.points)
        if merged != sorted(pt.text() for pt in lam.points):
            ok = False
        if any(not is_uniformly_separated(part.points, scale) for part in parts):
            ok = False
        if len(parts) > params.p * n_cap:
            ok = False
        checked += 1
    return CheckResult(
        "separated-decomposition", ok and checked > 0,
        f"{checked} random multisets: union, separation, part count all exact", "exact",
    )


def check_scale_propagation_bound(p_list, size, rng) -> CheckResult:
    corpus = _random_group_corpus(20 if size == "full" else 8, rng)
    checked = 0
    ok = True
    for params, lam, region in corpus:
        if params.p not in p_list:
            continue
        for n in range(0, region):
            if not finite_density_check(lam, n, region).all_within:
                ok = False
        checked += 1
    return CheckResult(
        "scale-propagation-bound", ok and checked > 0,
        f"{checked} random multisets, every base scale", "exact",
    )


def check_automorphism_invariance(p_list, size, rng) -> CheckResult:
    corpus = _random_group_corpus(20 if size == "full" else 8, rng)
    checked = 0
    ok = True
    for params, lam, region in corpus:
        if params.p not in p_list:
            continue
        report = automorphism_invariance_check(lam, 2, (0, region // 2), region)
        if not report.all_equal:
            ok = False
        checked += 1
    return CheckResult(
        "automorphism-invariance", ok and checked > 0,
        f"{checked} random multisets, squared map, ratios equal row-by-row", "exact",
    )


def check_frame_density_necessity(p_list, size, rng) -> CheckResult:
    used = []
    ok = True
    systems = []
    for p, mode, m, k in ONB_CONFIGS:
        if p not in p_list:
            continue
        space = _space(p, mode, m, k)
        chi = indicator(space)
        systems.append((build(chi, _modulation_ladder_points(space, 0)), space.m, True))
        systems.append((build(chi, _modulation_ladder_points(space, 1)), space.m, False))
        used.append(f"p={p} {mode} ({m},{k})")
    for p, mode in TIGHT_CONFIGS:
        if p not in p_list:
            continue
        sys = _tight_lattice_system(p, mode)
        systems.append((sys, sys.window.space.m, False))
        used.append(f"p={p} {mode} lattice")
    for sys, region, expect_riesz in systems:
        report = frame_bounds(sys)
        if report.classification not in ("ONB", "TightFrame", "Frame"):
            ok = False
            continue
        prof = density_profile(sys.lam, (0, region), region)
        if any(row.lower_ratio < 1 for row in prof.rows):
            ok = False
        if expect_riesz:
            if not riesz_check(sys):
                ok = False
            if any(row.upper_ratio != 1 or row.lower_ratio != 1 for row in prof.rows):
                ok = False
    return CheckResult(
        "frame-density-necessity", ok and bool(used),
        "frames: lower ratio >= 1; Riesz bases: ratios exactly 1", "exact",
        _config_tag(used),
    )


CHECKS = (
    check_onb_gram_identity,
    check_tight_frame_constant,
    check_section_trichotomy,
    check_section_density_one,
    check_product_lattice_density,
    check_stft_energy_identity,
    check_sample_sum_amalgam_bound,
    check_wiener_two_route_equality,
    check_transform_unitarity,
    check_dual_reconstruction,
    check_repeated_point_bound_growth,
    check_separated_decomposition,
    check_scale_propagation_bound,
    check_automorphism_invariance,
    check_frame_density_necessity,
)


def run_suite(p_list=(2, 3), size: str = "full", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if size not in ("small", "full"):
        raise ValueError(f"size must be 'small' or 'full', got {size!r}")
    results = []
    for fn in CHECKS:
        rng = SplitMix64(seed)  # each check draws from a fresh, identical stream
        results.append(fn(tuple(p_list), size, rng))
    return results
