"""Built-in verification suite: finite-scale checks of the classic identities.

Every check pins an exact or toleranced expectation that the rest of the
package is supposed to reproduce at desk scale: orthonormality of the
unit-window product systems, tight-frame constants of the scaled-indicator
lattices, exact section densities, the STFT energy identity, the
counting-times-amalgam majorant for sampled energy (samples that must be the
STFT grid's at each point), two-route equality of the amalgam norm,
transform unitarity against a quadratic-cost oracle, dual reconstruction,
growth of the upper bound under repeated points, separated decompositions,
the per-scale propagation bound, and invariance of density ratios under
powers of the scaling map.

`run_suite` executes all checks for the requested primes and returns one
result per check; the CLI prints them as PASS/FAIL lines and pytest asserts
them individually.  The checks share one table of Gabor systems per run, so
each system is built and decomposed once per `run_suite` call.  A NaN
measurement fails its tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._lazy import np
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
    _analysis,
    bessel_chain_check,
    bessel_stress,
    build,
    canonical_dual,
    frame_bounds,
    gram,
    reconstruct,
    riesz_check,
)
from .geometry import anchored_int, coset_rep, section
from .linalg import RankDeficiencyError
from .localfield import CARRY, MODULAR, GroupElement, GroupParams, Phase, pairing_phases
from .model import (
    ModelFunction,
    ModelSpace,
    StftGrid,
    fourier,
    indicator,
    row_norms,
    stft,
    stft_grids,
    wiener_norm,
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


def _kept(configs, p_list) -> list:
    """The configs (p, ...) whose prime p_list asks for, in order."""
    return [c for c in configs if c[0] in p_list]


def _onb_spaces(p_list, systems) -> list[tuple[ModelSpace, str]]:
    """(space, config tag) of each ONB config whose prime p_list asks for."""
    return [(systems.space(p, mode, m, k), f"p={p} {mode} ({m},{k})")
            for p, mode, m, k in _kept(ONB_CONFIGS, p_list)]


def _lattice(space: ModelSpace, x_inner: int, xi_inner: int) -> PointSet:
    """The product of the sections of A^m H by A^x_inner H and of A^k H by A^xi_inner H."""
    xs = section(space.params, space.m, x_inner)
    xis = section(space.params, space.k, xi_inner)
    return PointSet.phase(tuple((x, xi) for x in xs for xi in xis), space.params)


class _Systems(dict):
    """The model spaces and Gabor systems of one run_suite call, each space made once (its
    tables built once) and each system built and decomposed once.

    run_suite makes a fresh table per call, so no run sees another run's spaces or systems.
    """

    def space(self, p: int, mode: str, m: int, k: int) -> ModelSpace:
        if (p, mode, m, k) not in self:
            self[p, mode, m, k] = ModelSpace(GroupParams(p, mode), m, k)
        return self[p, mode, m, k]

    def ladder(self, space: ModelSpace, step: int) -> GaborSystem:
        """chi_H translated along H-cosets, modulations refined (step > 0), kept (the ONB) or
        coarsened."""
        if (space, step) not in self:
            self[space, step] = build(indicator(space), _lattice(space, 0, -step))
        return self[space, step]

    def tight(self, p: int, mode: str) -> GaborSystem:
        """Unit-norm indicator of the refined ball, shifted over the full grid."""
        if (p, mode) not in self:
            space = self.space(p, mode, 1, 1)
            window = indicator(space, set_scale=-1).scaled(float(p) ** 0.5)
            self[p, mode] = build(window, _lattice(space, -1, -1))
        return self[p, mode]


def _worse(worst: float, *values: float) -> float:
    """The largest of worst and values, where a NaN counts as largest and stays, so a NaN
    measurement fails every `worst <= tol` test (max() would drop it)."""
    for x in values:
        if math.isnan(x) or x > worst:
            worst = x
    return worst


def _naive_dual_sums(f: ModelFunction) -> np.ndarray:
    """Quadratic-cost transform straight from the exact pairing, with no model table; test
    oracle.  One batched pairing per dual element, a complex value per distinct phase, and a
    Python complex sum over a = 0 .. dim-1, whose terms and partial sums keep their bits."""
    space = f.space
    p, coeffs, xs = space.params.p, f.coeffs.tolist(), space.index_section
    values = {}  # phase -> its conjugate complex value
    out = np.zeros(space.dual.dim, dtype=complex)
    for b, xi in enumerate(space.dual.index_section):
        phases = pairing_phases(xs, xi)
        for phase in set(phases) - values.keys():
            values[phase] = Phase.make(p, *phase).complex_value().conjugate()
        acc = 0.0 + 0.0j
        for c, phase in zip(coeffs, phases):
            acc += c * values[phase]
        out[b] = space.coset_measure * acc
    return out


def _cell_keys(space: ModelSpace) -> tuple[np.ndarray, np.ndarray]:
    """Row and column keys of the unit cell of entry (a, b): the coset reps of x_a, xi_b mod H."""
    rows = [anchored_int(coset_rep(x, 0), space.m) for x in space.index_section]
    cols = [anchored_int(coset_rep(xi, 0), space.k) for xi in space.dual.index_section]
    return np.array(rows)[:, np.newaxis], np.array(cols)


def _keyed_wiener_norm(grid, keys, p_exp) -> float:
    """wiener_norm with entry (a, b) keyed to its unit cell by keys, the _cell_keys of its space.

    No index layout is assumed; the sups are summed as wiener_norm sums them.
    """
    space = grid.space
    p = space.params.p
    sups = np.zeros((p**space.m, p**space.k))
    np.maximum.at(sups, keys, grid.magnitudes)
    return float(np.max(sups) if math.isinf(p_exp) else np.sum(sups**p_exp) ** (1.0 / p_exp))


def _sample_gap(sys: GaborSystem, f: ModelFunction) -> float:
    """max |<f, v_lam> - V_phi f(lam)| over lam: the analysis coefficients are the samples
    of the STFT grid at the points, so a wrong sign of x or xi in build shows here."""
    space = sys.window.space
    grid = stft(f, sys.window).values
    samples = [grid[space.index_of(x), space.dual.index_of(xi)] for x, xi in sys.lam.points]
    return float(np.max(np.abs(_analysis(sys, f) - samples)))


def _group_corpus(p_list, size: str, rng: SplitMix64) -> list:
    """Seeded multisets in A^3 H with digits down to exponent -2 allowed, as
    (draw index, params, lam, region) for the primes p_list asks for.  Every
    multiset is drawn, so a prime's multisets do not depend on p_list."""
    cycle = ((2, CARRY), (3, CARRY), (2, MODULAR), (3, MODULAR))
    region = 3
    width = region + 2  # member a < p**width of section(params, region, -2)
    out = []
    for i in range(20 if size == "full" else 8):
        p, mode = cycle[i % len(cycle)]
        params = GroupParams(p, mode)
        count = 1 + rng.next_below(64)
        pts = []
        for _ in range(count):
            if pts and rng.next_below(4) == 0:
                pts.append(pts[-1])  # exercise multiset semantics
            else:
                pts.append(GroupElement.from_rational(params, rng.next_below(p**width), region))
        if p in p_list:
            out.append((i, params, PointSet.group(tuple(pts), params), region))
    return out


# -- individual checks ---------------------------------------------------------


def check_onb_gram_identity(p_list, size, rng, systems) -> CheckResult:
    spaces = _onb_spaces(p_list, systems)
    worst = 0.0
    square = True
    for space, _ in spaces:
        sys = systems.ladder(space, 0)
        worst = _worse(worst, float(np.max(np.abs(gram(sys) - np.eye(sys.count)))))
        square = square and sys.count == space.dim
    return CheckResult(
        "onb-gram-identity", square and bool(spaces) and worst <= 1e-12,
        f"max Gram deviation {worst:.2e}, count == dim", "1e-12",
        "; ".join(tag for _, tag in spaces),
    )


def check_tight_frame_constant(p_list, size, rng, systems) -> CheckResult:
    configs = _kept(TIGHT_CONFIGS, p_list)
    worst = 0.0
    for p, mode in configs:
        (lower, upper, _), _ = systems.tight(p, mode).spectrum
        worst = _worse(worst, abs(lower - p * p), abs(upper - p * p))
    return CheckResult(
        "tight-frame-constant", bool(configs) and worst <= 1e-9,
        f"max eigenvalue deviation {worst:.2e}", "1e-9",
        "; ".join(f"p={p} {mode} bound {p * p:g}" for p, mode in configs),
    )


def check_section_trichotomy(p_list, size, rng, systems) -> CheckResult:
    spaces = _onb_spaces(p_list, systems)
    ok = True
    notes = []
    for space, _ in spaces:
        rep0, rep_plus, rep_minus = (frame_bounds(systems.ladder(space, step)) for step in (0, 1, -1))
        ok = ok and (
            rep0.classification == "ONB"
            and rep_plus.classification == "TightFrame"
            and abs((rep_plus.tight_constant or 0.0) - space.params.p) <= 1e-9
            and rep_minus.rank < space.dim
            and rep_minus.classification == "Incomplete"
        )
        constant = rep_plus.tight_constant if rep_plus.tight_constant is not None else math.nan
        notes.append(
            f"{rep0.classification}/{rep_plus.classification}({constant:.6g})/"
            f"{rep_minus.classification}(rank {rep_minus.rank}<{space.dim})"
        )
    return CheckResult(
        "section-trichotomy", ok and bool(spaces),
        "; ".join(notes) if notes else "no configs", "1e-9 / 1e-12",
        "; ".join(tag for _, tag in spaces),
    )


def check_section_density_one(p_list, size, rng, systems) -> CheckResult:
    configs = _kept(((2, CARRY), (3, CARRY), (2, MODULAR)), p_list)
    ok = True
    region = 4
    for p, mode in configs:
        params = GroupParams(p, mode)
        lam = PointSet.group(section(params, region, 0), params)
        rows = density_profile(lam, (0, region), region).rows
        ok = all(row.max_count == row.min_count == p**row.n
                 and row.upper_ratio == row.lower_ratio == 1 for row in rows) and ok
    return CheckResult(
        "section-density-one", ok and bool(configs),
        "per-ball counts p**n, ratios exactly 1/1", "exact",
        "; ".join(f"p={p} {mode} N={region}" for p, mode in configs),
    )


def check_product_lattice_density(p_list, size, rng, systems) -> CheckResult:
    used = []
    ok = True
    for p, mode in _kept(TIGHT_CONFIGS, p_list):
        sys = systems.tight(p, mode)
        k = sys.window.space.k
        expected = Fraction(p) ** (2 * k)
        rows = density_profile(sys.lam, (-k, k), k).rows
        ok = all(row.upper_ratio == row.lower_ratio == expected for row in rows) and ok
        used.append(f"p={p} {mode} density {expected}")
    return CheckResult(
        "product-lattice-density", ok and bool(used),
        "upper = lower = p**2k at every admissible scale", "exact", "; ".join(used),
    )


def check_stft_energy_identity(p_list, size, rng, systems) -> CheckResult:
    pairs = 100 if size == "full" else 20
    spaces = _onb_spaces(p_list, systems)
    worst = 0.0
    for space, _ in spaces:
        # f, g of one pair after another, as per-pair draws would come
        draws = rng.complex_vector(2 * pairs * space.dim).reshape(pairs, 2, space.dim)
        norms = row_norms(space, draws).tolist()
        for (f_norm, g_norm), values in zip(norms, stft_grids(space, draws[:, 0], draws[:, 1])):
            target = f_norm * g_norm
            worst = _worse(worst, abs(StftGrid(space, values).l2_norm() - target) / target)
    return CheckResult(
        "stft-energy-identity", bool(spaces) and worst <= 1e-10,
        f"max relative error {worst:.2e}", "1e-10",
        "; ".join(f"{tag} x{pairs}" for _, tag in spaces),
    )


def check_sample_sum_amalgam_bound(p_list, size, rng, systems) -> CheckResult:
    draws = 100 if size == "full" else 20
    configs = _kept(TIGHT_CONFIGS, p_list)
    worst_slack = -math.inf
    ok = True
    for p, mode in configs:
        sys = systems.tight(p, mode)
        space = sys.window.space
        rows = rng.complex_vector(draws * space.dim).reshape(draws, space.dim)
        fs = [ModelFunction(space, row) for row in rows]
        if not _sample_gap(sys, fs[0]) <= 1e-10:
            ok = False
        for lhs, mid, _ in bessel_chain_check(fs, sys):
            worst_slack = _worse(worst_slack, lhs - mid)
            if not lhs <= mid + 1e-10:
                ok = False
    return CheckResult(
        "sample-sum-amalgam-bound", ok and bool(configs),
        f"max(lhs - majorant) = {worst_slack:.2e}", "1e-10",
        "; ".join(f"p={p} {mode} x{draws}" for p, mode in configs),
    )


def check_wiener_two_route_equality(p_list, size, rng, systems) -> CheckResult:
    grids = 20 if size == "full" else 6
    configs = _kept(((2, CARRY, 1, 1), (3, CARRY, 1, 1), (2, MODULAR, 2, 1)), p_list)
    if not configs:
        return CheckResult("wiener-two-route-equality", False, "no configs", "exact")
    spaces = [systems.space(*configs[i % len(configs)]) for i in range(grids)]
    # f, g of one grid after another, as per-grid draws would come, then each space's pairs
    stream = rng.complex_vector(sum(2 * space.dim for space in spaces))
    pairs: dict[ModelSpace, list] = {}
    for space, draw in zip(spaces, np.split(stream, np.cumsum([2 * s.dim for s in spaces]))):
        pairs.setdefault(space, []).append(draw.reshape(2, space.dim))
    exact = True
    for space, draws in pairs.items():
        keys = _cell_keys(space)
        for values in stft_grids(space, *np.swapaxes(draws, 0, 1)):
            grid = StftGrid(space, values)
            for p_exp in (1, 2, math.inf):
                if wiener_norm(grid, p_exp) != _keyed_wiener_norm(grid, keys, p_exp):
                    exact = False
    return CheckResult(
        "wiener-two-route-equality", exact,
        f"{grids} grids x (1, 2, inf): sum route == integral route", "exact float equality",
        "; ".join(f"p={p} {mode}" for p, mode, _, _ in configs),
    )


def check_transform_unitarity(p_list, size, rng, systems) -> CheckResult:
    if size == "full":
        configs = ((2, CARRY, 3, 3), (3, CARRY, 2, 2), (2, MODULAR, 3, 3), (3, MODULAR, 1, 1))
    else:
        configs = ((2, CARRY, 2, 2), (3, CARRY, 1, 1), (2, MODULAR, 2, 2))
    configs = _kept(configs, p_list)
    worst = 0.0
    for config in configs:
        space = systems.space(*config)
        dev = float(np.max(np.abs(fourier(indicator(space)).coeffs - indicator(space.dual).coeffs)))
        f = ModelFunction(space, rng.complex_vector(space.dim))
        ff = fourier(f)
        worst = _worse(worst, dev, abs(ff.norm() - f.norm()) / f.norm(),
                       float(np.max(np.abs(ff.coeffs - _naive_dual_sums(f)))))
    return CheckResult(
        "transform-unitarity", bool(configs) and worst <= 1e-12,
        f"max deviation {worst:.2e} (unit-ball image, norm, oracle)", "1e-12",
        "; ".join(f"p={p} {mode} dim {p ** (m + k)}" for p, mode, m, k in configs),
    )


def check_dual_reconstruction(p_list, size, rng, systems) -> CheckResult:
    draws = 50 if size == "full" else 10
    spaces = _onb_spaces(p_list, systems)
    worst_recon = 0.0
    worst_bounds = 0.0
    ok = True
    for space, _ in spaces:
        onb = systems.ladder(space, 0)
        extra = tuple(
            (
                space.index_section[rng.next_below(space.dim)],
                space.dual.index_section[rng.next_below(space.dim)],
            )
            for _ in range(4)
        )
        lam = PointSet.phase(onb.lam.points + extra, space.params)
        sys = build(onb.window, lam)
        try:
            duals = canonical_dual(sys)  # its rank test and frame_bounds below share one spectrum
        except RankDeficiencyError:  # a system that does not span has no dual
            ok = False
            continue
        report = frame_bounds(sys)
        fs = rng.complex_vector(draws * space.dim).reshape(draws, space.dim)
        recons = np.stack([reconstruct(sys, duals, ModelFunction(space, f)).coeffs for f in fs])
        errors = row_norms(space, recons - fs) / row_norms(space, fs)
        worst_recon = _worse(worst_recon, *errors.tolist())
        dual_report = frame_bounds(GaborSystem(onb.window, lam, duals))
        worst_bounds = _worse(
            worst_bounds,
            abs(dual_report.lower - 1.0 / report.upper),
            abs(dual_report.upper - 1.0 / report.lower),
        )
    return CheckResult(
        "dual-reconstruction", ok and bool(spaces) and worst_recon <= 1e-8 and worst_bounds <= 1e-8,
        f"max reconstruction error {worst_recon:.2e}, max bound reciprocity error {worst_bounds:.2e}",
        "1e-8", "; ".join(f"{tag} +4 extra, x{draws}" for _, tag in spaces),
    )


def check_repeated_point_bound_growth(p_list, size, rng, systems) -> CheckResult:
    reps = [1, 2, 4, 8] if size == "full" else [1, 2, 4]
    spaces = _onb_spaces(p_list, systems)
    ok = True
    detail = []
    for space, _ in spaces:
        origin = (GroupElement.zero(space.params), GroupElement.zero(space.params))
        results, grew = bessel_stress(systems.ladder(space, 0), origin, reps)
        ok = ok and grew  # grew: B(N) >= N||chi||^2, nondecreasing
        detail.append(",".join(f"B({n})={b:.3f}" for n, b in results))
    return CheckResult(
        "repeated-point-bound-growth", ok and bool(spaces),
        "; ".join(detail) if detail else "no configs", "1e-9",
        "; ".join(f"p={space.params.p} {space.params.mode}" for space, _ in spaces),
    )


def check_separated_decomposition(p_list, size, rng, systems) -> CheckResult:
    corpus = _group_corpus(p_list, size, rng)
    ok = True
    for i, params, lam, region in corpus:
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
    return CheckResult(
        "separated-decomposition", ok and bool(corpus),
        f"{len(corpus)} random multisets: union, separation, part count all exact", "exact",
    )


def check_scale_propagation_bound(p_list, size, rng, systems) -> CheckResult:
    """No mutant can make this check FAIL.  finite_density_check raises InvariantViolation
    on a report past its bound, so a defect leaves run_suite as an exception and the
    all_within test here never sees False.  And any count that sums scale-n balls into a
    scale-m ball holds at most p**(d(m-n)) N_n points, a factor p**d under the bound."""
    corpus = _group_corpus(p_list, size, rng)
    ok = True
    for _, params, lam, region in corpus:
        for n in range(0, region):
            if not finite_density_check(lam, n, region).all_within:
                ok = False
    return CheckResult(
        "scale-propagation-bound", ok and bool(corpus),
        f"{len(corpus)} random multisets, every base scale", "exact",
    )


def check_automorphism_invariance(p_list, size, rng, systems) -> CheckResult:
    """Row j of the report counts the balls of B**j H = A**(r j) H in A^R H.  The second
    route moves lam by B = A**r (automorphism(r) on every point) into a fresh PointSet,
    whose A-scale r(j+1) balls in A^(R+r) H are the images of those balls, and requires
    the same max and min counts row by row; a report that counts at the wrong scale fails."""
    corpus = _group_corpus(p_list, size, rng)
    r = 2
    ok = True
    for _, params, lam, region in corpus:
        report = automorphism_invariance_check(lam, r, (0, region // r), region)
        image = PointSet.group(tuple(x.automorphism(r) for x in lam.points), params)
        moved = [density_profile(image, (r * (j + 1), r * (j + 1)), region + r).rows[0]
                 for j in range(region // r + 1)]
        counts = [(row.max_count, row.min_count) for row in report.rows]
        if not report.all_equal or counts != [(row.max_count, row.min_count) for row in moved]:
            ok = False
    return CheckResult(
        "automorphism-invariance", ok and bool(corpus),
        f"{len(corpus)} random multisets, squared map, ratios equal row-by-row", "exact",
    )


def check_frame_density_necessity(p_list, size, rng, systems) -> CheckResult:
    used = []
    cases = []  # (system, expect a Riesz basis)
    for space, tag in _onb_spaces(p_list, systems):
        cases += [(systems.ladder(space, 0), True), (systems.ladder(space, 1), False)]
        used.append(tag)
    for p, mode in _kept(TIGHT_CONFIGS, p_list):
        cases.append((systems.tight(p, mode), False))
        used.append(f"p={p} {mode} lattice")
    ok = True
    for sys, expect_riesz in cases:
        if frame_bounds(sys).classification not in ("ONB", "TightFrame", "Frame"):
            ok = False
            continue
        region = sys.window.space.m
        rows = density_profile(sys.lam, (0, region), region).rows
        if any(row.lower_ratio < 1 for row in rows):
            ok = False
        if expect_riesz and not (
                riesz_check(sys) and all(row.upper_ratio == row.lower_ratio == 1 for row in rows)):
            ok = False
    return CheckResult(
        "frame-density-necessity", ok and bool(used),
        "frames: lower ratio >= 1; Riesz bases: ratios exactly 1", "exact",
        "; ".join(used),
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
    systems = _Systems()  # this run's systems, shared by its checks
    results = []
    for fn in CHECKS:
        rng = SplitMix64(seed)  # each check draws from a fresh, identical stream
        results.append(fn(tuple(p_list), size, rng, systems))
    return results
