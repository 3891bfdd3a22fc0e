"""Counting densities, separation, decompositions, and scale propagation."""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import padicgabor
from padicgabor.density import (
    PointSet,
    automorphism_invariance_check,
    density_profile,
    finite_density_check,
    is_uniformly_separated,
    separated_decomposition,
)
from padicgabor.geometry import anchored_int, coset_rep, section
from padicgabor.localfield import CARRY, MODULAR, GroupElement, GroupParams
from padicgabor.rng import SplitMix64

P2 = GroupParams(2, CARRY)
P3 = GroupParams(3, CARRY)
M2 = GroupParams(2, MODULAR)


def random_point_set(params, rng, region=3, max_size=64):
    pool = section(params, region, -2)
    size = 1 + rng.next_below(max_size)
    pts = []
    for _ in range(size):
        if pts and rng.next_below(4) == 0:
            pts.append(pts[-1])
        else:
            pts.append(pool[rng.next_below(len(pool))])
    return PointSet.group(tuple(pts), params)


def test_ball_count_examples():
    lam = PointSet.group(section(P2, 3, 0), P2)
    assert lam.buckets(2)[0] == [0, 2, 4, 6]  # p**n points in the scale-2 ball of 0
    row = density_profile(lam, (2, 2), 3).rows[0]
    assert row.max_count == row.min_count == 4
    empty = density_profile(PointSet.group((), P2), (0, 0), 0).rows[0]
    assert empty.max_count == empty.min_count == 0
    five = PointSet.group([GroupElement.zero(P2)] * 5, P2)
    assert five.buckets(0) == {0: [0, 1, 2, 3, 4]}
    assert density_profile(five, (0, 0), 0).rows[0].max_count == 5


def test_section_profile_all_ones():
    for params in (P2, P3, M2):
        lam = PointSet.group(section(params, 4, 0), params)
        prof = density_profile(lam, (0, 4), 4)
        for row in prof.rows:
            assert row.max_count == row.min_count == params.p**row.n
            assert row.upper_ratio == row.lower_ratio == 1


def test_singleton_profile_decreasing():
    lam = PointSet.group([GroupElement.zero(P2)], P2)
    prof = density_profile(lam, (0, 3), 3)
    assert [r.max_count for r in prof.rows] == [1, 1, 1, 1]
    assert [r.upper_ratio for r in prof.rows] == [
        Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
    ]
    assert all(r.min_count == 0 for r in prof.rows[:-1])


def test_phase_product_lattice_profile():
    # product of two copies of the scale-refined section: density p**2k everywhere
    for params, k in ((P2, 1), (P3, 1), (M2, 1), (P2, 2)):
        pts = section(params, k, -k)
        lam = PointSet.phase(tuple((x, xi) for x in pts for xi in pts), params)
        prof = density_profile(lam, (-k, k), k)
        for row in prof.rows:
            assert row.upper_ratio == row.lower_ratio == Fraction(params.p) ** (2 * k)


def test_profile_region_validation():
    bad = PointSet.group([GroupElement.from_rational(P2, 1, 3)], P2)
    with pytest.raises(ValueError, match="1/2\\^3"):
        density_profile(bad, (0, 1), 1)
    lam = PointSet.group([GroupElement.zero(P2)], P2)
    with pytest.raises(ValueError):
        density_profile(lam, (0, 3), 2)  # n_hi beyond region


def test_empty_profile_is_zero():
    prof = density_profile(PointSet.group((), P2), (0, 2), 2)
    assert all(r.max_count == 0 and r.upper_ratio == 0 for r in prof.rows)


def test_profile_counts_monotone_in_scale():
    rng = SplitMix64(31)
    for params in (P2, P3, M2):
        lam = random_point_set(params, rng)
        prof = density_profile(lam, (-2, 3), 3)
        maxes = [r.max_count for r in prof.rows]
        mins = [r.min_count for r in prof.rows]
        assert maxes == sorted(maxes)
        assert mins == sorted(mins)


def test_partition_consistency():
    # summing per-ball counts over the tiling recovers the multiset size
    rng = SplitMix64(32)
    for params in (P2, M2):
        lam = random_point_set(params, rng)
        for n in (0, 1, 3):
            assert sum(len(v) for v in lam.buckets(n).values()) == len(lam)


def test_uniform_separation():
    assert is_uniformly_separated(PointSet.group(section(P2, 3, 0), P2), 0)
    dup = PointSet.group([GroupElement.zero(P2), GroupElement.zero(P2)], P2)
    assert not is_uniformly_separated(dup, 0)
    assert not is_uniformly_separated(dup, -5)
    pair = PointSet.group([GroupElement.zero(P2), GroupElement.from_rational(P2, 1, 1)], P2)
    assert not is_uniformly_separated(pair, 1)  # both lie in the scale-1 ball at 0
    assert is_uniformly_separated(pair, 0)


def test_separated_decomposition_doubled_section():
    sec = section(P2, 2, 0)
    lam = PointSet.group(sec + sec, P2)
    parts = separated_decomposition(lam, 0, 2)
    assert 0 < len(parts) <= 2 * 2  # p * N_n with N_n = 2
    merged = sorted(pt.text() for part in parts for pt in part.points.points)
    assert merged == sorted(pt.text() for pt in lam.points)
    for part in parts:
        assert is_uniformly_separated(part.points, 0)


def test_separated_decomposition_separated_input():
    lam = PointSet.group(section(P3, 2, 0), P3)
    parts = separated_decomposition(lam, 0, 2)
    assert len(parts) <= 3
    assert all(part.label == 1 for part in parts)
    assert separated_decomposition(PointSet.group((), P3), 0, 2) == []


def test_separated_decomposition_properties_random():
    rng = SplitMix64(33)
    for i in range(12):
        params = (P2, P3, M2)[i % 3]
        lam = random_point_set(params, rng)
        scale = i % 2
        parts = separated_decomposition(lam, scale, 3)
        cap = finite_density_check(lam, scale, 3).max_per_ball
        assert len(parts) <= params.p * cap
        merged = sorted(pt.text() for part in parts for pt in part.points.points)
        assert merged == sorted(pt.text() for pt in lam.points)
        for part in parts:
            assert is_uniformly_separated(part.points, scale)


def test_separated_decomposition_rejects_phase():
    lam = PointSet.phase([(GroupElement.zero(P2), GroupElement.zero(P2))], P2)
    with pytest.raises(ValueError):
        separated_decomposition(lam, 0, 1)


def test_finite_density_check_section():
    lam = PointSet.group(section(P2, 4, 0), P2)
    rep = finite_density_check(lam, 0, 4)
    assert rep.max_per_ball == 1
    for m, measured, bound in rep.rows:
        assert measured == 2**m
        assert bound == 2 ** (m + 1)
    assert rep.all_within


def test_finite_density_check_adversarial():
    # every point in a single fine ball still obeys the propagated cap
    lam = PointSet.group([GroupElement.zero(P2)] * 16, P2)
    rep = finite_density_check(lam, 0, 3)
    assert rep.max_per_ball == 16
    assert rep.all_within
    single = finite_density_check(PointSet.group([GroupElement.one(P3)], P3), 0, 2)
    assert single.max_per_ball == 1 and single.all_within


def test_finite_density_check_phase_modulus():
    pts = section(P2, 1, -1)
    lam = PointSet.phase(tuple((x, xi) for x in pts for xi in pts), P2)
    rep = finite_density_check(lam, 0, 1)
    assert rep.max_per_ball == 4
    # phase-space modulus is p**2 per scale step
    assert rep.rows[0][2] == (2**2) ** 2 * 4


def test_union_of_decomposition_equals_original():
    rng = SplitMix64(34)
    lam = random_point_set(P2, rng)
    parts = [part.points for part in separated_decomposition(lam, 0, 3)]
    union = PointSet.group(tuple(pt for part in parts for pt in part.points), P2)
    assert sorted(pt.text() for pt in union.points) == sorted(pt.text() for pt in lam.points)
    assert density_profile(union, (0, 3), 3).rows == density_profile(lam, (0, 3), 3).rows


def test_automorphism_invariance():
    lam = PointSet.group(section(P2, 4, 0), P2)
    report = automorphism_invariance_check(lam, 2, (0, 2), 4)
    assert report.all_equal
    for row in report.rows:
        assert row.fine_scale == 2 * row.coarse_scale
        assert row.ratio_under_a == 1 == row.ratio_under_b

    singleton = PointSet.group([GroupElement.zero(P3)], P3)
    rep = automorphism_invariance_check(singleton, 2, (0, 1), 2)
    assert rep.all_equal
    assert rep.rows[1].ratio_under_a == Fraction(1, 9)  # p**(-2n) at coarse scale 1

    rng = SplitMix64(35)
    for params in (P2, M2):
        rep = automorphism_invariance_check(random_point_set(params, rng), 2, (0, 1), 3)
        assert rep.all_equal


def test_automorphism_invariance_validation():
    lam = PointSet.group([GroupElement.zero(P2)], P2)
    with pytest.raises(ValueError):
        automorphism_invariance_check(lam, 0, (0, 1), 2)
    with pytest.raises(ValueError):
        automorphism_invariance_check(lam, 3, (0, 1), 2)  # 3*1 > region


def test_profile_table_and_json():
    lam = PointSet.group(section(P2, 2, 0), P2)
    prof = density_profile(lam, (0, 2), 2)
    table = prof.table()
    assert table.splitlines()[0].startswith("n  max_count")
    assert "1/1" in table
    doc = prof.to_json_dict()
    assert doc["rows"][0]["upper_ratio"] == "1/1"
    assert doc["region"] == 2


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet.group([GroupElement.zero(P2), GroupElement.zero(P3)], P2)
    with pytest.raises(ValueError):
        PointSet.group([GroupElement.zero(P3)], P2)
    with pytest.raises(ValueError):
        PointSet.phase([(GroupElement.zero(P2), GroupElement.zero(P3))], P2)
    with pytest.raises(ValueError):
        PointSet("weird", (), P2)
    with pytest.raises(TypeError):
        PointSet.group([GroupElement.zero(P2)])  # params is required, never inferred


# -- differential tests against the GroupElement oracle ---------------------------------

M3 = GroupParams(3, MODULAR)


def ref_buckets(lam, n):
    """The ball of every point, keyed by its canonical coset representative(s)."""
    out = {}
    for i, pt in enumerate(lam.points):
        key = coset_rep(pt, n) if lam.ambient == "group" else tuple(coset_rep(c, n) for c in pt)
        out.setdefault(key, []).append(i)
    return out


def ref_counts(lam, n, region):
    counts = [len(v) for v in ref_buckets(lam, n).values()]
    balls = lam.params.p ** ((region - n) * lam.dimension_factor)
    low = min(counts) if counts and len(counts) >= balls else 0
    return max(counts, default=0), low


def ref_decomposition(lam, n, region):
    """(label, c0 index, point texts) per part, from exact group arithmetic.

    The balls are taken in the order of their section members c (the position
    anchored_int(c, width)); the C0 index is that of c's top digit,
    c - coset_rep(c, 1), in the canonical section of AH / H.
    """
    width = region - n
    parts = {}
    for key, positions in sorted(
        ref_buckets(lam, n).items(), key=lambda kv: anchored_int(kv[0].automorphism(-n), width)
    ):
        c = key.automorphism(-n)
        ci = anchored_int(c - coset_rep(c, 1), 1) if width >= 1 else 0
        for j, pos in enumerate(positions, start=1):
            parts.setdefault((j, ci), []).append(pos)
    return [(j, ci, [lam.points[i].text() for i in sorted(parts[(j, ci)])])
            for j, ci in sorted(parts)]


def random_element(params, rng, region, digits):
    """Element of A^region H with digits up to exponent -region + digits - 1."""
    p = params.p
    if params.mode == CARRY:
        num = rng.next_below(2 * p**digits) - p**digits  # negative numerators too
        return GroupElement.from_rational(params, num, region)
    return GroupElement.from_coeffs(
        params, {e - region: rng.next_below(p) for e in range(digits)}
    )


def random_lambda(params, ambient, rng, region, digits, size):
    def draw():
        if ambient == "group":
            return random_element(params, rng, region, digits)
        return (random_element(params, rng, region, digits),
                random_element(params, rng, region, digits))

    pts = []
    for _ in range(size):
        pts.append(pts[rng.next_below(len(pts))] if pts and rng.next_below(4) == 0 else draw())
    return PointSet(ambient, tuple(pts), params)


DIFF_CASES = [
    (seed, params, ambient, region)
    for seed, (params, ambient, region) in enumerate(
        (params, ambient, region)
        for params in (P2, P3, M2, M3)
        for ambient in ("group", "phase")
        for region in (-1, 0, 2)
    )
]


@pytest.mark.parametrize("seed,params,ambient,region", DIFF_CASES)
def test_integer_keys_match_coset_oracle(seed, params, ambient, region):
    rng = SplitMix64(100 + seed)
    digits = 4 if ambient == "group" else 3
    lam = random_lambda(params, ambient, rng, region, digits, 40)
    n_lo = -region - 3  # reaches scales below -region
    for n in range(n_lo, region + 2):
        want = sorted(ref_buckets(lam, n).values())
        assert sorted(lam.buckets(n).values()) == want
        assert is_uniformly_separated(lam, n) == all(len(v) == 1 for v in want)
    prof = density_profile(lam, (n_lo, region), region)
    assert [(r.max_count, r.min_count) for r in prof.rows] == [
        ref_counts(lam, n, region) for n in range(n_lo, region + 1)
    ]
    rep = finite_density_check(lam, n_lo, region)
    assert rep.max_per_ball == ref_counts(lam, n_lo, region)[0]
    assert [row[1] for row in rep.rows] == [
        ref_counts(lam, m, region)[0] for m in range(n_lo + 1, region + 1)
    ]
    inv = automorphism_invariance_check(lam, 2, (n_lo // 2, region // 2), region)
    assert [(row.max_count, row.min_count) for row in inv.rows] == [
        ref_counts(lam, 2 * j, region) for j in range(n_lo // 2, region // 2 + 1)
    ]
    if ambient == "group":
        for n in range(n_lo, region + 1):
            got = [(part.label, part.c0_index, [pt.text() for pt in part.points.points])
                   for part in separated_decomposition(lam, n, region)]
            assert got == ref_decomposition(lam, n, region)


@pytest.mark.parametrize("params", (P2, P3, M2, M3))
def test_union_parts_with_different_finest_digits(params):
    # one part uses digits down to exponent -3, the other only integers: per-set
    # anchors would disagree, so counts add up only under the shared region anchor
    rng = SplitMix64(36 + params.p)
    fine = random_lambda(params, "group", rng, 3, 5, 30)
    coarse = random_lambda(params, "group", rng, 0, 2, 30)
    merged = PointSet.group(fine.points + coarse.points, params)
    for n in range(-3, 4):
        assert Counter(merged.ball_keys(n, 3)) == (
            Counter(fine.ball_keys(n, 3)) + Counter(coarse.ball_keys(n, 3))
        )
    prof = density_profile(merged, (-3, 3), 3)
    assert [(r.max_count, r.min_count) for r in prof.rows] == [
        ref_counts(merged, n, 3) for n in range(-3, 4)
    ]


def test_exact_core_imports_no_numpy():
    # localfield, geometry and density are pure Python, and importing them loads no numpy
    code = ("import sys, padicgabor.density, padicgabor.geometry, padicgabor.localfield; "
            "sys.exit('numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(padicgabor.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
