"""Counting-based density of point sets with respect to the scaling maps.

A point set is a finite multiset in the group (ambient ``group``) or in the
time-frequency plane (ambient ``phase``).  At scale n the plane is tiled by
balls of measure p**n (group) or p**2n (phase); a density profile records,
per scale, the largest and smallest number of points per ball together with
the exact rational ratios count / measure.

Within a region A^R H the scale-n ball of x is keyed by the exact integer
x*p^R mod p^(R-n), which is the index of its coset in the canonical section
of A^R H / A^n H.  Each point set computes x*p^R once per coordinate, so a
scale costs one ``mod`` per point and one ``Counter``; a phase point's key
is k_x + p^(R-n) * k_xi.

The maximum is taken over all balls of the ambient space (balls missing the
set contribute 0 only to the minimum side).  Because any finite set makes the
global minimum zero, the minimum is taken over the balls tiling a declared
region A^N H (componentwise for phase points); the asymptotic definition this
mirrors takes a limit that no finite computation reaches, so consumers should
read the rows as finite-scale surrogates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .geometry import Ball, PhaseBall, anchored_int
from .localfield import GroupParams

GROUP = "group"
PHASE = "phase"


class InvariantViolation(RuntimeError):
    """An exact identity the implementation guarantees failed to hold."""


@dataclass(frozen=True)
class PointSet:
    """Finite multiset of group or phase-space points; order is significant."""

    ambient: str
    points: tuple
    params: GroupParams = None
    _ints: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ambient not in (GROUP, PHASE):
            raise ValueError(f"ambient must be {GROUP!r} or {PHASE!r}")
        object.__setattr__(self, "points", tuple(self.points))
        params = self.params
        for pt in self.points:
            pp = pt.params if self.ambient == GROUP else pt[0].params
            if params is None:
                params = pp
            elif params != pp:
                raise ValueError("all points must share one GroupParams")
            if self.ambient == PHASE and pt[1].params != pp:
                raise ValueError("phase points must pair elements of one group")
        object.__setattr__(self, "params", params)

    @staticmethod
    def group(points, params: GroupParams = None) -> "PointSet":
        return PointSet(GROUP, tuple(points), params)

    @staticmethod
    def phase(points, params: GroupParams = None) -> "PointSet":
        return PointSet(PHASE, tuple(points), params)

    def __len__(self) -> int:
        return len(self.points)

    def _coords(self, pt) -> tuple:
        return (pt,) if self.ambient == GROUP else pt

    @cached_property
    def _finest(self) -> int | None:
        """Least R with every coordinate in A^R H; None when all coordinates are zero."""
        vals = [c.valuation() for pt in self.points for c in self._coords(pt) if not c.is_zero()]
        return -min(vals) if vals else None

    def ball_keys(self, n: int, region: int) -> list[int]:
        """Scale-n ball key of every point, in order: x*p^region mod p^(region-n).

        Keys of point sets in one region share the anchor and compare directly.
        """
        if not self.points:
            return []
        ints = self._ints.get(region)
        if ints is None:
            self.require_in_region(region)
            ints = tuple(
                tuple(anchored_int(c, region) for c in self._coords(pt)) for pt in self.points
            )
            self._ints[region] = ints
        q = self.params.p ** max(region - n, 0)
        if self.ambient == GROUP:
            return [a % q for (a,) in ints]
        return [a % q + q * (b % q) for a, b in ints]

    def buckets(self, n: int) -> dict:
        """Map ball key -> list of point positions, at scale n."""
        out: dict = {}
        for i, key in enumerate(self.ball_keys(n, self._finest or 0)):
            out.setdefault(key, []).append(i)
        return out

    def _point_text(self, pt) -> str:
        if self.ambient == GROUP:
            return pt.text()
        return f"({pt[0].text()}, {pt[1].text()})"

    def require_in_region(self, region: int) -> None:
        """Every coordinate must lie in A^region H; names the first offender."""
        if self._finest is None or self._finest <= region:
            return
        for pt in self.points:
            if any(c.valuation() < -region for c in self._coords(pt)):
                raise ValueError(
                    f"point {self._point_text(pt)} lies outside the region A^{region}H"
                )

    @property
    def dimension_factor(self) -> int:
        """Balls at scale n have measure p**(factor*n): 1 for group, 2 for phase."""
        return 1 if self.ambient == GROUP else 2


@dataclass(frozen=True)
class ProfileRow:
    n: int
    max_count: int
    min_count: int
    upper_ratio: Fraction
    lower_ratio: Fraction


@dataclass(frozen=True)
class DensityProfile:
    ambient: str
    region: int
    rows: tuple[ProfileRow, ...]

    def table(self) -> str:
        header = "n  max_count  min_count  upper_ratio  lower_ratio"
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.n}  {r.max_count}  {r.min_count}  "
                f"{r.upper_ratio.numerator}/{r.upper_ratio.denominator}  "
                f"{r.lower_ratio.numerator}/{r.lower_ratio.denominator}"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "ambient": self.ambient,
            "region": self.region,
            "rows": [
                {
                    "n": r.n,
                    "max_count": r.max_count,
                    "min_count": r.min_count,
                    "upper_ratio": f"{r.upper_ratio.numerator}/{r.upper_ratio.denominator}",
                    "lower_ratio": f"{r.lower_ratio.numerator}/{r.lower_ratio.denominator}",
                }
                for r in self.rows
            ],
        }


def count_in_ball(lam: PointSet, ball) -> int:
    """Multiset count of points of lam in the given ball."""
    if isinstance(ball, Ball):
        if lam.ambient != GROUP:
            raise ValueError("group ball applied to phase-space point set")
        return sum(1 for pt in lam.points if ball.contains(pt))
    if isinstance(ball, PhaseBall):
        if lam.ambient != PHASE:
            raise ValueError("phase ball applied to group point set")
        return sum(1 for pt in lam.points if ball.contains(pt[0], pt[1]))
    raise TypeError(f"not a ball: {ball!r}")


def _scale_counts(lam: PointSet, n: int, region: int) -> tuple[int, int]:
    counts = Counter(lam.ball_keys(n, region)).values()
    max_count = max(counts, default=0)
    d = lam.dimension_factor
    total_balls = lam.params.p ** ((region - n) * d) if lam.params else 0
    if len(counts) < total_balls or not counts:
        min_count = 0
    else:
        min_count = min(counts)
    return max_count, min_count


def density_profile(lam: PointSet, n_range: tuple[int, int], region: int) -> DensityProfile:
    """Finite-scale density rows for n_lo <= n <= n_hi within A^region H."""
    n_lo, n_hi = n_range
    if n_hi > region:
        raise ValueError(f"scale range top {n_hi} exceeds region {region}")
    if lam.params is None and len(lam) == 0:
        raise ValueError("empty point set without params; pass params= to PointSet")
    lam.require_in_region(region)
    p = lam.params.p
    d = lam.dimension_factor
    rows = []
    for n in range(n_lo, n_hi + 1):
        max_count, min_count = _scale_counts(lam, n, region)
        measure = Fraction(p) ** (d * n)
        rows.append(
            ProfileRow(n, max_count, min_count, Fraction(max_count) / measure,
                       Fraction(min_count) / measure)
        )
    return DensityProfile(lam.ambient, region, tuple(rows))


def is_uniformly_separated(lam: PointSet, n: int) -> bool:
    """True iff every scale-n ball holds at most one point (with multiplicity)."""
    return len(lam.buckets(n)) == len(lam)


@dataclass(frozen=True)
class DecompositionPart:
    label: int
    c0_index: int
    points: PointSet


def separated_decomposition(lam: PointSet, n: int, region: int) -> list[DecompositionPart]:
    """Split lam into uniformly separated parts indexed by (label j, C0 member).

    Points of each scale-n ball are labeled 1..r in input order; part (j, c0)
    collects the j-th point of every ball whose section representative has
    C0-component c0, the top digit of the ball key.  The parts are disjoint
    sub-multisets whose union is lam, each is uniformly separated at scale n,
    and there are at most p * N_n of them where N_n is the maximal per-ball
    count.
    """
    if lam.ambient != GROUP:
        raise ValueError("separated decomposition is defined for group point sets")
    if not lam.points:
        return []
    if n > region:
        raise ValueError(f"scale {n} exceeds region {region}")
    p, q = lam.params.p, lam.params.p ** (region - n)
    seen: Counter = Counter()
    parts: dict[tuple[int, int], list[int]] = {}
    for pos, key in enumerate(lam.ball_keys(n, region)):
        seen[key] += 1
        parts.setdefault((seen[key], key * p // q), []).append(pos)  # c0 = top digit
    return [
        DecompositionPart(j, ci, PointSet.group(tuple(lam.points[i] for i in parts[j, ci]),
                                                lam.params))
        for j, ci in sorted(parts)
    ]


@dataclass(frozen=True)
class FiniteDensityReport:
    n: int
    max_per_ball: int
    rows: tuple[tuple[int, int, int], ...]  # (m, measured max, bound)

    @property
    def all_within(self) -> bool:
        return all(measured <= bound for _, measured, bound in self.rows)


def finite_density_check(lam: PointSet, n: int, region: int) -> FiniteDensityReport:
    """Per-ball cap N_n at scale n, and the propagated caps at coarser scales.

    For m > n each scale-m ball splits into p**(d(m-n)) scale-n balls, so the
    count per scale-m ball is at most |A|**(d(m-n+1)) * N_n where d is 1 for
    group sets and 2 for phase-space sets.
    """
    if n > region:
        raise ValueError(f"scale {n} exceeds region {region}")
    lam.require_in_region(region)
    max_n, _ = _scale_counts(lam, n, region)
    d = lam.dimension_factor
    modulus = lam.params.p ** d if lam.params else 1
    rows = []
    for m in range(n + 1, region + 1):
        measured, _ = _scale_counts(lam, m, region)
        bound = modulus ** (m - n + 1) * max_n
        rows.append((m, measured, bound))
    report = FiniteDensityReport(n, max_n, tuple(rows))
    if not report.all_within:
        raise InvariantViolation("scale-propagation bound failed")  # unreachable
    return report


def union_profile(lams: list[PointSet], n_range: tuple[int, int], region: int) -> DensityProfile:
    """Profile of the disjoint multiset union, with exact additivity asserted."""
    if not lams:
        raise ValueError("need at least one point set")
    ambient = lams[0].ambient
    params = next((l.params for l in lams if l.params is not None), None)
    for l in lams:
        if l.ambient != ambient:
            raise ValueError("mixed ambients in union")
    merged = PointSet(ambient, tuple(pt for l in lams for pt in l.points), params)
    profile = density_profile(merged, n_range, region)
    n_lo, n_hi = n_range
    for n in range(n_lo, n_hi + 1):
        # keys of every part are anchored at the region, so they compare with merged keys
        part_counts = Counter()
        for l in lams:
            part_counts.update(l.ball_keys(n, region))
        if Counter(merged.ball_keys(n, region)) != part_counts:
            raise InvariantViolation(f"per-ball additivity failed at scale {n}")
    return profile


@dataclass(frozen=True)
class InvarianceRow:
    coarse_scale: int      # scale under B = A**r
    fine_scale: int        # the same balls as seen by A
    max_count: int
    min_count: int
    ratio_under_a: Fraction
    ratio_under_b: Fraction

    @property
    def equal(self) -> bool:
        return self.ratio_under_a == self.ratio_under_b


@dataclass(frozen=True)
class InvarianceReport:
    r: int
    rows: tuple[InvarianceRow, ...]

    @property
    def all_equal(self) -> bool:
        return all(row.equal for row in self.rows)


def automorphism_invariance_check(
    lam: PointSet, r: int, n_range: tuple[int, int], region: int
) -> InvarianceReport:
    """Compare density ratios under A with those under B = A**r.

    A scale-j ball of B is the scale-(r j) ball of A, and B scales measure by
    p**r per step, so the ratio sequences are subsequences of each other; the
    report recomputes both normalizations and asserts row-by-row equality.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    lam.require_in_region(region)
    j_lo, j_hi = n_range
    if j_hi * r > region:
        raise ValueError(f"B-scale top {j_hi} needs region >= {j_hi * r}")
    p = lam.params.p
    d = lam.dimension_factor
    rows = []
    for j in range(j_lo, j_hi + 1):
        max_count, min_count = _scale_counts(lam, r * j, region)
        ratio_a = Fraction(max_count) / Fraction(p) ** (d * r * j)
        ratio_b = Fraction(max_count) / Fraction(p**r) ** (d * j)
        rows.append(InvarianceRow(j, r * j, max_count, min_count, ratio_a, ratio_b))
    report = InvarianceReport(r, tuple(rows))
    if not report.all_equal:
        raise InvariantViolation("automorphism invariance rows disagree")  # unreachable
    return report
