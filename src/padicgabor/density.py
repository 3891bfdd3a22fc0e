"""Counting-based density of point sets with respect to the scaling maps.

A point set is a finite multiset in the group (ambient ``group``) or in the
time-frequency plane (ambient ``phase``).  At scale n the plane is tiled by
balls of measure p**n (group) or p**2n (phase); a density profile records,
per scale, the largest and smallest number of points per ball together with
the exact rational ratios count / measure.

A point set holds each coordinate x as its key, the integer x*p^F at one
anchor F with every coordinate in A^F H; a GroupElement is made only when a
caller reads ``points``, and a point's text comes from (key, F).  In a
region A^R H the scale-n ball of x is keyed by x*p^R mod p^(R-n), the index
of its coset in the canonical section of A^R H / A^n H; a phase point's
ball key is k_x + p^(R-n) * k_xi.  Keys in one region share the anchor, so
a union is profiled as the concatenation of its parts' keys.

Which balls a point set occupies, and how many points each holds, depend
on the scale alone.  So each scale is counted once per point set, at its
anchor F, and a declared region only decides the minimum.  The balls nest:
a scale-n ball's key is the finer key reduced mod p^(F-n) (per axis for
phase keys), so one ``Counter`` counts the first scale asked for, and every
coarser scale is a fold of the last count, one step per distinct ball
rather than one per point.  Of each scale the (max, min, distinct) triple
over the occupied balls is kept, and of the counts themselves only the last.

The maximum is taken over all balls of the ambient space (balls missing the
set contribute 0 only to the minimum side).  Because any finite set makes the
global minimum zero, the minimum is taken over the balls tiling a declared
region A^N H (componentwise for phase points); the asymptotic definition this
mirrors takes a limit that no finite computation reaches, so consumers should
read the rows as finite-scale surrogates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .localfield import GroupElement, GroupParams, rational_text

GROUP = "group"
PHASE = "phase"


class InvariantViolation(RuntimeError):
    """An exact identity the implementation guarantees failed to hold."""


@dataclass(frozen=True)
class PointSet:
    """Finite multiset of group or phase-space points of one group; order is significant.

    A group point x is held as its key x*p^anchor, a phase point (x, xi) as its
    pair of keys; any anchor with every coordinate in A^anchor H serves.  Equality
    and hashing read the keys at the least such anchor (0 if every key is 0), so
    they do not depend on the anchor a set was made at."""

    ambient: str
    params: GroupParams
    anchor: int
    keys: tuple
    # n -> (max, min, distinct) over the occupied balls, and the last (n, counts) to fold
    _counts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ambient not in (GROUP, PHASE):
            raise ValueError(f"ambient must be {GROUP!r} or {PHASE!r}")

    @staticmethod
    def group(points, params: GroupParams) -> "PointSet":
        return PointSet._elements(GROUP, tuple(points), params)

    @staticmethod
    def phase(points, params: GroupParams) -> "PointSet":
        return PointSet._elements(PHASE, tuple(c for x, xi in points for c in (x, xi)), params)

    @staticmethod
    def _elements(ambient: str, flat: tuple, params: GroupParams) -> "PointSet":
        # points mostly share the params object itself, which spares the field compare
        if any(c.params is not params and c.params != params for c in flat):
            raise ValueError("every coordinate of every point must lie in the group of params")
        out = PointSet.rationals(ambient, [(c.num, c.vexp) for c in flat], params)
        vars(out)["points"] = PointSet._pack(ambient, flat)  # already normal, so not rebuilt
        return out

    @staticmethod
    def rationals(ambient: str, coords: list, params: GroupParams) -> "PointSet":
        """Points of coordinates num * p**-vexp, two in a row for phase, at their least anchor."""
        anchor = max((vexp for num, vexp in coords if num), default=0)
        # a zero coordinate is the int 0 at every anchor (p**(anchor - 0) may be a float)
        flat = [num * params.p ** (anchor - vexp) if num else 0 for num, vexp in coords]
        return PointSet(ambient, params, anchor, PointSet._pack(ambient, flat))

    @staticmethod
    def _pack(ambient: str, flat: list) -> tuple:
        return tuple(flat) if ambient == GROUP else tuple(zip(flat[::2], flat[1::2]))

    def _flat(self):
        return self.keys if self.ambient == GROUP else [c for pair in self.keys for c in pair]

    def __len__(self) -> int:
        return len(self.keys)

    @cached_property
    def _normal_form(self) -> tuple:
        divisor, least = math.gcd(*self._flat()), self.anchor
        while divisor and divisor % self.params.p == 0:
            divisor, least = divisor // self.params.p, least - 1
        least = least if divisor else 0
        return self.ambient, self.params, least, self.keys_at(least)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self._normal_form == other._normal_form

    def __hash__(self) -> int:
        return hash(self._normal_form)

    @cached_property
    def points(self) -> tuple:
        """The points as GroupElements (pairs of them for phase), made from the keys; a set
        made from elements keeps those."""
        return self._pack(self.ambient, [GroupElement.from_rational(self.params, c, self.anchor)
                                         for c in self._flat()])

    def keys_at(self, region: int) -> tuple:
        """The keys re-anchored at region; every coordinate must lie in A^region H."""
        d = region - self.anchor
        if d == 0:
            return self.keys
        self.require_in_region(region)
        q = self.params.p ** abs(d)
        return self._pack(self.ambient, [c * q if d > 0 else c // q for c in self._flat()])

    def ball_keys(self, n: int, region: int) -> list[int]:
        """Scale-n ball key of every point, in order: x*p^region mod p^(region-n).

        Keys of point sets in one region share the anchor and compare directly.
        """
        keys = self.keys_at(region)
        q = self.params.p ** max(region - n, 0)
        if self.ambient == GROUP:
            return [a % q for a in keys]
        return [a % q + q * (b % q) for a, b in keys]

    def buckets(self, n: int) -> dict:
        """Map ball key -> list of point positions, at scale n."""
        out: dict = {}
        for i, key in enumerate(self.ball_keys(n, self.anchor)):
            out.setdefault(key, []).append(i)
        return out

    def require_in_region(self, region: int) -> None:
        """Every coordinate must lie in A^region H; names the first offender."""
        if region >= self.anchor:
            return
        q = self.params.p ** (self.anchor - region)  # x in A^region H iff q divides x*p^anchor
        for key in self.keys:
            coords = (key,) if self.ambient == GROUP else key
            if any(c % q for c in coords):
                text = ", ".join(rational_text(self.params, c, self.anchor) for c in coords)
                text = text if self.ambient == GROUP else f"({text})"
                raise ValueError(f"point {text} lies outside the region A^{region}H")

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


def _fold(counts: dict, q: int, qf: int) -> dict:
    """Per-ball counts of keys mod q from those of keys mod qf, where q divides qf.

    A key k_x + qf * k_xi (k_x below qf) goes to k_x % q + q * (k_xi % q), and
    k_x % q is key % q; a key below qf, as every group key is, has k_xi = 0.
    """
    out: dict = {}
    get = out.get
    for key, c in counts.items():
        key = key % q if key < qf else key % q + q * (key // qf % q)
        out[key] = get(key, 0) + c
    return out


def _scale_counts(lam: PointSet, n: int, region: int) -> tuple[int, int, int]:
    """(max, min, distinct) of the per-ball counts at scale n within A^region H.

    Counted once per scale, at the anchor F of the keys: folded from the last
    count when that is of a finer scale, else counted from the ball keys.
    The minimum is 0 unless the occupied balls tile A^region H.
    """
    p = lam.params.p
    memo = lam._counts.get(n)
    if memo is None:
        anchor, last = lam.anchor, lam._last
        if last is not None and last[0] < n:
            counts = _fold(last[1], p ** max(anchor - n, 0), p ** max(anchor - last[0], 0))
        else:
            counts = Counter(lam.ball_keys(n, anchor))
        object.__setattr__(lam, "_last", (n, counts))
        values = counts.values()
        memo = lam._counts[n] = (max(values, default=0), min(values, default=0), len(counts))
    high, low, distinct = memo
    balls = p ** (max(region - n, 0) * lam.dimension_factor)
    return high, low if distinct == balls else 0, distinct


def density_profile(lam: PointSet, n_range: tuple[int, int], region: int) -> DensityProfile:
    """Finite-scale density rows for n_lo <= n <= n_hi within A^region H."""
    n_lo, n_hi = n_range
    if n_hi > region:
        raise ValueError(f"scale range top {n_hi} exceeds region {region}")
    lam.require_in_region(region)
    p = lam.params.p
    d = lam.dimension_factor
    rows = []
    for n in range(n_lo, n_hi + 1):
        max_count, min_count, _ = _scale_counts(lam, n, region)
        measure = Fraction(p) ** (d * n)
        rows.append(
            ProfileRow(n, max_count, min_count, Fraction(max_count) / measure,
                       Fraction(min_count) / measure)
        )
    return DensityProfile(lam.ambient, region, tuple(rows))


def is_uniformly_separated(lam: PointSet, n: int) -> bool:
    """True iff every scale-n ball holds at most one point (with multiplicity)."""
    return _scale_counts(lam, n, n)[2] == len(lam)  # the region decides only the minimum


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
    if not lam.keys:
        return []
    if n > region:
        raise ValueError(f"scale {n} exceeds region {region}")
    p, q = lam.params.p, lam.params.p ** (region - n)
    seen: dict = {}
    parts: dict[int, list[int]] = {}  # j * p + c0 -> keys, c0 the top digit of the ball key
    for point, key in zip(lam.keys, lam.ball_keys(n, region)):
        j = seen[key] = seen.get(key, 0) + 1
        parts.setdefault(j * p + key * p // q, []).append(point)
    return [DecompositionPart(*divmod(jc, p), PointSet(GROUP, lam.params, lam.anchor,
                                                       tuple(parts[jc]))) for jc in sorted(parts)]


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
    max_n = _scale_counts(lam, n, region)[0]
    d = lam.dimension_factor
    modulus = lam.params.p ** d
    rows = []
    for m in range(n + 1, region + 1):
        measured = _scale_counts(lam, m, region)[0]
        bound = modulus ** (m - n + 1) * max_n
        rows.append((m, measured, bound))
    report = FiniteDensityReport(n, max_n, tuple(rows))
    if not report.all_within:
        raise InvariantViolation("scale-propagation bound failed")  # unreachable
    return report


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
        max_count, min_count, _ = _scale_counts(lam, r * j, region)
        ratio_a = Fraction(max_count) / Fraction(p) ** (d * r * j)
        ratio_b = Fraction(max_count) / Fraction(p**r) ** (d * j)
        rows.append(InvarianceRow(j, r * j, max_count, min_count, ratio_a, ratio_b))
    report = InvarianceReport(r, tuple(rows))
    if not report.all_equal:
        raise InvariantViolation("automorphism invariance rows disagree")  # unreachable
    return report
