"""Membership of balls, coset representatives, ball keys, and canonical sections.

The scale-n ball around x is the coset x + A^n H, of Haar measure p**n under
the normalization m(H) = 1.  A ball is no object of its own: `same_ball`
tests membership, `coset_rep` picks the canonical representative (the digits
of x below exponent -n), and `anchored_int` is the exact integer whose residue
mod p**(R - n) keys the ball inside A^R H.  Sections of the quotients
A^N H / A^n H are always the canonical digit-truncation sections, which makes
every enumeration in the package deterministic and every membership test exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .localfield import GroupElement, GroupParams


def coset_rep(x: GroupElement, n: int) -> GroupElement:
    """Canonical representative of x mod A^n H: the digits at exponents < -n.

    For x = num * p**-vexp that is (num mod p**(vexp - n)) * p**-vexp; in carry
    mode, the unique representative in [0, p**-n).  Idempotent, and
    x - coset_rep(x, n) always has valuation >= -n.
    """
    if x.is_zero() or x.vexp <= n:  # zero's vexp 0 would cost p**-n for nothing
        return GroupElement.zero(x.params)
    return GroupElement.from_rational(x.params, x.num % x.params.p ** (x.vexp - n), x.vexp)


def anchored_int(x: GroupElement, anchor: int) -> int:
    """x * p**anchor as an exact integer, num * p**(anchor - vexp).

    In modular mode p stands for t, so its base-p digits are the coefficients
    of t**anchor * x.  Defined for x in A^anchor H.  Reduced mod p**(anchor - n)
    it is the position of the scale-n ball of x in the canonical section of
    A^anchor H / A^n H.
    """
    if x.is_zero():
        return 0  # in every A^anchor H, where p**(anchor - vexp) may be a float
    return x.num * x.params.p ** (anchor - x.vexp)


def same_ball(x: GroupElement, y: GroupElement, n: int) -> bool:
    """True iff x and y lie in one coset of A^n H, i.e. val(x - y) >= -n."""
    return (x - y).valuation() >= -n


@dataclass(frozen=True)
class Section:
    """Canonical representatives of A^outer H / A^inner H, p**(outer-inner) many.

    Member a is a * p**-outer for a = 0 .. p**(outer-inner) - 1, in that order;
    in modular mode these are all polynomials supported on exponents
    [-outer, -inner), with the digit at exponent -outer varying fastest.
    """

    params: GroupParams
    outer: int
    inner: int
    elements: tuple[GroupElement, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> GroupElement:
        return self.elements[i]

    def index_of(self, c: GroupElement) -> int:
        """Position of a member in the canonical enumeration."""
        return anchored_int(c, self.outer)

    def __str__(self) -> str:
        return "{" + ", ".join(e.text() for e in self.elements) + "}"


def section(params: GroupParams, outer: int, inner: int) -> Section:
    """The canonical section of A^outer H / A^inner H."""
    if outer < inner:
        raise ValueError(f"outer scale {outer} must be >= inner scale {inner}")
    count = params.p ** (outer - inner)
    elems = tuple(GroupElement.from_rational(params, a, outer) for a in range(count))
    return Section(params, outer, inner, elems)


@dataclass(frozen=True)
class SplitSection:
    """Decomposition C = C0 + C1 of the canonical section of A^N H / H.

    C0 is the canonical section of AH / H (the digit at exponent -1, exactly
    p = |A| members) and C1 the canonical section of A^N H / AH (digits below
    exponent -1).  Every member of the original section splits uniquely.
    """

    c0: Section
    c1: Section

    def decompose(self, c: GroupElement) -> tuple[GroupElement, GroupElement]:
        part1 = coset_rep(c, 1)
        return c - part1, part1


def split_section(s: Section) -> SplitSection:
    if s.inner != 0 or s.outer < 1:
        raise ValueError("split_section expects the canonical section of A^N H / H with N >= 1")
    if s != section(s.params, s.outer, 0):
        raise ValueError("split_section expects the canonical (digit-truncation) section")
    return SplitSection(section(s.params, 1, 0), section(s.params, s.outer, 1))
