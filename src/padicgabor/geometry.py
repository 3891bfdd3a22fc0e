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


def section(params: GroupParams, outer: int, inner: int) -> tuple[GroupElement, ...]:
    """The canonical section of A^outer H / A^inner H, p**(outer-inner) members.

    Member a is a * p**-outer for a = 0 .. p**(outer-inner) - 1, in that order,
    so anchored_int(member, outer) is its position; in modular mode these are
    all polynomials supported on exponents [-outer, -inner), with the digit at
    exponent -outer varying fastest.
    """
    if outer < inner:
        raise ValueError(f"outer scale {outer} must be >= inner scale {inner}")
    count = params.p ** (outer - inner)
    return tuple(GroupElement.from_rational(params, a, outer) for a in range(count))
