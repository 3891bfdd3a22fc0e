"""Exact arithmetic in the computable cores of two classic local fields.

Two modes share one element type:

* ``carry`` -- the ring Z[1/p] inside the p-adic numbers.  Addition carries
  between digits: (p-1)*p + 1*p = p**2.  An element is stored as
  ``num / p**vexp`` with ``vexp == 0 or p does not divide num``.
* ``modular`` -- the ring F_p[t, 1/t] inside the Laurent-series field over
  F_p.  Addition is digitwise mod p: (p-1)*t + 1*t = 0.  An element is a
  sparse map from exponents to nonzero digits.

Both rings are dense in their completions and closed under +, -, *, so every
coset representative, ball center and time-frequency shift handled by this
package is represented exactly; floating point enters only when a character
value is finally materialized as a complex number.

The scaling automorphism x -> p**-n * x (resp. t**-n * x) is ``automorphism``;
``pairing_phase`` evaluates the self-dual character pairing as an exact
rational ``Phase`` with denominator a power of p.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

CARRY = "carry"
MODULAR = "modular"

INFINITE_VALUATION = math.inf


class ParamMismatchError(ValueError):
    """Operands live in different groups (prime or mode differ)."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class GroupParams:
    """Prime p plus the addition convention (carry vs. modular)."""

    p: int
    mode: str = CARRY

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(f"p must be a prime integer, got {self.p!r}")
        if self.mode not in (CARRY, MODULAR):
            raise ValueError(f"mode must be {CARRY!r} or {MODULAR!r}, got {self.mode!r}")

    @property
    def modulus(self) -> int:
        """Haar-measure scaling factor of one application of the automorphism."""
        return self.p


@dataclass(frozen=True)
class GroupElement:
    """Element of Z[1/p] (carry) or F_p[t,1/t] (modular), in canonical form.

    Carry mode: value = num * p**(-vexp), vexp >= 0, and vexp == 0 or p∤num.
    Modular mode: coeffs is a sorted tuple of (exponent, digit) pairs with
    digits in 1..p-1; absent exponents are zero.  Zero is num=0, vexp=0 with
    empty coeffs in both modes.  Equality and hashing are structural, which
    matches value equality because the form is unique.
    """

    params: GroupParams
    num: int = 0
    vexp: int = 0
    coeffs: tuple[tuple[int, int], ...] = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(params: GroupParams) -> "GroupElement":
        return GroupElement(params)

    @staticmethod
    def one(params: GroupParams) -> "GroupElement":
        if params.mode == CARRY:
            return GroupElement(params, num=1, vexp=0)
        return GroupElement(params, coeffs=((0, 1),))

    @staticmethod
    def from_rational(params: GroupParams, num: int, vexp: int = 0) -> "GroupElement":
        """Carry-mode element num / p**vexp, canonicalized."""
        if params.mode != CARRY:
            raise ValueError("from_rational applies to carry mode only")
        if vexp < 0:
            num *= params.p ** (-vexp)
            vexp = 0
        if num == 0:
            return GroupElement(params)
        while vexp > 0 and num % params.p == 0:
            num //= params.p
            vexp -= 1
        return GroupElement(params, num=num, vexp=vexp)

    @staticmethod
    def from_fraction(params: GroupParams, q: Fraction) -> "GroupElement":
        """Carry-mode element from a rational with p-power denominator."""
        den = q.denominator
        vexp = 0
        while den % params.p == 0:
            den //= params.p
            vexp += 1
        if den != 1:
            raise ValueError(f"{q} is not in Z[1/{params.p}]")
        return GroupElement.from_rational(params, q.numerator, vexp)

    @staticmethod
    def from_coeffs(params: GroupParams, coeffs) -> "GroupElement":
        """Modular-mode element from an exponent -> digit mapping."""
        if params.mode != MODULAR:
            raise ValueError("from_coeffs applies to modular mode only")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict[int, int] = {}
        for e, d in items:
            acc[e] = (acc.get(e, 0) + d) % params.p
        clean = tuple(sorted((e, d) for e, d in acc.items() if d != 0))
        return GroupElement(params, coeffs=clean)

    @staticmethod
    def integer(params: GroupParams, n: int) -> "GroupElement":
        """Embed an ordinary integer: n itself (carry) or n mod p times t**0."""
        if params.mode == CARRY:
            return GroupElement.from_rational(params, n, 0)
        return GroupElement.from_coeffs(params, {0: n % params.p})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        if self.params.mode == CARRY:
            return self.num == 0
        return not self.coeffs

    def valuation(self):
        """Largest r with x in p**r Z_p (resp. lowest exponent); +inf at zero."""
        if self.is_zero():
            return INFINITE_VALUATION
        if self.params.mode == CARRY:
            if self.vexp > 0:
                return -self.vexp
            v, n, p = 0, abs(self.num), self.params.p
            while n % p == 0:
                n //= p
                v += 1
            return v
        return self.coeffs[0][0]

    def as_fraction(self) -> Fraction:
        if self.params.mode != CARRY:
            raise ValueError("as_fraction applies to carry mode only")
        return Fraction(self.num, self.params.p ** self.vexp)

    def digit(self, e: int) -> int:
        """Digit at exponent e.  Carry mode requires num >= 0 (finite expansion)."""
        if self.params.mode == MODULAR:
            for exp, d in self.coeffs:
                if exp == e:
                    return d
            return 0
        if self.num < 0:
            raise ValueError("digits of negative carry elements are not finitely supported")
        shifted = e + self.vexp
        if shifted < 0:
            return 0
        return (self.num // self.params.p ** shifted) % self.params.p

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "GroupElement") -> None:
        if self.params != other.params:
            raise ParamMismatchError(f"mismatched params: {self.params} vs {other.params}")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        p = self.params.p
        if self.params.mode == CARRY:
            e = max(self.vexp, other.vexp)
            num = self.num * p ** (e - self.vexp) + other.num * p ** (e - other.vexp)
            return GroupElement.from_rational(self.params, num, e)
        acc = dict(self.coeffs)
        for exp, d in other.coeffs:
            acc[exp] = (acc.get(exp, 0) + d) % p
        return GroupElement.from_coeffs(self.params, acc)

    def __neg__(self) -> "GroupElement":
        if self.params.mode == CARRY:
            return GroupElement(self.params, num=-self.num, vexp=self.vexp)
        p = self.params.p
        return GroupElement.from_coeffs(self.params, {e: p - d for e, d in self.coeffs})

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        if self.params.mode == CARRY:
            return GroupElement.from_rational(
                self.params, self.num * other.num, self.vexp + other.vexp
            )
        acc: dict[int, int] = {}
        for e1, d1 in self.coeffs:
            for e2, d2 in other.coeffs:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + d1 * d2
        return GroupElement.from_coeffs(self.params, acc)

    def automorphism(self, n: int) -> "GroupElement":
        """A**n x = p**-n x (carry) or t**-n x (modular); shifts valuation by -n."""
        if self.is_zero():
            return self
        if self.params.mode == CARRY:
            return GroupElement.from_rational(self.params, self.num, self.vexp + n)
        return GroupElement(self.params, coeffs=tuple((e - n, d) for e, d in self.coeffs))

    # -- text form -----------------------------------------------------------

    def text(self) -> str:
        """Round-tripping text form: `num/p^vexp` or `[lo]digits` (little-endian)."""
        if self.params.mode == CARRY:
            if self.vexp == 0:
                return str(self.num)
            return f"{self.num}/{self.params.p}^{self.vexp}"
        if not self.coeffs:
            return "[0]0"
        lo = self.coeffs[0][0]
        hi = self.coeffs[-1][0]
        digits = [self.digit(e) for e in range(lo, hi + 1)]
        if self.params.p <= 10:
            body = "".join(str(d) for d in digits)
        else:
            body = ",".join(str(d) for d in digits)
        return f"[{lo}]{body}"

    def __str__(self) -> str:
        return self.text()


def parse_element(params: GroupParams, text: str) -> GroupElement:
    """Inverse of GroupElement.text()."""
    text = text.strip()
    if params.mode == CARRY:
        if "/" in text:
            num_s, den_s = text.split("/", 1)
            base_s, _, exp_s = den_s.partition("^")
            base = int(base_s)
            if base != params.p:
                raise ValueError(f"denominator base {base} != p = {params.p}")
            vexp = int(exp_s) if exp_s else 1
            return GroupElement.from_rational(params, int(num_s), vexp)
        return GroupElement.from_rational(params, int(text), 0)
    if not text.startswith("["):
        raise ValueError(f"modular element must look like '[lo]digits', got {text!r}")
    close = text.index("]")
    lo = int(text[1:close])
    body = text[close + 1:]
    digit_strs = body.split(",") if "," in body else list(body)
    digits = [int(d) for d in digit_strs]
    if any(not 0 <= d < params.p for d in digits):
        raise ValueError(f"digits of {text!r} must lie in 0..{params.p - 1}")
    coeffs = {lo + i: d for i, d in enumerate(digits)}
    return GroupElement.from_coeffs(params, coeffs)


@dataclass(frozen=True)
class Phase:
    """Exact character value exp(2*pi*i * num / p**denom_exp), num in [0, p**e).

    Canonical: p∤num unless num == 0, in which case denom_exp == 0.
    """

    p: int
    num: int = 0
    denom_exp: int = 0

    @staticmethod
    def make(p: int, num: int, denom_exp: int) -> "Phase":
        mod = p ** denom_exp
        num %= mod if mod else 1
        if num == 0:
            return Phase(p)
        while denom_exp > 0 and num % p == 0:
            num //= p
            denom_exp -= 1
        return Phase(p, num, denom_exp)

    def is_zero(self) -> bool:
        return self.num == 0

    def fraction(self) -> Fraction:
        return Fraction(self.num, self.p ** self.denom_exp)

    def complex_value(self) -> complex:
        if self.num == 0:
            return 1.0 + 0.0j
        return cmath.exp(2j * math.pi * (self.num / self.p ** self.denom_exp))

    def __add__(self, other: "Phase") -> "Phase":
        if self.p != other.p:
            raise ParamMismatchError("phases with different primes")
        e = max(self.denom_exp, other.denom_exp)
        num = (
            self.num * self.p ** (e - self.denom_exp)
            + other.num * self.p ** (e - other.denom_exp)
        )
        return Phase.make(self.p, num, e)

    def __neg__(self) -> "Phase":
        return Phase.make(self.p, -self.num, self.denom_exp)

    def times(self, n: int) -> "Phase":
        """n-fold sum of the phase, mod 1."""
        return Phase.make(self.p, self.num * n, self.denom_exp)


def pairing_phase(x: GroupElement, xi: GroupElement) -> Phase:
    """Exact phase of the self-dual pairing <x, xi>.

    Carry mode: the fractional part {x*xi} reduced to [0,1).  Modular mode:
    (coefficient of t**-1 in x*xi) / p, the residue character.  Bilinear in
    both arguments, exactly.
    """
    if x.params != xi.params:
        raise ParamMismatchError(f"mismatched params: {x.params} vs {xi.params}")
    p = x.params.p
    z = x * xi
    if x.params.mode == CARRY:
        if z.vexp == 0:
            return Phase(p)
        return Phase.make(p, z.num, z.vexp)
    return Phase.make(p, z.digit(-1), 1)
