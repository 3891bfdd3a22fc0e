"""Exact arithmetic in the computable cores of two classic local fields.

Two modes share one element type:

* ``carry`` -- the ring Z[1/p] inside the p-adic numbers.  Addition carries
  between digits: (p-1)*p + 1*p = p**2.
* ``modular`` -- the ring F_p[t, 1/t] inside the Laurent-series field over
  F_p.  Addition is digitwise mod p: (p-1)*t + 1*t = 0.

Both groups are expansible, and a nonzero element is a unit times a power of
p (resp. t), the power being its valuation.  So both modes share one normal
form, ``num * p**-vexp`` with p∤num; in modular mode num >= 0 and its base-p
digits are the Laurent coefficients, p standing for t.  The mode picks only
the ring operations, ``integer``, the text form and the pairing.

Both rings are dense in their completions and closed under +, -, *, so every
coset representative, ball center and time-frequency shift handled by this
package is represented exactly; floating point enters only when a character
value is finally materialized as a complex number.

The scaling automorphism x -> p**-n * x (resp. t**-n * x) is ``automorphism``;
``pairing_phases`` evaluates the self-dual character pairing of one xi with a
sequence of elements as exact rational phases with denominator a power of p,
from the operands' integers and without forming x*xi: one product reduced mod
p**e in carry mode.  In modular mode the digits that can meet are read once a
call, over the union of the pairs' windows (``pairing_phase``, one pair, reads
only its own), and the t**-1 digit is the parity of x's bits under xi's (p = 2)
or one slot of a carry-free product of packed digits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat, zip_longest

CARRY = "carry"
MODULAR = "modular"

INFINITE_VALUATION = math.inf

# digits of a modular text body: CPython's default int-string limit, which
# already caps carry texts through int()
MAX_BODY_DIGITS = 4300


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


def _digits(n: int, p: int) -> list[int]:
    """Base-p digits of n >= 0, least significant first."""
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return out


def _from_digits(digits, p: int) -> int:
    """The integer with these base-p digits, least significant first."""
    n = 0
    for d in reversed(digits):
        n = n * p + d
    return n


def _digit_sum(a: int, b: int, p: int) -> int:
    """Digitwise sum mod p of a, b >= 0: addition in F_p[t] with p standing for t."""
    pairs = zip_longest(_digits(a, p), _digits(b, p), fillvalue=0)
    return _from_digits([(x + y) % p for x, y in pairs], p)


def _digit_product(a: int, b: int, p: int) -> int:
    """Carry-less product of a, b >= 0: multiplication in F_p[t]."""
    da, db = _digits(a, p), _digits(b, p)
    acc = [0] * (len(da) + len(db))
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                acc[i + j] += x * y
    return _from_digits([c % p for c in acc], p)


def _normal(p: int, num: int, vexp: int) -> tuple[int, int]:
    """(num, vexp) of num * p**-vexp with p∤num, or (0, 0): the normal form."""
    while num and num % p == 0:
        num //= p
        vexp -= 1
    return (num, vexp) if num else (0, 0)


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


@dataclass(frozen=True)
class GroupElement:
    """Element of Z[1/p] (carry) or F_p[t,1/t] (modular), in normal form.

    Value num * p**-vexp (modular: p stands for t), so the valuation is -vexp.
    Zero is num=0, vexp=0; any other element has p∤num and any integer vexp.
    Modular mode has num >= 0, and digit j of num in base p is the coefficient
    at exponent j - vexp.  Equality and hashing are structural, which matches
    value equality because the form is unique.
    """

    params: GroupParams
    num: int = 0
    vexp: int = 0

    def __post_init__(self):
        num, p = self.num, self.params.p
        if num % p == 0 and (num or self.vexp) or num < 0 and self.params.mode == MODULAR:
            raise ValueError(f"({num}, {self.vexp}) is not a normal form over {self.params}; "
                             f"GroupElement.from_rational normalizes")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(params: GroupParams) -> "GroupElement":
        return GroupElement(params)

    @staticmethod
    def one(params: GroupParams) -> "GroupElement":
        return GroupElement(params, num=1)

    @staticmethod
    def from_rational(params: GroupParams, num: int, vexp: int = 0) -> "GroupElement":
        """The element num * p**-vexp (num >= 0 in modular mode), normalized."""
        return GroupElement(params, *_normal(params.p, num, vexp))

    @staticmethod
    def from_coeffs(params: GroupParams, coeffs) -> "GroupElement":
        """Modular-mode element from an exponent -> digit mapping (or pairs)."""
        if params.mode != MODULAR:
            raise ValueError("from_coeffs applies to modular mode only")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict[int, int] = {}
        for e, d in items:
            acc[e] = acc.get(e, 0) + d
        if not acc:
            return GroupElement(params)
        lo, p = min(acc), params.p
        digits = [acc.get(e, 0) % p for e in range(lo, max(acc) + 1)]
        return GroupElement.from_rational(params, _from_digits(digits, p), -lo)

    @staticmethod
    def integer(params: GroupParams, n: int) -> "GroupElement":
        """Embed an ordinary integer: n itself (carry) or n mod p times t**0."""
        if params.mode == MODULAR:
            n %= params.p
        return GroupElement.from_rational(params, n)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num == 0

    def valuation(self):
        """Largest r with x in p**r Z_p (resp. lowest exponent); +inf at zero."""
        return -self.vexp if self.num else INFINITE_VALUATION

    def as_fraction(self) -> Fraction:
        if self.params.mode != CARRY:
            raise ValueError("as_fraction applies to carry mode only")
        return self.num * Fraction(self.params.p) ** -self.vexp

    def digit(self, e: int) -> int:
        """Digit at exponent e.  Carry mode requires num >= 0 (finite expansion)."""
        if self.num < 0:
            raise ValueError("digits of negative carry elements are not finitely supported")
        j = e + self.vexp
        return self.num // self.params.p**j % self.params.p if j >= 0 else 0

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "GroupElement") -> None:
        if self.params != other.params:
            raise ParamMismatchError(f"mismatched params: {self.params} vs {other.params}")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        if self.is_zero() or other.is_zero():  # zero's vexp 0 would need p**|vexp| for nothing
            return other if self.is_zero() else self
        p = self.params.p
        fine, coarse = (self, other) if self.vexp >= other.vexp else (other, self)
        q = p ** (fine.vexp - coarse.vexp)
        if self.params.mode == CARRY:
            num = fine.num + q * coarse.num
        else:
            # coarse digits start at place q, where only the high part of fine meets them
            num = fine.num % q + q * _digit_sum(fine.num // q, coarse.num, p)
        return GroupElement.from_rational(self.params, num, fine.vexp)

    def __neg__(self) -> "GroupElement":
        if self.params.mode == CARRY:
            return GroupElement(self.params, num=-self.num, vexp=self.vexp)
        p = self.params.p
        num = _from_digits([-d % p for d in _digits(self.num, p)], p)
        return GroupElement(self.params, num=num, vexp=self.vexp)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        if self.params.mode == CARRY:
            num = self.num * other.num
        else:
            num = _digit_product(self.num, other.num, self.params.p)
        return GroupElement.from_rational(self.params, num, self.vexp + other.vexp)

    def automorphism(self, n: int) -> "GroupElement":
        """A**n x = p**-n x (carry) or t**-n x (modular); shifts valuation by -n."""
        if self.is_zero():
            return self
        return GroupElement(self.params, num=self.num, vexp=self.vexp + n)

    # -- text form -----------------------------------------------------------

    def text(self) -> str:
        """Round-tripping text form: `num/p^vexp` or `[lo]digits` (little-endian)."""
        return rational_text(self.params, self.num, self.vexp)

    def __str__(self) -> str:
        return self.text()


def rational_text(params: GroupParams, num: int, vexp: int) -> str:
    """The bytes of GroupElement.from_rational(params, num, vexp).text(), with no element."""
    return rational_texts(params, (num,), vexp)[0]


def rational_texts(params: GroupParams, keys, anchor: int) -> list[str]:
    """[rational_text(params, c, anchor) for c in keys], keys a sequence.  The keys p does not
    divide are in normal form and share one head or tail; the others take one more round at
    anchor - 1, until only zeros are left."""
    p = params.p
    if params.mode == CARRY:
        if anchor <= 0:  # integers
            q = p**-anchor
            return [str(c * q) for c in keys]
        tail = f"/{p}^{anchor}"
        texts = [f"{c}{tail}" if c % p else None for c in keys]
    elif p == 2:  # the binary text reversed, with no loop per digit
        head = f"[{-anchor}]"
        texts = [head + f"{c:b}"[::-1] if c & 1 else None for c in keys]
    else:
        head, sep = f"[{-anchor}]", "" if p <= 10 else ","
        texts = [head + sep.join(map(str, _digits(c, p))) if c % p else None for c in keys]
    if None not in texts:
        return texts
    rest = [c // p for c in keys if not c % p]
    rest = iter(rational_texts(params, rest, anchor - 1) if any(rest) else
                repeat("0" if params.mode == CARRY else "[0]0"))
    return [t or next(rest) for t in texts]


def parse_rational(params: GroupParams, text: str) -> tuple[int, int]:
    """The normal form (num, vexp) a text names; a modular body has <= MAX_BODY_DIGITS digits."""
    if not isinstance(text, str):
        raise ValueError(f"element text must be a string, got {text!r}")
    text = text.strip()
    if params.mode == CARRY:
        num_s, slash, den_s = text.partition("/")
        if slash:
            base_s, _, exp_s = den_s.partition("^")
            base = int(base_s)
            if base != params.p:
                raise ValueError(f"denominator base {base} != p = {params.p}")
            vexp = int(exp_s) if exp_s else 1
            if vexp < 0:
                raise ValueError(f"carry exponent in {text!r} must be >= 0 (num/p^vexp)")
            return _normal(params.p, int(num_s), vexp)
        return _normal(params.p, int(text), 0)
    if not text.startswith("["):
        raise ValueError(f"modular element must look like '[lo]digits', got {text!r:.80}")
    close = text.index("]")
    lo = int(text[1:close])
    body = text[close + 1:]
    digit_strs = body.split(",") if "," in body else list(body)
    if len(digit_strs) > MAX_BODY_DIGITS:
        raise ValueError(f"modular element {text!r:.40} has {len(digit_strs)} digits, "
                         f"more than the {MAX_BODY_DIGITS} allowed")
    digits = [int(d) for d in digit_strs]
    if any(not 0 <= d < params.p for d in digits):
        raise ValueError(f"digits of {text!r:.80} must lie in 0..{params.p - 1}")
    return _normal(params.p, _from_digits(digits, params.p), -lo)


def parse_rationals(params: GroupParams, texts) -> list[tuple[int, int]]:
    """[parse_rational(params, t) for t in texts], the common shapes read directly: a carry
    num/p^e, p^e read once per distinct tail, and for p <= 10 a modular [lo]body of the digits
    0..p-1, int(body[::-1], p).  Any other text, or one that fails, goes to parse_rational, so
    each result and each message is its own."""
    p, carry, digits = params.p, params.mode == CARRY, "0123456789"[:params.p]
    vexps, out = {}, []  # carry: the vexp a tail after "/" names, None for a tail not p^e
    for t in texts:
        num = None
        if type(t) is str:
            try:
                if carry:
                    num_s, slash, tail = t.partition("/")
                    vexp = vexps.get(tail, -1) if slash else 0
                    if vexp == -1:
                        base, _, e = tail.partition("^")
                        vexp = vexps[tail] = int(e) if e.isdecimal() and base == str(p) else None
                    if vexp is not None:
                        num = int(num_s)
                elif p <= 10 and t[:1] == "[":
                    close = t.find("]")  # with no "]", the body keeps the "[" and is refused
                    body = t[close + 1:]
                    if len(body) <= MAX_BODY_DIGITS and not body.strip(digits):
                        num, vexp = int(body[::-1], p), -int(t[1:close])
            except ValueError:  # parse_rational names it
                pass
        if num is None:
            out.append(parse_rational(params, t))
        else:
            out.append((num, vexp) if num % p else _normal(p, num, vexp))
    return out


def parse_element(params: GroupParams, text: str) -> GroupElement:
    """Inverse of GroupElement.text(): the element parse_rational names."""
    return GroupElement.from_rational(params, *parse_rational(params, text))


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


def pairing_phases(xs, xi: GroupElement) -> list[tuple[int, int]]:
    """The exact phase (num, denom_exp) of the self-dual pairing <x, xi> for each x of xs.

    Carry mode: the fractional part {x*xi} reduced to [0,1).  Modular mode:
    (coefficient of t**-1 in x*xi) / p, the residue character.  Bilinear in
    both arguments, exactly.  Read from the operands' integers, as x*xi has
    vexp e = x.vexp + xi.vexp, without forming the product.
    """
    params, b = xi.params, xi.num
    for x in xs:
        if x.params is not params and x.params != params:
            raise ParamMismatchError(f"mismatched params: {x.params} vs {params}")
    p = params.p
    es = [x.vexp + xi.vexp if x.num and b else 0 for x in xs]
    if params.mode == CARRY:  # both nums are prime to p, so their product mod p**e is too
        return [(x.num * b % p**e, e) if e > 0 else (0, 0) for x, e in zip(xs, es)]
    # digit i of x.num meets digit e - 1 - i of b, and a bit length bounds a digit count,
    # so only the digits lo..hi-1 of b can meet those of any x: they are read once a call
    meet = [e - x.num.bit_length() for x, e in zip(xs, es) if e > 0]
    lo, hi = max(0, min(meet, default=0)), min(b.bit_length(), max(es, default=0))
    if hi <= lo:
        return [(0, 0)] * len(es)
    # p = 2 has its own path: the packed one below serves it too, but about 5x slower
    if p == 2:  # t**-1 digit: the parity of x.num's bits under b's, reversed at bit hi-1-j
        rev = int(f"{b >> lo & (1 << hi - lo) - 1:0{hi - lo}b}"[::-1], 2)
        odd = [(x.num >> e - hi & rev if e >= hi else x.num & rev >> hi - e).bit_count() & 1
               for x, e in zip(xs, es)]
        return [(o, o) for o in odd]  # (1, 1) is 1/2, (0, 0) is zero
    # a slot of s bits holds hi - lo digit products with no carry out, so the t**-1
    # coefficient is one slot of one product: slot e - 1 - a_lo - lo, as digit a_lo + i
    # of x.num sits in slot i and digit lo + j of b in slot j (an empty window gives 0)
    s = ((hi - lo) * (p - 1) ** 2).bit_length()
    packed, out = _packed(b, p, lo, hi, s), []
    for x, e in zip(xs, es):
        a_lo, a_hi = max(0, e - hi), min(x.num.bit_length(), e - lo)
        product = _packed(x.num, p, a_lo, a_hi, s) * packed if a_lo < a_hi else 0
        residue = (product >> s * max(0, e - 1 - a_lo - lo) & (1 << s) - 1) % p
        out.append((residue, 1) if residue else (0, 0))
    return out


def _packed(n: int, p: int, lo: int, hi: int, s: int) -> int:
    """Base-p digits lo..hi-1 of n >= 0, digit lo + i in bits s*i onward."""
    return sum(d << s * i for i, d in enumerate(_digits(n // p**lo % p ** (hi - lo), p)))


def pairing_phase(x: GroupElement, xi: GroupElement) -> Phase:
    """Exact phase of the self-dual pairing <x, xi>: pairing_phases of the one x."""
    return Phase(xi.params.p, *pairing_phases((x,), xi)[0])
