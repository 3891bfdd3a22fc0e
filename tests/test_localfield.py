"""Exact arithmetic, valuation, dilation and character pairing."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padicgabor.geometry import anchored_int, coset_rep
from padicgabor.localfield import (
    CARRY,
    MAX_BODY_DIGITS,
    MODULAR,
    GroupElement,
    GroupParams,
    ParamMismatchError,
    Phase,
    pairing_phase,
    pairing_phases,
    parse_element,
    parse_rational,
    parse_rationals,
    rational_text,
    rational_texts,
)
from padicgabor.rng import SplitMix64

P2 = GroupParams(2, CARRY)
P3 = GroupParams(3, CARRY)
M2 = GroupParams(2, MODULAR)
M3 = GroupParams(3, MODULAR)

ALL_PARAMS = (P2, P3, M2, M3)


def random_element(params, rng, span=4):
    """Element with digits on exponents in [-span, span), signed in carry mode."""
    if params.mode == CARRY:
        num = rng.next_below(params.p ** (2 * span)) - params.p**span
        return GroupElement.from_rational(params, num, span)
    coeffs = {}
    for e in range(-span, span):
        coeffs[e] = rng.next_below(params.p)
    return GroupElement.from_coeffs(params, coeffs)


def test_params_validation():
    with pytest.raises(ValueError):
        GroupParams(4, CARRY)
    with pytest.raises(ValueError):
        GroupParams(2, "other")
    assert GroupParams(7).mode == CARRY


@pytest.mark.parametrize("params,num,vexp", [
    (P2, 4, 1),  # p divides num: 2, whose normal form is (1, -1)
    (P3, -6, 0),
    (M2, 2, 0),
    (P2, 0, 3),  # zero with vexp != 0
    (M3, 0, -1),
    (M2, -1, 0),  # a negative num in modular mode
    (M3, -5, 2),
])
def test_only_normal_forms_construct(params, num, vexp):
    with pytest.raises(ValueError, match="is not a normal form.*from_rational"):
        GroupElement(params, num, vexp)
    if num >= 0 or params.mode == CARRY:
        x = GroupElement.from_rational(params, num, vexp)
        assert GroupElement(params, x.num, x.vexp) == x


def test_normal_forms_construct():
    for params, num, vexp in ((P2, 0, 0), (P2, -3, 2), (P3, 5, -4), (M2, 1, 0), (M3, 7, 3)):
        x = GroupElement(params, num, vexp)
        assert (x.num, x.vexp) == (num, vexp)
        assert x == GroupElement.from_rational(params, num, vexp)


def test_carry_addition_carries():
    # (p-1)*p + 1*p = p^2, not 0
    for params in (P2, P3):
        p = params.p
        lhs = GroupElement.integer(params, (p - 1) * p) + GroupElement.integer(params, p)
        assert lhs == GroupElement.integer(params, p * p)
        assert not lhs.is_zero()


def test_modular_addition_is_modular():
    # (p-1)*t + 1*t = 0
    for params in (M2, M3):
        p = params.p
        t_times = lambda c: GroupElement.from_coeffs(params, {1: c})
        assert (t_times(p - 1) + t_times(1)).is_zero()


def test_half_plus_half():
    half = GroupElement.from_rational(P2, 1, 1)
    assert half + half == GroupElement.one(P2)


def test_negate_and_mul_examples():
    assert (-GroupElement.one(P2)).num == -1
    # (t^-1 + 1) * t = 1 + t over F_3
    a = GroupElement.from_coeffs(M3, {-1: 1, 0: 1})
    t = GroupElement.from_coeffs(M3, {1: 1})
    assert a * t == GroupElement.from_coeffs(M3, {0: 1, 1: 1})
    half = GroupElement.from_rational(P2, 1, 1)
    assert half * half == GroupElement.from_rational(P2, 1, 2)


def test_valuation_examples():
    assert GroupElement.integer(P2, 4).valuation() == 2
    assert GroupElement.from_rational(P2, 3, 2).valuation() == -2
    for params in ALL_PARAMS:
        assert GroupElement.zero(params).valuation() == math.inf
    assert GroupElement.from_coeffs(M2, {3: 1, -2: 1}).valuation() == -2


def test_automorphism_examples():
    assert GroupElement.one(P2).automorphism(1) == GroupElement.from_rational(P2, 1, 1)
    t = GroupElement.from_coeffs(M2, {1: 1})
    assert t.automorphism(2) == GroupElement.from_coeffs(M2, {-1: 1})
    for params in ALL_PARAMS:
        assert GroupElement.zero(params).automorphism(3).is_zero()


def test_automorphism_shifts_valuation():
    rng = SplitMix64(11)
    for params in ALL_PARAMS:
        for _ in range(25):
            x = random_element(params, rng)
            if x.is_zero():
                continue
            for n in (-2, -1, 1, 3):
                assert x.automorphism(n).valuation() == x.valuation() - n


def test_group_axioms_random():
    rng = SplitMix64(99)
    for params in ALL_PARAMS:
        zero = GroupElement.zero(params)
        for _ in range(25):
            x = random_element(params, rng)
            y = random_element(params, rng)
            z = random_element(params, rng)
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert x + zero == x
            assert (x + (-x)).is_zero()
            assert x - y == x + (-y)
            # ring laws used by the pairing
            assert x * (y + z) == x * y + x * z


def test_pairing_examples():
    half = GroupElement.from_rational(P2, 1, 1)
    assert pairing_phase(half, half).fraction() == Fraction(1, 4)
    assert pairing_phase(GroupElement.integer(P2, 3), half).fraction() == Fraction(1, 2)


def test_unit_ball_annihilates_itself():
    # brute force over digit patterns: both pairings are trivial on H x H
    for params in (P2, M2, P3):
        p = params.p
        for i in range(p**3):
            for j in range(p**3):
                if params.mode == CARRY:
                    x = GroupElement.integer(params, i)
                    xi = GroupElement.integer(params, j)
                else:
                    x = GroupElement.from_coeffs(
                        params, {e: (i // p**e) % p for e in range(3)}
                    )
                    xi = GroupElement.from_coeffs(
                        params, {e: (j // p**e) % p for e in range(3)}
                    )
                assert pairing_phase(x, xi).is_zero()


def test_pairing_bilinear():
    rng = SplitMix64(3)
    for params in ALL_PARAMS:
        for _ in range(20):
            x = random_element(params, rng)
            y = random_element(params, rng)
            xi = random_element(params, rng)
            lhs = pairing_phase(x + y, xi)
            rhs = pairing_phase(x, xi) + pairing_phase(y, xi)
            assert lhs == rhs


def test_pairing_adjoint_is_self():
    # <A x, xi> = <x, A xi>: the dilation is self-adjoint under self-duality
    rng = SplitMix64(4)
    for params in ALL_PARAMS:
        for _ in range(20):
            x = random_element(params, rng)
            xi = random_element(params, rng)
            assert pairing_phase(x.automorphism(1), xi) == pairing_phase(x, xi.automorphism(1))


def test_phase_torsion():
    rng = SplitMix64(5)
    for params in ALL_PARAMS:
        for _ in range(20):
            ph = pairing_phase(random_element(params, rng), random_element(params, rng))
            assert ph.times(params.p**ph.denom_exp).is_zero()
            if not ph.is_zero():
                assert 0 < ph.num < params.p**ph.denom_exp
                assert ph.num % params.p != 0


def test_phase_complex_value_unit_modulus():
    ph = Phase.make(3, 7, 2)
    assert abs(abs(ph.complex_value()) - 1.0) < 1e-15
    assert Phase.make(2, 0, 0).complex_value() == 1.0


def test_expansive_witnesses():
    # H is a proper subset of AH, and every nonzero x escapes some A^n H, n <= 0
    rng = SplitMix64(6)
    for params in ALL_PARAMS:
        p_elem = (
            GroupElement.integer(params, params.p)
            if params.mode == CARRY
            else GroupElement.from_coeffs(params, {1: 1})
        )
        inv = p_elem.automorphism(2)  # p^-1 resp. t^-1
        assert inv.valuation() == -1
        assert not (p_elem.valuation() >= -1 and p_elem.valuation() < 0)  # p*1 not in AH \ H
        assert inv.valuation() >= -1 and inv.valuation() < 0  # p^-1 in AH \ H
        for _ in range(20):
            x = random_element(params, rng)
            if x.is_zero():
                continue
            if x.valuation() >= 0:  # x in H implies A x in AH
                assert x.automorphism(1).valuation() >= -1
            n = -(int(x.valuation()) + 1)
            if n <= 0:
                assert x.valuation() < -n  # x escapes A^n H


def digits_of(x):
    """Finite base-p digit expansion of a nonnegative carry element."""
    assert x.params.mode == CARRY and x.num >= 0
    p = x.params.p
    out = {}
    n, e = x.num, -x.vexp
    while n:
        n, d = divmod(n, p)
        if d:
            out[e] = d
        e += 1
    return out


def convolution_phase_oracle(x, xi):
    """Schoolbook base-p multiplication with carries; fractional digits mod 1."""
    p = x.params.p
    conv = {}
    for e1, d1 in digits_of(x).items():
        for e2, d2 in digits_of(xi).items():
            conv[e1 + e2] = conv.get(e1 + e2, 0) + d1 * d2
    if not conv:
        return Fraction(0)
    out = {}
    carry = 0
    e = min(conv)
    top = max(conv)
    while e <= top or carry:
        total = conv.get(e, 0) + carry
        out[e] = total % p
        carry = total // p
        e += 1
    frac = sum((Fraction(d) * Fraction(p) ** e for e, d in out.items() if e < 0), Fraction(0))
    return frac % 1


def test_carry_pairing_matches_digit_convolution():
    rng = SplitMix64(7)
    for params in (P2, P3):
        for _ in range(60):
            # nonnegative, at most 8 digits spread across the point
            x = GroupElement.from_rational(params, rng.next_below(params.p**8), rng.next_below(5))
            xi = GroupElement.from_rational(params, rng.next_below(params.p**8), rng.next_below(5))
            assert pairing_phase(x, xi).fraction() == convolution_phase_oracle(x, xi)


def product_route_phase(x, xi):
    """The pairing read off the product element x * xi: the reference for pairing_phase."""
    p = x.params.p
    z = x * xi
    if x.params.mode == MODULAR:
        return Phase.make(p, z.digit(-1), 1)
    if z.vexp <= 0:  # an integer
        return Phase(p)
    return Phase.make(p, z.num, z.vexp)


def pairing_operand(params, rng):
    """Zero one time in eight, else up to 8 digits at vexp in [-6, 8], signed in carry mode."""
    if rng.next_below(8) == 0:
        return GroupElement.zero(params)
    num = rng.next_below(params.p ** rng.next_below(9))
    if params.mode == CARRY and rng.next_below(2):
        num = -num
    return GroupElement.from_rational(params, num, rng.next_below(15) - 6)


def _no_elements(monkeypatch):
    def made(*args):
        raise AssertionError("the pairing made a GroupElement")

    monkeypatch.setattr(GroupElement, "__mul__", made)
    monkeypatch.setattr(GroupElement, "from_rational", staticmethod(made))


@pytest.mark.parametrize("mode", [CARRY, MODULAR])
@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_pairing_matches_the_product_route(monkeypatch, p, mode):
    params = GroupParams(p, mode)
    rng = SplitMix64(p * 2 + (mode == MODULAR))
    pairs = [(pairing_operand(params, rng), pairing_operand(params, rng)) for _ in range(600)]
    expected = [product_route_phase(x, xi) for x, xi in pairs]
    # zero operands, negative carry nums and e <= 0 all occur
    assert any(x.is_zero() or xi.is_zero() for x, xi in pairs)
    assert any(x.vexp + xi.vexp <= 0 and not (x.is_zero() or xi.is_zero()) for x, xi in pairs)
    assert mode == MODULAR or any(x.num < 0 for x, _ in pairs)
    _no_elements(monkeypatch)
    assert [pairing_phase(x, xi) for x, xi in pairs] == expected


@pytest.mark.parametrize("mode", [CARRY, MODULAR])
@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_batched_pairing_matches_the_product_route(monkeypatch, p, mode):
    # the x of the 600 seeded pairs as one batch against every 20th xi and zero: the digit
    # window of xi spans x of many lengths and valuations, zeros, e <= 0, negative nums
    params = GroupParams(p, mode)
    rng = SplitMix64(p * 2 + (mode == MODULAR))
    pairs = [(pairing_operand(params, rng), pairing_operand(params, rng)) for _ in range(600)]
    xs = [x for x, _ in pairs]
    xis = [xi for _, xi in pairs[::20]] + [GroupElement.zero(params)]
    expected = [[(z.num, z.denom_exp) for z in map(product_route_phase, xs, [xi] * len(xs))]
                for xi in xis]
    _no_elements(monkeypatch)
    assert [pairing_phases(xs, xi) for xi in xis] == expected
    assert pairing_phases([], xis[0]) == []


def test_a_mismatched_element_anywhere_in_a_batch_raises():
    xi = GroupElement.from_rational(M2, 5, 2)
    xs = [GroupElement.from_rational(GroupParams(2, MODULAR), n, 1) for n in range(5)]
    assert len(pairing_phases(xs, xi)) == 5  # equal params need not be one object
    for bad in (GroupElement.one(P2), GroupElement.zero(M3), GroupElement.one(P3)):
        for at in (0, 2, len(xs)):
            with pytest.raises(ParamMismatchError) as new:
                pairing_phases(xs[:at] + [bad] + xs[at:], xi)
            with pytest.raises(ParamMismatchError) as old:
                product_route_phase(bad, xi)
            assert str(new.value) == str(old.value)


@pytest.mark.parametrize("mode", [CARRY, MODULAR])
@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_pairing_reads_only_the_digits_that_meet(monkeypatch, p, mode):
    # x = p^-100000 + (p - 1): a valuation gap of 10^5 inside one operand
    params = GroupParams(p, mode)
    gap = 10**5
    x = GroupElement.from_rational(params, 1 + (p - 1) * p**gap, gap)
    far, near = (GroupElement.from_rational(params, 1, v) for v in (1 - gap, 1))
    _no_elements(monkeypatch)
    start = time.perf_counter()
    got = pairing_phase(x, far), pairing_phase(x, near)  # x * p^(gap-1), x * p^-1
    assert time.perf_counter() - start < 0.5
    if mode == CARRY:  # p^-1 + (p-1) p^(gap-1), and p^(-gap-1) + (p-1) p^-1
        assert got == (Phase(p, 1, 1), Phase(p, 1 + (p - 1) * p**gap, gap + 1))
    else:  # the t^-1 digit of each product
        assert got == (Phase(p, 1, 1), Phase(p, p - 1, 1))


def test_pairing_mismatch_message_is_the_product_route_s():
    for x, xi in ((GroupElement.one(P2), GroupElement.one(M2)),
                  (GroupElement.zero(P3), GroupElement.one(P2)),
                  (GroupElement.one(GroupParams(5, MODULAR)), GroupElement.zero(M3))):
        with pytest.raises(ParamMismatchError) as new:
            pairing_phase(x, xi)
        with pytest.raises(ParamMismatchError) as old:
            product_route_phase(x, xi)
        assert str(new.value) == str(old.value)


def test_param_mismatch_errors():
    with pytest.raises(ParamMismatchError):
        GroupElement.one(P2) + GroupElement.one(P3)
    with pytest.raises(ParamMismatchError):
        pairing_phase(GroupElement.one(P2), GroupElement.one(M2))


def test_text_round_trip():
    rng = SplitMix64(8)
    for params in ALL_PARAMS:
        for _ in range(40):
            x = random_element(params, rng)
            assert parse_element(params, x.text()) == x
    assert parse_element(P2, "3/2^2").as_fraction() == Fraction(3, 4)
    # '[-2]102' reads little-endian from the stated lowest exponent
    assert parse_element(M3, "[-2]102") == GroupElement.from_coeffs(M3, {-2: 1, 0: 2})
    with pytest.raises(ValueError):
        parse_element(M2, "[-2]102")  # digit 2 is out of range for p = 2
    with pytest.raises(ValueError):
        parse_element(P3, "1/2^2")  # denominator base must be p


@pytest.mark.parametrize("text", ["1/2^-1", "0/2^-3", "3/2^-100000000000"])
def test_parse_element_rejects_negative_carry_exponent(text):
    # text() never writes p^-e; refusing it also avoids forming p^e for a huge e
    with pytest.raises(ValueError, match="exponent"):
        parse_element(P2, text)


# -- property tests against oracles that do not share the element encoding --------
#
# The carry oracle is a Fraction; the modular oracle is an exponent -> nonzero
# digit dict with polynomial arithmetic mod p.  Oracle values stay small
# (valuations in [-70, 70]); an element is built from one and then moved by a
# shared power p**s (resp. t**s), s sometimes +-10**6, so huge valuations run
# through the element arithmetic while the oracle sums and products stay small.

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=200,
                 suppress_health_check=[HealthCheck.too_slow])
PARAMS = st.sampled_from([GroupParams(p, mode) for p in (2, 3, 11) for mode in (CARRY, MODULAR)])
SHIFT = st.sampled_from((0, 0, 0, 0, 0, 0, 10**6, -(10**6)))


@st.composite
def oracle_values(draw, params):
    """Zero now and then, else up to 8 digits from a lowest exponent in [-70, 70]."""
    p = params.p
    if draw(st.integers(0, 9)) == 0:
        return Fraction(0) if params.mode == CARRY else {}
    low = draw(st.integers(-70, 70))
    digits = [draw(st.integers(1, p - 1))] + draw(st.lists(st.integers(0, p - 1), max_size=7))
    if params.mode == MODULAR:
        return {low + i: d for i, d in enumerate(digits) if d}
    sign = draw(st.sampled_from((1, -1)))
    return sign * sum(d * Fraction(p) ** (low + i) for i, d in enumerate(digits))


def element(params, value, shift=0):
    """The element for an oracle value, times p**shift (resp. t**shift)."""
    if params.mode == MODULAR:
        x = GroupElement.from_coeffs(params, value)
    else:
        den, vexp = value.denominator, 0
        while den % params.p == 0:
            den, vexp = den // params.p, vexp + 1
        assert den == 1
        x = GroupElement.from_rational(params, value.numerator, vexp)
    return x.automorphism(-shift)


def o_val(params, a):
    if params.mode == MODULAR:
        return min(a, default=math.inf)
    if a == 0:
        return math.inf
    v, num, den = 0, a.numerator, a.denominator
    while num % params.p == 0:
        num, v = num // params.p, v + 1
    while den % params.p == 0:
        den, v = den // params.p, v - 1
    return v


def o_add(params, a, b):
    if params.mode == CARRY:
        return a + b
    sums = {e: (a.get(e, 0) + b.get(e, 0)) % params.p for e in a.keys() | b.keys()}
    return {e: d for e, d in sums.items() if d}


def o_neg(params, a):
    return -a if params.mode == CARRY else {e: params.p - d for e, d in a.items()}


def o_mul(params, a, b):
    if params.mode == CARRY:
        return a * b
    out = {}
    for e1, d1 in a.items():
        for e2, d2 in b.items():
            out[e1 + e2] = (out.get(e1 + e2, 0) + d1 * d2) % params.p
    return {e: d for e, d in out.items() if d}


def o_scale(params, a, n):
    """a * p**n (resp. t**n)."""
    if params.mode == CARRY:
        return a * Fraction(params.p) ** n
    return {e + n: d for e, d in a.items()}


def o_rep(params, a, n):
    """The digits of a below exponent -n; in carry mode p**-n * frac(p**n * a)."""
    if params.mode == CARRY:
        return o_scale(params, o_scale(params, a, n) % 1, -n)
    return {e: d for e, d in a.items() if e < -n}


def o_text(params, a):
    p = params.p
    if params.mode == CARRY:
        num, den, vexp = a.numerator, a.denominator, 0
        while den > 1:
            den, vexp = den // p, vexp + 1
        return str(num) if vexp == 0 else f"{num}/{p}^{vexp}"
    if not a:
        return "[0]0"
    digits = [str(a.get(e, 0)) for e in range(min(a), max(a) + 1)]
    return f"[{min(a)}]" + ("" if p <= 10 else ",").join(digits)


@PROPS
@given(data=st.data())
def test_ring_axioms_match_the_oracle(data):
    params, s = data.draw(PARAMS), data.draw(SHIFT)
    ox, oy, oz = (data.draw(oracle_values(params)) for _ in range(3))
    x, y, z = (element(params, o, s) for o in (ox, oy, oz))
    zero, one = GroupElement.zero(params), GroupElement.one(params)
    assert x.valuation() == o_val(params, ox) + (0 if x.is_zero() else s)
    assert x + y == element(params, o_add(params, ox, oy), s)
    assert -x == element(params, o_neg(params, ox), s)
    assert x * y == element(params, o_mul(params, ox, oy), 2 * s)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x
    assert (x - x).is_zero() and (x * zero).is_zero()


@PROPS
@given(data=st.data())
def test_text_round_trip_and_form(data):
    params = data.draw(PARAMS)
    # a carry integer prints in decimal, and CPython's int-string limit is 4300 digits
    s = data.draw(SHIFT.filter(lambda s: params.mode == MODULAR or s <= 0))
    ox = data.draw(oracle_values(params))
    x = element(params, ox, s)
    assert parse_element(params, x.text()) == x
    if s == 0:
        assert x.text() == o_text(params, ox)


@PROPS
@given(data=st.data())
def test_rational_text_and_parse_rational_match_the_oracle(data):
    # (num, vexp) and texts that name the value but are not in normal form: p**j * num at
    # vexp + j, and a modular body padded with zero digits at both ends
    params = data.draw(PARAMS)
    p, ox = params.p, data.draw(oracle_values(params))
    x = element(params, ox)
    j, pad = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 3))
    assert rational_text(params, x.num * p**j, x.vexp + j) == o_text(params, ox) == x.text()
    if params.mode == CARRY:
        loose = f"{x.num * p**j}/{p}^{x.vexp + j}" if x.vexp + j > 0 else o_text(params, ox)
    else:
        lo, hi = min(ox, default=0) - j, max(ox, default=0) + pad
        digits = [str(ox.get(e, 0)) for e in range(lo, hi + 1)]
        loose = f"[{lo}]" + ("" if p <= 10 else ",").join(digits)
    assert parse_rational(params, loose) == (x.num, x.vexp)
    assert parse_element(params, loose) == x


@PROPS
@given(data=st.data())
def test_coset_rep_is_idempotent_and_leaves_a_ball_element(data):
    params, s = data.draw(PARAMS), data.draw(SHIFT)
    ox = data.draw(oracle_values(params))
    x = element(params, ox, s)
    m = data.draw(st.integers(-80, 80))
    n = m - s  # coset_rep(p**s * a, n) = p**s * coset_rep(a, n + s)
    r = coset_rep(x, n)
    assert coset_rep(r, n) == r
    assert (x - r).valuation() >= -n
    assert r == element(params, o_rep(params, ox, m), s)


@PROPS
@given(data=st.data())
def test_anchored_int_is_x_times_p_to_the_anchor(data):
    params, s = data.draw(PARAMS), data.draw(SHIFT)
    ox = data.draw(oracle_values(params))
    x = element(params, ox, s)
    least = -o_val(params, ox) if ox else -10  # zero lies in A^t H for every t
    t = data.draw(st.integers(least, least + 10))
    scaled = o_scale(params, ox, t)
    if params.mode == CARRY:
        assert scaled.denominator == 1
        expected = scaled.numerator
    else:
        expected = sum(d * params.p**e for e, d in scaled.items())
    got = anchored_int(x, t - s)
    assert type(got) is int and got == expected


@PROPS
@given(data=st.data())
def test_pairing_is_bilinear_and_matches_the_oracle(data):
    params, s = data.draw(PARAMS), data.draw(SHIFT)
    ox, oy, oxi, oeta = (data.draw(oracle_values(params)) for _ in range(4))
    x, y = element(params, ox, s), element(params, oy, s)
    xi, eta = element(params, oxi, -s), element(params, oeta, -s)
    assert pairing_phase(x + y, xi) == pairing_phase(x, xi) + pairing_phase(y, xi)
    assert pairing_phase(x, xi + eta) == pairing_phase(x, xi) + pairing_phase(x, eta)
    prod = o_mul(params, ox, oxi)
    expected = prod % 1 if params.mode == CARRY else Fraction(prod.get(-1, 0), params.p)
    assert pairing_phase(x, xi).fraction() == expected


@PROPS
@given(data=st.data())
def test_automorphism_shifts_the_valuation(data):
    params, s = data.draw(PARAMS), data.draw(SHIFT)
    ox = data.draw(oracle_values(params))
    n = data.draw(st.integers(-70, 70))
    x = element(params, ox, s)
    for shift in (n, n + 10**6, n - 10**6):
        y = x.automorphism(shift)
        assert y.valuation() == x.valuation() - shift or x.is_zero() and y.is_zero()
    # A**n x = p**-n x (resp. t**-n x)
    assert element(params, ox).automorphism(n) == element(params, o_scale(params, ox, -n))


# -- the batched codec against the one-text functions ---------------------------------
#
# rational_texts against a writer that normalizes digit by digit, and parse_rationals
# against parse_rational text by text, results and exceptions alike: its common shapes are
# read directly, everything else must reach parse_rational unchanged.

CODEC = settings(derandomize=True, database=None, deadline=None, max_examples=300,
                 suppress_health_check=[HealthCheck.too_slow])
CODEC_PARAMS = st.sampled_from([GroupParams(p, mode) for p in (2, 3, 5, 7, 11, 13)
                                for mode in (CARRY, MODULAR)])
ANCHORS = st.integers(-3, 13)
# texts at the edges of the common shapes; {p} is the prime
SPECIAL_TEXTS = (" 5/{p}^3 ", "+5/{p}^3", "1_0/{p}^3", "1/{p}^", "1/{p}", "5/{p}^03", "5/{p}^-3",
                 "5 /{p}^3", "\x1c5/{p}^3", "5/{p}^3 ", "5/{p}^\u0663", "\u0663/{p}^3", "0/{p}^4",
                 "-{p}/{p}^3", "5/2^3", "5/3^2", "5/{p}^3/{p}", "[-2]", "[-2]0", "[0]3,11",
                 "[0]3,1", "[0]1,0", " [1]01", "[1]01 ", "[+1]1", "[1_0]1", "[]1", "[1", "1]1",
                 "[0]\u0661", "[\u0661]1", "[0]1_0", "[0]+1", "[0]-1", "[0] 1", "", "[0]")
NON_STRINGS = (5, None, 1.5, ["1"], b"1")


def _reference_text(params, num, vexp):
    """The text of num * p**-vexp: its normal form digit by digit, then the text form."""
    p = params.p
    while num and num % p == 0:
        num, vexp = num // p, vexp - 1
    vexp = vexp if num else 0
    if params.mode == CARRY:
        return str(num * p**-vexp) if vexp <= 0 else f"{num}/{p}^{vexp}"
    digits, n = [], num
    while n:
        n, d = divmod(n, p)
        digits.append(str(d))
    return f"[{-vexp}]" + ("" if p <= 10 else ",").join(digits or ["0"])


def _reference_normal(params, num, vexp):
    while num and num % params.p == 0:
        num, vexp = num // params.p, vexp - 1
    return (num, vexp) if num else (0, 0)


def codec_keys(params):
    """Keys at an anchor: zero, multiples of p**j and, in carry mode, negatives."""
    p = params.p
    multiples = st.builds(lambda a, j: a * p**j, st.integers(1, p**6), st.integers(0, 5))
    keys = st.one_of(st.just(0), multiples)
    return keys if params.mode == MODULAR else st.one_of(keys, multiples.map(lambda c: -c))


def codec_texts(params):
    """Written texts, texts of the same values not in normal form, edge texts and junk."""
    p, sep = params.p, "" if params.p <= 10 else ","
    written = st.builds(lambda c, a: rational_text(params, c, a), codec_keys(params), ANCHORS)
    if params.mode == CARRY:
        loose = st.builds(lambda c, a: f"{c}/{p}^{a}", codec_keys(params), st.integers(0, 13))
    else:  # zero digits at both ends, and now and then a digit out of range
        digit = st.one_of(st.integers(0, p - 1), st.integers(0, p - 1), st.integers(p, p + 9))
        loose = st.builds(lambda lo, ds: f"[{lo}]" + sep.join(map(str, ds)), ANCHORS,
                          st.lists(digit, max_size=8))
    special = st.sampled_from([t.format(p=p) for t in SPECIAL_TEXTS])
    junk = st.text(alphabet=f"0123456789/^[]-+_, \t\x1c\u0663{p}", max_size=8)
    return st.one_of(written, written, loose, loose, special, junk, st.sampled_from(NON_STRINGS))


def _outcome(run):
    """run()'s result, or the type and message of what it raised."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001  every exception is compared
        return type(exc), str(exc)


@CODEC
@given(data=st.data())
def test_rational_texts_match_a_text_by_text_writer(data):
    params, anchor = data.draw(CODEC_PARAMS), data.draw(ANCHORS)
    keys = data.draw(st.lists(codec_keys(params), max_size=12))
    texts = rational_texts(params, keys, anchor)
    assert texts == [_reference_text(params, c, anchor) for c in keys]
    assert texts == [rational_text(params, c, anchor) for c in keys]
    # and back: the texts parse to the keys' normal forms
    assert parse_rationals(params, texts) == [_reference_normal(params, c, anchor) for c in keys]


@CODEC
@given(data=st.data())
def test_parse_rationals_matches_parse_rational_text_by_text(data):
    params = data.draw(CODEC_PARAMS)
    texts = data.draw(st.lists(codec_texts(params), max_size=10))
    assert (_outcome(lambda: parse_rationals(params, texts)) ==
            _outcome(lambda: [parse_rational(params, t) for t in texts]))


@pytest.mark.parametrize("params", [GroupParams(p, mode) for p in (2, 3, 11)
                                    for mode in (CARRY, MODULAR)], ids=str)
def test_parse_rationals_on_each_edge_text(params):
    # each edge text alone and after a good one, whatever the draws above reach
    good = rational_text(params, 3, 2)
    for t in [*(t.format(p=params.p) for t in SPECIAL_TEXTS), *NON_STRINGS]:
        for texts in ([t], [good, t, good]):
            assert (_outcome(lambda: parse_rationals(params, texts)) ==
                    _outcome(lambda: [parse_rational(params, t) for t in texts])), texts


@pytest.mark.parametrize("params", [P2, P3, M2, M3, GroupParams(11, MODULAR)], ids=str)
def test_parse_rationals_at_the_digit_limits(params):
    # a modular body of MAX_BODY_DIGITS digits parses and one more is refused, p = 2 too, whose
    # int(body, 2) has no limit of its own; so is a carry exponent past int's digit limit
    p, sep = params.p, "" if params.p <= 10 else ","
    for count in (MAX_BODY_DIGITS, MAX_BODY_DIGITS + 1):
        texts = ["[0]1", "[3]" + sep.join("1" * count), "[0]1"]
        if params.mode == CARRY:
            texts = ["1", f"1/{p}^" + "1" * count, f"1/{p}^2"]
        assert (_outcome(lambda: parse_rationals(params, texts)) ==
                _outcome(lambda: [parse_rational(params, t) for t in texts]))
