"""Exact arithmetic, valuation, dilation and character pairing."""

import math
from fractions import Fraction

import pytest

from padicgabor.localfield import (
    CARRY,
    MODULAR,
    GroupElement,
    GroupParams,
    ParamMismatchError,
    Phase,
    pairing_phase,
    parse_element,
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
    assert parse_element(M3, "[-2]102").coeffs == ((-2, 1), (0, 2))
    with pytest.raises(ValueError):
        parse_element(M2, "[-2]102")  # digit 2 is out of range for p = 2
    with pytest.raises(ValueError):
        parse_element(P3, "1/2^2")  # denominator base must be p


@pytest.mark.parametrize("text", ["1/2^-1", "0/2^-3", "3/2^-100000000000"])
def test_parse_element_rejects_negative_carry_exponent(text):
    # text() never writes p^-e; refusing it also avoids forming p^e for a huge e
    with pytest.raises(ValueError, match="exponent"):
        parse_element(P2, text)
