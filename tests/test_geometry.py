"""Coset representatives, ball membership, and canonical sections."""

import pytest

from padicgabor.geometry import anchored_int, coset_rep, same_ball, section
from padicgabor.localfield import CARRY, MODULAR, GroupElement, GroupParams
from padicgabor.rng import SplitMix64
from test_localfield import random_element

P2 = GroupParams(2, CARRY)
P3 = GroupParams(3, CARRY)
M2 = GroupParams(2, MODULAR)
M3 = GroupParams(3, MODULAR)


def test_coset_rep_examples():
    e34 = GroupElement.from_rational(P2, 3, 2)
    assert coset_rep(e34, 0) == e34
    assert coset_rep(e34, 1) == GroupElement.from_rational(P2, 1, 2)
    assert coset_rep(GroupElement.zero(P2), 7).is_zero()
    assert coset_rep(GroupElement.zero(M2), -3).is_zero()


def test_coset_rep_is_retraction_and_difference_in_ball():
    rng = SplitMix64(21)
    for params in (P2, P3, M2, M3):
        for _ in range(30):
            x = random_element(params, rng)
            for n in (-2, 0, 1, 3):
                r = coset_rep(x, n)
                assert coset_rep(r, n) == r
                assert (x - r).valuation() >= -n
                if not r.is_zero():
                    # representative holds only digits below exponent -n
                    assert params.mode == MODULAR and r == GroupElement.from_coeffs(
                        params, {e: r.digit(e) for e in range(r.valuation(), -n)}
                    ) or (
                        params.mode == CARRY and 0 <= r.as_fraction() < params.p ** (-n)
                    )


def test_same_ball_examples():
    zero = GroupElement.zero(P2)
    one = GroupElement.one(P2)
    half = GroupElement.from_rational(P2, 1, 1)
    assert same_ball(zero, one, 0)
    assert not same_ball(zero, half, 0)
    assert same_ball(zero, half, 1)


def test_ball_identity_of_recentering():
    # any member of a ball has the same canonical representative
    rng = SplitMix64(22)
    n = 1
    for params in (P2, M3):
        for _ in range(20):
            x = random_element(params, rng)
            h = random_element(params, rng)
            member = x + (h - coset_rep(h, n))  # h minus its rep has valuation >= -n
            assert coset_rep(member, n) == coset_rep(x, n)
            assert same_ball(x, member, n)
            assert same_ball(coset_rep(x, n), member, n)
    assert coset_rep(GroupElement.from_rational(P2, 7, 2), 0).text() == "3/2^2"


def test_section_enumeration_carry():
    s = section(P2, 2, 0)
    assert [e.text() for e in s] == ["0", "1/2^2", "1/2^1", "3/2^2"]
    assert len(section(P2, 3, 3)) == 1 and section(P2, 3, 3)[0].is_zero()
    c0 = section(P2, 1, 0)
    assert len(c0) == 2  # |A| = p members
    assert [e.text() for e in c0] == ["0", "1/2^1"]


def test_section_invariants():
    for params in (P2, P3, M2):
        for outer, inner in ((2, 0), (3, 1), (1, -1), (0, -2)):
            s = section(params, outer, inner)
            assert len(s) == params.p ** (outer - inner)
            reps = set()
            for i, el in enumerate(s):
                assert el.valuation() >= -outer or el.is_zero()
                reps.add(coset_rep(el, inner))
                assert anchored_int(el, outer) == i
            assert len(reps) == len(s)  # pairwise distinct mod A^inner H


def test_section_rejects_bad_scales():
    with pytest.raises(ValueError):
        section(P2, 0, 1)


def test_coset_rep_splits_a_section_bijectively():
    # the canonical section C of A^3 H / H is C0 + C1, C0 of AH / H and C1 of A^3 H / AH
    for params in (P2, P3, M2):
        c0s, c1s = set(section(params, 1, 0)), set(section(params, 3, 1))
        s = section(params, 3, 0)
        seen = set()
        for c in s:
            c1 = coset_rep(c, 1)
            assert c - c1 in c0s and c1 in c1s
            seen.add((c - c1, c1))
        assert len(seen) == len(s)


def test_partition_of_window():
    # balls over A^n(section) tile A^N H: disjoint and exhaustive on samples
    rng = SplitMix64(23)
    for params in (P2, P3, M3):
        region, n = 3, 1
        keys = [coset_rep(c.automorphism(n), n) for c in section(params, region - n, 0)]
        assert len(set(keys)) == len(keys)  # disjoint
        for _ in range(40):
            x = random_element(params, rng, span=2)
            if x.valuation() < -region:
                continue
            hits = [key for key in keys if same_ball(x, key, n)]
            assert hits == [coset_rep(x, n)]  # exhaustive and disjoint


def test_nesting():
    # membership at scale n implies membership at every coarser scale
    rng = SplitMix64(24)
    for params in (P2, M2):
        for _ in range(30):
            x = random_element(params, rng)
            z = random_element(params, rng)
            for n in (-1, 0, 1):
                if same_ball(x, z, n):
                    assert same_ball(x, z, n + 1)
