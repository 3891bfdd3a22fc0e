"""Coset representatives, balls, and canonical sections."""

import pytest

from padicgabor.geometry import (
    Ball,
    PhaseBall,
    ball_of,
    coset_rep,
    phase_ball_of,
    same_ball,
    section,
    split_section,
)
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
    # any member of a ball yields the same Ball object
    rng = SplitMix64(22)
    n = 1
    for params in (P2, M3):
        for _ in range(20):
            x = random_element(params, rng)
            h = random_element(params, rng)
            member = x + (h - coset_rep(h, n))  # h minus its rep has valuation >= -n
            assert ball_of(member, n) == ball_of(x, n)
            assert ball_of(x, n).contains(member)
    assert str(ball_of(GroupElement.from_rational(P2, 3, 2), 0)) == "Q[0]@3/2^2"


def test_phase_ball():
    b = phase_ball_of(GroupElement.from_rational(P2, 1, 1), GroupElement.one(P2), 0)
    assert b.contains(GroupElement.from_rational(P2, 3, 1), GroupElement.integer(P2, 5))
    assert not b.contains(GroupElement.zero(P2), GroupElement.zero(P2))
    assert isinstance(b, PhaseBall)


def test_ball_measure():
    from fractions import Fraction

    assert ball_of(GroupElement.zero(P2), 3).measure() == 8
    assert ball_of(GroupElement.zero(P3), -2).measure() == Fraction(1, 9)


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
                assert s.index_of(el) == i
            assert len(reps) == len(s)  # pairwise distinct mod A^inner H


def test_section_rejects_bad_scales():
    with pytest.raises(ValueError):
        section(P2, 0, 1)


def test_split_section_examples():
    sp = split_section(section(P2, 2, 0))
    assert [e.text() for e in sp.c0] == ["0", "1/2^1"]
    assert [e.text() for e in sp.c1] == ["0", "1/2^2"]
    c0, c1 = sp.decompose(GroupElement.from_rational(P2, 3, 2))
    assert c0.text() == "1/2^1" and c1.text() == "1/2^2"

    sp3 = split_section(section(P3, 1, 0))
    assert len(sp3.c0) == 3 and len(sp3.c1) == 1

    spm = split_section(section(M2, 2, 0))
    assert [e.text() for e in spm.c0] == ["[0]0", "[-1]1"]
    assert [e.text() for e in spm.c1] == ["[0]0", "[-2]1"]


def test_split_section_reassembles_bijectively():
    for params in (P2, P3, M2):
        s = section(params, 3, 0)
        sp = split_section(s)
        seen = set()
        for c in s:
            c0, c1 = sp.decompose(c)
            assert c0 in set(sp.c0.elements)
            assert c1 in set(sp.c1.elements)
            assert c0 + c1 == c
            seen.add((c0, c1))
        assert len(seen) == len(s)


def test_split_section_rejects_non_canonical():
    with pytest.raises(ValueError):
        split_section(section(P2, 2, 1))
    s = section(P2, 2, 0)
    shuffled = type(s)(s.params, s.outer, s.inner, tuple(reversed(s.elements)))
    with pytest.raises(ValueError):
        split_section(shuffled)


def test_partition_of_window():
    # balls over A^n(section) tile A^N H: disjoint and exhaustive on samples
    rng = SplitMix64(23)
    for params in (P2, P3, M3):
        region, n = 3, 1
        balls = [
            Ball(n, c.automorphism(n)) for c in section(params, region - n, 0)
        ]
        keys = {b.key for b in balls}
        assert len(keys) == len(balls)  # disjoint
        for _ in range(40):
            x = random_element(params, rng, span=2)
            if x.valuation() < -region:
                continue
            hits = [b for b in balls if b.contains(x)]
            assert len(hits) == 1  # exhaustive and disjoint


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
