"""Finite models: operators, transform, grids, and norms.

The quadratic-cost transform oracle below is built directly from the exact
pairing, independent of the radix/tensor fast paths it checks.
"""

import math

import numpy as np
import pytest

from padicgabor.geometry import coset_rep
from padicgabor.localfield import (
    CARRY,
    MODULAR,
    GroupElement,
    GroupParams,
    Phase,
    pairing_phase,
)
from padicgabor.model import (
    ModelFunction,
    ModelSpace,
    ResolutionError,
    embed,
    fourier,
    indicator,
    inner,
    modulate,
    modulation_norm,
    stft,
    translate,
    wiener_norm,
    wiener_norm_amalgam,
)
from padicgabor.rng import SplitMix64

P2 = GroupParams(2, CARRY)
P3 = GroupParams(3, CARRY)
M2 = GroupParams(2, MODULAR)
M3 = GroupParams(3, MODULAR)

SPACES = ((P2, 1, 1), (P2, 2, 1), (P3, 1, 1), (M2, 2, 2), (M3, 1, 1))


def rand_fn(space, rng):
    return ModelFunction(space, rng.complex_vector(space.dim))


def naive_dual_sums(f):
    space = f.space
    out = np.zeros(space.dual.dim, dtype=complex)
    for b, xi in enumerate(space.dual.index_section):
        acc = 0j
        for a, x in enumerate(space.index_section):
            acc += f.coeffs[a] * pairing_phase(x, xi).complex_value().conjugate()
        out[b] = space.coset_measure * acc
    return out


def naive_stft_entry(f, g, x, xi):
    return inner(f, modulate(translate(g, x), xi))


def test_indicator_examples():
    space = ModelSpace(P2, 1, 1)
    assert list(indicator(space).coeffs.real) == [1, 0, 1, 0]
    assert list(indicator(space, set_scale=1).coeffs.real) == [1, 1, 1, 1]
    assert list(indicator(space, set_scale=-1).coeffs.real) == [1, 0, 0, 0]
    with pytest.raises(ValueError):
        indicator(space, set_scale=2)
    with pytest.raises(ValueError):
        indicator(space, set_scale=0, shift=GroupElement.from_rational(P2, 1, 2))


def test_inner_normalization():
    for params, m, k in SPACES:
        space = ModelSpace(params, m, k)
        chi = indicator(space)
        assert inner(chi, chi) == 1.0  # m(H) = 1
        shift = space.index_section[1]
        if shift.valuation() < 0:
            assert inner(chi, translate(chi, shift)) == 0  # disjoint supports
        f = rand_fn(space, SplitMix64(1))
        assert inner(f, f).real >= 0
        assert abs(inner(f, f).imag) < 1e-15


def test_translate_examples():
    space = ModelSpace(P2, 1, 1)
    chi = indicator(space)
    half = GroupElement.from_rational(P2, 1, 1)
    assert list(translate(chi, half).coeffs.real) == [0, 1, 0, 1]
    f = rand_fn(space, SplitMix64(2))
    assert np.array_equal(translate(f, GroupElement.zero(P2)).coeffs, f.coeffs)
    assert np.array_equal(translate(translate(f, half), -half).coeffs, f.coeffs)


def test_modulate_examples():
    space = ModelSpace(P2, 1, 1)
    chi = indicator(space)
    assert np.array_equal(modulate(chi, GroupElement.integer(P2, 1)).coeffs, chi.coeffs)
    f = rand_fn(space, SplitMix64(3))
    assert np.array_equal(modulate(f, GroupElement.zero(P2)).coeffs, f.coeffs)


def test_commutation_identity():
    rng = SplitMix64(4)
    for params, m, k in SPACES:
        space = ModelSpace(params, m, k)
        f = rand_fn(space, rng)
        for _ in range(5):
            x = space.index_section[rng.next_below(space.dim)]
            xi = space.dual.index_section[rng.next_below(space.dim)]
            lhs = modulate(translate(f, x), xi)
            rhs = translate(modulate(f, xi), x).scaled(pairing_phase(x, xi).complex_value())
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-14


def test_operators_unitary():
    rng = SplitMix64(5)
    for params, m, k in SPACES:
        space = ModelSpace(params, m, k)
        f = rand_fn(space, rng)
        x = space.index_section[rng.next_below(space.dim)]
        xi = space.dual.index_section[rng.next_below(space.dim)]
        for g in (translate(f, x), modulate(f, xi), fourier(f)):
            assert abs(g.norm() - f.norm()) <= 1e-12 * f.norm()


def test_fourier_unit_ball_to_dual_unit_ball():
    for params, m, k in SPACES:
        space = ModelSpace(params, m, k)
        out = fourier(indicator(space))
        assert np.max(np.abs(out.coeffs - indicator(space.dual).coeffs)) <= 1e-12


def test_fourier_point_mass_spreads_flat():
    space = ModelSpace(P3, 1, 1)
    delta = indicator(space, set_scale=-1)
    out = fourier(delta)
    assert np.allclose(out.coeffs, np.full(space.dim, space.coset_measure), atol=1e-14)


def test_fourier_matches_naive_oracle():
    rng = SplitMix64(6)
    for params, m, k in SPACES:
        space = ModelSpace(params, m, k)
        if space.dim > 81:
            continue
        f = rand_fn(space, rng)
        assert np.max(np.abs(fourier(f).coeffs - naive_dual_sums(f))) <= 1e-12


def test_stft_block_example():
    space = ModelSpace(P2, 1, 1)
    chi = indicator(space)
    grid = stft(chi, chi)
    expected = np.zeros((4, 4))
    expected[np.ix_((0, 2), (0, 2))] = 1.0  # the H x (dual unit ball) block
    assert np.max(np.abs(grid.values - expected)) <= 1e-13


def test_stft_at_origin_is_inner_product():
    rng = SplitMix64(7)
    space = ModelSpace(M2, 2, 2)
    f, g = rand_fn(space, rng), rand_fn(space, rng)
    grid = stft(f, g)
    assert abs(grid.values[0, 0] - inner(f, g)) <= 1e-13


def test_stft_matches_entrywise_definition():
    rng = SplitMix64(8)
    # dim 128 spans several row blocks of stft; dim 81 ends in a ragged block
    for params, m, k in ((P2, 1, 1), (P3, 1, 1), (M2, 1, 1), (P2, 4, 3), (P3, 2, 2)):
        space = ModelSpace(params, m, k)
        f, g = rand_fn(space, rng), rand_fn(space, rng)
        grid = stft(f, g)
        for a in range(space.dim):
            for b in range(space.dim):
                ref = naive_stft_entry(f, g, space.index_section[a], space.dual.index_section[b])
                assert abs(grid.values[a, b] - ref) <= 1e-12


def test_stft_energy_identity():
    rng = SplitMix64(9)
    for params, m, k in SPACES:
        space = ModelSpace(params, m, k)
        f, g = rand_fn(space, rng), rand_fn(space, rng)
        grid = stft(f, g)
        target = f.norm() * g.norm()
        assert abs(grid.l2_norm() - target) <= 1e-10 * target


def test_stft_covariance_modulus():
    # time-frequency shifting f permutes |V_g f| on the grid
    rng = SplitMix64(10)
    space = ModelSpace(P2, 2, 1)
    f, g = rand_fn(space, rng), rand_fn(space, rng)
    base = np.abs(stft(f, g).values)
    u = space.index_section[5]
    eta = space.dual.index_section[3]
    shifted = np.abs(stft(modulate(translate(f, u), eta), g).values)
    au = space.index_of(u)
    bu = space.dual.index_of(eta)
    n = space.dim
    if space.params.mode == CARRY:
        perm_rows = [(a - au) % n for a in range(n)]
        perm_cols = [(b - bu) % n for b in range(n)]
    else:
        perm_rows = list(space.shift_sources(u))
        perm_cols = list(space.dual.shift_sources(eta))
    moved = base[np.ix_(perm_rows, perm_cols)]
    assert np.max(np.abs(shifted - moved)) <= 1e-12


def test_grid_values_are_locally_constant_via_embedding():
    # recomputing at an off-grid point inside the same cell reproduces the value
    rng = SplitMix64(11)
    space = ModelSpace(P2, 1, 1)
    f, g = rand_fn(space, rng), rand_fn(space, rng)
    grid = stft(f, g)
    fine = ModelSpace(P2, 1, 2)
    f2, g2 = embed(f, 1, 2), embed(g, 1, 2)
    a, b = 3, 2
    x = space.index_section[a]
    xi = space.dual.index_section[b]
    h = GroupElement.from_rational(P2, 2, 0)  # valuation 1 = k: inside x + A^-k H
    off = naive_stft_entry(f2, g2, x + h, xi)
    assert abs(off - grid.values[a, b]) <= 1e-13
    # outside the support window the transform vanishes
    wide = ModelSpace(P2, 2, 1)
    f3, g3 = embed(f, 2, 1), embed(g, 2, 1)
    far = GroupElement.from_rational(P2, 1, 2)  # valuation -2 < -m
    assert abs(naive_stft_entry(f3, g3, far, xi)) <= 1e-14


def test_modulation_norm_examples():
    space = ModelSpace(P2, 1, 1)
    grid = stft(indicator(space), indicator(space))
    assert abs(modulation_norm(grid, 2) - 1.0) <= 1e-14
    assert modulation_norm(grid, math.inf) == 1.0
    rng = SplitMix64(12)
    f, g = rand_fn(space, rng), rand_fn(space, rng)
    base = modulation_norm(stft(f, g), 2)
    scaled = modulation_norm(stft(f.scaled(2.5), g), 2)
    assert abs(scaled - 2.5 * base) <= 1e-12
    with pytest.raises(ValueError):
        modulation_norm(grid, 0.5)


def test_wiener_norm_examples():
    space = ModelSpace(P2, 1, 1)
    grid = stft(indicator(space), indicator(space))
    assert wiener_norm(grid, 2) == 1.0
    zero_grid = stft(ModelFunction(space, np.zeros(4)), indicator(space))
    assert wiener_norm(zero_grid, 2) == 0.0
    with pytest.raises(ValueError):
        wiener_norm(grid, 0.99)


def test_wiener_two_routes_identical():
    rng = SplitMix64(13)
    for params, m, k in SPACES:
        space = ModelSpace(params, m, k)
        grid = stft(rand_fn(space, rng), rand_fn(space, rng))
        for p_exp in (1, 1.5, 2, 3, math.inf):
            assert wiener_norm(grid, p_exp) == wiener_norm_amalgam(grid, p_exp)


def test_wiener_dominates_modulation_at_two():
    # sup per cell beats the cell average, so the amalgam 2-norm dominates
    rng = SplitMix64(14)
    space = ModelSpace(P3, 1, 1)
    grid = stft(rand_fn(space, rng), rand_fn(space, rng))
    assert wiener_norm(grid, 2) >= modulation_norm(grid, 2) - 1e-12


def test_embed_isometry_and_functoriality():
    rng = SplitMix64(15)
    for params, m, k in ((P2, 1, 1), (M3, 1, 1)):
        space = ModelSpace(params, m, k)
        f, g = rand_fn(space, rng), rand_fn(space, rng)
        e_f = embed(f, m + 1, k + 1)
        e_g = embed(g, m + 1, k + 1)
        assert abs(inner(e_f, e_g) - inner(f, g)) <= 1e-14
        two_step = embed(embed(f, m + 1, k), m + 1, k + 1)
        assert np.array_equal(two_step.coeffs, e_f.coeffs)
        chi = indicator(space)
        assert np.array_equal(
            embed(chi, m + 1, k + 1).coeffs, indicator(ModelSpace(params, m + 1, k + 1)).coeffs
        )
    with pytest.raises(ValueError):
        embed(rand_fn(ModelSpace(P2, 1, 1), rng), 0, 1)


def test_resolution_errors_mention_embedding():
    space = ModelSpace(P2, 1, 1)
    f = indicator(space)
    with pytest.raises(ResolutionError, match="embed"):
        translate(f, GroupElement.from_rational(P2, 1, 2))
    with pytest.raises(ResolutionError, match="embed"):
        modulate(f, GroupElement.from_rational(P2, 1, 2))


def test_space_mismatch():
    f = indicator(ModelSpace(P2, 1, 1))
    g = indicator(ModelSpace(P2, 2, 1))
    with pytest.raises(ValueError):
        inner(f, g)
    with pytest.raises(ValueError):
        stft(f, g)


def test_serialization_round_trip():
    rng = SplitMix64(16)
    space = ModelSpace(M2, 1, 2)
    f = rand_fn(space, rng)
    doc = f.to_json_dict()
    back = ModelFunction.from_json_dict(doc)
    assert back.space == space
    assert np.array_equal(back.coeffs, f.coeffs)
    grid_doc = stft(f, f).to_json_dict()
    assert grid_doc["dim"] == space.dim
    assert len(grid_doc["values"]) == space.dim**2


# -- index kernels against the GroupElement path, bit for bit ---------------------

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


KERNEL_SPACES = tuple(
    (params, m, k)
    for params in (P2, P3, M2, M3)
    for m, k in ((0, 0), (0, 2), (2, 0), (1, 1), (2, 3))
)


def kernel_elements(space, rng):
    """Elements of A^m H: section members plus finer, negative and large ones."""
    params, m, k = space.params, space.m, space.k
    out = [GroupElement.zero(params)]
    for _ in range(6):
        if params.mode == CARRY:
            num = (rng.next_u64() << 8) - 2**71  # large numerators of either sign
            out.append(GroupElement.from_rational(params, num, rng.next_below(m + 1)))
        else:
            digits = {e: rng.next_below(params.p) for e in range(-m, k + 3)}
            out.append(GroupElement.from_coeffs(params, digits))
    return out


def test_char_values_match_pairing():
    rng = SplitMix64(17)
    for params, m, k in KERNEL_SPACES:
        space = ModelSpace(params, m, k)
        # the dual side of A^m H is A^k H: these are exactly the admissible xi
        members = space.dual.index_section.elements[:: max(1, space.dim // 9)]
        for xi in kernel_elements(space.dual, rng) + list(members):
            ref = np.array(
                [pairing_phase(x, xi).complex_value() for x in space.index_section],
                dtype=complex,
            )
            assert same_bits(space.char_values(xi), ref), (space, xi.text())


def test_index_of_matches_coset_lookup():
    rng = SplitMix64(18)
    for params, m, k in KERNEL_SPACES:
        space = ModelSpace(params, m, k)
        members = space.index_section.elements
        for x in kernel_elements(space, rng):
            assert space.index_of(x) == members.index(coset_rep(x, -k)), (space, x.text())


def test_indicator_matches_valuation_loop():
    rng = SplitMix64(19)
    for params, m, k in KERNEL_SPACES:
        space = ModelSpace(params, m, k)
        for shift in kernel_elements(space, rng)[:4]:
            for scale in range(-k, m + 1):
                ref = [
                    1.0 if (x - shift).valuation() >= -scale else 0.0
                    for x in space.index_section
                ]
                got = indicator(space, set_scale=scale, shift=shift).coeffs
                assert same_bits(got, np.array(ref, dtype=complex)), (space, scale, shift.text())


def test_embed_matches_index_loop():
    rng = SplitMix64(20)
    for params, m, k in KERNEL_SPACES:
        space = ModelSpace(params, m, k)
        f = rand_fn(space, rng)
        for m_new, k_new in ((m, k), (m + 1, k), (m, k + 1), (m + 2, k + 1)):
            target = ModelSpace(params, m_new, k_new)
            ref = np.zeros(target.dim, dtype=complex)
            for i, x in enumerate(target.index_section):
                if x.valuation() >= -m:
                    ref[i] = f.coeffs[space.index_section.elements.index(coset_rep(x, -k))]
            assert same_bits(embed(f, m_new, k_new).coeffs, ref), (space, m_new, k_new)


def recursive_radix_dft(vec, p, roots):
    """out_b = sum_a vec_a * roots[(a*b) % n], recursively: the bitwise reference."""
    n = len(vec)
    if n == 1:
        return vec.copy()
    subs = [recursive_radix_dft(vec[r::p], p, roots[::p]) for r in range(p)]
    idx = np.arange(n)
    out = np.zeros(n, dtype=complex)
    for r in range(p):
        out += roots[(r * idx) % n] * np.tile(subs[r], p)
    return out


def reference_dual_sums(space, vec):
    """One row at a time, tables rebuilt from Phase: the same float operations in order."""
    p, width = space.params.p, space.m + space.k
    if space.params.mode == CARRY:
        roots = np.array(
            [Phase.make(p, j, width).complex_value().conjugate() for j in range(space.dim)]
        )
        return recursive_radix_dft(vec, p, roots)
    kernel = np.array(
        [[Phase.make(p, c * d, 1).complex_value().conjugate() for d in range(p)]
         for c in range(p)]
    )
    arr = vec
    for j in range(width):
        arr = np.einsum("cd,sdt->sct", kernel, arr.reshape(p ** (width - 1 - j), p, p**j))
    digits = [[(i // p**j) % p for j in range(width)] for i in range(space.dim)]
    reversal = [sum(d * p ** (width - 1 - j) for j, d in enumerate(ds)) for ds in digits]
    return arr.reshape(space.dim)[reversal]


def test_batched_transform_matches_rows_and_oracle():
    rng = SplitMix64(21)
    for params, m, k in KERNEL_SPACES + ((P2, 3, 4), (M3, 2, 2)):
        space = ModelSpace(params, m, k)
        batch = np.stack([rng.complex_vector(space.dim) for _ in range(5)])
        out = space.raw_dual_sums(batch)
        assert out.shape == batch.shape
        for row, vec in zip(out, batch):
            assert same_bits(row, space.raw_dual_sums(vec))
            assert same_bits(row, reference_dual_sums(space, vec))
            if space.dim <= 81:
                naive = naive_dual_sums(ModelFunction(space, vec))
                assert np.max(np.abs(space.coset_measure * row - naive)) <= 1e-12


def test_stft_rows_match_reference_bits():
    rng = SplitMix64(22)
    for params, m, k in ((P2, 4, 3), (P3, 2, 2), (M2, 3, 4), (M3, 2, 2), (P3, 1, 0)):
        space = ModelSpace(params, m, k)
        f, g = rand_fn(space, rng), rand_fn(space, rng)
        grid = stft(f, g)
        for a, x in enumerate(space.index_section):
            shifted = translate(g, x).coeffs
            row = space.coset_measure * reference_dual_sums(space, f.coeffs * np.conj(shifted))
            assert same_bits(grid.values[a], row), (space, a)


def test_dimension_one_spaces():
    # numpy rounds a product of 2-D length-1 rows differently from 1-D ones
    rng = SplitMix64(23)
    for params in (P2, P3, M2, M3):
        space = ModelSpace(params, 0, 0)
        for _ in range(10):
            f, g = rand_fn(space, rng), rand_fn(space, rng)
            assert same_bits(fourier(f).coeffs, f.coeffs)
            assert same_bits(stft(f, g).values[0], 1.0 * (f.coeffs * np.conj(g.coeffs)))
