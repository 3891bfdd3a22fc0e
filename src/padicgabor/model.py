"""Exact finite-dimensional models of L^2 over the two local-field groups.

A model space holds the functions supported on A^m H that are constant on
cosets of A^-k H.  Such a function is a complex vector indexed by the
canonical section of A^m H / A^-k H (dimension p**(m+k)); each coset carries
Haar measure p**-k, so ||f||^2 = p**-k * sum |f_a|^2 and the indicator of H
has norm one.  A space is a frozen value of (params, m, k), and indices is
its one window test: x outside A^m H (p^(F-m) does not divide its key x*p^F)
raises ResolutionError there, and a character xi is tested by the dual
space, whose window is A^k H.

The index set is a finite abelian group: cyclic Z/p**(m+k) in carry mode,
elementary abelian (Z/p)**(m+k) in modular mode.  Inside a space an element
is its integer index a (x_a = a / p**m, resp. the polynomial whose base-p
digits are those of a), so every hot operation is integer-array arithmetic:
translation is index subtraction (cyclic, resp. digit-wise mod p) and
therefore an exact permutation of coefficients; modulation by the
character with dual index b is an exact diagonal of unit phases read from a
root-of-unity table at an integer position (a * b mod p**(m+k), resp. the
dot product of the digits of a with the reversed digits of b, mod p).  The
Fourier transform lands in the mirrored space (m' = k, k' = m) on the dual
side.  Its kernel is built from exact Phase values and runs along
the last axis of a batch of rows: carry mode is an iterative radix-p
decimation in time, modular mode one size-p contraction per digit with the
output digit order reversed (the residue pairing couples exponent e with
exponent -1-e).  For p = 2 the contraction is a butterfly of real ufuncs that
rounds exactly as the per-digit einsum does, and modular translation by index
a is XOR with a, since digit-wise subtraction mod 2 is XOR.

Short-time Fourier transforms take a stack of (f, g) pairs and run their
translation rows f * conj(T_x g) through one batched transform per block
of rows (STFT_BLOCK rows, fewer above dim 512), several small pairs to a
call, and hand out the grids one by one; stft takes the grid of one pair.
stft_magnitudes keeps only |V_g f| of one pair, which is all the norms read:
it takes np.abs of each block of the same loop, so it never holds the
complex grid and its magnitudes are those of stft bit for bit.  Each grid
carries every nonzero value of V_g f on the whole plane, since V_g f
vanishes for x outside A^m H or xi outside the dual window and is constant
on cosets of A^-k H x A^-m(dual) at model resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ._lazy import np
from .geometry import section
from .localfield import CARRY, GroupElement, GroupParams, Phase


# translation rows per batched transform in stft_grids, and at most STFT_BLOCK_ENTRIES
# entries per block: bounds the working set to a few such blocks next to the grids of the
# pairs in the call (32 rows at dim 1024, 16 at dim 2048)
STFT_BLOCK = 64
STFT_BLOCK_ENTRIES = 2**15


class ResolutionError(ValueError):
    """An element fell outside a model window; embed into a larger space first."""


@dataclass(frozen=True)
class ModelSpace:
    """Functions supported on A^m H, constant on A^-k H cosets; a value of (params, m, k)."""

    params: GroupParams
    m: int
    k: int

    def __post_init__(self):
        if self.m < 0 or self.k < 0:
            raise ValueError("extent m and resolution k must be nonnegative")

    @cached_property
    def dim(self) -> int:
        return self.params.p ** (self.m + self.k)

    @cached_property
    def dual(self) -> "ModelSpace":
        """Fourier-image space: support A^k H(dual), constant on A^-m cosets; self when m == k."""
        if self.m == self.k:
            return self
        dual = ModelSpace(self.params, self.k, self.m)
        dual.__dict__["dual"] = self
        return dual

    @cached_property
    def index_section(self) -> tuple[GroupElement, ...]:
        """The canonical section of A^m H / A^-k H; element i is index i."""
        return section(self.params, self.m, -self.k)

    @property
    def coset_measure(self) -> float:
        return float(self.params.p) ** (-self.k)

    def indices(self, keys, anchor: int) -> np.ndarray:
        """Index mod A^-k H of each x with key x*p^anchor: the one test that x lies in A^m H."""
        q = self.params.p ** abs(anchor - self.m)
        if anchor <= self.m:
            return np.array([key * q % self.dim for key in keys], dtype=np.int64)
        outside = next((key for key in keys if key % q), 0)  # a key in A^m H is 0 mod q
        if outside:
            x = GroupElement.from_rational(self.params, outside, anchor)
            raise ResolutionError(
                f"{x.text()} lies outside A^{self.m}H (valuation {x.valuation()} < -{self.m}); "
                f"embed into a space of larger extent (translation) or resolution (modulation)")
        return np.array([key // q % self.dim for key in keys], dtype=np.int64)

    def index_of(self, x: GroupElement) -> int:
        """Index of the coset of x mod A^-k H; x must lie in A^m H."""
        return int(self.indices((x.num,), x.vexp)[0])

    # -- index-group arithmetic ----------------------------------------------

    @cached_property
    def _digits(self) -> np.ndarray:
        p, width = self.params.p, self.m + self.k
        places = p ** np.arange(width)
        return np.arange(self.dim)[:, np.newaxis] // places % p

    def shift_table(self, ax: np.ndarray) -> np.ndarray:
        """Row i: the index of x_b - x_{ax[i]} for every column b."""
        if self.params.mode == CARRY:
            return (np.arange(self.dim) - ax[:, np.newaxis]) % self.dim
        p = self.params.p
        if p == 2:
            return np.arange(self.dim) ^ ax[:, np.newaxis]  # digit-wise mod 2 is XOR
        idx = np.arange(self.dim)
        out = np.zeros((len(ax), self.dim), dtype=np.int64)
        for j in range(self.m + self.k):
            place = p**j
            out += (idx // place - ax[:, np.newaxis] // place) % p * place
        return out

    def char_values(self, xi: GroupElement) -> np.ndarray:
        """Unit phases <x_a, xi> over the index section; xi must have val >= -k."""
        return self.char_rows(np.array([self.dual.index_of(xi)]))[0]

    def char_rows(self, b: np.ndarray) -> np.ndarray:
        """Row r: the unit phases <x_a, xi> for the xi of dual index b[r], a table lookup."""
        if self.params.mode == CARRY:
            # <x_a, xi_b> = a * b / p^(m+k) mod 1
            return np.conj(self._neg_root_table[b[:, np.newaxis] * np.arange(self.dim) % self.dim])
        # residue pairing: digit j of a meets digit m + k - 1 - j of b
        return self._unit_root_table[self._digits[b, ::-1] @ self._digits.T % self.params.p]

    # -- fast transform --------------------------------------------------------

    @cached_property
    def _neg_root_table(self) -> np.ndarray:
        # exp(-2 pi i j / dim) for j = 0..dim-1, from exact Phase values
        p, width = self.params.p, self.m + self.k
        return np.array(
            [Phase.make(p, j, width).complex_value().conjugate() for j in range(self.dim)],
            dtype=complex,
        )

    @cached_property
    def _unit_root_table(self) -> np.ndarray:
        # exp(2 pi i c / p) for c = 0..p-1, from exact Phase values
        p = self.params.p
        return np.array([Phase.make(p, c, 1).complex_value() for c in range(p)], dtype=complex)

    @cached_property
    def _digit_kernel(self) -> np.ndarray:
        # the p x p transform of one base-p digit: exp(-2 pi i c d / p)
        p = self.params.p
        return np.conj(self._unit_root_table[np.outer(range(p), range(p)) % p])

    @cached_property
    def _reversal(self) -> np.ndarray:
        p, width = self.params.p, self.m + self.k
        return self._digits @ (p ** np.arange(width - 1, -1, -1))

    def raw_dual_sums(self, vec: np.ndarray) -> np.ndarray:
        """sum_a vec_a * conj(<x_a, xi_b>) over the dual index section.

        Transforms along the last axis, so the rows of a 2-D vec form a batch.
        """
        p = self.params.p
        width = self.m + self.k
        arr = np.asarray(vec, dtype=complex)
        rows = arr.reshape(-1, self.dim)
        if self.params.mode == CARRY:
            return _radix_dft(rows, p, self._neg_root_table).reshape(arr.shape)
        if p == 2:
            return self._binary_dual_sums(rows).reshape(arr.shape)
        count = len(rows)
        kernel = self._digit_kernel
        for j in range(width):
            rows = rows.reshape(count, p ** (width - 1 - j), p, p**j)
            rows = np.einsum("cd,rsdt->rsct", kernel, rows)
        return rows.reshape(count, self.dim)[:, self._reversal].reshape(arr.shape)

    @cached_property
    def _twist(self) -> np.ndarray:
        # (ki, -ki) against the (re, im) planes; ki = Im K[1, 1] is -1.2e-16, not 0
        ki = self._digit_kernel[1, 1].imag
        return np.array([ki, -ki]).reshape(2, 1, 1)

    def _binary_dual_sums(self, rows: np.ndarray) -> np.ndarray:
        """The p = 2 digit contractions as butterflies, with the einsum path's bits.

        einsum adds K[c, 0] * x0 and K[c, 1] * x1 to a zero accumulator.  Three
        kernel entries are 1-0j, whose products are x up to the sign of zero, and
        the accumulator turns -0.0 into +0.0.  Adding 0.0 to the input once does
        the same, and no later sum or difference of such values is -0.0.  What is
        left is out0 = x0 + x1 and out1 = x0 - s with s = -K[1, 1] * x1, whose
        parts x1.re + ki * x1.im and x1.im - ki * x1.re are each one real product
        and one real sum, never a fused multiply-add.

        Works on separate real and imaginary planes.  Level j reads the digit-j
        pairs as the two halves of each row and writes out0, out1 interleaved
        (Stockham order), so the input is read in digit-reversed order and the
        last level writes the output, already in dual-index order.
        """
        count, dim = rows.shape
        half = dim // 2
        width = self.m + self.k
        twist = self._twist
        out = np.take(rows, self._reversal, axis=1)
        out_planes = out.view(np.float64).reshape(count, dim, 2).transpose(2, 0, 1)
        src, dst = np.empty((2, 2, count, dim))
        s = np.empty((2, count, half))
        np.add(out_planes, 0.0, out=src)
        for j in range(width):
            x0, x1 = src[:, :, :half], src[:, :, half:]
            y = out_planes if j == width - 1 else dst
            np.multiply(x1[::-1], twist, out=s)  # (ki * x1.im, -ki * x1.re)
            np.add(x1, s, out=s)
            np.subtract(x0, s, out=y[:, :, 1::2])
            np.add(x0, x1, out=y[:, :, 0::2])
            src, dst = dst, src
        return out


def _radix_dft(rows: np.ndarray, p: int, roots: np.ndarray) -> np.ndarray:
    """out[:, b] = sum_a rows[:, a] * roots[(a*b) % n]; radix-p decimation in time.

    Iterative, from length-1 transforms up.  At each level the length-(size*p)
    transform of the subsequence at offset c (stride groups = n / (size*p))
    combines the p length-size transforms at offsets c + r * groups.
    """
    count, n = rows.shape
    if n == 1:
        return rows.copy()
    out = rows.reshape(count, n, 1)
    size = 1
    while size < n:
        groups = n // (size * p)
        sub = out.reshape(count, p, groups, 1, size)
        twiddles = roots[::groups]
        idx = np.arange(size * p)
        # output position q * size + t of each group takes sub[:, r, :, 0, t] for every q
        out = np.zeros((count, groups, p, size), dtype=complex)
        for r in range(p):
            out += twiddles[(r * idx) % (size * p)].reshape(p, size) * sub[:, r]
        size *= p
    return out.reshape(count, n)


@dataclass
class ModelFunction:
    """Complex coefficient vector over a model space's index section."""

    space: ModelSpace
    coeffs: np.ndarray

    def __init__(self, space: ModelSpace, coeffs):
        vec = np.asarray(coeffs, dtype=complex)
        if vec.shape != (space.dim,):
            raise ValueError(f"expected {space.dim} coefficients, got shape {vec.shape}")
        self.space = space
        self.coeffs = vec.copy()

    def norm(self) -> float:
        return float(row_norms(self.space, self.coeffs))

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def __add__(self, other: "ModelFunction") -> "ModelFunction":
        _same_space(self, other)
        return ModelFunction(self.space, self.coeffs + other.coeffs)

    def __sub__(self, other: "ModelFunction") -> "ModelFunction":
        _same_space(self, other)
        return ModelFunction(self.space, self.coeffs - other.coeffs)

    def scaled(self, c: complex) -> "ModelFunction":
        return ModelFunction(self.space, c * self.coeffs)


def row_norms(space: ModelSpace, rows: np.ndarray) -> np.ndarray:
    """||f|| for the coefficients of f along the last axis of rows, each row summed on its own."""
    return np.sqrt(space.coset_measure * np.sum(np.abs(rows) ** 2, axis=-1))


def _same_space(f: ModelFunction, g: ModelFunction) -> None:
    if f.space != g.space:
        raise ValueError(f"model spaces differ: {f.space!r} vs {g.space!r}")


def indicator(space: ModelSpace, set_scale: int = 0, shift: GroupElement | None = None) -> ModelFunction:
    """Characteristic function of shift + A^set_scale H as a model function."""
    if not (-space.k <= set_scale <= space.m):
        raise ValueError(
            f"set scale {set_scale} outside the representable range [{-space.k}, {space.m}]"
        )
    c = space.index_of(shift) if shift is not None else 0
    # x_a - shift lies in A^set_scale H iff a = c mod p^(m - set_scale)
    period = space.params.p ** (space.m - set_scale)
    members = np.arange(space.dim) % period == c % period
    return ModelFunction(space, members.astype(float))


def inner(f: ModelFunction, g: ModelFunction) -> complex:
    """L^2 pairing with m(H) = 1: p**-k * sum f_a conj(g_a)."""
    _same_space(f, g)
    return complex(f.space.coset_measure * np.vdot(g.coeffs, f.coeffs))


def translate(f: ModelFunction, x: GroupElement) -> ModelFunction:
    """(T_x f)(y) = f(y - x); exact coefficient permutation, x in A^m H."""
    sources = f.space.shift_table(np.array([f.space.index_of(x)]))[0]  # a -> index of x_a - x
    return ModelFunction(f.space, f.coeffs[sources])


def modulate(f: ModelFunction, xi: GroupElement) -> ModelFunction:
    """(M_xi f)(y) = <y, xi> f(y); exact diagonal of unit phases, val(xi) >= -k."""
    return ModelFunction(f.space, f.space.char_values(xi) * f.coeffs)


def fourier(f: ModelFunction) -> ModelFunction:
    """Unitary Fourier transform onto the dual model space.

    (F f)_b = p**-k sum_a f_a conj(<x_a, xi_b>); sends the indicator of H to
    the indicator of the dual unit ball and preserves the L^2 norm exactly up
    to rounding.
    """
    raw = f.space.raw_dual_sums(f.coeffs)
    return ModelFunction(f.space.dual, f.space.coset_measure * raw)


@dataclass
class StftMagnitudes:
    """|V_g f| over index section x dual index section: all that the norms of the grid read.

    One grid cell of the plane has measure p**-(m+k), which makes ||V_g f||_2 = ||f||_2 ||g||_2.
    """

    space: ModelSpace
    magnitudes: np.ndarray

    @property
    def cell_measure(self) -> float:
        return float(self.space.params.p) ** (-(self.space.m + self.space.k))

    def l2_norm(self) -> float:
        return self._l2_norm(self.magnitudes**2)

    def _l2_norm(self, squares: np.ndarray) -> float:
        return math.sqrt(self.cell_measure * float(np.sum(squares)))

    def l2_norms(self) -> tuple[float, float]:
        """(l2_norm(), modulation_norm(self, 2)) from one square of |V|, made in place: this
        uses up the magnitudes, so take every other norm of the grid first."""
        squares = np.square(self.magnitudes, out=self.magnitudes)
        del self.magnitudes  # a StftGrid takes them afresh from its values
        return self._l2_norm(squares), _lp_norm(squares, self.cell_measure, 2.0)


class StftGrid(StftMagnitudes):
    """Matrix of V_g f over index section x dual index section.

    Entry (a, b) is <f, M_{xi_b} T_{x_a} g>.  Its magnitudes are taken on first use.
    """

    def __init__(self, space: ModelSpace, values: np.ndarray):
        self.space = space
        self.values = values

    @cached_property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)

    def to_json_dict(self) -> dict:
        return {
            "p": self.space.params.p,
            "mode": self.space.params.mode,
            "m": self.space.m,
            "k": self.space.k,
            "dim": self.space.dim,
            "values": self.values.reshape(-1),  # complex; the CLI writes [re, im] pairs
        }


def _stft_blocks(space: ModelSpace, fs: np.ndarray, gs: np.ndarray):
    """Yield (start, block) for each batched transform, pairs in order: block[i, r] is row
    start + r of V_g f for the i-th pair of the call, over the dual index section.

    One call takes STFT_BLOCK translation rows f * conj(T_x g) of one pair, fewer where a block
    would pass STFT_BLOCK_ENTRIES entries, or every row of the STFT_BLOCK // dim pairs that
    fit.  The product goes to a fresh block, out of place: numpy rounds a length-1 product in
    place as it would in pure Python.  Every consumer of the STFT reads these blocks, so the
    complex grid and its magnitudes agree bit for bit.
    """
    n = space.dim
    per = max(1, STFT_BLOCK // n)
    rows = min(STFT_BLOCK, max(1, STFT_BLOCK_ENTRIES // n))
    for first in range(0, len(fs), per):
        f, g = fs[first:first + per, np.newaxis], gs[first:first + per]
        for start in range(0, n, rows):
            shifted = g[:, space.shift_table(np.arange(start, min(n, start + rows)))]
            block = np.multiply(f, np.conjugate(shifted, out=shifted))
            yield start, np.multiply(space.coset_measure, space.raw_dual_sums(block), out=block)


def stft_grids(space: ModelSpace, fs: np.ndarray, gs: np.ndarray):
    """Yield V_g f, a dim x dim array, for each pair of rows of fs and gs (count x dim) in order.

    Only the grids of the pairs that share a transform call (_stft_blocks) are held.
    """
    n = space.dim
    for start, block in _stft_blocks(space, fs, gs):
        if start == 0:
            values = np.empty((len(block), n, n), dtype=complex)
        values[:, start:start + block.shape[1]] = block
        if start + block.shape[1] == n:
            yield from values


def stft(f: ModelFunction, g: ModelFunction) -> StftGrid:
    """Short-time Fourier transform of f against window g: the stft_grids of one pair."""
    _same_space(f, g)
    return StftGrid(f.space, next(stft_grids(f.space, f.coeffs[np.newaxis], g.coeffs[np.newaxis])))


def stft_magnitudes(f: ModelFunction, g: ModelFunction) -> StftMagnitudes:
    """|V_g f| block by block, bit for bit np.abs(stft(f, g).values); no complex grid is held."""
    _same_space(f, g)
    n = f.space.dim
    mags = np.empty((n, n))
    for start, block in _stft_blocks(f.space, f.coeffs[np.newaxis], g.coeffs[np.newaxis]):
        np.abs(block[0], out=mags[start:start + block.shape[1]])
    return StftMagnitudes(f.space, mags)


def _check_exponent(p_exp) -> float:
    p_exp = float(p_exp)
    if not p_exp >= 1:
        raise ValueError(f"norm exponent must be >= 1 or inf, got {p_exp}")
    return p_exp


def modulation_norm(grid: StftMagnitudes, p_exp) -> float:
    """L^p norm of the grid with the plane's cell measure; sup norm at p = inf."""
    p_exp = _check_exponent(p_exp)
    mags = grid.magnitudes
    if math.isinf(p_exp):
        return float(np.max(mags))
    return _lp_norm(mags**p_exp, grid.cell_measure, p_exp)


def _lp_norm(terms: np.ndarray, cell_measure: float, p_exp: float) -> float:
    """(sum of terms * cell_measure) ** (1 / p_exp) for terms = |V|**p_exp, scaled in place."""
    terms *= cell_measure  # in place: no second dim x dim temporary
    return float(np.sum(terms) ** (1.0 / p_exp))


def _cell_sups(grid: StftMagnitudes) -> np.ndarray:
    """Sup of |V| over each unit cell (c + H) x (d + dual unit ball).

    Rows split as a = q * p**m + r with r the H-coset of x_a, columns as
    b = s * p**k + u likewise; cells form a p**m x p**k array, each holding
    p**k * p**m grid entries and carrying measure 1.
    """
    space = grid.space
    p = space.params.p
    blocks = grid.magnitudes.reshape(p**space.k, p**space.m, p**space.m, p**space.k)
    return blocks.max(axis=(0, 2))


def wiener_norm(grid: StftMagnitudes, p_exp) -> float:
    """l^p sum over unit cells of local sups; cells have measure 1, so also the amalgam integral."""
    p_exp = _check_exponent(p_exp)
    sups = _cell_sups(grid)
    if math.isinf(p_exp):
        return float(np.max(sups))
    return float(np.sum(sups**p_exp) ** (1.0 / p_exp))


def embed(f: ModelFunction, m_new: int, k_new: int) -> ModelFunction:
    """Isometric inclusion into a wider/finer model space."""
    space = f.space
    if m_new < space.m or k_new < space.k:
        raise ValueError(
            f"embedding cannot shrink the model: ({space.m},{space.k}) -> ({m_new},{k_new})"
        )
    target = ModelSpace(space.params, m_new, k_new)
    coeffs = np.zeros(target.dim, dtype=complex)
    # target element i lies in A^m H iff p^(m_new - m) divides i
    step = space.params.p ** (m_new - space.m)
    inside = np.arange(0, target.dim, step)
    coeffs[inside] = f.coeffs[(inside // step) % space.dim]
    return ModelFunction(target, coeffs)
