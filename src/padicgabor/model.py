"""Exact finite-dimensional models of L^2 over the two local-field groups.

A model space holds the functions supported on A^m H that are constant on
cosets of A^-k H.  Such a function is a complex vector indexed by the
canonical section of A^m H / A^-k H (dimension p**(m+k)); each coset carries
Haar measure p**-k, so ||f||^2 = p**-k * sum |f_a|^2 and the indicator of H
has norm one.

The index set is a finite abelian group: cyclic Z/p**(m+k) in carry mode,
elementary abelian (Z/p)**(m+k) in modular mode.  Inside a space an element
is its integer index a (x_a = a / p**m, resp. the polynomial whose base-p
digits are those of a), so every hot operation is integer-array arithmetic:
translation is index subtraction (cyclic, resp. digit-wise mod p) and
therefore an exact permutation of coefficients; modulation is an exact
diagonal of unit phases read from a root-of-unity table at an integer
position (a * num * p**(k - vexp) mod p**(m+k), resp. a digit dot product
mod p).  The Fourier transform lands in the mirrored space (m' = k, k' = m)
on the dual side.  Its kernel is built from exact Phase values and runs along
the last axis of a batch of rows: carry mode is an iterative radix-p
decimation in time, modular mode one size-p contraction per digit with the
output digit order reversed (the residue pairing couples exponent e with
exponent -1-e).

Short-time Fourier transforms gather STFT_BLOCK translation rows at a time,
f * conj(T_x g) for each row, and run one batched transform per block; the
resulting grid carries every nonzero value of V_g f on the whole plane,
since V_g f vanishes for x outside A^m H or xi outside the dual window and
is constant on cosets of A^-k H x A^-m(dual) at model resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Section, anchored_int, section
from .localfield import CARRY, GroupElement, GroupParams, Phase


# translation rows per batched transform in stft: bounds the working set to
# a few STFT_BLOCK x dim arrays next to the dim x dim grid
STFT_BLOCK = 64


class ResolutionError(ValueError):
    """A shift fell outside the model window; embed into a larger space first."""


class ModelSpace:
    """Functions supported on A^m H, constant on A^-k H cosets."""

    def __init__(self, params: GroupParams, m: int, k: int):
        if m < 0 or k < 0:
            raise ValueError("extent m and resolution k must be nonnegative")
        self.params = params
        self.m = m
        self.k = k
        self.dim = params.p ** (m + k)
        self._section: Section | None = None
        self._dual: "ModelSpace | None" = None
        self._neg_roots: np.ndarray | None = None
        self._unit_roots: np.ndarray | None = None
        self._kernel: np.ndarray | None = None
        self._rev_perm: np.ndarray | None = None
        self._digit_matrix: np.ndarray | None = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModelSpace)
            and self.params == other.params
            and self.m == other.m
            and self.k == other.k
        )

    def __hash__(self) -> int:
        return hash((self.params, self.m, self.k))

    def __repr__(self) -> str:
        return f"ModelSpace(p={self.params.p}, mode={self.params.mode}, m={self.m}, k={self.k})"

    @property
    def dual(self) -> "ModelSpace":
        """Fourier-image space: support A^k H(dual), constant on A^-m cosets."""
        if self._dual is None:
            self._dual = ModelSpace(self.params, self.k, self.m)
            self._dual._dual = self
        return self._dual

    @property
    def index_section(self) -> Section:
        """The canonical section of A^m H / A^-k H; element i is index i."""
        if self._section is None:
            self._section = section(self.params, self.m, -self.k)
        return self._section

    @property
    def coset_measure(self) -> float:
        return float(self.params.p) ** (-self.k)

    def index_of(self, x: GroupElement) -> int:
        """Index of the coset of x mod A^-k H; requires x in A^m H."""
        if x.valuation() < -self.m:
            raise ResolutionError(
                f"{x.text()} has valuation {x.valuation()} < -{self.m}; "
                f"embed into a space with larger m"
            )
        return anchored_int(x, self.m) % self.dim

    # -- index-group arithmetic ----------------------------------------------

    def _digits(self) -> np.ndarray:
        if self._digit_matrix is None:
            p, width = self.params.p, self.m + self.k
            places = p ** np.arange(width)
            self._digit_matrix = np.arange(self.dim)[:, np.newaxis] // places % p
        return self._digit_matrix

    def _shift_table(self, ax: np.ndarray) -> np.ndarray:
        """Row i: the index of x_b - x_{ax[i]} for every column b."""
        if self.params.mode == CARRY:
            return (np.arange(self.dim) - ax[:, np.newaxis]) % self.dim
        p = self.params.p
        idx = np.arange(self.dim)
        out = np.zeros((len(ax), self.dim), dtype=np.int64)
        for j in range(self.m + self.k):
            place = p**j
            out += (idx // place - ax[:, np.newaxis] // place) % p * place
        return out

    def shift_sources(self, x: GroupElement) -> np.ndarray:
        """Permutation sending coefficient index a to the index of x_a - x."""
        return self._shift_table(np.array([self.index_of(x)]))[0]

    def char_values(self, xi: GroupElement) -> np.ndarray:
        """Unit phases <x_a, xi> over the index section; xi must have val >= -k."""
        if xi.valuation() < -self.k:
            raise ResolutionError(
                f"{xi.text()} has valuation {xi.valuation()} < -{self.k}; "
                f"embed into a space with larger k"
            )
        p = self.params.p
        if self.params.mode == CARRY:
            # <a / p^m, num / p^vexp> = a * num * p^(k - vexp) / p^(m+k) mod 1
            step = xi.num * p ** (self.k - xi.vexp) % self.dim
            return np.conj(self._neg_root_table()[np.arange(self.dim) * step % self.dim])
        # residue pairing: digit j of x_a (exponent j - m) meets exponent m - 1 - j of xi
        width = self.m + self.k
        xi_digits = np.array([xi.digit(self.m - 1 - j) for j in range(width)], dtype=int)
        return self._unit_root_table()[self._digits() @ xi_digits % p]

    # -- fast transform --------------------------------------------------------

    def _neg_root_table(self) -> np.ndarray:
        # exp(-2 pi i j / dim) for j = 0..dim-1, from exact Phase values
        if self._neg_roots is None:
            width = self.m + self.k
            self._neg_roots = np.array(
                [
                    Phase.make(self.params.p, j, width).complex_value().conjugate()
                    for j in range(self.dim)
                ],
                dtype=complex,
            )
        return self._neg_roots

    def _unit_root_table(self) -> np.ndarray:
        # exp(2 pi i c / p) for c = 0..p-1, from exact Phase values
        if self._unit_roots is None:
            p = self.params.p
            self._unit_roots = np.array(
                [Phase.make(p, c, 1).complex_value() for c in range(p)], dtype=complex
            )
        return self._unit_roots

    def _digit_kernel(self) -> np.ndarray:
        # the p x p transform of one base-p digit: exp(-2 pi i c d / p)
        if self._kernel is None:
            p = self.params.p
            self._kernel = np.conj(self._unit_root_table()[np.outer(range(p), range(p)) % p])
        return self._kernel

    def _reversal(self) -> np.ndarray:
        if self._rev_perm is None:
            p, width = self.params.p, self.m + self.k
            digits = self._digits()
            self._rev_perm = digits @ (p ** np.arange(width - 1, -1, -1))
        return self._rev_perm

    def raw_dual_sums(self, vec: np.ndarray) -> np.ndarray:
        """sum_a vec_a * conj(<x_a, xi_b>) over the dual index section.

        Transforms along the last axis, so the rows of a 2-D vec form a batch.
        """
        p = self.params.p
        width = self.m + self.k
        arr = np.asarray(vec, dtype=complex)
        rows = arr.reshape(-1, self.dim)
        if self.params.mode == CARRY:
            return _radix_dft(rows, p, self._neg_root_table()).reshape(arr.shape)
        count = len(rows)
        kernel = self._digit_kernel()
        for j in range(width):
            rows = rows.reshape(count, p ** (width - 1 - j), p, p**j)
            rows = np.einsum("cd,rsdt->rsct", kernel, rows)
        return rows.reshape(count, self.dim)[:, self._reversal()].reshape(arr.shape)


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
        sub = out.reshape(count, p, groups, size)
        twiddles = roots[::groups]
        idx = np.arange(size * p)
        out = np.zeros((count, groups, size * p), dtype=complex)
        for r in range(p):
            out += twiddles[(r * idx) % (size * p)] * np.tile(sub[:, r], (1, 1, p))
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
        return math.sqrt(self.space.coset_measure * float(np.sum(np.abs(self.coeffs) ** 2)))

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

    def to_json_dict(self) -> dict:
        return {
            "p": self.space.params.p,
            "mode": self.space.params.mode,
            "m": self.space.m,
            "k": self.space.k,
            "coeffs": _pairs(self.coeffs),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ModelFunction":
        space = ModelSpace(GroupParams(doc["p"], doc["mode"]), doc["m"], doc["k"])
        return ModelFunction(space, [complex(re, im) for re, im in doc["coeffs"]])


def _pairs(vec: np.ndarray) -> list:
    """[[re, im], ...] as Python floats, for JSON."""
    return np.column_stack((vec.real, vec.imag)).tolist()


def _same_space(f: ModelFunction, g: ModelFunction) -> None:
    if f.space != g.space:
        raise ValueError(f"model spaces differ: {f.space!r} vs {g.space!r}")


def indicator(space: ModelSpace, set_scale: int = 0, shift: GroupElement | None = None) -> ModelFunction:
    """Characteristic function of shift + A^set_scale H as a model function."""
    if not (-space.k <= set_scale <= space.m):
        raise ValueError(
            f"set scale {set_scale} outside the representable range [{-space.k}, {space.m}]"
        )
    c = shift if shift is not None else GroupElement.zero(space.params)
    if c.valuation() < -space.m:
        raise ValueError(f"shift {c.text()} lies outside A^{space.m}H")
    # x_a - c lies in A^set_scale H iff a = index(c) mod p^(m - set_scale)
    period = space.params.p ** (space.m - set_scale)
    members = np.arange(space.dim) % period == space.index_of(c) % period
    return ModelFunction(space, members.astype(float))


def inner(f: ModelFunction, g: ModelFunction) -> complex:
    """L^2 pairing with m(H) = 1: p**-k * sum f_a conj(g_a)."""
    _same_space(f, g)
    return complex(f.space.coset_measure * np.vdot(g.coeffs, f.coeffs))


def translate(f: ModelFunction, x: GroupElement) -> ModelFunction:
    """(T_x f)(y) = f(y - x); exact coefficient permutation, x in A^m H."""
    return ModelFunction(f.space, f.coeffs[f.space.shift_sources(x)])


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
class StftGrid:
    """Matrix of V_g f over index section x dual index section.

    Entry (a, b) is <f, M_{xi_b} T_{x_a} g>.  One grid cell of the plane has
    measure p**-(m+k), which makes ||V_g f||_2 = ||f||_2 ||g||_2.
    """

    space: ModelSpace
    values: np.ndarray

    @property
    def cell_measure(self) -> float:
        return float(self.space.params.p) ** (-(self.space.m + self.space.k))

    def l2_norm(self) -> float:
        return math.sqrt(self.cell_measure * float(np.sum(np.abs(self.values) ** 2)))

    def to_json_dict(self) -> dict:
        return {
            "p": self.space.params.p,
            "mode": self.space.params.mode,
            "m": self.space.m,
            "k": self.space.k,
            "dim": self.space.dim,
            "values": _pairs(self.values.reshape(-1)),
        }


def stft(f: ModelFunction, g: ModelFunction) -> StftGrid:
    """Short-time Fourier transform of f against window g, STFT_BLOCK rows at a time."""
    _same_space(f, g)
    space = f.space
    n = space.dim
    values = np.empty((n, n), dtype=complex)
    measure = space.coset_measure
    for start in range(0, n, STFT_BLOCK):
        stop = min(start + STFT_BLOCK, n)
        shifted = g.coeffs[space._shift_table(np.arange(start, stop))]
        if n == 1:
            shifted = shifted[0]  # numpy rounds length-1 rows of a 2-D product differently
        values[start:stop] = measure * space.raw_dual_sums(f.coeffs * np.conj(shifted))
    return StftGrid(space, values)


def _check_exponent(p_exp) -> float:
    p_exp = float(p_exp)
    if not p_exp >= 1:
        raise ValueError(f"norm exponent must be >= 1 or inf, got {p_exp}")
    return p_exp


def modulation_norm(grid: StftGrid, p_exp) -> float:
    """L^p norm of the grid with the plane's cell measure; sup norm at p = inf."""
    p_exp = _check_exponent(p_exp)
    mags = np.abs(grid.values)
    if math.isinf(p_exp):
        return float(np.max(mags))
    return float(np.sum(mags**p_exp * grid.cell_measure) ** (1.0 / p_exp))


def _cell_sups(grid: StftGrid) -> np.ndarray:
    """Sup of |V| over each unit cell (c + H) x (d + dual unit ball).

    Rows split as a = q * p**m + r with r the H-coset of x_a, columns as
    b = s * p**k + u likewise; cells form a p**m x p**k array, each holding
    p**k * p**m grid entries and carrying measure 1.
    """
    space = grid.space
    p = space.params.p
    blocks = np.abs(grid.values).reshape(p**space.k, p**space.m, p**space.m, p**space.k)
    return blocks.max(axis=(0, 2))


def wiener_norm(grid: StftGrid, p_exp) -> float:
    """l^p sum over unit cells of local sups (the amalgam-space norm)."""
    p_exp = _check_exponent(p_exp)
    sups = _cell_sups(grid)
    if math.isinf(p_exp):
        return float(np.max(sups))
    return float(np.sum(sups**p_exp) ** (1.0 / p_exp))


def wiener_norm_amalgam(grid: StftGrid, p_exp) -> float:
    """Integral form of the amalgam norm: sum of sup^p times cell measure 1.

    Equals wiener_norm exactly (not just approximately): the unit cells have
    Haar measure one, so the integrand is the same term-by-term sum.
    """
    p_exp = _check_exponent(p_exp)
    sups = _cell_sups(grid)
    cell_measure = 1.0
    if math.isinf(p_exp):
        return float(np.max(sups))
    return float(np.sum(sups**p_exp * cell_measure) ** (1.0 / p_exp))


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
