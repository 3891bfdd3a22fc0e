"""Gabor systems on model spaces: Gram/frame operators and diagnostics.

A system is the family M_xi T_x phi over a finite multiset of plane points
(x, xi).  build reads two index arrays from the point keys, the space's
indices of the x and its dual's of the xi, so the space's indices is the one
window test; the dim x count matrix of the vectors is made on first use
(duals, analysis, the Gram).  The frame operator S f = sum <f, v> v is
assembled as a dim x dim Hermitian matrix acting on coefficient vectors with
the coset measure folded in; its extreme eigenvalues are the frame bounds of
the system for the model space, the natural desk-scale reading of "frame
for L^2".  frame_operator takes one of two routes, chosen from dim and count
alone (takes_transforms): an einsum over the vectors, O(dim^2 count), for
systems made from an explicit matrix and for small ones, and four batched
transforms that never form the vectors (_transform_frame_operator),
O(dim^2 p (m + k)) whatever the count.  The crossover, measured on 2 cores
for p from 2 to 509, both modes and dims 4 to 512, lies at 5 to 19 points
per p (m + k) from dim 64 up and at 1.5e4 to 2.4e5 MACs below.

Each system takes the spectrum of S at most once (GaborSystem.spectrum): its
least and largest eigenvalue and its rank.  Bounds, rank, the ONB test (whose
max |lambda - 1| the extremes attain) and the Riesz test need nothing else,
and no count x count Gram is formed for them.  The canonical dual S^-1 v
(Groechenig 2001, 5.1) is one Cholesky solve with S, formed again for it.
A Riesz basis is a spanning square system: in finite dimension its Gram is
invertible and its canonical dual biorthogonal.
Classification:

* ONB         -- count == dim and S = I: for square W, mu W W* = I iff
  mu W* W = I, and ||G - I||_2 = ||S - I||_2 = max |lambda - 1|;
* TightFrame  -- spanning with equal bounds (reported with the constant);
* Frame       -- spanning with a positive lower bound;
* Incomplete  -- rank below dim.  Every finite system has a finite upper
  bound, so a Bessel-only system at desk scale is exactly an incomplete one
  and no BesselOnly label is ever produced.

Multiplicity matters: a repeated point contributes its rank-one term twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._lazy import np
from .density import PHASE, PointSet, finite_density_check
from .linalg import RANK_TOL, HermitianMatrix, RankDeficiencyError, hermitian_eigs, solve_hermitian
from .model import ModelFunction, StftGrid, _same_space, row_norms, stft_grids, wiener_norm
# build no longer calls it; it stays a gabor name because perfbench/selftest.py
# checks that tracing patches padicgabor.gabor.modulate
from .model import modulate  # noqa: F401

ONB = "ONB"
TIGHT_FRAME = "TightFrame"
FRAME = "Frame"
INCOMPLETE = "Incomplete"

ONB_TOL = 1e-12
TIGHT_TOL = 1e-9

# takes_transforms: the einsum's dim^2 count MACs against the transforms' dim rows through
# m + k size-p digit steps each, p^(m+k) = dim
TRANSFORM_MIN_MACS = 2**17
TRANSFORM_COUNT_PER_DIGIT = 12


class GaborSystem:
    """The vectors M_xi T_x window over lam: made by build from the points' index arrays, or
    given as an explicit dim x count matrix (column c is the vector of point c)."""

    def __init__(self, window: ModelFunction, lam: PointSet, matrix: np.ndarray | None = None,
                 indices: tuple[np.ndarray, np.ndarray] | None = None):
        self.window = window
        self.lam = lam
        self.indices = indices  # (index of each x, dual index of each xi), from build
        if matrix is not None:
            self.matrix = matrix  # shadows the cached property

    @property
    def dim(self) -> int:
        return self.window.space.dim

    @property
    def count(self) -> int:
        return len(self.indices[0]) if self.indices is not None else self.matrix.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """dim x count: one gather-multiply over the index arrays.  Row c of the shift table
        gathers T_{x_c} window, which the character row of xi_c then modulates."""
        space = self.window.space
        ax, bx = self.indices
        rows = space.char_rows(bx) * self.window.coeffs[space.shift_table(ax)]
        return np.ascontiguousarray(rows.T)

    def vector_matrix(self) -> np.ndarray:
        """dim x count matrix whose columns are the system vectors."""
        return self.matrix

    @cached_property
    def spectrum(self):
        """hermitian_eigs of the frame operator: ((lower, upper, rank), error bound)."""
        return hermitian_eigs(HermitianMatrix(frame_operator(self)))


def build(window: ModelFunction, lam: PointSet) -> GaborSystem:
    """M_xi T_x window over lam, preserving order and multiplicity, as the two index arrays
    of its points; the vectors are made on first use (GaborSystem.matrix)."""
    if window.is_zero():
        raise ValueError("window must be nonzero")
    if lam.ambient != PHASE:
        raise ValueError("a Gabor system needs phase-space points (x, xi)")
    space = window.space
    xs, xis = zip(*lam.keys) if lam.keys else ((), ())
    indices = space.indices(xs, lam.anchor), space.dual.indices(xis, lam.anchor)
    return GaborSystem(window, lam, indices=indices)


def gram(sys: GaborSystem) -> np.ndarray:
    """count x count Hermitian matrix of pairwise inner products."""
    w = sys.vector_matrix()
    measure = sys.window.space.coset_measure
    return measure * np.einsum("ai,aj->ij", np.conj(w), w)


def takes_transforms(dim: int, count: int) -> bool:
    """Whether frame_operator takes a built system of this size through transforms."""
    digits, rest, q = 0, dim, 2  # digits = p (m + k): the sum of dim's prime factors
    while rest > 1:
        while rest % q == 0:
            rest //= q
            digits += q
        q += 1
    return dim * dim * count >= TRANSFORM_MIN_MACS and count >= TRANSFORM_COUNT_PER_DIGIT * digits


def frame_operator(sys: GaborSystem) -> np.ndarray:
    """dim x dim matrix of S f = sum <f, v> v in the coefficient basis."""
    if sys.indices is not None and takes_transforms(sys.dim, sys.count):
        return _transform_frame_operator(sys.window, *sys.indices)
    w = sys.vector_matrix()
    measure = sys.window.space.coset_measure
    return measure * np.einsum("ac,bc->ab", w, np.conj(w))


def _transform_frame_operator(window: ModelFunction, ax: np.ndarray, bx: np.ndarray) -> np.ndarray:
    """S of the system with index arrays (ax, bx), by four batched transforms.

    Since chi_xi(a) conj chi_xi(a') = chi_xi(a - a'), S[a, a - d] = mu sum_x K[x, d] H[d, a - x]
    with K[x, d] = sum_b h[x, b] chi_b(d) for h[x, b] the multiplicity of the point (x_x, xi_b),
    and H[d, c] = g(c) conj g(c - d) (Walnut 1992; Groechenig 2001, 6.3).  For each d that is a
    convolution over x, so row d of R[d, a] = S[a, a - d] / mu is the inverse transform of the
    product of the transforms of K[., d] and H[d].  The pairing is symmetric in both modes and
    raw_dual_sums depends only on p, mode and m + k, so every transform, the one over the dual
    index b included, is the space's raw_dual_sums, and the inverse is conj . raw . conj / dim.
    S is Hermitian, S[a - d, a] = conj S[a, a - d], so only one d of each pair d, -d is taken.
    g is taken at an exact power-of-two scale near 1 / max|g| and S scaled back: the transform
    of H reaches dim max|g|^2 and the inverse's sums count dim^2 max|g|^2, which can overflow
    where S does not.
    """
    space = window.space
    n = space.dim
    e = int(np.frexp(np.max(np.abs(window.coeffs)))[1])
    g = np.ldexp(window.coeffs.view(float), -e).view(complex)
    shifts = space.shift_table(np.arange(n))  # [d, a]: the index of a - d; column 0 holds -d
    half = np.flatnonzero(np.arange(n) <= shifts[:, 0])
    shifts = shifts[half]
    hist = np.bincount(ax * n + bx, minlength=n * n).reshape(n, n)
    k = np.conj(space.raw_dual_sums(hist))  # K[x, d]: h is real
    product = space.raw_dual_sums(k[:, half].T) * space.raw_dual_sums(g * np.conj(g[shifts]))
    rows = np.conj(space.raw_dual_sums(np.conj(product)))  # dim R[d, a] for the d in half
    rows *= space.coset_measure / n
    s = np.empty((n, n), dtype=complex)
    s[shifts, np.arange(n)] = np.conj(rows)
    s[np.arange(n), shifts] = rows  # last: where d = -d the two writes differ by rounding
    return np.ldexp(s.view(float), 2 * e).view(complex)


def _analysis(sys: GaborSystem, f: ModelFunction) -> np.ndarray:
    """The coefficients <f, v> over the system vectors v, as one product."""
    _same_space(f, sys.window)
    w = sys.vector_matrix()
    return sys.window.space.coset_measure * np.einsum("ac,a->c", np.conj(w), f.coeffs)


@dataclass
class GaborReport:
    dim: int
    count: int
    lower: float
    upper: float
    rank: int
    classification: str
    tight_constant: float | None = None
    gram_identity_defect: float | None = None  # max |lambda - 1| = ||G - I||_2 if square

    def to_json_dict(self) -> dict:
        doc = {
            "dim": self.dim,
            "count": self.count,
            "lower": self.lower,
            "upper": self.upper,
            "rank": self.rank,
            "classification": self.classification,
            "tol": {"rank": RANK_TOL, "onb": ONB_TOL, "tight": TIGHT_TOL},
        }
        if self.tight_constant is not None:
            doc["c"] = self.tight_constant
        return doc


def frame_bounds(sys: GaborSystem) -> GaborReport:
    """Extreme eigenvalues of the frame operator plus the classification."""
    (least, upper, rank), _ = sys.spectrum
    lower = max(least, 0.0)
    # max |lambda - 1| over the spectrum, which its extremes attain
    gram_defect = max(abs(least - 1.0), abs(upper - 1.0)) if sys.count == sys.dim else None

    tight_constant = None
    if rank < sys.dim:
        classification = INCOMPLETE
    elif gram_defect is not None and gram_defect <= ONB_TOL:
        classification = ONB
    elif upper - lower <= TIGHT_TOL * max(1.0, upper):
        classification = TIGHT_FRAME
        tight_constant = (upper + lower) / 2.0
    else:
        classification = FRAME
    return GaborReport(
        dim=sys.dim,
        count=sys.count,
        lower=lower,
        upper=upper,
        rank=rank,
        classification=classification,
        tight_constant=tight_constant,
        gram_identity_defect=gram_defect,
    )


def canonical_dual(sys: GaborSystem) -> np.ndarray:
    """dim x count matrix of the dual vectors S^-1 v; requires the system to span."""
    riesz_check(sys)  # raises RankDeficiencyError if it does not span
    return solve_hermitian(HermitianMatrix(frame_operator(sys)), sys.vector_matrix())


def reconstruct(sys: GaborSystem, duals: np.ndarray, f: ModelFunction) -> ModelFunction:
    """sum_lambda <f, v_lambda> dual_lambda, with duals as from canonical_dual."""
    return ModelFunction(sys.window.space, np.einsum("ac,c->a", duals, _analysis(sys, f)))


def riesz_check(sys: GaborSystem) -> bool:
    """True iff the system is a Riesz basis: it spans and is square.

    A system that does not span raises RankDeficiencyError.
    """
    report = frame_bounds(sys)
    if report.rank < sys.dim:
        raise RankDeficiencyError(report.lower, RANK_TOL * max(1.0, report.upper))
    return sys.count == sys.dim


def bessel_stress(sys_base: GaborSystem, lambda0, reps: list[int]):
    """Upper frame bound after adding N copies of the point lambda0.

    The repeated rank-one term alone forces B(N) >= N * ||window||^2, and the
    sequence is nondecreasing; both facts are returned alongside the bounds.
    """
    results = []
    window = sys_base.window
    base_points = sys_base.lam.points
    norm_sq = window.norm() ** 2
    prev = None
    ok = True
    for n_reps in reps:
        points = base_points + tuple([lambda0] * n_reps)
        report = frame_bounds(build(window, PointSet.phase(points, sys_base.lam.params)))
        bound = report.upper
        if bound < n_reps * norm_sq - 1e-9:
            ok = False
        if prev is not None and bound < prev - 1e-9:
            ok = False
        prev = bound
        results.append((n_reps, bound))
    return results, ok


def bessel_chain_check(fs: list[ModelFunction], sys: GaborSystem) -> list[tuple]:
    """The square-sum of samples against the counting-times-amalgam majorant, for each f in fs.

    Gives (lhs, mid, rhs) per f: lhs = sum over lam of |V_phi f|^2, mid = N_0 times
    the squared amalgam 2-norm of V_phi f where N_0 caps the per-unit-cell
    count of lam, and rhs = ||f||^2 ||phi||^2 for context (the exact value of
    the full plane integral).  N_0 is counted once, in A^max(m, k) H, the window
    model's region, which holds every point of the system; the grids come from one
    stft_grids call.
    """
    space = sys.window.space
    n0 = finite_density_check(sys.lam, 0, max(space.m, space.k)).max_per_ball
    rows = np.array([f.coeffs for f in fs], dtype=complex).reshape(len(fs), space.dim)
    grids = stft_grids(space, rows, np.broadcast_to(sys.window.coeffs, rows.shape))
    window_norm = sys.window.norm()
    return [(float(np.sum(np.abs(_analysis(sys, f)) ** 2)),
             n0 * wiener_norm(StftGrid(space, grid), 2) ** 2,
             (f_norm * window_norm) ** 2)
            for f, grid, f_norm in zip(fs, grids, row_norms(space, rows).tolist())]
