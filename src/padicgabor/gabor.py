"""Gabor systems on model spaces: Gram/frame operators and diagnostics.

A system is the family M_xi T_x phi over a finite multiset of plane points
(x, xi), stored once as the dim x count matrix of its vectors.  The frame
operator S f = sum <f, v> v is assembled as a dim x dim Hermitian matrix
acting on coefficient vectors with the coset measure folded in; its
extreme eigenvalues are the frame bounds of the system for the model
space, the natural desk-scale reading of "frame for L^2".  Each system
diagonalizes S once (GaborSystem.spectrum); bounds, rank, the ONB test, the
canonical dual and the Riesz test all read that one decomposition, and no
count x count Gram is formed for them.  Classification:

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

import numpy as np

from .density import PHASE, PointSet, finite_density_check
from .linalg import HermitianMatrix, RankDeficiencyError, hermitian_eigs, solve_hermitian
from .model import ModelFunction, ResolutionError, stft, wiener_norm
# build no longer calls it; it stays a gabor name because perfbench/selftest.py
# checks that tracing patches padicgabor.gabor.modulate
from .model import modulate  # noqa: F401

ONB = "ONB"
TIGHT_FRAME = "TightFrame"
FRAME = "Frame"
INCOMPLETE = "Incomplete"

RANK_TOL = 1e-9
ONB_TOL = 1e-12
TIGHT_TOL = 1e-9


@dataclass(frozen=True)  # frozen: spectrum is cached from these fields
class GaborSystem:
    window: ModelFunction
    lam: PointSet
    matrix: np.ndarray  # dim x count, column c is the vector of point c

    @property
    def dim(self) -> int:
        return self.window.space.dim

    @property
    def count(self) -> int:
        return self.matrix.shape[1]

    def vector_matrix(self) -> np.ndarray:
        """dim x count matrix whose columns are the system vectors."""
        return self.matrix

    @cached_property
    def spectrum(self):
        """hermitian_eigs of the frame operator: (values, residual, sweeps, vectors)."""
        return hermitian_eigs(HermitianMatrix(frame_operator(self)))


def build(window: ModelFunction, lam: PointSet) -> GaborSystem:
    """Materialize M_xi T_x window over lam, preserving order and multiplicity.

    One gather-multiply: row c of the shift table gathers T_{x_c} window,
    which the character row of xi_c then modulates.
    """
    if window.is_zero():
        raise ValueError("window must be nonzero")
    if lam.ambient != PHASE:
        raise ValueError("a Gabor system needs phase-space points (x, xi)")
    space = window.space
    shifts, xis = [], []
    for x, xi in lam.points:
        if x.valuation() < -space.m:
            raise ResolutionError(
                f"translation {x.text()} of point ({x.text()}, {xi.text()}) "
                f"exceeds the model extent m={space.m}"
            )
        if xi.valuation() < -space.k:
            raise ResolutionError(
                f"modulation {xi.text()} of point ({x.text()}, {xi.text()}) "
                f"exceeds the model resolution k={space.k}"
            )
        shifts.append(space.index_of(x))
        xis.append(xi)
    shifted = window.coeffs[space.shift_table(np.array(shifts, dtype=np.int64))]
    rows = space.char_rows(xis) * shifted
    return GaborSystem(window, lam, np.ascontiguousarray(rows.T))


def gram(sys: GaborSystem) -> np.ndarray:
    """count x count Hermitian matrix of pairwise inner products."""
    w = sys.vector_matrix()
    measure = sys.window.space.coset_measure
    return measure * np.einsum("ai,aj->ij", np.conj(w), w)


def frame_operator(sys: GaborSystem) -> np.ndarray:
    """dim x dim matrix of S f = sum <f, v> v in the coefficient basis."""
    w = sys.vector_matrix()
    measure = sys.window.space.coset_measure
    return measure * np.einsum("ac,bc->ab", w, np.conj(w))


def _analysis(sys: GaborSystem, f: ModelFunction) -> np.ndarray:
    """The coefficients <f, v> over the system vectors v, as one product."""
    if f.space != sys.window.space:
        raise ValueError(f"model spaces differ: {f.space!r} vs {sys.window.space!r}")
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
    sweeps: int = 0

    def to_json_dict(self) -> dict:
        doc = {
            "dim": self.dim,
            "count": self.count,
            "lower": self.lower,
            "upper": self.upper,
            "rank": self.rank,
            "classification": self.classification,
            "sweeps": self.sweeps,
            "tol": {"rank": RANK_TOL, "onb": ONB_TOL, "tight": TIGHT_TOL},
        }
        if self.tight_constant is not None:
            doc["c"] = self.tight_constant
        return doc


def frame_bounds(sys: GaborSystem) -> GaborReport:
    """Extreme eigenvalues of the frame operator plus the classification."""
    vals, _, sweeps, _ = sys.spectrum
    upper = float(vals[-1])
    lower = max(float(vals[0]), 0.0)
    cutoff = RANK_TOL * max(1.0, upper)
    rank = int(np.sum(vals > cutoff))
    gram_defect = float(np.max(np.abs(vals - 1.0))) if sys.count == sys.dim else None

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
        sweeps=sweeps,
    )


def canonical_dual(sys: GaborSystem) -> np.ndarray:
    """dim x count matrix of the dual vectors S^-1 v; requires the system to span."""
    return solve_hermitian(sys.spectrum, sys.vector_matrix(), tol=RANK_TOL)


def reconstruct(sys: GaborSystem, duals: np.ndarray, f: ModelFunction) -> ModelFunction:
    """sum_lambda <f, v_lambda> dual_lambda, with duals as from canonical_dual."""
    return ModelFunction(sys.window.space, np.einsum("ac,c->a", duals, _analysis(sys, f)))


def riesz_check(sys: GaborSystem, tol: float = 1e-8) -> bool:
    """True iff the system is a Riesz basis: invertible Gram and biorthogonal dual.

    The Gram of a spanning system is invertible iff the system is square.
    """
    report = frame_bounds(sys)
    if report.rank < sys.dim:
        raise RankDeficiencyError(report.lower, RANK_TOL * max(1.0, report.upper))
    if sys.count != sys.dim:
        return False
    d = canonical_dual(sys)
    measure = sys.window.space.coset_measure
    w = sys.vector_matrix()
    bio = measure * np.einsum("ai,aj->ij", np.conj(d), w)  # <v_j, dual_i>
    return float(np.max(np.abs(bio - np.eye(sys.count)))) <= tol


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


def bessel_chain_check(f: ModelFunction, sys: GaborSystem, region: int):
    """The square-sum of samples against the counting-times-amalgam majorant.

    Returns (lhs, mid, rhs): lhs = sum over lam of |V_phi f|^2, mid = N_0 times
    the squared amalgam 2-norm of V_phi f where N_0 caps the per-unit-cell
    count of lam, and rhs = ||f||^2 ||phi||^2 for context (the exact value of
    the full plane integral).
    """
    lhs = float(np.sum(np.abs(_analysis(sys, f)) ** 2))
    n0 = finite_density_check(sys.lam, 0, region).max_per_ball
    grid = stft(f, sys.window)
    mid = n0 * wiener_norm(grid, 2) ** 2
    rhs = (f.norm() * sys.window.norm()) ** 2
    return lhs, mid, rhs
