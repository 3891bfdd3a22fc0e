"""Gabor systems on model spaces: Gram/frame operators and diagnostics.

A system is the family M_xi T_x phi over a finite multiset of plane points
(x, xi).  The frame operator S f = sum <f, v> v is assembled as a dim x dim
Hermitian matrix acting on coefficient vectors with the coset measure folded
in; its extreme eigenvalues are the frame bounds of the system for the model
space, the natural desk-scale reading of "frame for L^2".  Classification:

* ONB         -- Gram is the identity and the vectors span (count == dim);
* TightFrame  -- spanning with equal bounds (reported with the constant);
* Frame       -- spanning with a positive lower bound;
* Incomplete  -- rank below dim.  Every finite system has a finite upper
  bound, so a Bessel-only system at desk scale is exactly an incomplete one
  and no BesselOnly label is ever produced.

Multiplicity matters: a repeated point contributes its rank-one term twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import PHASE, PointSet, finite_density_check
from .geometry import coset_rep
from .linalg import HermitianMatrix, RankDeficiencyError, hermitian_eigs, solve_hermitian
from .localfield import GroupElement
from .model import ModelFunction, ResolutionError, inner, modulate, stft, translate, wiener_norm

ONB = "ONB"
TIGHT_FRAME = "TightFrame"
FRAME = "Frame"
INCOMPLETE = "Incomplete"

RANK_TOL = 1e-9
ONB_TOL = 1e-12
TIGHT_TOL = 1e-9


@dataclass
class GaborSystem:
    window: ModelFunction
    lam: PointSet
    vectors: list[ModelFunction]
    canonical_keys: list[tuple[GroupElement, GroupElement]]

    @property
    def dim(self) -> int:
        return self.window.space.dim

    @property
    def count(self) -> int:
        return len(self.vectors)

    def vector_matrix(self) -> np.ndarray:
        """dim x count matrix whose columns are the system vectors."""
        if not self.vectors:
            return np.zeros((self.dim, 0), dtype=complex)
        return np.stack([v.coeffs for v in self.vectors], axis=1)


def build(window: ModelFunction, lam: PointSet) -> GaborSystem:
    """Materialize M_xi T_x window over lam, preserving order and multiplicity."""
    if window.is_zero():
        raise ValueError("window must be nonzero")
    if lam.ambient != PHASE:
        raise ValueError("a Gabor system needs phase-space points (x, xi)")
    space = window.space
    vectors = []
    keys = []
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
        vectors.append(modulate(translate(window, x), xi))
        keys.append((coset_rep(x, -space.k), coset_rep(xi, -space.m)))
    return GaborSystem(window, lam, vectors, keys)


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


@dataclass
class GaborReport:
    dim: int
    count: int
    lower: float
    upper: float
    rank: int
    classification: str
    tight_constant: float | None = None
    gram_identity_defect: float | None = None
    eig_residual: float = 0.0
    tolerances: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = {
            "dim": self.dim,
            "count": self.count,
            "lower": self.lower,
            "upper": self.upper,
            "rank": self.rank,
            "classification": self.classification,
            "tol": dict(self.tolerances),
        }
        if self.tight_constant is not None:
            doc["c"] = self.tight_constant
        return doc


def frame_bounds(sys: GaborSystem) -> GaborReport:
    """Extreme eigenvalues of the frame operator plus the classification."""
    op = HermitianMatrix(frame_operator(sys))
    vals, residual = hermitian_eigs(op)
    upper = float(vals[-1])
    lower = max(float(vals[0]), 0.0)
    cutoff = RANK_TOL * max(1.0, upper)
    rank = int(np.sum(vals > cutoff))
    g = gram(sys)
    gram_defect = float(np.max(np.abs(g - np.eye(sys.count)))) if sys.count else 0.0

    tight_constant = None
    if rank < sys.dim:
        classification = INCOMPLETE
    elif gram_defect <= ONB_TOL and sys.count == sys.dim:
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
        eig_residual=residual,
        tolerances={"rank": RANK_TOL, "onb": ONB_TOL, "tight": TIGHT_TOL},
    )


def canonical_dual(sys: GaborSystem) -> list[ModelFunction]:
    """Dual vectors S^-1 v; requires the system to span the model space."""
    op = HermitianMatrix(frame_operator(sys))
    duals = solve_hermitian(op, sys.vector_matrix(), tol=RANK_TOL)
    return [ModelFunction(sys.window.space, duals[:, i]) for i in range(sys.count)]


def reconstruct(sys: GaborSystem, duals: list[ModelFunction], f: ModelFunction) -> ModelFunction:
    """sum_lambda <f, v_lambda> dual_lambda."""
    out = np.zeros(sys.dim, dtype=complex)
    for v, d in zip(sys.vectors, duals):
        out += inner(f, v) * d.coeffs
    return ModelFunction(sys.window.space, out)


def riesz_check(sys: GaborSystem, tol: float = 1e-8) -> bool:
    """True iff the system is a Riesz basis: invertible Gram and biorthogonal dual."""
    report = frame_bounds(sys)
    if report.rank < sys.dim:
        raise RankDeficiencyError(report.lower, RANK_TOL * max(1.0, report.upper))
    g = HermitianMatrix(gram(sys))
    gvals, _ = hermitian_eigs(g)
    if float(gvals[0]) <= RANK_TOL * max(1.0, float(gvals[-1])):
        return False
    duals = canonical_dual(sys)
    measure = sys.window.space.coset_measure
    w = sys.vector_matrix()
    d = np.stack([x.coeffs for x in duals], axis=1)
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
    lhs = 0.0
    for v in sys.vectors:
        lhs += abs(inner(f, v)) ** 2
    n0 = finite_density_check(sys.lam, 0, region).max_per_ball
    grid = stft(f, sys.window)
    mid = n0 * wiener_norm(grid, 2) ** 2
    rhs = (f.norm() * sys.window.norm()) ** 2
    return lhs, mid, rhs
