"""Exact desk-scale Gabor analysis on p-adic and Laurent-series groups.

The package models L^2 of the two classic local-field groups by exact
finite-dimensional spaces (functions supported on a dilated unit ball,
constant on a refined one), with all group arithmetic, ball geometry and
character phases carried out in the dense computable subrings.  On top sit
counting densities for point multisets, short-time Fourier transforms with
modulation and amalgam norms, and frame diagnostics for Gabor systems.
"""

from .density import (
    PointSet,
    automorphism_invariance_check,
    density_profile,
    finite_density_check,
    is_uniformly_separated,
    separated_decomposition,
)
from .gabor import (
    GaborReport,
    GaborSystem,
    bessel_chain_check,
    bessel_stress,
    build,
    canonical_dual,
    frame_bounds,
    frame_operator,
    gram,
    reconstruct,
    riesz_check,
)
from .geometry import (
    Section,
    coset_rep,
    same_ball,
    section,
    split_section,
)
from .linalg import HermitianMatrix, hermitian_eigs, solve_hermitian
from .localfield import (
    CARRY,
    MODULAR,
    GroupElement,
    GroupParams,
    ParamMismatchError,
    Phase,
    pairing_phase,
    parse_element,
)
from .model import (
    ModelFunction,
    ModelSpace,
    ResolutionError,
    StftGrid,
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
from .rng import SplitMix64
from .verify import run_suite

__version__ = "0.1.0"
