"""Exact desk-scale Gabor analysis on p-adic and Laurent-series groups.

The package models L^2 of the two classic local-field groups by exact
finite-dimensional spaces (functions supported on a dilated unit ball,
constant on a refined one), with all group arithmetic, ball geometry and
character phases carried out in the dense computable subrings.  On top sit
counting densities for point multisets, short-time Fourier transforms with
modulation and amalgam norms, and frame diagnostics for Gabor systems.
The API lives in the submodules (`from padicgabor.model import stft`).
"""

__version__ = "0.1.0"
