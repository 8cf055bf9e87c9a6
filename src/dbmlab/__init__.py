"""Rigorous numerics for deep Boltzmann machines on layered chains.

Modules
-------
chainpoly
    Matching polynomials of weighted chains: recursion, coefficients, zeros,
    interlacing, zero localisation.
machine
    Model parameters, activities, annealed pressure, interaction matrices,
    spectral radius, annealed-region classification, extremal layer widths.
ghquad
    Expectations of smooth functions of a Gaussian plus an external field,
    by a truncated-Gaussian trapezoid rule picked from the variance.
rs_solver
    Replica-symmetric consistency equations: pressure functional, the nested
    Newton solver, stability and high-temperature certificates.
sk_chain_bound
    Layer-decoupled SK pressure bound: bound functional, bound
    maximisation, and the bridge identity to the RS pressure.
finite_volume_lab
    Finite-volume experiments: exact enumeration, Monte Carlo pressure with
    thermodynamic integration and parallel tempering, covariance checks,
    annealed-gap trends.
cli
    Command-line interface over the above (region / poly / rs / bound /
    verify / scan), the ``dbmlab`` command.  It is not imported with the
    package, so ``python -m dbmlab.cli`` runs it as a fresh module.
"""
from __future__ import annotations

from . import (chainpoly, finite_volume_lab, ghquad, machine, rs_solver,
               sk_chain_bound)
from .machine import (FieldSpec, ModelParams, annealed_pressure,
                      classify_annealed, spectral_radius)

__version__ = "0.1.0"

__all__ = [
    "FieldSpec",
    "ModelParams",
    "annealed_pressure",
    "chainpoly",
    "classify_annealed",
    "finite_volume_lab",
    "ghquad",
    "machine",
    "rs_solver",
    "sk_chain_bound",
    "spectral_radius",
    "__version__",
]
