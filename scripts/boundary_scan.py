#!/usr/bin/env python3
"""Sweep the coupling strength of a symmetric chain and find the boundary.

For a K-layer model with equal layer weights, equal couplings ``beta`` and
no external fields, prints one CSV row per sweep point (beta, spectral
radius, verdict) and then the critical coupling where the spectral radius
crosses one.
"""
import argparse
import math

import numpy as np

from dbmlab import chainpoly, machine
from dbmlab.machine import ModelParams


def symmetric_params(K: int, beta: float) -> ModelParams:
    return ModelParams(K=K, beta=(beta,) * (K - 1), lam=(1.0 / K,) * K,
                       fields=())


def critical_coupling(K: int) -> float:
    """The coupling where the spectral radius equals one.

    ``M`` is quadratic in a common coupling, so ``rho(beta) = beta^2
    rho(1)`` and the crossing is ``1 / sqrt(rho(1))``.
    """
    return 1.0 / math.sqrt(machine.spectral_radius(symmetric_params(K, 1.0)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--layers", type=int, default=3)
    parser.add_argument("--min", dest="lo", type=float, default=0.5)
    parser.add_argument("--max", dest="hi", type=float, default=2.5)
    parser.add_argument("--steps", type=int, default=21)
    args = parser.parse_args()
    # One layer has no coupling, so its spectral radius never crosses one.
    if not 2 <= args.layers <= chainpoly.MAX_LAYERS:
        parser.error(f"--layers must lie in [2, {chainpoly.MAX_LAYERS}], "
                     f"got {args.layers}")
    if not all(math.isfinite(x) and x > 0.0 for x in (args.lo, args.hi)):
        parser.error(f"--min and --max must be finite and positive, got "
                     f"{args.lo!r} and {args.hi!r}")
    if args.steps < 1:
        parser.error(f"--steps must be at least 1, got {args.steps}")

    print("beta,rho,verdict")
    for beta in np.linspace(args.lo, args.hi, args.steps):
        verdict = machine.classify_annealed(symmetric_params(args.layers,
                                                             float(beta)))
        print(f"{float(beta)!r},{float(verdict.rho)!r},{verdict.verdict}")

    crit = critical_coupling(args.layers)
    print(f"# critical coupling for K={args.layers}: {crit!r}")
    rho = machine.spectral_radius(symmetric_params(args.layers, crit))
    print(f"# spectral radius there: {rho!r}")


if __name__ == "__main__":
    main()
