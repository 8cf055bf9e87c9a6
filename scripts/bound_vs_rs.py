#!/usr/bin/env python3
"""Compare the variational pressure bound with the consistency pressure.

For a two-layer model with centred Gaussian fields, sweeps the coupling and
prints, per row: the spectral radius, the replica-symmetric pressure from the
nested solver, the maximised layer-decoupled bound, whether the maximiser was
certified as interior, and the distance to the annealed pressure.  Whenever
the maximiser is certified, the bound agrees with the consistency pressure
to solver accuracy — the table makes that identity visible across the sweep.
"""
import argparse

import numpy as np

from dbmlab import machine, rs_solver, sk_chain_bound
from dbmlab.machine import FieldSpec, ModelParams


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variance", type=float, default=0.4,
                        help="variance of the centred Gaussian fields")
    parser.add_argument("--min", dest="lo", type=float, default=0.2)
    parser.add_argument("--max", dest="hi", type=float, default=1.4)
    parser.add_argument("--steps", type=int, default=13)
    args = parser.parse_args()

    fields = (FieldSpec.gaussian(args.variance),
              FieldSpec.gaussian(args.variance))
    print("beta,rho,rs_pressure,bound,certified,annealed_gap")
    for beta in np.linspace(args.lo, args.hi, args.steps):
        params = ModelParams(K=2, beta=(float(beta),), lam=(0.5, 0.5),
                             fields=fields)
        rho = machine.spectral_radius(params)
        nested = rs_solver.solve_nested(params)
        rs_value = rs_solver.rs_pressure(nested.q, params)
        result = sk_chain_bound.maximize_bound(params)
        gap = machine.annealed_pressure(params) - result.value
        print(f"{float(beta)!r},{float(rho)!r},{float(rs_value)!r},"
              f"{float(result.value)!r},{str(result.certified).lower()},"
              f"{float(gap)!r}")


if __name__ == "__main__":
    main()
