"""Seeded request generators for the three benchmark workloads.

Every generator is a pure function of ``(seed, index)``: the same benchmark
seed always yields the same stream of CLI requests, and the program under
test only ever sees the JSON configs written from these requests.  Model
configs are serialised with ``ModelParams.to_dict()``, so they always use
the field encoding the program itself reads back (the README's
``point_mass`` form with ``values`` instead of ``h0`` exits 2 and is not
generated here).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("scan-bound", "query-mix", "verify-fv")

# Seed the benchmark checks against its stored reference outputs.
DEFAULT_SEED = 0

# Sizes: "full" is what the timed runs use; "smoke" finishes in seconds and is
# only used by the self-test.
SCAN_GRID = {"full": (6, 4), "smoke": (2, 2)}
VERIFY_SECTION = {
    "full": {"sizes": [12, 18, 24, 48], "n_disorder": 40, "sweeps": 200,
             "replicas": 5, "covariance_total": 12,
             "covariance_n_disorder": 1000, "n_pairs": 10},
    "smoke": {"sizes": [8, 12, 32], "n_disorder": 8, "sweeps": 100,
              "replicas": 3, "covariance_total": 8,
              "covariance_n_disorder": 40, "n_pairs": 2},
}


@dataclass(frozen=True)
class Request:
    """One CLI invocation: subcommand, config object and extra flags."""

    command: str
    config: dict
    flags: tuple[str, ...] = ()

    @property
    def work_units(self) -> int:
        """Scan points, or disorder samples for ``verify``, else one."""
        if self.command == "scan":
            steps = [axis["steps"] for axis in self.config["scan"]["axes"]]
            return int(np.prod(steps))
        if self.command == "verify":
            section = self.config["verify"]
            return (len(section["sizes"]) * section["n_disorder"]
                    + section["covariance_n_disorder"])
        return 1


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, index, stream])


def _lam(rng: np.random.Generator, K: int, spread: float) -> list[float]:
    """Layer weights: a Dirichlet draw mixed with uniform, all positive."""
    mix = (1.0 - spread) / K + spread * rng.dirichlet(np.full(K, 2.0))
    mix = mix / mix.sum()
    return [float(x) for x in mix]


def _model(ModelParams, K, beta, lam, fields) -> dict:
    params = ModelParams(K=K, beta=tuple(float(b) for b in beta),
                         lam=tuple(lam), fields=tuple(fields))
    return params.to_dict()


def scan_request(api, seed: int, index: int, size: str = "full") -> Request:
    """K=4 centred-Gaussian model scanned over ``beta[1]`` x ``fields[1].v``.

    The grid crosses the annealed boundary (``rho = 1``) and the bound's
    certification line, so every scan mixes inside/outside and
    certified/uncertified points.  The seed only jitters the fixed
    parameters, which keeps the cost per scan close across seeds.
    """
    ModelParams, FieldSpec = api
    rng = _rng(seed, index, 1)
    beta = [rng.uniform(0.55, 0.75), 1.0, rng.uniform(0.55, 0.75)]
    lam = _lam(rng, 4, 0.2)
    fields = [FieldSpec.gaussian(rng.uniform(0.2, 0.5)) for _ in range(4)]
    config = _model(ModelParams, 4, beta, lam, fields)
    n_beta, n_v = SCAN_GRID[size]
    config["scan"] = {
        "axes": [
            {"path": "beta[1]", "min": 0.4, "max": 2.4, "steps": n_beta},
            {"path": "fields[1].v", "min": 0.01, "max": 0.6, "steps": n_v},
        ],
        "outputs": ["region", "rho", "rs_pressure", "bound", "certificates"],
    }
    return Request("scan", config, ("--seed", str(index), "--format", "json"))


_QUERY_COMMANDS = ("rs", "rs", "region", "poly")


def _mixed_field(FieldSpec, rng: np.random.Generator):
    kind = rng.integers(4)
    if kind == 0:
        return FieldSpec.zero()
    if kind == 1:
        return FieldSpec.gaussian(rng.uniform(0.05, 1.0))
    if kind == 2:
        return FieldSpec.point_mass(rng.uniform(-1.0, 1.0))
    atoms = int(rng.integers(2, 65))
    return FieldSpec.discrete(rng.uniform(-1.5, 1.5, atoms),
                              rng.dirichlet(np.ones(atoms)))


def query_request(api, seed: int, index: int, size: str = "full") -> Request:
    """One single-model request on a random chain (K 2-12, beta 0.2-1.5).

    Half the models have centred-Gaussian fields on every layer (``rs``
    then takes the nested solver); the rest mix zero, Gaussian, point-mass
    and discrete fields per layer (``rs`` takes the fixed-point solver and
    the kernel its multi-atom path).
    """
    ModelParams, FieldSpec = api
    rng = _rng(seed, index, 2)
    cycle, slot = divmod(index, len(_QUERY_COMMANDS))
    command = _QUERY_COMMANDS[slot]
    K = 2 + cycle % 11
    beta = rng.uniform(0.2, 1.5, K - 1)
    lam = _lam(rng, K, 0.5)
    if cycle % 2 == 0:
        fields = [FieldSpec.gaussian(rng.uniform(0.05, 1.0)) for _ in range(K)]
    else:
        fields = [_mixed_field(FieldSpec, rng) for _ in range(K)]
    config = _model(ModelParams, K, beta, lam, fields)
    return Request(command, config, ("--format", "json"))


def verify_request(api, seed: int, index: int, size: str = "full") -> Request:
    """K=3 zero-field model strictly inside the annealed region.

    Sizes cover exact enumeration (up to 24 spins) and one Monte Carlo
    size, and the covariance identity check always runs.
    """
    ModelParams, FieldSpec = api
    rng = _rng(seed, index, 3)
    beta = rng.uniform(0.6, 0.8, 2)
    # Fixed widths: the layer split sets the cost of exact enumeration, and a
    # wide middle layer gives it a share of the run next to Monte Carlo.
    lam = [0.25, 0.5, 0.25]
    config = _model(ModelParams, 3, beta, lam,
                    [FieldSpec.zero()] * 3)
    config["verify"] = dict(VERIFY_SECTION[size])
    flags = ("--seed", str(1000 * seed + index), "--format", "json")
    return Request("verify", config, flags)


# Workloads whose requests all do the same amount of work.
UNIFORM_REQUESTS = ("scan-bound", "verify-fv")

GENERATORS = {
    "scan-bound": scan_request,
    "query-mix": query_request,
    "verify-fv": verify_request,
}
