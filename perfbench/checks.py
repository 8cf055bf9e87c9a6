"""Output checks that hold for any seed, plus reference comparison.

Every check recomputes what it can from the request's own config with code
that shares nothing with the program: its own interaction matrices, NumPy
eigenvalues, and its own Gaussian quadrature (a wider and finer trapezoid
rule than the program's default).  A check returns a list of problems; an
empty list means the output passed.
"""
from __future__ import annotations

import math

import numpy as np

_LOG2 = math.log(2.0)

# Own quadrature: 1201 equispaced nodes on [-12, 12] against the standard
# Gaussian density.  The program's default is 361 nodes on [-9.3, 9.3].
_NODES = np.linspace(-12.0, 12.0, 1201)
_WEIGHTS = np.exp(-0.5 * _NODES**2)
_WEIGHTS /= _WEIGHTS.sum()

# Tolerances.  The solvers run at tol=1e-10 and the bridge identity is
# asserted at 1e-8 in the program's own acceptance suite.
RESIDUAL_TOL = 1e-9
PRESSURE_TOL = 1e-9
SPECTRAL_TOL = 1e-9
BRIDGE_TOL = 1e-8
# Reference comparison: deterministic outputs, and Monte Carlo rows in
# combined standard errors.
REFERENCE_TOL = 1e-8
MC_SIGMA_TOL = 4.5


def _atoms(field: dict) -> tuple[np.ndarray, np.ndarray, float]:
    kind = field.get("kind", "zero")
    if kind == "zero":
        return np.zeros(1), np.ones(1), 0.0
    if kind == "gaussian_centered":
        return np.zeros(1), np.ones(1), float(field["v"])
    if kind == "point_mass":
        return np.array([float(field["h0"])]), np.ones(1), 0.0
    return (np.asarray(field["values"], dtype=float),
            np.asarray(field["probs"], dtype=float), 0.0)


def _expect(fn, s: float, field: dict) -> float:
    shifts, probs, extra = _atoms(field)
    y = math.sqrt(max(s, 0.0) + extra) * _NODES[None, :] + shifts[:, None]
    return float(probs @ (fn(y) @ _WEIGHTS))


def _tanh_sq(y):
    return np.tanh(y) ** 2


def _log_cosh(y):
    return np.logaddexp(y, -y) - _LOG2


def _model(config: dict):
    K = int(config["K"])
    beta = np.asarray(config["beta"], dtype=float)
    lam = np.asarray(config["lambda"], dtype=float)
    fields = config.get("fields") or [{"kind": "zero"}] * K
    return K, beta, lam, fields


def interaction_matrix(beta: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``M = 2 M0 diag(lam)`` with ``M0`` tridiagonal in ``beta**2``."""
    K = lam.size
    M0 = np.zeros((K, K))
    for p, b in enumerate(beta):
        M0[p, p + 1] = M0[p + 1, p] = b * b
    return 2.0 * M0 * lam[None, :]


def _eigs(beta, lam) -> np.ndarray:
    return np.sort(np.linalg.eigvals(interaction_matrix(beta, lam)).real)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def consistency_residual(q: np.ndarray, config: dict) -> float:
    K, beta, lam, fields = _model(config)
    m = interaction_matrix(beta, lam) @ q
    f = np.array([_expect(_tanh_sq, m[p], fields[p]) for p in range(K)])
    return float(np.max(np.abs(q - f)))


def rs_pressure(q: np.ndarray, config: dict) -> float:
    K, beta, lam, fields = _model(config)
    m = interaction_matrix(beta, lam) @ q
    field_term = sum(lam[p] * _expect(_log_cosh, m[p], fields[p])
                     for p in range(K))
    u = 1.0 - q
    quad = float(np.sum(lam[:-1] * beta**2 * lam[1:] * u[:-1] * u[1:]))
    return _LOG2 + field_term + quad


def annealed_pressure(config: dict) -> float:
    _, beta, lam, _ = _model(config)
    return _LOG2 + float(np.sum(lam[:-1] * beta**2 * lam[1:]))


def check_rs(config: dict, out: dict, stats: dict) -> list[str]:
    problems = []
    if not _close(out["p_annealed"], annealed_pressure(config), 1e-12):
        problems.append("p_annealed disagrees with the closed form")
    for sol in out["solutions"]:
        q = np.asarray(sol["q"], dtype=float)
        if q.shape != (config["K"],) or not np.all((q >= 0) & (q <= 1)):
            problems.append("overlap vector outside [0, 1]^K")
            continue
        residual = consistency_residual(q, config)
        stats["rs_residual_max"] = max(stats.get("rs_residual_max", 0.0), residual)
        if residual > RESIDUAL_TOL:
            problems.append(f"{sol['method']}: recomputed residual {residual:.3e}")
        if not _close(sol["pressure"], rs_pressure(q, config), PRESSURE_TOL):
            problems.append(f"{sol['method']}: pressure disagrees with q")
    return problems


def _check_rho(rho: float, verdict: str, beta, lam) -> list[str]:
    exact = float(np.max(np.abs(_eigs(beta, lam))))
    problems = []
    if not _close(rho, exact, SPECTRAL_TOL):
        problems.append(f"rho {rho!r} != max|eig(M)| {exact!r}")
    if abs(exact - 1.0) > 1e-8:
        expected = "inside" if exact < 1.0 else "outside"
        if verdict != expected:
            problems.append(f"verdict {verdict} but rho {exact!r}")
    return problems


def check_region(config: dict, out: dict, stats: dict) -> list[str]:
    _, beta, lam, _ = _model(config)
    row = out["rows"][0]
    return _check_rho(row["rho"], row["verdict"], beta, lam)


def check_poly(config: dict, out: dict, stats: dict) -> list[str]:
    _, beta, lam, _ = _model(config)
    problems = []
    t = 4.0 * lam[:-1] * beta**4 * lam[1:]
    if not np.allclose(out["activities"], t, rtol=1e-12, atol=0.0):
        problems.append("activities disagree with 4 lam beta^4 lam")
    eig = _eigs(beta, lam)
    zeros = np.asarray(out["zeros"], dtype=float)
    if zeros.shape != eig.shape or not np.allclose(zeros, eig, rtol=0,
                                                   atol=SPECTRAL_TOL):
        problems.append("zeros disagree with eig(M)")
    coeffs = np.poly(eig)[::-1]  # ascending, monic
    if not np.allclose(out["coefficients"], coeffs, rtol=1e-8, atol=1e-10):
        problems.append("coefficients disagree with prod(x - eig(M))")
    for key in ("largest_zero", "spectral_radius"):
        if not _close(out[key], float(eig[-1]), SPECTRAL_TOL):
            problems.append(f"{key} disagrees with max eig(M)")
    if out["interlacing_ok"] is not True:
        problems.append("interlacing check failed")
    return problems


def _point_beta(config: dict, row: dict) -> np.ndarray:
    """``beta`` at one grid point (the scanned field variance leaves M alone)."""
    beta = np.asarray(config["beta"], dtype=float).copy()
    for axis in config["scan"]["axes"]:
        path = axis["path"]
        if path.startswith("beta"):
            beta[int(path[path.index("[") + 1:path.index("]")])] = row[path]
    return beta


def check_scan(config: dict, out: dict, stats: dict) -> list[str]:
    problems = []
    expected_rows = int(np.prod([a["steps"] for a in config["scan"]["axes"]]))
    if len(out["rows"]) != expected_rows:
        problems.append(f"{len(out['rows'])} rows, expected {expected_rows}")
    for row in out["rows"]:
        if "failed" in row["flags"]:
            problems.append(f"point flagged {row['flags']}")
            continue
        lam = np.asarray(config["lambda"], dtype=float)
        problems += _check_rho(row["rho"], row["verdict"],
                               _point_beta(config, row), lam)
        if row["stable_at_zero"] is not (row["rho"] < 1.0):
            problems.append("stable_at_zero disagrees with rho")
        stats["points"] = stats.get("points", 0) + 1
        if row["bound_certified"]:
            stats["certified"] = stats.get("certified", 0) + 1
            gap = abs(row["bound_value"] - row["rs_pressure"])
            stats["bridge_gap_max"] = max(stats.get("bridge_gap_max", 0.0), gap)
            if gap > BRIDGE_TOL:
                problems.append(f"bridge gap {gap:.3e} at a certified point")
        if row["verdict"] == "inside":
            stats["inside"] = stats.get("inside", 0) + 1
    return problems


def check_verify(config: dict, out: dict, stats: dict) -> list[str]:
    problems = []
    if out["ok"] is not True:
        problems.append("verify reported ok=false")
    p_annealed = annealed_pressure(config)
    trend = out["trend"]
    if not _close(trend["p_annealed"], p_annealed, 1e-12):
        problems.append("p_annealed disagrees with the closed form")
    sizes = config["verify"]["sizes"]
    rows = trend["rows"]
    if [r["N"] for r in rows] != list(sizes):
        problems.append("trend rows do not match the requested sizes")
    for r in rows:
        method = "exact_enum" if r["N"] <= 24 else "monte_carlo"
        if r["method"] != method:
            problems.append(f"N={r['N']} used {r['method']}, expected {method}")
        if not r["mean"] <= p_annealed + 3.0 * r["std_error"] + 1e-12:
            problems.append(f"N={r['N']} mean above the annealed pressure")
    n_pairs = config["verify"]["n_pairs"]
    if len(out["covariance"]["rows"]) != n_pairs:
        problems.append("covariance report has the wrong number of rows")
    return problems


CHECKS = {
    "rs": check_rs,
    "region": check_region,
    "poly": check_poly,
    "scan": check_scan,
    "verify": check_verify,
}


# ---------------------------------------------------------------------------
# reference records: the deterministic numbers of one output
# ---------------------------------------------------------------------------


def record(command: str, out: dict) -> dict:
    """Deterministic numbers of an output, keyed for reference comparison.

    ``exact`` values must match the reference to ``REFERENCE_TOL``;
    ``mc`` rows are ``(mean, std_error)`` pairs compared in combined
    standard errors.
    """
    exact: list[float] = []
    mc: list[list[float]] = []
    if command == "rs":
        for sol in out["solutions"]:
            exact += list(sol["q"]) + [sol["pressure"]]
    elif command == "region":
        exact.append(out["rows"][0]["rho"])
    elif command == "poly":
        exact += list(out["zeros"]) + [out["largest_zero"]]
    elif command == "scan":
        for row in out["rows"]:
            exact.append(row["rho"])
            for key in ("rs_pressure", "bound_value"):
                if row[key] is not None:
                    exact.append(row[key])
    elif command == "verify":
        for row in out["trend"]["rows"]:
            if row["method"] == "exact_enum":
                exact += [row["mean"], row["std_error"]]
            else:
                mc.append([row["mean"], row["std_error"]])
        for row in out["covariance"]["rows"]:
            exact += [row["empirical"], row["predicted"], row["std_error"]]
    return {"exact": [float(x) for x in exact], "mc": mc}


def compare(rec: dict, ref: dict, stats: dict) -> list[str]:
    """Deviation of one output record from its stored reference."""
    problems = []
    if len(rec["exact"]) != len(ref["exact"]) or len(rec["mc"]) != len(ref["mc"]):
        return ["output shape differs from the reference"]
    dev = max((abs(a - b) for a, b in zip(rec["exact"], ref["exact"])),
              default=0.0)
    stats["max_abs_dev"] = max(stats.get("max_abs_dev", 0.0), dev)
    if dev > REFERENCE_TOL:
        problems.append(f"deviates from the reference by {dev:.3e}")
    for (mean, se), (ref_mean, ref_se) in zip(rec["mc"], ref["mc"]):
        combined = math.hypot(se, ref_se)
        sigma = abs(mean - ref_mean) / combined if combined > 0 else 0.0
        stats["mc_dev_sigma"] = max(stats.get("mc_dev_sigma", 0.0), sigma)
        if sigma > MC_SIGMA_TOL:
            problems.append(f"Monte Carlo row {sigma:.2f} sigma from the reference")
    return problems
