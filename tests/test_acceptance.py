"""Acceptance suite: end-to-end checks at fixed tolerances and budgets.

Each test covers one numbered acceptance criterion and prints a single
``ACCEPTANCE nn <label>: PASS/FAIL`` line (shown in pytest's summary of
passed-test output).  Runtime budgets are asserted, not just documented.
"""
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dbmlab import chainpoly, cli, machine, rs_solver, sk_chain_bound
from dbmlab import finite_volume_lab as fvl
from dbmlab.machine import FieldSpec, ModelParams

from helpers import random_params
from oracles import damped_fixed_point

LOG2 = math.log(2.0)


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL "
              f"(runtime {elapsed:.1f}s exceeds {budget_s}s)")
        raise AssertionError(
            f"runtime budget exceeded: {elapsed:.1f}s > {budget_s}s")
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({elapsed:.1f}s)")


def test_01_membership_criteria_equivalence():
    with criterion(1, "membership criteria equivalence", 10.0):
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(1000):
            params = random_params(rng, k_range=(2, 10),
                                   beta_range=(0.2, 1.5))
            verdict = machine.classify_annealed(params)
            if abs(verdict.rho - 1.0) <= 1e-9:
                continue
            inside = verdict.rho < 1.0
            assert all(z > 0.0 for z in verdict.z_chain) == inside
            assert (verdict.feasible_a is not None) == inside
            checked += 1
        assert checked > 900


def test_02_characteristic_polynomial_identity():
    with criterion(2, "characteristic polynomial identity", 5.0):
        rng = np.random.default_rng(202)
        for _ in range(100):
            params = random_params(rng, k_range=(2, 8),
                                   beta_range=(0.2, 1.5))
            t = machine.activities(params)
            M = machine.build_matrices(params)[2]
            K = params.K
            for x in rng.uniform(-3.0, 3.0, 20):
                delta = chainpoly.eval_sequence(float(x), t)[-1]
                det = np.linalg.det(x * np.eye(K) - M)
                assert abs(det - delta) <= 1e-9 * max(1.0, abs(delta))


def test_03_interlacing():
    with criterion(3, "interlacing of chain-polynomial zeros", 5.0):
        rng = np.random.default_rng(303)
        for i in range(200):
            K = int(rng.integers(2, 13))
            t = rng.uniform(5e-3, 2.5, K - 1)
            if i % 4 == 0 and K >= 3:
                t[rng.integers(0, K - 1)] = 0.0  # weak-only regime
            assert chainpoly.interlacing_check(t, strict=False)
            if t.size and t.min() > 1e-6:
                assert chainpoly.interlacing_check(t, strict=True)


def test_04_localisation_equivalence():
    with criterion(4, "zero-localisation equivalence", 5.0):
        rng = np.random.default_rng(404)
        checked = 0
        for _ in range(1000):
            K = int(rng.integers(2, 13))
            t = rng.uniform(0.01, 2.5, K - 1)
            top = chainpoly.largest_zero(t)
            radius = float(rng.uniform(0.8, 1.2) * max(top, 0.1))
            if abs(top - radius) <= 1e-9:
                continue
            a = chainpoly.zeros_in_interval(t, radius, method="signs")
            b = chainpoly.zeros_in_interval(t, radius, method="eigen")
            assert a == b
            checked += 1
        assert checked > 950


def test_05_extremal_layer_weights():
    with criterion(5, "extremal layer weights", 30.0):
        rng = np.random.default_rng(505)
        for _ in range(20):
            K = int(rng.integers(2, 9))
            beta = tuple(rng.uniform(0.2, 1.5, K - 1))
            extremal = machine.extremal_lambda(beta)
            assert extremal.value == pytest.approx(max(b**2 for b in beta),
                                                   rel=1e-12)
            for _ in range(1500):
                lam = tuple(rng.dirichlet(np.ones(K)))
                rho = machine.spectral_radius(
                    ModelParams(K=K, beta=beta, lam=lam, fields=()))
                assert rho <= extremal.value + 1e-9
            for lam in extremal.maximizers:
                rho = machine.spectral_radius(
                    ModelParams(K=K, beta=beta, lam=tuple(lam), fields=()))
                assert abs(rho - extremal.value) <= 1e-9


def test_06_stability_jacobian_matches_interaction_matrix():
    with criterion(6, "consistency-map stability at zero overlap", 30.0):
        rng = np.random.default_rng(606)
        step = 4e-9
        for _ in range(200):
            params = random_params(rng, k_range=(2, 8),
                                   beta_range=(0.2, 1.5))
            K = params.K
            M = rs_solver.jacobian_at_zero(params)
            q0 = np.full(K, 1e-8)
            jac = np.empty((K, K))
            for j in range(K):
                bump = np.zeros(K)
                bump[j] = step
                jac[:, j] = (rs_solver.rs_map(q0 + bump, params)
                             - rs_solver.rs_map(q0 - bump, params)) / (2 * step)
            assert np.max(np.abs(jac - M)) <= 1e-5
            verdict = machine.classify_annealed(params)
            if verdict.verdict != "boundary":
                spectral = float(np.max(np.abs(np.linalg.eigvals(M))))
                assert (spectral < 1.0) == (verdict.verdict == "inside")


def test_07_consistency_solution_uniqueness():
    with criterion(7, "consistency-solution uniqueness", 120.0):
        rng = np.random.default_rng(707)
        for _ in range(100):
            params = random_params(rng, k_range=(2, 6),
                                   beta_range=(0.2, 1.2),
                                   field_kind="gaussian",
                                   v_range=(0.1, 1.0))
            nested = rs_solver.solve_nested(params)
            assert nested.residual < 1e-8
            for _ in range(10):
                q0 = rng.uniform(0.01, 0.95, params.K)
                fp = damped_fixed_point(params, q0=q0, tol=1e-9,
                                        max_iter=50_000)
                assert float(np.max(np.abs(fp.q - nested.q))) < 1e-7


def test_08_single_layer_overlap_monotonicity():
    with criterion(8, "single-layer overlap monotonicity", 5.0):
        betas = np.linspace(0.3, 2.0, 20)
        variances = np.linspace(0.05, 1.5, 20)
        table = np.array([[rs_solver.latala_guerra(float(b), float(v))
                           for v in variances] for b in betas])
        assert np.all(np.diff(table, axis=0) > 1e-10)
        assert np.all(np.diff(table, axis=1) > 1e-10)


def test_09_bound_bridge():
    with criterion(9, "variational bound vs consistency pressure", 120.0):
        rng = np.random.default_rng(909)
        certified = 0
        attempts = 0
        while certified < 100 and attempts < 130:
            attempts += 1
            params = random_params(rng, k_range=(2, 6),
                                   beta_range=(0.2, 0.7),
                                   field_kind="gaussian",
                                   v_range=(0.1, 1.0))
            result = sk_chain_bound.maximize_bound(params)
            if not result.certified:
                continue
            certified += 1
            nested = rs_solver.solve_nested(params)
            rs_value = rs_solver.rs_pressure(nested.q, params)
            assert abs(result.value - rs_value) < 1e-8
        assert certified == 100

        for _ in range(1000):
            params = random_params(rng, k_range=(2, 8),
                                   beta_range=(0.2, 1.5),
                                   lam_floor=0.02,
                                   field_kind="mixed")
            q = rng.uniform(0.05, 1.0, params.K)
            a = sk_chain_bound.related_aux(q, params)
            related, gap = sk_chain_bound.bridge_check(q, a, params)
            assert related
            assert gap >= -1e-10


def test_10_annealed_collapse():
    with criterion(10, "annealed collapse inside the region", 60.0):
        rng = np.random.default_rng(1010)
        accepted = 0
        while accepted < 50:
            params = random_params(rng, k_range=(2, 8),
                                   beta_range=(0.2, 1.05))
            verdict = machine.classify_annealed(params)
            if verdict.verdict != "inside" or verdict.feasible_a is None:
                continue
            accepted += 1
            result = sk_chain_bound.maximize_bound(params)
            target = machine.annealed_pressure(params)
            assert abs(result.value - target) <= 1e-8


def test_11_finite_volume_annealed_trend():
    with criterion(11, "finite-volume annealed trend", 600.0):
        params = ModelParams(K=3, beta=(0.5, 0.5), lam=(1 / 3, 1 / 3, 1 / 3),
                             fields=())
        sizes = [fvl.LayerAssignment.from_weights(params.lam, n)
                 for n in (12, 18, 24)]
        report = fvl.annealed_trend(params, sizes, n_disorder=200, seed=2)
        assert report.p_annealed == pytest.approx(LOG2 + 1.0 / 18.0, abs=1e-12)
        for row in report.rows:
            assert row.method == "exact_enum"
            assert row.mean <= report.p_annealed + 3.0 * row.std_error
            assert row.gap > 0.0
        assert report.rows[-1].gap < report.rows[0].gap


def test_12_energy_covariance_identity():
    with criterion(12, "energy covariance identity", 60.0):
        assignment = fvl.LayerAssignment((8, 8))
        params = ModelParams(K=2, beta=(0.8,), lam=(0.5, 0.5), fields=())
        worst = max(row.standardized for row in fvl.covariance_report(
            assignment, params, n_disorder=5000, seed=12))
        assert worst < 5.0


def test_13_determinism_byte_identical_outputs(tmp_path):
    with criterion(13, "byte-identical reruns", 60.0):
        model = ModelParams(
            K=2, beta=(0.5,), lam=(0.5, 0.5),
            fields=(FieldSpec.gaussian(0.4), FieldSpec.gaussian(0.3))).to_dict()

        scan_cfg = dict(model)
        scan_cfg["scan"] = {
            "axes": [{"path": "beta[0]", "min": 0.4, "max": 0.6, "steps": 3}],
            "outputs": ["region", "rho", "rs_pressure", "bound",
                        "certificates"],
        }
        scan_path = tmp_path / "scan.json"
        scan_path.write_text(json.dumps(scan_cfg))
        outs = []
        for name in ("scan1.csv", "scan2.csv"):
            out = tmp_path / name
            assert cli.main(["scan", "--config", str(scan_path), "--seed", "7",
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

        verify_cfg = dict(ModelParams(K=2, beta=(0.4,), lam=(0.5, 0.5),
                                      fields=()).to_dict())
        verify_cfg["verify"] = {"sizes": [6, 10], "n_disorder": 5,
                                "covariance_total": 6,
                                "covariance_n_disorder": 300}
        verify_path = tmp_path / "verify.json"
        verify_path.write_text(json.dumps(verify_cfg))
        outs = []
        for name in ("verify1.json", "verify2.json"):
            out = tmp_path / name
            assert cli.main(["verify", "--config", str(verify_path),
                             "--seed", "3", "--format", "json",
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
