"""Tests for the command-line interface."""
import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbmlab import cli, finite_volume_lab, ghquad, machine, rs_solver
from dbmlab.finite_volume_lab import TrendReport, TrendRow
from dbmlab.machine import FieldSpec, ModelParams

from helpers import (config_sections, csv_text, mistyped_model_sections,
                     model_sections)
from oracles import damped_fixed_point

LOG2 = math.log(2.0)
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def model_dict(K, beta, lam, fields=()):
    return ModelParams(K=K, beta=tuple(beta), lam=tuple(lam),
                       fields=tuple(fields)).to_dict()


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def balanced2(beta=0.6):
    return model_dict(2, (beta,), (0.5, 0.5))


def gauss2(beta=0.6):
    return model_dict(2, (beta,), (0.5, 0.5),
                      (FieldSpec.gaussian(0.5), FieldSpec.gaussian(0.3)))


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def test_region_single_point(tmp_path):
    cfg = write_config(tmp_path, balanced2())
    out = str(tmp_path / "region.json")
    rc = cli.main(["region", "--config", cfg, "--format", "json", "--out", out])
    assert rc == 0
    data = read_json(out)
    assert data["command"] == "region"
    row = data["rows"][0]
    assert row["verdict"] == "inside"
    assert row["rho"] == pytest.approx(0.36, rel=1e-12)
    assert row["witness"] is not None


def test_region_scan_finds_boundary_crossing(tmp_path):
    data = balanced2(1.0)
    data["scan"] = {"axes": [{"path": "beta[0]", "min": 0.5, "max": 1.5,
                              "steps": 11}]}
    cfg = write_config(tmp_path, data)
    out = str(tmp_path / "region.csv")
    rc = cli.main(["region", "--config", cfg, "--out", out])
    assert rc == 0
    lines = (tmp_path / "region.csv").read_text().strip().splitlines()
    assert lines[0] == "beta[0],rho,verdict"
    assert len(lines) == 12
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][2] == "inside"
    assert rows[-1][2] == "outside"
    crossing = [r for r in rows if float(r[0]) == pytest.approx(1.0, abs=1e-12)]
    assert crossing and crossing[0][2] == "boundary"


def test_region_single_layer_always_inside(tmp_path):
    data = model_dict(1, (), (1.0,))
    data["scan"] = {"axes": [{"path": "fields[0].v", "min": 0.0, "max": 1.0,
                              "steps": 3}]}
    cfg = write_config(tmp_path, data)
    out = str(tmp_path / "k1.json")
    rc = cli.main(["region", "--config", cfg, "--format", "json", "--out", out])
    assert rc == 0
    rows = read_json(out)["rows"]
    assert len(rows) == 3
    assert all(r["verdict"] == "inside" for r in rows)


@pytest.mark.parametrize("K, beta, lam", [
    (1, (), (1.0,)),
    (3, (0.5, 0.5), (0.0, 0.5, 0.5)),  # a zero-width layer
    (2, (1.0 + 1e-10,), (0.5, 0.5)),  # within the boundary band
    (2, (1.0 + 1e-8,), (0.5, 0.5)),  # just outside it
    (3, (0.5, 0.5), (1e-320, 0.5, 0.5)),  # a witness lost past the floats
    (4, (0.6, 0.9, 0.4), (0.2, 0.3, 0.3, 0.2)),  # a witness
])
def test_region_on_one_model_reads_classify_annealed(tmp_path, K, beta, lam):
    # region on one model reads the classification's columns: its rho,
    # verdict and witness are classify_annealed's, in JSON and in CSV.
    params = ModelParams(K=K, beta=beta, lam=lam)
    verdict = machine.classify_annealed(params)
    cfg = write_config(tmp_path, params.to_dict())
    out = tmp_path / "region"
    assert cli.main(["region", "--config", cfg, "--format", "json",
                     "--out", str(out)]) == 0
    witness = (None if verdict.feasible_a is None
               else list(verdict.feasible_a))
    assert read_json(out)["rows"] == [
        {"rho": verdict.rho, "verdict": verdict.verdict, "witness": witness}]
    assert cli.main(["region", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text() == f"rho,verdict\n{verdict.rho!r},{verdict.verdict}\n"
    if lam[0] == 1e-320:
        assert verdict.verdict == "inside" and witness is None
    if beta == (1.0 + 1e-10,):
        assert verdict.verdict == "boundary" and verdict.rho != 1.0


def test_scan_steps_below_two_is_usage_error(tmp_path):
    data = balanced2()
    data["scan"] = {"axes": [{"path": "beta[0]", "min": 0.5, "max": 1.5,
                              "steps": 1}]}
    cfg = write_config(tmp_path, data)
    assert cli.main(["region", "--config", cfg]) == 2
    assert cli.main(["scan", "--config", cfg]) == 2


def test_malformed_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["region", "--config", str(bad)]) == 2
    assert cli.main(["region", "--config", str(tmp_path / "missing.json")]) == 2
    broken = write_config(tmp_path, {"K": 2, "beta": [0.5], "lambda": [0.9, 0.6]},
                          name="broken.json")
    assert cli.main(["region", "--config", broken]) == 2
    good = write_config(tmp_path, gauss2(), name="good.json")
    for command in ("rs", "bound"):
        for tol in ("0", "-1", "1", "100", "inf", "nan"):
            assert cli.main([command, "--config", good, "--tol", tol]) == 2
    point_mass = write_config(
        tmp_path, model_dict(2, (0.6,), (0.5, 0.5),
                             (FieldSpec.point_mass(0.3), FieldSpec.zero())),
        name="point_mass.json")
    assert cli.main(["bound", "--config", point_mass]) == 2
    for damping in (1.5, 0.0, -0.2, "nan", "0.5", True):
        data = gauss2()
        data["solver"] = {"method": "fixed_point", "damping": damping}
        cfg = write_config(tmp_path, data, name="damping.json")
        assert cli.main(["rs", "--config", cfg]) == 2
    for model in ({"K": 2, "beta": [1e77], "lambda": [0.5, 0.5]},
                  {"K": 2.9, "beta": [0.5], "lambda": [0.5, 0.5]},
                  {"K": 1, "beta": [], "lambda": [1.0], "fields": [[]]},
                  {"K": 1, "beta": [], "lambda": [1.0], "fields": "zero"},
                  {"K": 1, "beta": [], "lambda": [1.0],
                   "fields": [{"kind": "gaussian_centered", "v": 10**400}]},
                  {"K": 2, "beta": [True], "lambda": [0.5, 0.5]},
                  {"K": 2, "beta": ["0.7"], "lambda": [0.5, 0.5]},
                  {"K": "2", "beta": [0.7], "lambda": [0.5, 0.5]},
                  {"K": 2, "beta": [0.7], "lambda": ["0.5", 0.5]},
                  {"K": 1, "beta": [], "lambda": [1.0],
                   "fields": [{"kind": "gaussian_centered", "v": True}]},
                  {"K": 1, "beta": [], "lambda": [1.0],
                   "fields": [{"kind": "point_mass", "h0": "0.3"}]},
                  {"K": 1, "beta": [], "lambda": [1.0],
                   "fields": [{"kind": "discrete", "values": [False],
                               "probs": [1.0]}]},
                  {"K": 1, "beta": [], "lambda": [1.0],
                   "fields": [{"kind": "discrete", "values": [0.5, -0.5],
                               "probs": [math.nan, 1.0]}]}):
        cfg = write_config(tmp_path, model, name="model.json")
        for command in ("region", "poly", "rs", "bound"):
            assert cli.main([command, "--config", cfg]) == 2
    zero_weight = write_config(tmp_path, model_dict(2, (0.6,), (0.0, 1.0)),
                               name="zero_weight.json")
    assert cli.main(["rs", "--config", zero_weight]) == 2
    for key, value in (("sizes", [12.7, 18]), ("sizes", [True, 12]),
                       ("sizes", "12"), ("sizes", 12), ("sizes", [6, "10"]),
                       ("n_disorder", 3.5), ("n_disorder", True),
                       ("sweeps", "400"), ("replicas", 2.5),
                       ("covariance_total", False),
                       ("covariance_n_disorder", 10.5), ("n_pairs", True),
                       ("n_pairs", 0)):
        data = verify_config()
        data["verify"][key] = value
        cfg = write_config(tmp_path, data, name="verify.json")
        assert cli.main(["verify", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# rs
# ---------------------------------------------------------------------------


def test_rs_zero_field_reports_zero_overlap(tmp_path):
    cfg = write_config(tmp_path, balanced2())
    out = str(tmp_path / "rs.json")
    rc = cli.main(["rs", "--config", cfg, "--format", "json", "--out", out])
    assert rc == 0
    data = read_json(out)
    sol = data["solutions"][0]
    assert sol["method"] == "nested"
    assert np.allclose(sol["q"], 0.0, atol=1e-9)
    params = ModelParams.from_dict(balanced2())
    assert sol["pressure"] == pytest.approx(machine.annealed_pressure(params),
                                            abs=1e-9)
    assert sol["certificates"]["stable_at_zero"] is True


def _rs_solutions(tmp_path, data):
    out = str(tmp_path / "rs.json")
    assert cli.main(["rs", "--config", write_config(tmp_path, data),
                     "--format", "json", "--out", out]) == 0
    payload = read_json(out)
    assert set(payload) == {"command", "p_annealed", "solutions"}
    return payload["solutions"]


def test_rs_cross_solver_agreement(tmp_path):
    # rs reports one Newton solution, where the damped iteration lands too.
    [sol] = _rs_solutions(tmp_path, gauss2())
    assert sol["method"] == "nested"
    fp = damped_fixed_point(ModelParams.from_dict(gauss2()), tol=1e-13)
    assert np.max(np.abs(np.asarray(sol["q"]) - fp.q)) < 1e-7


def test_rs_nested_takes_point_mass_fields(tmp_path):
    # Point-mass models take the Newton solver too, and land where the
    # damped iteration does.
    data = model_dict(2, (0.6,), (0.5, 0.5),
                      (FieldSpec.point_mass(0.3), FieldSpec.zero()))
    [sol] = _rs_solutions(tmp_path, data)
    assert sol["method"] == "nested"
    fp = damped_fixed_point(ModelParams.from_dict(data), tol=1e-13)
    assert np.max(np.abs(np.asarray(sol["q"]) - fp.q)) < 1e-7
    assert min(sol["q"]) > 0.0


def test_rs_solves_chains_past_the_default_rule_range(tmp_path):
    # The finer rule expect picks past s + v = 25 keeps the guard quiet.
    [sol] = _rs_solutions(tmp_path, _FORMER_GUARD_TRIP_MODEL)
    fp = damped_fixed_point(ModelParams.from_dict(_FORMER_GUARD_TRIP_MODEL),
                            q0=np.ones(2), damping=1.0, tol=1e-13)
    assert np.max(np.abs(np.asarray(sol["q"]) - fp.q)) < 1e-9
    assert sol["residual"] <= 1e-10


@pytest.mark.parametrize("excess", [1e-3, 1e-4, 1e-6])
def test_rs_auto_solves_zero_field_models_just_past_a_critical_line(
        tmp_path, excess):
    # The damped iteration stalls above 1e-10 after 10000 steps on these
    # models; rs takes Newton, which lands on the root in a few steps.
    lam = (0.3, 0.4, 0.3)
    unit = machine.spectral_radius(ModelParams(K=3, beta=(1.0, 1.0), lam=lam))
    beta = math.sqrt((1.0 + excess) / unit)
    params = ModelParams(K=3, beta=(beta, beta), lam=lam)
    assert machine.spectral_radius(params) == pytest.approx(1.0 + excess,
                                                            rel=1e-12)
    out = str(tmp_path / "rs.json")
    assert cli.main(["rs", "--config", write_config(tmp_path, params.to_dict()),
                     "--format", "json", "--out", out]) == 0
    sol = read_json(out)["solutions"][0]
    assert sol["method"] == "nested"
    nested = rs_solver.solve_nested(params)
    assert sol["q"] == [float(x) for x in nested.q]
    assert sol["residual"] <= 1e-12
    assert min(sol["q"]) > 0.0


@pytest.mark.parametrize("fields", [
    (FieldSpec.zero(),) * 3,
    (FieldSpec.gaussian(0.0), FieldSpec.gaussian(0.4), FieldSpec.zero()),
])
def test_rs_nested_takes_zero_and_zero_variance_fields(tmp_path, fields):
    # rs solves zero and zero-variance fields with Newton and lands on the
    # largest solution, where the undamped iteration from q = 1 ends.  The chain lies outside the annealed region (rho about 1.6), so
    # that solution is not q = 0.
    data = model_dict(3, (1.3, 1.1), (0.3, 0.4, 0.3), fields)
    cfg = write_config(tmp_path, data)
    out = str(tmp_path / "rs.json")
    assert cli.main(["rs", "--config", cfg, "--format", "json", "--out", out]) == 0
    sol = read_json(out)["solutions"][0]
    assert sol["method"] == "nested"
    params = ModelParams.from_dict(data)
    assert machine.spectral_radius(params) > 1.2
    fp = damped_fixed_point(params, q0=np.ones(3), damping=1.0,
                            tol=1e-13, max_iter=100_000)
    np.testing.assert_allclose(sol["q"], fp.q, rtol=0.0, atol=1e-9)
    assert min(sol["q"]) > 0.1


def test_rs_single_layer(tmp_path):
    field = FieldSpec.gaussian(0.8)
    cfg = write_config(tmp_path, model_dict(1, (), (1.0,), (field,)))
    out = str(tmp_path / "rs1.json")
    rc = cli.main(["rs", "--config", cfg, "--format", "json", "--out", out])
    assert rc == 0
    sol = read_json(out)["solutions"][0]
    assert sol["q"][0] == pytest.approx(
        ghquad.expect(ghquad.TANH_SQ, 0.0, field), abs=1e-9)
    assert sol["pressure"] == pytest.approx(
        LOG2 + ghquad.expect(ghquad.LOG_COSH, 0.0, field), abs=1e-9)


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def test_bound_annealed_collapse(tmp_path):
    cfg = write_config(tmp_path, balanced2())
    out = str(tmp_path / "bound.json")
    rc = cli.main(["bound", "--config", cfg, "--format", "json", "--out", out])
    assert rc == 0
    data = read_json(out)
    params = ModelParams.from_dict(balanced2())
    assert data["value"] == pytest.approx(machine.annealed_pressure(params),
                                          abs=1e-8)
    assert data["certified"] is True
    assert data["flags"] == []
    assert data["annealed_gap"] == pytest.approx(0.0, abs=1e-8)


def test_bound_single_layer(tmp_path):
    field = FieldSpec.gaussian(0.8)
    cfg = write_config(tmp_path, model_dict(1, (), (1.0,), (field,)))
    out = str(tmp_path / "bound1.json")
    rc = cli.main(["bound", "--config", cfg, "--format", "json", "--out", out])
    assert rc == 0
    data = read_json(out)
    assert data["value"] == pytest.approx(
        LOG2 + ghquad.expect(ghquad.LOG_COSH, 0.0, field), abs=1e-9)
    assert data["certified"] is True
    assert data["a"] == []
    assert data["theta"] == [0.0]
    assert data["overlaps"] == [pytest.approx(
        ghquad.expect(ghquad.TANH_SQ, 0.0, field), abs=1e-12)]


def test_bound_matches_rs_when_certified(tmp_path):
    cfg = write_config(tmp_path, gauss2())
    out_b = str(tmp_path / "bound.json")
    out_r = str(tmp_path / "rs.json")
    assert cli.main(["bound", "--config", cfg, "--format", "json",
                     "--out", out_b]) == 0
    assert cli.main(["rs", "--config", cfg, "--format", "json",
                     "--out", out_r]) == 0
    bound = read_json(out_b)
    rs = read_json(out_r)["solutions"][0]
    assert bound["certified"] is True
    assert abs(bound["value"] - rs["pressure"]) < 1e-8


def test_bound_flags_uncertified(tmp_path):
    cfg = write_config(tmp_path, balanced2(1.5))
    out = str(tmp_path / "bound.json")
    rc = cli.main(["bound", "--config", cfg, "--format", "json", "--out", out])
    assert rc == 0
    data = read_json(out)
    assert data["certified"] is False
    assert "uncertified" in data["flags"]


def test_bound_raises_no_flag_at_a_far_witness(tmp_path):
    # At beta = 0.001 the annealed witness is the weight 1e6, far from 1,
    # and the bound is certified and equals p_annealed exactly: nothing is
    # flagged, and the report carries no key the bound does not compute.
    cfg = write_config(tmp_path, balanced2(0.001))
    out = str(tmp_path / "bound.json")
    rc = cli.main(["bound", "--config", cfg, "--format", "json", "--out", out])
    assert rc == 0
    data = read_json(out)
    assert data["a"] == [pytest.approx(1e6)]
    assert data["flags"] == []
    assert data["certified"] is True
    assert data["annealed_gap"] == 0.0
    assert set(data) == {"command", "a", "value", "certified", "theta",
                         "overlaps", "p_annealed", "annealed_gap", "flags"}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify_config(beta=0.4):
    data = balanced2(beta)
    data["verify"] = {"sizes": [6, 10], "n_disorder": 5,
                      "covariance_total": 6, "covariance_n_disorder": 300}
    return data


def test_verify_reports_and_csv_contract(tmp_path):
    cfg = write_config(tmp_path, verify_config())
    out_csv = str(tmp_path / "verify.csv")
    rc = cli.main(["verify", "--config", cfg, "--out", out_csv])
    assert rc == 0
    lines = (tmp_path / "verify.csv").read_text().strip().splitlines()
    assert lines[0] == "N,method,mean,std_error,p_annealed,gap,flags"
    assert len(lines) == 3
    out_json = str(tmp_path / "verify.json")
    rc = cli.main(["verify", "--config", cfg, "--format", "json",
                   "--out", out_json])
    assert rc == 0
    data = read_json(out_json)
    assert data["trend"]["jensen_ok"] is True
    assert data["covariance"]["worst"] < 5.0
    assert data["criteria_consistent"] is True
    assert data["ok"] is True


def test_verify_refuses_a_covariance_check_past_the_spin_cap(tmp_path, capsys):
    data = verify_config()
    data["verify"]["covariance_total"] = finite_volume_lab.MC_SPIN_CAP + 1
    assert cli.main(["verify", "--config", write_config(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert f"capped at {finite_volume_lab.MC_SPIN_CAP} spins" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("covariance_total", 1e308), ("covariance_total", 0),
    ("sizes", [6, 1e308]), ("sizes", [6, finite_volume_lab.MC_SPIN_CAP + 1]),
    ("sizes", [0, 10]), ("sizes", [-6, 10]),
])
def test_verify_checks_every_size_before_any_work(tmp_path, capsys,
                                                   monkeypatch, key, value):
    # A size past the cap used to fail only after the smaller sizes (or the
    # whole trend) had run, and 1e308 warned in a cast before exiting 2.
    def refuse(*args, **kwargs):
        raise AssertionError("verify computed before checking its sizes")
    monkeypatch.setattr(finite_volume_lab, "annealed_trend", refuse)
    data = verify_config()
    data["verify"][key] = value
    assert cli.main(["verify", "--config", write_config(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: invalid value: '{key}'"
                   f"{' entries' if key == 'sizes' else ''} must lie between "
                   f"1 and {finite_volume_lab.MC_SPIN_CAP}: verify is capped "
                   f"at {finite_volume_lab.MC_SPIN_CAP} spins\n")


@pytest.mark.parametrize("key, value, low, high", [
    ("covariance_n_disorder", 1e308, 3, finite_volume_lab.COUNT_CAP),
    ("covariance_n_disorder", 2, 3, finite_volume_lab.COUNT_CAP),
    ("n_disorder", finite_volume_lab.COUNT_CAP + 1, 1, finite_volume_lab.COUNT_CAP),
    ("n_disorder", 0, 1, finite_volume_lab.COUNT_CAP),
    ("sweeps", finite_volume_lab.COUNT_CAP + 1, 2, finite_volume_lab.COUNT_CAP),
    ("sweeps", 1, 2, finite_volume_lab.COUNT_CAP),
    ("replicas", finite_volume_lab.REPLICA_CAP + 1, 1, finite_volume_lab.REPLICA_CAP),
    ("n_pairs", finite_volume_lab.PAIR_CAP + 1, 1, finite_volume_lab.PAIR_CAP),
])
def test_verify_caps_every_count_before_any_work(tmp_path, capsys, monkeypatch,
                                                 key, value, low, high):
    # "covariance_n_disorder": 1e308 used to run until the process was killed.
    def refuse(*args, **kwargs):
        raise AssertionError("verify computed before checking its counts")
    monkeypatch.setattr(finite_volume_lab, "annealed_trend", refuse)
    monkeypatch.setattr(finite_volume_lab, "covariance_report", refuse)
    data = verify_config()
    data["verify"][key] = value
    assert cli.main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid value: '{key}' must lie between {low} and {high}\n")


def test_verify_caps_the_monte_carlo_records(tmp_path, capsys, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached
    monkeypatch.setattr(finite_volume_lab, "annealed_trend", reached)
    monkeypatch.setattr(finite_volume_lab, "covariance_report", reached)
    data = verify_config()
    # 1000 samples x 200 recorded sweeps x 84 rungs: one entry past the cap
    # would take 16 800 000 > 2^24; one rung fewer fits.
    data["verify"].update({"sizes": [6, 30], "n_disorder": 1000, "sweeps": 400,
                           "replicas": 84})
    assert cli.main(["verify", "--config", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid value: the Monte Carlo records of n_disorder x "
        "(sweeps - sweeps // 2) x replicas = 16800000 entries exceed "
        f"{finite_volume_lab.MC_RECORD_CAP}\n")
    for sizes, replicas in (([6, 30], 83), ([6, 24], 84)):
        # Below the cap, or with no size past enumeration, the trend runs.
        data["verify"].update({"sizes": sizes, "replicas": replicas})
        with pytest.raises(Reached):
            cli.main(["verify", "--config", write_config(tmp_path, data)])


def test_verify_refuses_unknown_settings(tmp_path, capsys):
    # A misspelt key would otherwise run at the default it meant to change.
    data = verify_config()
    data["verify"]["covariance_totl"] = 6
    for command in ("verify", "rs"):
        assert cli.main([command, "--config",
                         write_config(tmp_path, data)]) == 2
        err = capsys.readouterr().err
        assert "unknown verify settings ['covariance_totl']" in err
        assert err.count("\n") == 1


def test_verify_outside_region_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, verify_config(beta=1.5))
    assert cli.main(["verify", "--config", cfg]) == 2
    data = verify_config()
    data["verify"]["n_disorder"] = "many"
    cfg = write_config(tmp_path, data, name="many.json")
    assert cli.main(["verify", "--config", cfg]) == 2


def test_verify_criteria_stay_consistent_on_overflowing_chains():
    K = 512
    for beta in (10.0, 1e30):  # inside; far outside, where z_chain holds nan
        params = ModelParams(K=K, beta=(beta,) * (K - 1), lam=(1 / K,) * K,
                             fields=())
        assert cli._criteria_consistent(params)


@pytest.mark.parametrize("beta, lam", [
    ((0.5, 0.5), (1e-320, 0.5, 0.5)),  # rho = 0.25, the witness overflows
    ((1e-200, 1e-200), (0.3, 0.4, 0.3)),  # rho = 0, beta^2 underflows
])
def test_verify_counts_a_witness_past_the_floats_as_consistent(tmp_path, beta, lam):
    # Strictly inside, where classify_annealed withholds the witness only
    # because its recursion left the floats.
    params = ModelParams(K=3, beta=beta, lam=lam, fields=())
    verdict = machine.classify_annealed(params)
    assert verdict.verdict == "inside" and verdict.feasible_a is None
    assert cli._criteria_consistent(params)
    data = dict(verify_config(), **model_dict(3, beta, lam))
    out = str(tmp_path / "verify.json")
    assert cli.main(["verify", "--config", write_config(tmp_path, data),
                     "--format", "json", "--out", out]) == 0
    report = read_json(out)
    assert report["criteria_consistent"] is True
    assert report["ok"] is True


@pytest.mark.parametrize("entries", [(1.0, -1.0, 1.0), (math.inf, -math.inf, 1.0)])
def test_verify_flags_a_witness_entry_that_fails(monkeypatch, entries):
    # A zero or negative witness entry inside the region is a disagreement,
    # also when another entry left the floats.
    params = ModelParams(K=3, beta=(0.5, 0.5), lam=(0.3, 0.4, 0.3), fields=())
    assert cli._criteria_consistent(params)
    monkeypatch.setattr(machine, "witness_recursion",
                        lambda params: np.array(entries))
    assert machine.classify_annealed(params).feasible_a is None
    assert not cli._criteria_consistent(params)


def test_verify_csv_writes_the_trend_rows(tmp_path):
    data = verify_config()
    out = str(tmp_path / "verify.csv")
    assert cli.main(["verify", "--config", write_config(tmp_path, data),
                     "--seed", "8", "--out", out]) == 0
    params = ModelParams.from_dict(data)
    report = finite_volume_lab.annealed_trend(
        params, [finite_volume_lab.LayerAssignment.from_weights(params.lam, n)
                 for n in data["verify"]["sizes"]], data["verify"]["n_disorder"], 8)
    lines = (tmp_path / "verify.csv").read_text().splitlines()
    assert lines[0] == "N,method,mean,std_error,p_annealed,gap,flags"
    assert lines[1:] == [
        ",".join([str(row.N), row.method, repr(row.mean), repr(row.std_error),
                  repr(row.p_annealed), repr(row.gap), ";".join(row.flags)])
        for row in report.rows]
    assert report.to_dict()["jensen_ok"] is True
    assert len(report.to_dict()["rows"]) == 2
    assert float(report.to_dict()["rows"][0]["mean"]) == report.rows[0].mean


def test_verify_csv_joins_a_row_s_flags_with_semicolons(tmp_path, monkeypatch):
    row = TrendRow(N=30, method="monte_carlo", mean=0.9, std_error=0.0,
                   p_annealed=0.8, gap=-0.1,
                   flags=("nonequilibrated", "jensen_violation"))
    fake = TrendReport(rows=(row,), p_annealed=0.8, jensen_ok=False,
                       gap_decreasing=False)
    monkeypatch.setattr(finite_volume_lab, "annealed_trend",
                        lambda *a, **k: fake)
    out = tmp_path / "verify.csv"
    assert cli.main(["verify", "--config", write_config(tmp_path, verify_config()),
                     "--out", str(out)]) == 1
    assert out.read_text().splitlines()[1] == \
        "30,monte_carlo,0.9,0.0,0.8,-0.1,nonequilibrated;jensen_violation"


def test_verify_exit_one_on_hard_invariant_failure(tmp_path, monkeypatch):
    row = TrendRow(N=6, method="exact_enum", mean=0.9, std_error=0.0,
                   p_annealed=0.8, gap=-0.1, flags=("jensen_violation",))
    fake = TrendReport(rows=(row,), p_annealed=0.8, jensen_ok=False,
                       gap_decreasing=False)

    monkeypatch.setattr(finite_volume_lab, "annealed_trend",
                        lambda *a, **k: fake)
    cfg = write_config(tmp_path, verify_config())
    out = str(tmp_path / "verify.json")
    rc = cli.main(["verify", "--config", cfg, "--format", "json", "--out", out])
    assert rc == 1
    data = read_json(out)
    assert data["ok"] is False
    assert data["trend"]["jensen_ok"] is False


def test_verify_reaches_every_traced_finite_volume_layer(tmp_path, monkeypatch):
    # The benchmark traces these module attributes; each must still be
    # called by verify, through the attribute, so no layer goes dark.
    fvl = finite_volume_lab
    names = ("sample_disorder", "log_partition", "hamiltonian", "mc_pressure",
             "covariance_report")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(fvl, name, counting(name, getattr(fvl, name)))
    data = verify_config()
    data["verify"].update({"sizes": [6, 26], "sweeps": 20, "replicas": 3,
                           "covariance_n_disorder": 20})
    assert cli.main(["verify", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path / "verify.csv")]) == 0
    assert all(calls[name] > 0 for name in names), calls


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_two_axes_deterministic_and_ordered(tmp_path):
    data = gauss2()
    data["scan"] = {
        "axes": [{"path": "beta[0]", "min": 0.4, "max": 0.8, "steps": 3},
                 {"path": "fields[1].v", "min": 0.2, "max": 0.4, "steps": 2}],
        "outputs": ["region", "rho"],
    }
    cfg = write_config(tmp_path, data)
    out1 = tmp_path / "scan1.csv"
    out2 = tmp_path / "scan2.csv"
    assert cli.main(["scan", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["scan", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "beta[0],fields[1].v,verdict,rho,flags"
    assert len(lines) == 7
    first_axis = [float(line.split(",")[0]) for line in lines[1:]]
    assert first_axis == pytest.approx([0.4, 0.4, 0.6, 0.6, 0.8, 0.8])


@pytest.mark.parametrize("outputs", [["bound"], ["rs_pressure"]])
def test_scan_classifies_only_for_region_or_rho(tmp_path, monkeypatch, outputs):
    # Centred Gaussian fields: no point takes the annealed witness, so a scan
    # without region or rho classifies nothing, and its columns are those
    # of the run with every output.
    data = model_dict(3, (0.9, 0.7), (0.3, 0.4, 0.3),
                      (FieldSpec.gaussian(0.4), FieldSpec.gaussian(0.2),
                       FieldSpec.gaussian(0.3)))
    data["scan"] = {"axes": [{"path": "beta[0]", "min": 0.3, "max": 1.8, "steps": 7},
                             {"path": "fields[1].v", "min": 0.1, "max": 0.6,
                              "steps": 3}],
                    "outputs": ["region", "rho", "rs_pressure", "bound",
                                "certificates"]}
    full = str(tmp_path / "full.json")
    assert cli.main(["scan", "--config", write_config(tmp_path, data, "full_cfg.json"),
                     "--format", "json", "--out", full]) == 0
    calls = []
    classify = machine._classify
    monkeypatch.setattr(machine, "_classify",
                        lambda *args: calls.append(args) or classify(*args))
    data["scan"]["outputs"] = outputs
    alone = str(tmp_path / "alone.json")
    assert cli.main(["scan", "--config", write_config(tmp_path, data),
                     "--format", "json", "--out", alone]) == 0
    assert calls == []
    columns = read_json(alone)["columns"]
    assert columns[-1] == "flags"
    full_rows, rows = read_json(full)["rows"], read_json(alone)["rows"]
    assert len(rows) == len(full_rows) == 21
    assert [json.dumps([row[c] for c in columns[:-1]]) for row in rows] == \
        [json.dumps([row[c] for c in columns[:-1]]) for row in full_rows]
    # Region and rho still classify the stack, once.
    data["scan"]["outputs"] = ["rho"]
    assert cli.main(["scan", "--config", write_config(tmp_path, data),
                     "--out", str(tmp_path / "rho.csv")]) == 0
    assert len(calls) == 1


def test_scan_lambda_axis_renormalizes_the_rest(tmp_path):
    data = model_dict(3, (0.5, 0.5), (0.2, 0.3, 0.5))
    data["scan"] = {"axes": [{"path": "lambda[1]", "min": 0.3, "max": 0.6,
                              "steps": 2}],
                    "outputs": ["rho"]}
    cfg = write_config(tmp_path, data)
    out = str(tmp_path / "scan.json")
    assert cli.main(["scan", "--config", cfg, "--format", "json",
                     "--out", out]) == 0
    rows = read_json(out)["rows"]
    for row in rows:
        x = row["lambda[1]"]
        rest = 1.0 - x
        lam = (0.2 / 0.7 * rest, x, 0.5 / 0.7 * rest)
        expected = machine.spectral_radius(
            ModelParams(K=3, beta=(0.5, 0.5), lam=lam, fields=()))
        assert row["rho"] == pytest.approx(expected, rel=1e-12)


def test_scan_rejects_unknown_outputs_and_paths(tmp_path):
    base = balanced2()

    data = dict(base)
    data["scan"] = {"axes": [{"path": "beta[0]", "min": 0.4, "max": 0.6,
                              "steps": 2}], "outputs": ["bogus"]}
    assert cli.main(["scan", "--config", write_config(tmp_path, data,
                                                      "a.json")]) == 2

    for path in ("gamma[0]", "beta[5]", "fields[0]"):
        data = dict(base)
        data["scan"] = {"axes": [{"path": path, "min": 0.4, "max": 0.6,
                                  "steps": 2}]}
        name = f"bad_{path.replace('[', '_').replace(']', '_')}.json"
        assert cli.main(["scan", "--config",
                         write_config(tmp_path, data, name)]) == 2


@pytest.mark.parametrize("outputs", [[["rho"]], "rho"],
                         ids=["nested_list", "string"])
def test_scan_outputs_must_be_a_list_of_strings(tmp_path, capsys, outputs):
    data = balanced2()
    data["scan"] = {"axes": [{"path": "beta[0]", "min": 0.4, "max": 0.6,
                              "steps": 2}], "outputs": outputs}
    assert cli.main(["scan", "--config", write_config(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert "scan outputs must be a JSON list of strings" in err
    assert err.count("\n") == 1


def test_scan_outputs_must_not_repeat(tmp_path, capsys):
    data = balanced2()
    data["scan"] = {"axes": [{"path": "beta[0]", "min": 0.4, "max": 0.6,
                              "steps": 2}], "outputs": ["rho", "region", "rho"]}
    assert cli.main(["scan", "--config", write_config(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert "repeated scan outputs ['rho']" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["scan", "region"])
def test_scan_axes_must_not_repeat(tmp_path, capsys, command):
    data = balanced2()
    data["scan"] = {"axes": [{"path": "beta[0]", "min": 0.4, "max": 0.6,
                              "steps": 2},
                             {"path": "beta[0]", "min": 0.5, "max": 0.7,
                              "steps": 3}]}
    assert cli.main([command, "--config", write_config(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: repeated scan axis 'beta[0]'; scan each "
                            "parameter on one axis\n")


@pytest.mark.parametrize("command", ["scan", "region"])
def test_scan_grid_past_the_point_cap_is_usage_error(tmp_path, capsys, command):
    # 1e308 steps once reached np.linspace and left a traceback.
    data = balanced2()
    data["scan"] = {"axes": [{"path": "beta[0]", "min": 0.4, "max": 0.6,
                              "steps": 1e308}]}
    assert cli.main([command, "--config", write_config(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the scan grid has more than 1000000 "
                            "points; lower the axis steps\n")


def test_scan_point_cap_counts_the_product_of_the_axes(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(cli, "_SCAN_POINTS", 6)
    data = model_dict(3, (0.5, 0.5), (0.3, 0.4, 0.3))
    for steps, code in (((3, 2), 0), ((2, 3), 0), ((4, 2), 2), ((7,), 2)):
        data["scan"] = {"axes": [
            {"path": f"beta[{i}]", "min": 0.4, "max": 0.6, "steps": n}
            for i, n in enumerate(steps)]}
        assert cli.main(["region", "--config",
                         write_config(tmp_path, data)]) == code
        err = capsys.readouterr().err
        assert ("more than 6 points" in err) == (code == 2)


def test_scan_solver_and_bound_outputs(tmp_path):
    data = gauss2()
    data["scan"] = {"axes": [{"path": "beta[0]", "min": 0.4, "max": 0.6,
                              "steps": 2}],
                    "outputs": ["rs_pressure", "bound", "certificates"]}
    cfg = write_config(tmp_path, data)
    out = str(tmp_path / "scan.json")
    assert cli.main(["scan", "--config", cfg, "--format", "json",
                     "--out", out]) == 0
    rows = read_json(out)["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["bound_certified"] is True
        assert row["at_ok"] is True
        assert row["flags"] == ""
        assert abs(row["bound_value"] - row["rs_pressure"]) < 1e-7


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------


def test_poly_report_known_case(tmp_path):
    cfg = write_config(tmp_path, model_dict(3, (1.0, 1.0), (1 / 3, 1 / 3, 1 / 3)))
    out = str(tmp_path / "poly.json")
    rc = cli.main(["poly", "--config", cfg, "--format", "json", "--out", out])
    assert rc == 0
    data = read_json(out)
    np.testing.assert_allclose(data["activities"], [4 / 9, 4 / 9], atol=1e-15)
    np.testing.assert_allclose(data["coefficients"], [0.0, -8 / 9, 0.0, 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(data["zeros"],
                               [-math.sqrt(8 / 9), 0.0, math.sqrt(8 / 9)],
                               atol=1e-12)
    assert data["spectral_radius"] == pytest.approx(math.sqrt(8 / 9), rel=1e-12)
    assert data["largest_zero"] == pytest.approx(math.sqrt(8 / 9), rel=1e-12)
    assert data["interlacing_ok"] is True

    out_csv = str(tmp_path / "poly.csv")
    assert cli.main(["poly", "--config", cfg, "--out", out_csv]) == 0
    lines = (tmp_path / "poly.csv").read_text().strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("spectral_radius,") for line in lines)


def test_poly_interlacing_holds_on_a_large_scale_chain(tmp_path):
    # Zeros up to about 517: the worst computed violation, 1.4e-12, is
    # rounding well inside the eigensolver's error bound (1.8e-11), though
    # past a fixed 1e-12.
    K = 40
    cfg = write_config(tmp_path, {
        "K": K, "beta": [41 + (187 * p) % 45 for p in range(K - 1)],
        "lambda": [1 / K] * K})
    out = str(tmp_path / "poly.json")
    assert cli.main(["poly", "--config", cfg, "--format", "json",
                     "--out", out]) == 0
    assert read_json(out)["interlacing_ok"] is True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("beta, lam, zero_activity", [
    # The only perfect matching takes the zero-activity last edge.
    ((1e70,) * 5, (0.2,) * 5 + (0.0,), True),
    # An activity that underflows to 0 beside ones near the largest float.
    ((1e70,) * 4 + (1e-90,), (0.2,) * 4 + (0.1, 0.1), True),
    ((1e70,) * 4, (0.2,) * 5, False),
])
def test_poly_writes_no_nan_when_matching_sums_leave_the_floats(
        tmp_path, capsys, beta, lam, zero_activity):
    # A matching sum past the floats is inf; an edge of zero activity adds
    # nothing to the sums, so it makes no 0 * inf.  Nothing is written to
    # stderr, and no coefficient is NaN.
    K = len(lam)
    cfg = write_config(tmp_path, model_dict(K, beta, lam))
    for fmt in ("csv", "json"):
        assert cli.main(["poly", "--config", cfg, "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "nan" not in captured.out.lower()
    coefficients = json.loads(captured.out)["coefficients"]
    assert math.inf in map(abs, coefficients)
    # The constant term is f_{K/2}, the perfect matchings' sum, or 0 for
    # an odd chain.
    if zero_activity:
        assert coefficients[0] == 0.0
    assert captured.out.count("Infinity") == 1


# ---------------------------------------------------------------------------
# output conventions
# ---------------------------------------------------------------------------


def _flat(prefix, value):
    """The ``(key, value)`` leaves of a JSON value: an object's keys joined
    with dots, a list's entries indexed."""
    if isinstance(value, dict):
        return [pair for key, sub in value.items()
                for pair in _flat(f"{prefix}.{key}" if prefix else key, sub)]
    if isinstance(value, list):
        return [pair for i, sub in enumerate(value)
                for pair in _flat(f"{prefix}[{i}]", sub)]
    return [(prefix, value)]


def _csv_of_json(command, report):
    """The cells of the CSV report that spells the JSON ``report``."""
    if command == "region":
        columns = [column for column in report["rows"][0] if column != "witness"]
        return [columns] + [[csv_text(row[column]) for column in columns]
                            for row in report["rows"]]
    if command == "poly":
        pairs = (_flat("activity", report["activities"])
                 + _flat("coefficient", report["coefficients"])
                 + _flat("zero", report["zeros"])
                 + [(key, report[key]) for key in
                    ("largest_zero", "spectral_radius", "interlacing_ok")])
    elif command == "rs":
        solution = dict(report["solutions"][0])
        pairs = (_flat(solution.pop("method"), solution)
                 + [("p_annealed", report["p_annealed"])])
    else:
        pairs = _flat("", {key: value for key, value in report.items()
                           if key not in ("command", "flags")})
        pairs.append(("flags", ";".join(report["flags"])))
    return [["key", "value"]] + [[key, csv_text(value)] for key, value in pairs]


@pytest.mark.parametrize("example", sorted(path.name for path in
                                           EXAMPLES.glob("*.json")))
def test_csv_and_json_agree_cell_by_cell(tmp_path, capsys, example):
    # Every report that CSV and JSON both write holds the same cells: null
    # is the empty cell, booleans are true/false and floats their repr.
    # region runs on the example's grid, if it has one, and on its model.
    config = json.loads((EXAMPLES / example).read_text())
    model = {key: value for key, value in config.items() if key != "scan"}
    runs = [("region", config), ("region", model), ("rs", model),
            ("bound", model), ("poly", model)]
    compared = 0
    for command, data in runs:
        path = write_config(tmp_path, data)
        texts = {}
        for fmt in ("json", "csv"):
            code = cli.main([command, "--config", path, "--format", fmt])
            texts[fmt] = (code, *capsys.readouterr())
        (code, json_out, json_err), (csv_code, csv_out, csv_err) = (
            texts["json"], texts["csv"])
        assert (code, json_err) == (csv_code, csv_err)
        if code != 0:
            assert json_out == csv_out == ""
            continue
        compared += 1
        cells = [line.split(",") for line in csv_out.splitlines()]
        assert cells == _csv_of_json(command, json.loads(json_out))
    assert compared >= 4


def test_json_numbers_roundtrip_bitwise(tmp_path):
    cfg = write_config(tmp_path, balanced2())
    out = str(tmp_path / "region.json")
    assert cli.main(["region", "--config", cfg, "--format", "json",
                     "--out", out]) == 0
    row = read_json(out)["rows"][0]
    params = ModelParams.from_dict(balanced2())
    assert row["rho"] == machine.spectral_radius(params)


def test_unknown_solver_settings_and_flags_are_usage_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, gauss2())
    with pytest.raises(SystemExit) as info:
        cli.main(["rs", "--config", cfg, "--quadrature-order", "181"])
    assert info.value.code == 2
    capsys.readouterr()
    for solver in ({"method": "nested"}, {"damping": 0.5},
                   {"tol": 1e-9, "method": "both"}):
        data = gauss2()
        data["solver"] = solver
        cfg = write_config(tmp_path, data, name="solver.json")
        for command in ("rs", "bound", "scan"):
            assert cli.main([command, "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            for key in set(solver) - {"tol"}:
                assert f"'{key}'" in err
    data = gauss2()
    data["solver"] = {"tol": 1e-9}
    assert cli.main(["rs", "--config", write_config(tmp_path, data)]) == 0


def test_solver_failure_is_exit_one_with_one_line(tmp_path, capsys):
    # Past the finest rule's range the Newton guard trips.
    cfg = write_config(tmp_path, _GUARD_TRIP_MODEL)
    assert cli.main(["rs", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver did not converge:")
    assert err.count("\n") == 1


# A K=2 Gaussian chain whose layer variance reaches about 141, past the
# 361-node rule's accuracy range of 25, so expect refines its rule.
_FORMER_GUARD_TRIP_MODEL = {
    "K": 2,
    "beta": [9.91593639907713],
    "lambda": [0.8374073628734021, 0.16259263712659788],
    "fields": [{"kind": "gaussian_centered", "v": 5.604975946298084e-06},
               {"kind": "gaussian_centered", "v": 0.0007593323389586956}],
}

# A K=2 Gaussian chain whose layer variance reaches about 1e6, past the
# finest rule's accuracy range: the nested Newton guard trips at step 1.
_GUARD_TRIP_MODEL = {
    "K": 2,
    "beta": [1000.0],
    "lambda": [0.5, 0.5],
    "fields": [{"kind": "gaussian_centered", "v": 0.5},
               {"kind": "gaussian_centered", "v": 0.3}],
}


@pytest.mark.parametrize("command", ["rs", "bound"])
def test_guard_trip_names_the_layer_variance(tmp_path, capsys, command):
    cfg = write_config(tmp_path, _GUARD_TRIP_MODEL)
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver did not converge: nested Newton "
                          "step 1 left the monotone descent")
    assert "(Mq)_p + v_p is 1e+06" in err
    assert "s + v <= 102400" in err
    assert "s + v <= 25" not in err
    assert err.count("\n") == 1


def test_scan_flags_a_failed_bound_solve_and_goes_on(tmp_path):
    data = dict(_GUARD_TRIP_MODEL)
    data["scan"] = {"axes": [{"path": "beta[0]", "min": 1.0,
                              "max": _GUARD_TRIP_MODEL["beta"][0], "steps": 2}],
                    "outputs": ["bound"]}
    out = str(tmp_path / "scan.json")
    assert cli.main(["scan", "--config", write_config(tmp_path, data),
                     "--format", "json", "--out", out]) == 0
    first, last = read_json(out)["rows"]
    assert last["beta[0]"] == _GUARD_TRIP_MODEL["beta"][0]
    assert last["bound_value"] is None and last["flags"] == "bound_failed"
    assert math.isfinite(first["bound_value"])
    assert "bound_failed" not in first["flags"]


def test_bound_with_weights_past_the_floats_exits_one_with_one_line(
        tmp_path, capsys):
    # A layer weight near the smallest float sends the related weights past
    # the positive floats; the bound fails with one line and no warning,
    # as a scan flags the point bound_failed, while rs solves the model.
    cfg = write_config(tmp_path, model_dict(3, (1.6, 1.6), (1e-320, 0.5, 0.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["bound", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the bound failed: related auxiliary "
                              "weights")
        assert err.count("\n") == 1
        assert cli.main(["rs", "--config", cfg]) == 0
        capsys.readouterr()


# Zero fields strictly inside the annealed region, with a subnormal first
# layer weight: the witness recursion overflows to inf.
_SUBNORMAL_WEIGHT_MODEL = model_dict(3, (0.5, 0.5), (1e-320, 0.5, 0.5))


def test_a_witness_past_the_floats_is_null_and_the_bound_fails_with_one_line(
        tmp_path, capsys):
    cfg = write_config(tmp_path, _SUBNORMAL_WEIGHT_MODEL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["region", "--config", cfg, "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["verdict"] == "inside" and row["witness"] is None
        assert cli.main(["bound", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the bound failed: ")
        assert captured.err.count("\n") == 1


def _strict_json(text):
    """``text`` parsed as JSON that has no ``NaN`` or ``Infinity``."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("model, failing", [
    (verify_config(), ()),
    (_SUBNORMAL_WEIGHT_MODEL, ("bound",)),
])
def test_json_output_is_strict_json(tmp_path, capsys, model, failing):
    model = dict(model, scan={
        "axes": [{"path": "beta[0]", "min": 0.3, "max": 0.6, "steps": 2}],
        "outputs": ["region", "rho", "rs_pressure", "bound", "certificates"]})
    cfg = write_config(tmp_path, model)
    for command in ("region", "poly", "rs", "bound", "scan", "verify"):
        code = cli.main([command, "--config", cfg, "--format", "json"])
        out = capsys.readouterr().out
        assert (code == 0) == (command not in failing)
        if out:
            assert _strict_json(out)["command"] == command


def test_zero_width_layers_fail_the_bound(tmp_path, capsys):
    model = model_dict(3, (0.5, 0.5), (0.5, 0.0, 0.5))
    assert cli.main(["bound", "--config", write_config(tmp_path, model)]) == 2
    err = capsys.readouterr().err
    assert "strictly positive layer weights" in err
    assert err.count("\n") == 1
    model["scan"] = {"axes": [{"path": "lambda[1]", "min": 0.0, "max": 0.5,
                               "steps": 3}],
                     "outputs": ["bound"]}
    out = str(tmp_path / "scan.json")
    assert cli.main(["scan", "--config", write_config(tmp_path, model),
                     "--format", "json", "--out", out]) == 0
    rows = read_json(out)["rows"]
    assert rows[0]["flags"] == "bound_failed"
    assert rows[0]["bound_value"] is None
    assert all(math.isfinite(row["bound_value"]) for row in rows[1:])


def test_zero_width_gaussian_scan_point_fails_both_solves(tmp_path):
    # Scan points take rs's nested solver; a zero-width layer fails the
    # nested solve and the bound alike, and the scan goes on.
    model = model_dict(3, (0.5, 0.5), (0.5, 0.0, 0.5),
                       tuple(FieldSpec.gaussian(0.3) for _ in range(3)))
    model["scan"] = {"axes": [{"path": "lambda[1]", "min": 0.0, "max": 0.5,
                               "steps": 3}],
                     "outputs": ["rs_pressure", "bound"]}
    out = str(tmp_path / "scan.json")
    assert cli.main(["scan", "--config", write_config(tmp_path, model),
                     "--format", "json", "--out", out]) == 0
    first, *rest = read_json(out)["rows"]
    assert first["flags"] == "rs_failed;bound_failed"
    assert first["rs_pressure"] is None and first["bound_value"] is None
    for row in rest:
        assert row["flags"] == ""
        assert abs(row["bound_value"] - row["rs_pressure"]) < 1e-7


def test_infinite_sweep_signals_raise_no_warning(tmp_path, capsys):
    # beta_1^2 underflows to zero and the first layer's overlap to 1e-300;
    # the nested solver must still solve the model without a float warning.
    cfg = write_config(tmp_path, model_dict(
        3, (1e-300, 1.0), (0.25, 0.5, 0.25),
        (FieldSpec.gaussian(1e-300), FieldSpec.gaussian(0.5),
         FieldSpec.gaussian(0.5))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["rs", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("key,value\nnested.q[0],")


@pytest.mark.parametrize("h0", [1e308, -1.7976931348623157e308])
def test_fields_near_the_largest_float_raise_no_warning(tmp_path, capsys, h0):
    # An atom past 9e307 once overflowed -2|y| in log cosh to -inf: the
    # value was right, but the overflow warning reached stderr.
    model = model_dict(2, (0.5,), (0.5, 0.5),
                       (FieldSpec.point_mass(h0), FieldSpec.zero()))
    model["scan"] = {"axes": [{"path": "beta[0]", "min": 0.2, "max": 1.4,
                               "steps": 3}],
                     "outputs": ["rs_pressure"]}
    cfg = write_config(tmp_path, model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("rs", "scan"):
            assert cli.main([command, "--config", cfg, "--format",
                             "json"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            report = json.loads(captured.out)
            pressures = ([s["pressure"] for s in report["solutions"]]
                         if command == "rs" else
                         [row["rs_pressure"] for row in report["rows"]])
            # Half the field's log cosh: lam_1 |h0|.
            assert pressures == [pytest.approx(0.5 * abs(h0), rel=1e-15)
                                 ] * len(pressures)


def test_default_output_is_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, balanced2())
    rc = cli.main(["region", "--config", cfg])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rho,verdict"
    assert lines[1].endswith(",inside")


def _one_error_line(capsys, start):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {start}")
    assert err.count("\n") == 1


def test_a_config_that_is_not_utf8_is_usage_error_with_one_line(tmp_path,
                                                                capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"K": 1, "beta": [], "lambda": [1.0], "note": "\xff"}')
    assert cli.main(["region", "--config", str(path)]) == 2
    _one_error_line(capsys, "config is not UTF-8 text:")


def test_a_config_nested_past_the_recursion_limit_is_usage_error(tmp_path,
                                                                 capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert cli.main(["region", "--config", str(path)]) == 2
    _one_error_line(capsys, "config is nested too deeply:")


@pytest.mark.parametrize("target", ["missing/out.csv", "."])
def test_an_unwritable_out_path_is_usage_error_with_one_line(tmp_path, capsys,
                                                             target):
    cfg = write_config(tmp_path, balanced2())
    out = str(tmp_path / target)
    assert cli.main(["region", "--config", cfg, "--out", out]) == 2
    _one_error_line(capsys, "cannot write output file:")


def test_a_byte_order_mark_is_still_refused(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(balanced2()).encode())
    assert cli.main(["region", "--config", str(path)]) == 2
    _one_error_line(capsys, "config is not valid JSON: Unexpected UTF-8 BOM")


@pytest.mark.parametrize("text", ['{"K": 2,\r\n "beta": [0.5,]\r\n}',
                                  '{"K": 2,\r "beta": [0.5,]\r}',
                                  '{"K": 2, "note": "a\rb"}'],
                         ids=["crlf", "cr", "cr-in-a-string"])
def test_config_errors_count_line_ends_as_text_mode_reads_them(tmp_path,
                                                               capsys, text):
    path = tmp_path / "lines.json"
    path.write_bytes(text.encode())
    with open(path) as fh:
        with pytest.raises(json.JSONDecodeError) as info:
            json.loads(fh.read())
    assert cli.main(["region", "--config", str(path)]) == 2
    assert (capsys.readouterr().err
            == f"error: config is not valid JSON: {info.value}\n")


def test_non_ascii_utf8_configs_load(tmp_path, capsys):
    path = tmp_path / "utf8.json"
    path.write_bytes(json.dumps(dict(balanced2(), scan={
        "axes": [{"path": "beta[0]", "min": 0.5, "max": 1.5, "steps": 2}],
        "outputs": ["rho"], "note": "β ≤ 1"}), ensure_ascii=False).encode())
    assert cli.main(["scan", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("beta[0],rho,flags\n")


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------


_JSON_LEAVES = st.one_of(
    st.text(),
    st.sampled_from(['"quoted"', "back\\slash", "\x00\x1f\x7f\n\t", "é β ≤",
                     " \U0001f600"]),
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                     2.2250738585072009e-308]),
    st.booleans(),
    st.none())
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=40)


# The values of a scan row.
_ROW_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=8))
# Column names, with the characters of a format string among them.
_ROW_KEYS = st.lists(st.one_of(st.text(max_size=6),
                               st.sampled_from(["%", "%s", "%%", "%(a)s",
                                                "beta[0]", "fields[1].v"])),
                     max_size=6, unique=True)


@st.composite
def _scan_payloads(draw):
    """Lists of dicts that share their keys, as a scan's rows do, beside a
    reordered key set and the same key set one level deeper."""
    keys = draw(_ROW_KEYS)
    rows = [dict(zip(keys, draw(st.lists(_ROW_VALUES, min_size=len(keys),
                                         max_size=len(keys)))))
            for _ in range(draw(st.integers(0, 5)))]
    reordered = dict(reversed(rows[0].items())) if rows else {}
    return {"command": "scan", "columns": keys, "rows": rows,
            "more": [reordered, {"rows": rows}]}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(payload=_JSON_PAYLOADS)
def test_json_writer_equals_json_dumps_property(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2) + "\n"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(payload=_scan_payloads())
def test_json_writer_equals_json_dumps_on_scan_shaped_payloads(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), {1, 2}],
                         ids=["np.bool_", "np.int64", "set"])
def test_json_writer_refuses_what_json_dumps_refuses(value):
    # Alone in a list, and as an item of a row whose key set the writer has
    # already met.
    row = {"rho": 0.5, "verdict": "inside"}
    for payload in ({"rows": [value]},
                    {"rows": [row, dict(row, verdict=value)]}):
        with pytest.raises(TypeError) as expected:
            json.dumps(payload, indent=2)
        with pytest.raises(TypeError) as info:
            cli._json_text(payload)
        assert str(info.value) == str(expected.value)


class _Float(float):
    """A ``float`` subclass, which ``json`` would write as a ``float``."""


@pytest.mark.parametrize("value", [np.float64(0.5), _Float(0.5)],
                         ids=["np.float64", "float subclass"])
def test_report_writers_refuse_any_value_not_of_a_json_type(value):
    # Both writers take JSON's own types only; a NumPy scalar or a subclass
    # is refused, naming its type, where json.dumps would write a float.
    name = type(value).__name__
    row = {"rho": 0.5, "verdict": "inside"}
    for payload in (value, {"rows": [value]}, {"rows": [row, dict(row, rho=value)]}):
        with pytest.raises(TypeError, match=f"Object of type {name} is not"):
            cli._json_text(payload)
    for columns in ([[value]], [["inside", "outside"], [0.5, value]]):
        with pytest.raises(TypeError, match=f"Object of type {name} is not"):
            cli._csv_table(["a"] * len(columns), columns)


def test_every_json_report_on_the_examples_is_json_dumps_text(capsys):
    reported = set()
    for example in sorted(EXAMPLES.glob("*.json")):
        for command in ("region", "poly", "rs", "bound", "verify", "scan"):
            code = cli.main([command, "--config", str(example),
                             "--format", "json"])
            out = capsys.readouterr().out
            if code == 2:
                assert out == ""
                continue
            assert out == json.dumps(json.loads(out), indent=2) + "\n"
            reported.add(command)
    assert reported == {"region", "poly", "rs", "bound", "verify", "scan"}


# ---------------------------------------------------------------------------
# parser reuse and fuzzed configs
# ---------------------------------------------------------------------------


def _run_main(argv, capsys):
    """Exit code (``SystemExit`` included) and captured stdout of one call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    region = write_config(tmp_path, balanced2(), name="region.json")
    scan_data = balanced2()
    scan_data["scan"] = {"axes": [{"path": "beta[0]", "min": 0.5,
                                   "max": 1.5, "steps": 3}]}
    scan = write_config(tmp_path, scan_data, name="scan.json")
    calls = [
        ["rs"],  # missing --config: usage error
        ["rs", "--config", write_config(tmp_path, gauss2()), "--format", "json"],
        ["region", "--config", region],
        ["scan", "--config", scan],
    ]
    shared = [_run_main(argv, capsys) for argv in calls]
    assert [code for code, _ in shared] == [2, 0, 0, 0]
    for argv, result in zip(calls, shared):
        cli._build_parser.cache_clear()
        assert _run_main(argv, capsys) == result


# The zero law as JSON can spell it.
_ZERO_SPELLINGS = ({"kind": "zero"}, {"kind": "point_mass", "h0": 0.0},
                   {"kind": "discrete", "values": [0.0], "probs": [1.0]},
                   {"kind": "gaussian_centered", "v": 0.0})


@st.composite
def _zero_gaussian_chains(draw):
    """Chains with zero or Gaussian fields, the zero layers marked ``None``."""
    K = draw(st.integers(1, 5))
    beta = draw(st.lists(st.floats(0.2, 1.5), min_size=K - 1, max_size=K - 1))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=K, max_size=K))
    variances = draw(st.lists(st.one_of(st.none(), st.floats(0.05, 1.0)),
                              min_size=K, max_size=K))
    return {"K": K, "beta": beta,
            "lambda": [w / sum(weights) for w in weights]}, variances


@settings(max_examples=30, deadline=None, derandomize=True)
@given(chain=_zero_gaussian_chains())
def test_every_spelling_of_the_zero_law_gives_the_same_bytes_property(
        tmp_path_factory, chain):
    model, variances = chain
    zero_layers = [p for p, v in enumerate(variances) if v is None]
    axes = [{"path": "beta[0]", "min": 0.4, "max": 1.6, "steps": 2}
            if model["K"] > 1 else
            {"path": "fields[0].v", "min": 0.0, "max": 0.5, "steps": 2}]
    if zero_layers and model["K"] > 1:
        # A variance axis on a zero layer: every spelling is a centred base.
        # One layer has it already, and an axis may not repeat.
        axes.append({"path": f"fields[{zero_layers[-1]}].v", "min": 0.0,
                     "max": 0.5, "steps": 2})
    outputs = []
    for zero in _ZERO_SPELLINGS:
        data = dict(model, fields=[
            zero if v is None else {"kind": "gaussian_centered", "v": v}
            for v in variances])
        data["scan"] = {"axes": axes, "outputs": sorted(cli._OUTPUT_COLUMNS)}
        directory = tmp_path_factory.mktemp("zero")
        cfg = write_config(directory, data)
        runs = []
        for command in ("rs", "bound", "scan"):
            out = directory / f"{command}.json"
            code = cli.main([command, "--config", cfg, "--format", "json",
                             "--out", str(out)])
            runs.append((command, code, out.read_text() if code == 0 else None))
        outputs.append(runs)
    assert all(runs == outputs[0] for runs in outputs)
    assert [code for _, code, _ in outputs[0]][1:] == [0, 0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(section=model_sections(),
       command=st.sampled_from(("region", "poly", "rs", "bound")))
def test_fuzzed_model_section_exits_cleanly_property(tmp_path_factory, section,
                                                     command):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(section))
    try:
        code = cli.main([command, "--config", str(path)])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=config_sections())
def test_fuzzed_config_exits_cleanly_property(tmp_path_factory, config):
    # The scan, solver and verify sections too, each config through every
    # command that reads them: a usage error is one "error:" line and
    # nothing on stdout; verify exits 1 with no line when its checks fail.
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config))
    for command in ("scan", "region", "verify", "rs", "bound"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), "--seed", "3"])
        assert code in (0, 1, 2), command
        if code == 2:
            assert out.getvalue() == "", command
            assert err.getvalue().startswith("error: "), command
            assert err.getvalue().count("\n") == 1, command
            assert err.getvalue().endswith("\n"), command


@settings(max_examples=100, deadline=None, derandomize=True)
@given(section=mistyped_model_sections(),
       command=st.sampled_from(("region", "poly", "rs", "bound")))
def test_booleans_and_strings_as_model_numbers_are_usage_errors_property(
        tmp_path_factory, section, command):
    path = tmp_path_factory.mktemp("mistyped") / "config.json"
    path.write_text(json.dumps(section))
    assert cli.main([command, "--config", str(path)]) == 2
