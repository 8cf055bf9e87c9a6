"""Stacked solves: a scan grid solved as one stack gives every point the
bits of its own ``rs`` and ``bound`` runs, with fewer kernel calls."""
import collections
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from dbmlab import chainpoly, cli, ghquad, machine, rs_solver, sk_chain_bound
from dbmlab.machine import FieldSpec, ModelParams

from helpers import model_params


def _special(name, K):
    """Points that take another path than a random model: zero fields
    inside the annealed region (the bound's witness) and outside it, the
    beta = 1000 chain that trips the Newton guard, and a zero-width layer."""
    lam = tuple([1.0 / K] * K)
    if name == "inside":
        return ModelParams(K=K, beta=(0.3,) * (K - 1), lam=lam)
    if name == "outside":
        return ModelParams(K=K, beta=(2.0,) * (K - 1), lam=lam)
    if name == "guard":
        return ModelParams(K=K, beta=(1000.0,) * (K - 1), lam=lam,
                           fields=tuple(FieldSpec.gaussian(0.5 - 0.2 * (p % 2))
                                        for p in range(K)))
    # A zero-width layer; one layer cannot have one.
    return ModelParams(K=K, beta=(0.5,) * (K - 1),
                       lam=(0.0,) + (1.0 / (K - 1),) * (K - 1) if K > 1 else lam)


@st.composite
def stacks(draw):
    """Same-K models of every field kind, with the special points mixed in."""
    K = draw(st.integers(1, 5))
    models = draw(st.lists(model_params(k_range=(K, K)), min_size=1,
                           max_size=5))
    models += [_special(name, K) for name in draw(st.lists(
        st.sampled_from(["inside", "outside", "guard", "zero_width"]),
        max_size=4))]
    return draw(st.permutations(models))


def _same(stacked, solo):
    """A stacked result equals its solo one bit for bit, or fails alike."""
    if isinstance(solo, Exception):
        assert type(stacked) is type(solo) and str(stacked) == str(solo)
        return
    assert not isinstance(stacked, Exception), stacked
    assert stacked.to_dict() == solo.to_dict()


def _one_model_pressure(q, params):
    """The replica-symmetric pressure by the one-model products ``M @ q``
    and ``np.dot``, which the stacked rows must reproduce bit for bit."""
    M = machine.build_matrices(params)[2]
    log_cosh = ghquad.expect(ghquad.LOG_COSH, M @ q, params.fields)
    return (math.log(2.0) + float(np.dot(params.lam, log_cosh))
            + machine.interaction_half_quadratic(params, 1.0 - q))


def _one_model_bound(bound, params):
    """The split bound at a result's weights and overlaps by the one-model
    products."""
    theta_sq = sk_chain_bound._theta_sq_from_aux(bound.a, params)
    layers = math.log(2.0) + ghquad.expect(
        ghquad.LOG_COSH, 2.0 * bound.overlaps * theta_sq, params.fields)
    layers += 0.5 * theta_sq * (1.0 - bound.overlaps) ** 2
    value = float(np.dot(params.lam, layers))
    value -= 0.5 * float(np.dot(params.lam, theta_sq))
    return value + machine.interaction_half_quadratic(params, np.ones(params.K))


def _solo(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except (rs_solver.SolverError, ValueError) as exc:
        return exc


@settings(max_examples=40, deadline=None, derandomize=True)
@given(models=stacks())
def test_stacked_points_equal_their_solo_runs_property(models):
    tol = 1e-10
    verdicts = [machine.classify_annealed(params) for params in models]
    solutions = rs_solver.solve_stack(models, tol,
                                      rho=[v.rho for v in verdicts])
    assert len(solutions) == len(models)
    for params, solution in zip(models, solutions):
        solo = _solo(rs_solver.solve_nested, params, tol)
        _same(solution, solo)
        if not isinstance(solo, Exception):
            np.testing.assert_array_equal(solution.q, solo.q)
            assert solo.pressure == _one_model_pressure(solo.q, params)
    nested_q = [None if isinstance(s, Exception) else s.q for s in solutions]
    for bounds in (sk_chain_bound.maximize_stack(models, tol, nested_q=nested_q),
                   sk_chain_bound.maximize_stack(models, tol)):
        for params, bound in zip(models, bounds):
            _same(bound, _solo(sk_chain_bound.maximize_bound, params, tol))
            if not isinstance(bound, Exception):
                assert bound.value == _one_model_bound(bound, params)


def test_the_special_points_fail_as_their_solo_runs_do():
    # The property's failing points do fail: the guard trips at beta = 1000
    # and a zero-width layer fails both solves.
    tol = 1e-10
    guard, zero_width = _special("guard", 2), _special("zero_width", 3)
    solutions = rs_solver.solve_stack([guard, _special("inside", 2)], tol)
    assert isinstance(solutions[0], rs_solver.SolverError)
    assert "left the monotone descent" in str(solutions[0])
    assert isinstance(solutions[1], rs_solver.RsSolution)
    for result in (rs_solver.solve_stack([zero_width], tol)[0],
                   sk_chain_bound.maximize_stack([zero_width], tol)[0]):
        assert isinstance(result, ValueError)


# A K = 4 centred-Gaussian model scanned over a 6 x 4 grid that crosses the
# annealed boundary and the bound's certification line.
_GRID_MODEL = {
    "K": 4,
    "beta": [0.65, 1.0, 0.6],
    "lambda": [0.2, 0.3, 0.3, 0.2],
    "fields": [{"kind": "gaussian_centered", "v": v}
               for v in (0.3, 0.25, 0.4, 0.35)],
    "scan": {
        "axes": [{"path": "beta[1]", "min": 0.4, "max": 2.4, "steps": 6},
                 {"path": "fields[1].v", "min": 0.01, "max": 0.6, "steps": 4}],
        "outputs": ["region", "rho", "rs_pressure", "bound", "certificates"],
    },
}


def _grid_models(path):
    config = cli._load_config(str(path))
    return [cli._apply_point(config.params, config.scan.axes, values)
            for values in cli._grid(config.scan.axes)]


def test_scan_makes_one_kernel_call_per_step_for_the_whole_grid(
        tmp_path, monkeypatch):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_GRID_MODEL))
    calls = collections.Counter()
    phase = ["pass"]
    expect = ghquad.expect

    def counting(f, s, fields):
        calls[phase[0]] += 1
        return expect(f, s, fields)

    def in_phase(name, solve):
        def wrapped(*args, **kwargs):
            phase[0] = name
            try:
                return solve(*args, **kwargs)
            finally:
                phase[0] = "pass"
        return wrapped

    monkeypatch.setattr(ghquad, "expect", counting)
    monkeypatch.setattr(rs_solver, "_newton",
                        in_phase("newton", rs_solver._newton))
    monkeypatch.setattr(sk_chain_bound, "_scalar_overlap",
                        in_phase("scalar", sk_chain_bound._scalar_overlap))
    out = tmp_path / "grid_out.json"
    assert cli.main(["scan", "--config", str(path), "--format", "json",
                     "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 24 and all(row["flags"] in ("", "uncertified")
                                   for row in rows)
    stacked = dict(calls)
    solo = []
    for params in _grid_models(path):
        calls.clear()
        q = rs_solver.solve_nested(params).q
        sk_chain_bound.maximize_stack([params], nested_q=[q])
        solo.append(dict(calls))
    # Each Newton step and each lockstep scalar step is one call for the
    # whole grid, so the grid takes the steps of its slowest point.  The
    # pressure, the bound value and its certificate are one call each; the
    # rs certificates reuse the last Newton evaluation.
    assert stacked["newton"] == max(counts["newton"] for counts in solo)
    assert stacked["scalar"] == max(counts["scalar"] for counts in solo)
    assert stacked["pass"] == 3
    assert all(counts["pass"] == 3 for counts in solo)
    assert sum(stacked.values()) * 10 < sum(sum(c.values()) for c in solo)


def test_matrices_and_spectral_radius_are_computed_once_per_point(
        tmp_path, monkeypatch):
    counts = collections.Counter()

    def counted(name, module):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    counted("build_matrices", machine)
    counted("largest_zero", chainpoly)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_GRID_MODEL))
    assert cli.main(["scan", "--config", str(path), "--out",
                     str(tmp_path / "grid.csv")]) == 0
    assert counts == {"build_matrices": 24, "largest_zero": 24}
    counts.clear()
    model = {key: value for key, value in _GRID_MODEL.items() if key != "scan"}
    path.write_text(json.dumps(model))
    assert cli.main(["rs", "--config", str(path), "--out",
                     str(tmp_path / "rs.csv")]) == 0
    assert counts == {"build_matrices": 1, "largest_zero": 1}


def _zero_field_grid():
    """Zero fields over a beta axis across the annealed boundary: witness
    points next to nested ones."""
    return {"K": 3, "beta": [0.5, 0.5], "lambda": [0.3, 0.4, 0.3],
            "scan": {"axes": [{"path": "beta[0]", "min": 0.2, "max": 2.0,
                               "steps": 7}],
                     "outputs": ["region", "rho", "rs_pressure", "bound",
                                 "certificates"]}}


def test_scan_rows_equal_solo_rs_and_bound_runs(tmp_path):
    edges = json.loads((Path(__file__).resolve().parent.parent
                        / "examples" / "scan_edges.json").read_text())
    for name, config in (("edges", edges), ("zero", _zero_field_grid())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"{name}_out.json"
        assert cli.main(["scan", "--config", str(path), "--format", "json",
                         "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        witness = 0
        for row, params in zip(rows, _grid_models(path), strict=True):
            point = tmp_path / "point.json"
            point.write_text(json.dumps(params.to_dict()))
            flags = []
            answers = {}
            for command in ("rs", "bound"):
                answer = tmp_path / f"{command}.json"
                code = cli.main([command, "--config", str(point), "--format",
                                 "json", "--out", str(answer)])
                if code == 0:
                    answers[command] = json.loads(answer.read_text())
                else:
                    flags.append(f"{command}_failed")
            rs = answers.get("rs")
            bound = answers.get("bound")
            assert row["rs_pressure"] == (
                None if rs is None else rs["solutions"][0]["pressure"])
            certificates = (rs["solutions"][0]["certificates"] if rs else
                            dict.fromkeys(("talagrand_ok", "at_ok",
                                           "stable_at_zero")))
            for key, value in certificates.items():
                assert row[key] == value
            assert row["bound_value"] == (None if bound is None
                                          else bound["value"])
            if bound is not None and not bound["certified"]:
                flags.append("uncertified")
            assert row["flags"] == ";".join(flags)
            witness += params.zero_fields and row["verdict"] == "inside"
        if name == "zero":
            assert 0 < witness < len(rows)
        else:
            assert sum(row["flags"] == "rs_failed;bound_failed"
                       for row in rows) == 4
            assert math.isfinite(rows[-1]["bound_value"])


def test_a_large_grid_is_solved_in_stacks_of_bounded_size(tmp_path, monkeypatch):
    path = tmp_path / "edges.json"
    path.write_text((Path(__file__).resolve().parent.parent / "examples"
                     / "scan_edges.json").read_text())
    whole = tmp_path / "whole.csv"
    assert cli.main(["scan", "--config", str(path), "--out", str(whole)]) == 0
    sizes = []
    newton = rs_solver._newton

    def counted(stack, tol):
        sizes.append(len(stack.models))
        return newton(stack, tol)

    # K = 3: 40 entries hold four points of nine matrix entries each.
    monkeypatch.setattr(cli, "_STACK_ENTRIES", 40)
    monkeypatch.setattr(rs_solver, "_newton", counted)
    cut = tmp_path / "cut.csv"
    assert cli.main(["scan", "--config", str(path), "--out", str(cut)]) == 0
    assert cut.read_text() == whole.read_text()
    # The first stack holds the four zero-width points, which fail before
    # the Newton iteration.
    assert sizes == [4, 4]


def test_batched_solve_keeps_each_systems_bits_and_marks_singular_ones():
    rng = np.random.default_rng(17)
    systems = np.eye(4) - rng.uniform(0.0, 0.5, (5, 4, 4))
    rhs = rng.uniform(-1.0, 1.0, (5, 4))
    x, solved = rs_solver._solve(systems, rhs)
    assert solved is None
    for system, b, row in zip(systems, rhs, x):
        np.testing.assert_array_equal(row, np.linalg.solve(system, b))
    # One singular system: the others keep their bits, it gets NaN.
    systems[2] = 0.0
    x, solved = rs_solver._solve(systems, rhs)
    assert solved.tolist() == [True, True, False, True, True]
    assert np.all(np.isnan(x[2]))
    for i in (0, 1, 3, 4):
        np.testing.assert_array_equal(x[i], np.linalg.solve(systems[i], rhs[i]))
