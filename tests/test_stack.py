"""Stacked solves: a scan grid solved as one stack gives every point the
bits of its own ``rs`` and ``bound`` runs, with fewer kernel calls."""
import collections
import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbmlab import chainpoly, cli, ghquad, machine, rs_solver, sk_chain_bound
from dbmlab.machine import FieldSpec, ModelParams

from helpers import csv_text, model_params


def _special(name, K):
    """Points that take another path than a random model: zero fields
    inside the annealed region (the bound's witness) and outside it, the
    beta = 1000 chain that trips the Newton guard, and a zero-width layer,
    with zero fields or with point-mass ones, which the bound refuses
    before the solver's failure."""
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
    fields = ((FieldSpec.point_mass(0.4),) * K if name == "point_mass_zero_width"
              else ())
    return ModelParams(K=K, beta=(0.5,) * (K - 1),
                       lam=(0.0,) + (1.0 / (K - 1),) * (K - 1) if K > 1 else lam,
                       fields=fields)


@st.composite
def stacks(draw):
    """Same-K models of every field kind, with the special points mixed in."""
    K = draw(st.integers(1, 5))
    models = draw(st.lists(model_params(k_range=(K, K)), min_size=1,
                           max_size=5))
    models += [_special(name, K) for name in draw(st.lists(
        st.sampled_from(["inside", "outside", "guard", "zero_width",
                         "point_mass_zero_width"]),
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


def _solo(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except (rs_solver.SolverError, ValueError) as exc:
        return exc


def _records(stack, tol):
    """Each point's :class:`RsSolution`, or its failure, built from the
    stack's solve columns."""
    solved = rs_solver._solved(stack, tol)
    return [_solo(solved.record, i) for i in range(len(stack))]


def _bounds(stack, tol):
    """Each point's bound as read off the stack's bound columns: the
    :class:`BoundResult` fields ``a``, ``value``, ``certified`` and
    ``overlaps`` (the point's row of the solve), or its failure."""
    bound = sk_chain_bound._bound_columns(stack, tol)
    q = rs_solver._solved(stack, tol).q
    out = list(bound.failure)
    for j, i in enumerate(bound.rows):
        out[i] = {"a": bound.aux[j].tolist(), "value": bound.value[i],
                  "certified": bound.certified[i], "overlaps": q[i].tolist()}
    return out


def _same_bound(stacked, solo):
    """A bound read off the columns equals the solo :class:`BoundResult`
    in every field the columns hold, or fails alike."""
    if isinstance(solo, Exception):
        _same(stacked, solo)
        return
    assert not isinstance(stacked, Exception), stacked
    assert stacked == {key: solo.to_dict()[key] for key in stacked}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(models=stacks())
def test_stacked_points_equal_their_solo_runs_property(models):
    tol = 1e-10
    verdicts = [machine.classify_annealed(params) for params in models]
    stack = rs_solver._Stack(models)
    solutions = _records(stack, tol)
    assert len(solutions) == len(models)
    for params, verdict, solution in zip(models, verdicts, solutions):
        solo = _solo(rs_solver.solve_nested, params, tol)
        _same(solution, solo)
        if min(params.lam) <= 0.0:
            assert str(solo).startswith("solvers require strictly positive")
        if isinstance(solo, Exception):
            continue
        np.testing.assert_array_equal(solution.q, solo.q)
        if params.zero_fields and verdict.feasible_a is not None:
            # The witness: q = 0 exactly, with the annealed pressure.
            assert not np.any(solution.q) and solution.residual == 0.0
            assert solo.pressure == machine.annealed_pressure(params)
        else:
            assert solo.pressure == _one_model_pressure(solo.q, params)
    bounds = _bounds(stack, tol)
    for params, bound in zip(models, bounds):
        _same_bound(bound, _solo(sk_chain_bound.maximize_bound, params, tol))
        if min(params.lam) <= 0.0:
            # The bound refuses the fields before the solver the widths.
            centred = all(f.is_centred for f in params.fields)
            assert str(bound).startswith(
                "solvers require" if centred else "the split bound requires")
        if isinstance(bound, Exception):
            continue
        # Every point reads the bound off its consistency solution; at the
        # witness that is q = 0, whose pressure is the annealed one.
        overlaps = np.array(bound["overlaps"])
        if params.zero_fields and not np.any(overlaps > 0.0):
            assert bound["value"] == machine.annealed_pressure(params)
        else:
            assert bound["value"] == _one_model_pressure(overlaps, params)


def test_the_special_points_fail_as_their_solo_runs_do():
    # The property's failing points do fail: the guard trips at beta = 1000
    # and a zero-width layer fails both solves, with the solver's message,
    # unless its fields are point masses, which the bound refuses first.
    tol = 1e-10
    guard, zero_width = _special("guard", 2), _special("zero_width", 3)
    point_mass = _special("point_mass_zero_width", 3)
    solutions = _records(rs_solver._Stack([guard, _special("inside", 2)]), tol)
    assert isinstance(solutions[0], rs_solver.SolverError)
    assert "left the monotone descent" in str(solutions[0])
    assert isinstance(solutions[1], rs_solver.RsSolution)
    stack = rs_solver._Stack([zero_width, point_mass])
    solutions = _records(stack, tol)
    bounds = _bounds(stack, tol)
    for solution in solutions:
        assert isinstance(solution, ValueError)
        assert str(solution).startswith("solvers require strictly positive")
    assert bounds[0] is solutions[0]
    assert isinstance(bounds[1], ValueError)
    assert str(bounds[1]) == (
        "the split bound requires zero or centred Gaussian external fields "
        "on every layer (layer 0 has kind 'point_mass')")


def test_the_bound_refuses_grid_points_off_the_field_table(monkeypatch):
    # Grids whose base model has a point-mass layer first, or a discrete
    # layer last behind centred ones.  The refusals are read off the
    # stack's field table, so no model is built: with ModelParams refused
    # once the grids are built, every row reads bound_failed, the rs column
    # is that of a run without the stub, and each point's failure is its
    # solo maximize_bound refusal, by type and text.
    tol = 1e-10
    discrete = FieldSpec.discrete((-1.0, 0.5), (0.4, 0.6))
    grids = [
        (ModelParams(K=3, beta=(0.7, 1.1), lam=(0.3, 0.4, 0.3),
                     fields=(FieldSpec.point_mass(0.6),
                             FieldSpec.gaussian(0.3), discrete)),
         (("beta[0]", 0.2, 2.0, 4), ("fields[1].v", 0.0, 0.8, 3))),
        (ModelParams(K=3, beta=(0.7, 1.1), lam=(0.3, 0.4, 0.3),
                     fields=(FieldSpec.gaussian(0.2), FieldSpec.zero(),
                             discrete)),
         (("fields[0].v", 0.0, 0.8, 3), ("beta[1]", 0.5, 1.5, 2)))]
    scan = cli.ScanSpec(axes=(), outputs=("rs_pressure", "bound"))

    def grid():
        return [part for base, specs in grids
                for part in cli._grid_stacks(base, _axes(base, *specs))]

    unstubbed = [cli._scan_columns(scan, tol, points, stack)
                 for points, stack in grid()]
    parts = grid()
    models = [[_row_model(stack, i) for i in range(len(stack))]
              for _, stack in parts]

    def refused(self):
        raise AssertionError("a model was built")

    monkeypatch.setattr(machine.ModelParams, "__post_init__", refused)
    kinds = set()
    for (points, stack), solo, old in zip(parts, models, unstubbed):
        # The axis values, rs_pressure, bound_value, bound_certified, flags.
        new = cli._scan_columns(scan, tol, points, stack)
        assert new[2] == old[2] and None not in new[2]
        assert new[3] == new[4] == [None] * len(stack)
        assert new[5] == ["bound_failed"] * len(stack)
        failures = sk_chain_bound._bound_columns(stack, tol).failure
        for failure, params in zip(failures, solo):
            own = _solo(sk_chain_bound.maximize_bound, params, tol)
            assert type(failure) is type(own) is ValueError
            assert str(failure) == str(own)
            kinds.add(str(own).split("kind ")[-1])
    assert kinds == {"'point_mass')", "'discrete')"}


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


def _point_model(base, axes, values):
    """The model at one grid point, built by hand: scanned values replace
    the base model's, and scanned layer weights renormalize the rest."""
    beta, lam, fields = list(base.beta), list(base.lam), list(base.fields)
    scanned = {}
    for axis, value in zip(axes, values):
        if axis.kind == "beta":
            beta[axis.index] = value
        elif axis.kind == "field_v":
            fields[axis.index] = FieldSpec.gaussian(value)
        else:
            scanned[axis.index] = value
    if scanned:
        rest = [i for i in range(base.K) if i not in scanned]
        remaining = 1.0 - sum(scanned.values())
        rest_mass = sum(lam[i] for i in rest)
        for i in rest:
            lam[i] = (lam[i] * remaining / rest_mass if rest_mass > 0.0
                      else remaining / len(rest))
        lam = [scanned.get(i, x) for i, x in enumerate(lam)]
    return ModelParams(K=base.K, beta=tuple(beta), lam=tuple(lam),
                       fields=tuple(fields))


def _grid_models(path):
    config = cli._load_config(str(path))
    axes = config.scan.axes
    return [_point_model(config.params, axes, values)
            for values in itertools.product(*(axis.values().tolist()
                                              for axis in axes))]


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

    shapes = set()
    newton = in_phase("newton", rs_solver._newton)

    def recording(M, table, tol):
        shapes.add(M.shape[1:])
        return newton(M, table, tol)

    monkeypatch.setattr(ghquad, "expect", counting)
    monkeypatch.setattr(rs_solver, "_newton", recording)
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
        sk_chain_bound.maximize_bound(params, 1e-10)
        solo.append(dict(calls))
    # Each Newton step is one call for the whole grid, so the grid takes the
    # steps of its slowest point.  The pressure is one call; the rs
    # certificates reuse the last Newton evaluation, and the bound reads its
    # overlaps, value and certificate off the Newton solution with no
    # kernel call.
    assert shapes == {(4, 4)}
    assert set(stacked) == {"newton", "pass"}
    assert stacked["newton"] == max(counts["newton"] for counts in solo)
    assert stacked["pass"] == 1
    assert all(counts["pass"] == 1 for counts in solo)
    assert sum(stacked.values()) * 10 < sum(sum(c.values()) for c in solo)


def test_matrices_and_spectral_radius_are_computed_once_per_point(
        tmp_path, monkeypatch):
    # A scan builds the matrices and the spectral radii of its whole grid
    # in one call each, a stack's row expressions; a one-model command is
    # the stack of one.
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
    assert counts == {"build_matrices": 1, "largest_zero": 1}
    counts.clear()
    model = {key: value for key, value in _GRID_MODEL.items() if key != "scan"}
    path.write_text(json.dumps(model))
    assert cli.main(["rs", "--config", str(path), "--out",
                     str(tmp_path / "rs.csv")]) == 0
    assert counts == {"build_matrices": 1, "largest_zero": 1}
    # Zero fields: the classification's spectral radius serves the
    # certificates too, and q = 0 at the witness needs no matrices.
    for beta, built in ((0.5, 0), (2.0, 1)):
        counts.clear()
        path.write_text(json.dumps({"K": 3, "beta": [beta, beta],
                                    "lambda": [0.3, 0.4, 0.3]}))
        assert cli.main(["rs", "--config", str(path), "--out",
                         str(tmp_path / "rs.csv")]) == 0
        assert +counts == +collections.Counter(build_matrices=built,
                                               largest_zero=1)


def _count_calls(monkeypatch, counts, module, name):
    """Count the calls of ``module.name`` in ``counts``."""
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapped)


def test_a_mixed_stack_computes_one_spectral_radius_per_point(monkeypatch):
    # Zero fields inside and outside the annealed region beside a centred
    # Gaussian point: the witnesses' classification and the certificates
    # read the same spectral radii, the stack's own, computed in one call.
    lam = (0.3, 0.4, 0.3)
    models = [ModelParams(K=3, beta=(0.5, 0.5), lam=lam),
              ModelParams(K=3, beta=(0.5, 0.5), lam=lam,
                          fields=(FieldSpec.gaussian(0.3),) * 3),
              ModelParams(K=3, beta=(2.0, 2.0), lam=lam)]
    solo = [rs_solver.solve_nested(params) for params in models]
    counts = collections.Counter()
    _count_calls(monkeypatch, counts, chainpoly, "largest_zero")
    solved = rs_solver._solved(rs_solver._Stack(models), 1e-10)
    assert counts == {"largest_zero": 1}
    for i, alone in enumerate(solo):
        _same(solved.record(i), alone)
    # Only the point inside sits at q = 0; the one outside is solved.
    assert not np.any(solved.q[0]) and solved.witness[0] is not None
    assert np.all(solved.q[2] > 0.4) and solved.witness[2] is None
    assert solved.stable_at_zero == [True, True, False]


def test_take_hands_a_sub_stack_the_parents_derived_rows(monkeypatch):
    rng = np.random.default_rng(40)
    models = []
    for i in range(5):
        lam = rng.dirichlet(np.ones(4))
        fields = ((FieldSpec.gaussian(0.2),) * 4 if i % 2 else ())
        models.append(ModelParams(K=4, beta=tuple(rng.uniform(0.3, 2.0, 3)),
                                  lam=tuple(lam / lam.sum()), fields=fields))
    stack = rs_solver._Stack(models)
    # Underived facts stay underived in a sub-stack.
    assert not {"M", "rho", "regions"} & set(vars(stack.take([0, 1])))
    assert len(stack.M) == 5
    rows = [0, 2, 3]
    counts = collections.Counter()
    _count_calls(monkeypatch, counts, machine, "build_matrices")
    sub = stack.take(rows)
    # A sub-stack derives its own M, by one call, with the bits of the
    # parent's rows and of a stack built afresh.
    M = sub.M
    assert counts == {"build_matrices": 1}
    fresh = rs_solver._Stack([models[i] for i in rows])
    assert M.tobytes() == stack.M[rows].tobytes() == fresh.M.tobytes()


def test_a_stack_is_solved_once_per_tolerance(monkeypatch):
    # The stack keeps its results: solved again at the same tolerance, and
    # read by the bound, it hands back the same columns with no Newton step
    # and no kernel call; another tolerance solves again, and a sub-stack
    # starts unsolved.
    lam = (0.3, 0.4, 0.3)
    models = [ModelParams(K=3, beta=(b, b), lam=lam,
                          fields=(FieldSpec.gaussian(0.3),) * 3)
              for b in (0.6, 1.2)]
    models.append(_special("zero_width", 3))
    stack = rs_solver._Stack(models)
    first = rs_solver._solved(stack, 1e-10)
    counts = collections.Counter()
    _count_calls(monkeypatch, counts, rs_solver, "_newton")
    _count_calls(monkeypatch, counts, ghquad, "expect")
    again = rs_solver._solved(stack, 1e-10)
    bound = sk_chain_bound._bound_columns(stack, 1e-10)
    assert not counts
    assert again is first
    assert not first.q.flags.writeable
    assert not first.record(0).q.flags.writeable
    assert bound.failure[2] is first.failure[2]
    assert bound.value[:2] == first.pressure[:2]
    coarse = rs_solver._solved(stack, 1e-8)
    assert counts["_newton"] == 1
    assert coarse is not first and coarse.q is not first.q
    counts.clear()
    sub = stack.take([0, 1])
    assert not sub.solved
    rs_solver._solved(sub, 1e-10)
    assert counts["_newton"] == 1


def test_a_scan_builds_no_per_point_record(tmp_path, monkeypatch):
    # A scan, and region on a grid or on one model, read their outputs off
    # columns: no solution, bound, certificate or verdict record is built,
    # and rs on one model still builds its own.
    def refused(*args, **kwargs):
        raise AssertionError("a per-point record was built")

    for module, name in ((rs_solver, "RsSolution"),
                         (rs_solver, "Certificates"),
                         (sk_chain_bound, "BoundResult"),
                         (machine, "RegionVerdict")):
        monkeypatch.setattr(module, name, refused)
    path = tmp_path / "grid.json"
    for config in (_GRID_MODEL, _zero_field_grid()):
        path.write_text(json.dumps(config))
        for command, fmt in itertools.product(("scan", "region"),
                                              ("csv", "json")):
            assert cli.main([command, "--config", str(path), "--format", fmt,
                             "--out", str(tmp_path / "out")]) == 0
    # region on one model reads the classification's columns too; rs
    # still builds its record, which shows that the stub works.
    del config["scan"]
    path.write_text(json.dumps(config))
    for fmt in ("csv", "json"):
        assert cli.main(["region", "--config", str(path), "--format", fmt,
                         "--out", str(tmp_path / "out")]) == 0
    with pytest.raises(AssertionError, match="per-point record"):
        cli.main(["rs", "--config", str(path)])


def _zero_field_grid():
    """Zero fields over a beta axis across the annealed boundary: witness
    points next to nested ones."""
    return {"K": 3, "beta": [0.5, 0.5], "lambda": [0.3, 0.4, 0.3],
            "scan": {"axes": [{"path": "beta[0]", "min": 0.2, "max": 2.0,
                               "steps": 7}],
                     "outputs": ["region", "rho", "rs_pressure", "bound",
                                 "certificates"]}}


def _boundary_grid():
    """A two-layer chain with rho = beta^2 on a beta axis within 1e-10 of
    1, all of it within the boundary band: zero fields, with no witness,
    and a centred Gaussian field on one layer."""
    return {"K": 2, "beta": [1.0], "lambda": [0.5, 0.5],
            "scan": {"axes": [{"path": "beta[0]", "min": 1.0 - 1e-10,
                               "max": 1.0 + 1e-10, "steps": 3},
                              {"path": "fields[1].v", "min": 0.0, "max": 0.3,
                               "steps": 2}]}}


def _solo_row(tmp_path, params):
    """Every scan column of one grid point, with its failures, from the
    point's own ``region``, ``rs`` and ``bound`` runs."""
    point = tmp_path / "point.json"
    point.write_text(json.dumps(params.to_dict()))
    answers = {}
    for command in ("region", "rs", "bound"):
        answer = tmp_path / f"{command}.json"
        if cli.main([command, "--config", str(point), "--format", "json",
                     "--out", str(answer)]) == 0:
            answers[command] = json.loads(answer.read_text())
    region, rs, bound = (answers.get(c) for c in ("region", "rs", "bound"))
    solution = rs["solutions"][0] if rs else None
    row = {"verdict": region["rows"][0]["verdict"],
           "rho": region["rows"][0]["rho"],
           "rs_pressure": solution["pressure"] if rs else None,
           "bound_value": bound["value"] if bound else None,
           "bound_certified": bound["certified"] if bound else None}
    row.update(solution["certificates"] if rs else
               dict.fromkeys(("talagrand_ok", "at_ok", "stable_at_zero")))
    return row, solution, bound


def test_scan_rows_equal_solo_rs_and_bound_runs(tmp_path):
    # Grids with failing points (a zero-width layer), zero-field points at
    # q = 0 with a witness beside solved ones, and points within the
    # boundary band, scanned with every subset of the outputs: each row, in
    # JSON and in CSV, is the row of the point's own region, rs and bound
    # runs, with its own flags.
    edges = json.loads((Path(__file__).resolve().parent.parent
                        / "examples" / "scan_edges.json").read_text())
    names = ("region", "rho", "rs_pressure", "bound", "certificates")
    subsets = [list(outputs) for n in range(len(names) + 1)
               for outputs in itertools.combinations(names, n)]
    for name, config in (("edges", edges), ("zero", _zero_field_grid()),
                         ("boundary", _boundary_grid())):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        models = _grid_models(path)
        solo = [_solo_row(tmp_path, params) for params in models]
        witness = related = 0
        for params, (expected, solution, bound) in zip(models, solo):
            if bound is not None and any(x > 0.0 for x in bound["overlaps"]):
                # Related weights: the bound is rs's pressure, bit for bit.
                related += 1
                assert (struct.pack("<d", bound["value"])
                        == struct.pack("<d", solution["pressure"]))
            if params.zero_fields and expected["verdict"] == "inside":
                # The witness: q = 0, and the bound is the annealed
                # pressure exactly.
                witness += 1
                assert not any(solution["q"])
                assert bound["annealed_gap"] == 0.0
                assert bound["value"] == bound["p_annealed"]
        axes = config["scan"]["axes"]
        paths = [axis["path"] for axis in axes]
        points = list(itertools.product(*(
            np.linspace(axis["min"], axis["max"], axis["steps"]).tolist()
            for axis in axes)))
        for outputs in subsets:
            config["scan"]["outputs"] = outputs
            path.write_text(json.dumps(config))
            columns = paths + [column for output in outputs
                               for column in cli._OUTPUT_COLUMNS[output]]
            columns.append("flags")
            out = tmp_path / f"{name}_out"
            assert cli.main(["scan", "--config", str(path), "--format",
                             "json", "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["columns"] == columns
            assert cli.main(["scan", "--config", str(path),
                             "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            assert lines[0] == ",".join(columns)
            assert len(report["rows"]) == len(lines) - 1 == len(solo)
            for row, line, point, (expected, solution, bound) in zip(
                    report["rows"], lines[1:], points, solo):
                flags = []
                if solution is None and {"rs_pressure",
                                         "certificates"} & set(outputs):
                    flags.append("rs_failed")
                if "bound" in outputs:
                    if bound is None:
                        flags.append("bound_failed")
                    elif not bound["certified"]:
                        flags.append("uncertified")
                want = dict(zip(paths, point), **expected,
                            flags=";".join(flags))
                assert list(row) == columns
                assert row == {column: want[column] for column in columns}
                assert line.split(",") == [csv_text(want[column])
                                           for column in columns]
        assert related > 0
        if name == "zero":
            assert 0 < witness < len(solo)
        elif name == "edges":
            assert sum(solution is None and bound is None
                       for _, solution, bound in solo) == 4
            # The last point lies past the zero-width layer and has a
            # finite bound.
            assert math.isfinite(solo[-1][2]["value"])
        else:
            verdicts = {expected["verdict"] for expected, _, _ in solo}
            assert verdicts == {"boundary"}
            assert {expected["rho"] < 1.0
                    for expected, _, _ in solo} == {True, False}


def _region_grid():
    """Zero fields on a three-layer chain over a width axis of 0, 1e-320
    and 2e-320 (a zero-width layer, and witnesses whose recursion leaves
    the floats) and a beta axis through 1, where rho = 1: inside, on the
    boundary and outside."""
    return {"K": 3, "beta": [0.5, 0.5], "lambda": [0.2, 0.4, 0.4],
            "scan": {"axes": [{"path": "lambda[0]", "min": 0.0,
                               "max": 2e-320, "steps": 3},
                              {"path": "beta[1]", "min": 0.5, "max": 1.5,
                               "steps": 3}]}}


def test_region_grid_rows_equal_solo_region_runs(tmp_path, monkeypatch):
    # A region grid cut into stacks of at most two points reads each row
    # off its stack's columns; in JSON (rho, verdict, witness) and in CSV,
    # it is the row of the point's own region run, at a zero-width layer,
    # within the boundary band, where a width of 1e-320 loses the witness
    # past the floats, and where the witness is found.
    monkeypatch.setattr(cli, "_STACK_ENTRIES", 2 * 3 ** 2)
    edges = json.loads((Path(__file__).resolve().parent.parent
                        / "examples" / "scan_edges.json").read_text())
    seen = set()
    for name, config in (("region", _region_grid()),
                         ("zero", _zero_field_grid()),
                         ("boundary", _boundary_grid()), ("edges", edges)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        paths = [axis["path"] for axis in config["scan"]["axes"]]
        grid = {}
        for fmt in ("json", "csv"):
            out = tmp_path / f"{name}_out.{fmt}"
            assert cli.main(["region", "--config", str(path), "--format",
                             fmt, "--out", str(out)]) == 0
            grid[fmt] = out.read_text()
        rows = json.loads(grid["json"])["rows"]
        lines = grid["csv"].splitlines()
        assert lines[0] == ",".join(paths + ["rho", "verdict"])
        models = _grid_models(path)
        assert len(rows) == len(lines) - 1 == len(models)
        point = tmp_path / "point.json"
        for params, row, line in zip(models, rows, lines[1:]):
            point.write_text(json.dumps(params.to_dict()))
            solo = {}
            for fmt in ("json", "csv"):
                out = tmp_path / f"solo.{fmt}"
                assert cli.main(["region", "--config", str(point), "--format",
                                 fmt, "--out", str(out)]) == 0
                solo[fmt] = out.read_text()
            own, = json.loads(solo["json"])["rows"]
            assert list(row) == paths + ["rho", "verdict", "witness"]
            assert {key: row[key] for key in own} == own
            header, cells = solo["csv"].splitlines()
            assert header == "rho,verdict"
            assert line.split(",")[len(paths):] == cells.split(",")
            width = min(params.lam)
            if width == 0.0:
                seen.add("zero_width")
            elif width < 1e-300 and own["verdict"] == "inside":
                assert own["witness"] is None
                seen.add("lost")
            if own["verdict"] == "boundary":
                seen.add("boundary" if own["rho"] == 1.0 else "band")
            if own["witness"] is not None:
                seen.add("witness")
    assert seen == {"zero_width", "lost", "boundary", "band", "witness"}


def test_a_large_grid_is_solved_in_stacks_of_bounded_size(tmp_path, monkeypatch):
    path = tmp_path / "edges.json"
    path.write_text((Path(__file__).resolve().parent.parent / "examples"
                     / "scan_edges.json").read_text())
    whole = tmp_path / "whole.csv"
    assert cli.main(["scan", "--config", str(path), "--out", str(whole)]) == 0
    sizes = []
    newton = rs_solver._newton

    def counted(M, table, tol):
        sizes.append(len(M))
        return newton(M, table, tol)

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
    x = rs_solver._solve(systems, rhs)
    for system, b, row in zip(systems, rhs, x):
        np.testing.assert_array_equal(row, np.linalg.solve(system, b))
    # One singular system: its row is NaN, the others keep their bits.
    systems[2] = 0.0
    x = rs_solver._solve(systems, rhs)
    assert np.all(np.isnan(x[2]))
    for i in (0, 1, 3, 4):
        np.testing.assert_array_equal(x[i], np.linalg.solve(systems[i], rhs[i]))


def test_each_newton_step_solves_one_system_per_iterating_row(monkeypatch):
    # Centred chains take no damped step, so each evaluation holds exactly
    # the rows that iterate at the next step; the weakest coupling stops a
    # step before the others.
    solve, evaluate = rs_solver._solve, rs_solver._evaluate
    systems, iterating = [], []

    def solving(jacobians, rhs):
        systems.append((len(jacobians), len(rhs)))
        return solve(jacobians, rhs)

    def evaluating(M, fields, q):
        iterating.append(len(q))
        return evaluate(M, fields, q)

    monkeypatch.setattr(rs_solver, "_solve", solving)
    monkeypatch.setattr(rs_solver, "_evaluate", evaluating)
    models = [ModelParams(K=3, beta=(beta, beta), lam=(0.3, 0.4, 0.3),
                          fields=(FieldSpec.gaussian(0.2),) * 3)
              for beta in (0.2, 0.6, 1.0, 1.5, 3.0)]
    rs_solver._solved(rs_solver._Stack(models), 1e-10)
    assert len(set(iterating)) > 1
    assert systems == [(n, n) for n in iterating]


@st.composite
def chains(draw):
    """Same-K chains, K from 1 to 40, with zero-width layers, widths near
    the smallest float (witnesses that leave the floats) and temperatures
    up to the largest that keeps 4 beta^4 finite."""
    K = draw(st.integers(1, 40))
    beta = st.one_of(st.floats(0.05, 3.0), st.floats(1e-100, 1e76))
    width = st.one_of(st.floats(0.01, 1.0), st.just(0.0), st.just(1e-320))
    models = []
    for _ in range(draw(st.integers(1, 6))):
        weights = draw(st.lists(width, min_size=K, max_size=K))
        if sum(weights) < 0.01:
            weights[0] = 1.0
        total = sum(weights)
        models.append(ModelParams(
            K=K, beta=tuple(draw(st.lists(beta, min_size=K - 1,
                                          max_size=K - 1))),
            lam=tuple(w / total for w in weights)))
    return models


def _stacked_verdicts(stack):
    """Each point's classification read off the stack's columns, as a
    :class:`RegionVerdict` to compare with its own call's."""
    regions = stack.regions
    return [machine.RegionVerdict(verdict=verdict, rho=rho,
                                  z_chain=tuple(chain), feasible_a=witness)
            for verdict, rho, chain, witness in zip(
                regions.verdict, regions.rho, regions.z_chain.tolist(),
                regions.witness)]


def _verdict_bits(verdict):
    """A verdict with its floats as bytes, so that NaN chain values
    compare."""
    return (verdict.verdict, np.float64(verdict.rho).tobytes(),
            np.array(verdict.z_chain).tobytes(),
            None if verdict.feasible_a is None
            else np.array(verdict.feasible_a).tobytes())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(models=chains())
def test_stacked_classification_equals_each_chains_own_property(models):
    # One batched eigensolve (K <= 32) or one tridiagonal solve per chain
    # (K = 33-40), one chain recursion and one witness recursion give every
    # chain the verdict, radius, chain values and witness of its own call.
    stack = rs_solver._Stack(models)
    stacked = _stacked_verdicts(stack)
    assert len(stacked) == len(models)
    for verdict, params in zip(stacked, models):
        solo = machine.classify_annealed(params)
        assert _verdict_bits(verdict) == _verdict_bits(solo)
        if not np.isnan(solo.z_chain).any():
            assert verdict == solo
    zeros = chainpoly.zeros(machine.activities(stack))
    for row, params in zip(zeros, models):
        assert row.tobytes() == chainpoly.zeros(machine.activities(params)).tobytes()


def test_stacked_classification_covers_both_eigensolvers_and_lost_witnesses():
    # The property's edges, pinned: K = 32 and K = 33 on either side of the
    # dense solver, a zero-width layer, and a witness withheld because a
    # width of 1e-320 sends its recursion out of the floats.
    for K in (1, 2, 32, 33, 40):
        lam = (1.0 / K,) * K
        models = [ModelParams(K=K, beta=(0.3,) * (K - 1), lam=lam),
                  ModelParams(K=K, beta=(math.sqrt(K),) * (K - 1), lam=lam)]
        if K > 2:
            models.append(ModelParams(
                K=K, beta=(0.3,) * (K - 1),
                lam=(0.0,) + (1.0 / (K - 1),) * (K - 1)))
            models.append(ModelParams(
                K=K, beta=(0.3,) * (K - 1),
                lam=(1e-320,) + (1.0 / (K - 1),) * (K - 1)))
        stacked = _stacked_verdicts(rs_solver._Stack(models))
        solo = [machine.classify_annealed(params) for params in models]
        assert stacked == solo
        assert [v.verdict for v in solo[:2]] == (
            ["inside"] * 2 if K == 1 else ["inside", "outside"])
        if K > 2:
            assert solo[2].verdict == solo[3].verdict == "inside"
            assert solo[2].feasible_a is None and solo[3].feasible_a is None
            assert not np.all(np.isfinite(
                machine.witness_recursion(models[3])[:-1]))


def _row_model(stack, i):
    """The :class:`ModelParams` of point ``i`` of ``stack``."""
    K = stack.lam.shape[1]
    return ModelParams(K=K, beta=tuple(stack.beta[i].tolist()),
                       lam=tuple(stack.lam[i].tolist()),
                       fields=tuple(stack.table.take(range(i * K, i * K + K))))


def _grid_rows(base, axes):
    """Every row model of the grid that ``scan`` builds, in grid order."""
    return [_row_model(stack, i) for _, stack in cli._grid_stacks(base, axes)
            for i in range(len(stack))]


def _axes(base, *specs):
    return tuple(cli._parse_axis({"path": path, "min": lo, "max": hi,
                                  "steps": steps}, base)
                 for path, lo, hi, steps in specs)


def test_scan_rows_equal_hand_built_models(monkeypatch):
    # Stacks of two points, so the rows cross stack boundaries.
    monkeypatch.setattr(cli, "_STACK_ENTRIES", 2 * 4 ** 2)
    base = ModelParams(K=4, beta=(0.6, 0.9, 0.7), lam=(0.1, 0.2, 0.3, 0.4),
                       fields=(FieldSpec.gaussian(0.3), FieldSpec.zero(),
                               FieldSpec.discrete((0.0, 0.0), (0.5, 0.5)),
                               FieldSpec.gaussian(0.2)))
    rest_free = ModelParams(K=3, beta=(0.6, 0.9), lam=(0.5, 0.5, 0.0))
    grids = [
        (base, _axes(base, ("beta[1]", 0.2, 2.0, 3),
                     ("fields[2].v", 0.0, 0.8, 3))),
        # Two scanned weights renormalize the other two.
        (base, _axes(base, ("lambda[0]", 0.0, 0.5, 3),
                     ("lambda[3]", 0.1, 0.4, 4))),
        (base, _axes(base, ("fields[1].v", 0.1, 0.4, 2),
                     ("lambda[2]", 0.2, 0.9, 5))),
        # The rest has no mass: it shares the remainder equally.
        (rest_free, _axes(rest_free, ("lambda[0]", 0.2, 1.0, 5))),
    ]
    for params, axes in grids:
        rows = _grid_rows(params, axes)
        points = list(itertools.product(*(axis.values().tolist()
                                          for axis in axes)))
        assert rows == [_point_model(params, axes, point) for point in points]


def test_scan_row_errors_name_the_first_bad_point(tmp_path, capsys):
    base = {"K": 3, "beta": [0.8, 0.6], "lambda": [0.4, 0.2, 0.4]}
    cases = [
        # (0.4, 0.7) is the first point in grid order whose sum passes one.
        ([{"path": "lambda[0]", "min": 0.2, "max": 0.6, "steps": 3},
          {"path": "lambda[1]", "min": 0.3, "max": 0.7, "steps": 2}],
         "error: scanned layer weights sum to 1.1 > 1 at a grid point\n"),
        ([{"path": "beta[0]", "min": 0.5, "max": 1e80, "steps": 3}],
         "error: invalid model at a grid point: beta entries must keep "
         "4 beta^4 finite (it bounds the chain activities)\n"),
    ]
    two = {"K": 2, "beta": [0.8], "lambda": [0.5, 0.5]}
    cases.append(([{"path": "lambda[0]", "min": 0.2, "max": 0.6, "steps": 2},
                   {"path": "lambda[1]", "min": 0.4, "max": 0.8, "steps": 2}],
                  "error: scanning every layer weight requires the values "
                  "to sum to one\n"))
    for i, (axes, message) in enumerate(cases):
        config = dict(two if "every" in message else base,
                      scan={"axes": axes, "outputs": ["rho"]})
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(config))
        for command in ("scan", "region"):
            assert cli.main([command, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", message)
