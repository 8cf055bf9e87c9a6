import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from dbmlab import chainpoly, machine, rs_solver, sk_chain_bound
from dbmlab import finite_volume_lab as fvl
from dbmlab.machine import FieldSpec, ModelParams

from helpers import model_params, random_lambda, random_params
from oracles import dense_charpoly_value


def make(K, beta, lam, fields=()):
    return ModelParams(K=K, beta=tuple(beta), lam=tuple(lam), fields=tuple(fields))


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_params_validation_errors():
    with pytest.raises(ValueError):
        make(2, (1.0, 1.0), (0.5, 0.5))  # beta length must be K-1
    with pytest.raises(ValueError):
        make(2, (-0.5,), (0.5, 0.5))  # beta must be positive
    with pytest.raises(ValueError):
        make(2, (1.0,), (0.7, 0.7))  # lambda must sum to one
    with pytest.raises(ValueError):
        make(2, (1.0,), (1.2, -0.2))  # lambda must be nonnegative
    with pytest.raises(ValueError):
        make(0, (), ())  # at least one layer


def test_params_default_fields_are_zero():
    p = make(3, (1.0, 1.0), (1 / 3, 1 / 3, 1 / 3))
    assert len(p.fields) == 3
    assert all(f.is_zero for f in p.fields)


def test_params_json_round_trip():
    p = make(
        4,
        (0.8, 1.1, 0.9),
        (0.2, 0.4, 0.3, 0.1),
        fields=(
            FieldSpec.zero(),
            FieldSpec.gaussian(0.4),
            FieldSpec.discrete((-1.0, 1.0), (0.5, 0.5)),
            FieldSpec.point_mass(0.25),
        ),
    )
    d = p.to_dict()
    assert d["lambda"] == [0.2, 0.4, 0.3, 0.1]
    assert d["fields"][3] == {"kind": "point_mass", "h0": 0.25}
    assert ModelParams.from_dict(d) == p


def test_params_from_dict_needs_an_integral_layer_count():
    for K in (3, 3.0):
        d = {"K": K, "beta": [0.5, 0.5], "lambda": [0.3, 0.3, 0.4]}
        assert ModelParams.from_dict(d).K == 3
    for d in ({"K": 2.9, "beta": [0.5], "lambda": [0.5, 0.5]},
              {"K": float("nan"), "beta": [0.5], "lambda": [0.5, 0.5]},
              {"K": True, "beta": [], "lambda": [1.0]}):
        with pytest.raises(ValueError):
            ModelParams.from_dict(d)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(params=model_params())
def test_params_dict_round_trip_property(params):
    assert ModelParams.from_dict(params.to_dict()) == params
    assert ModelParams.from_dict(json.loads(json.dumps(params.to_dict()))) == params


# Every spelling of the zero law, as constructed and as written in JSON.
_ZERO_SPELLINGS = (FieldSpec.zero(), FieldSpec.point_mass(0.0),
                   FieldSpec.discrete([0.0], [1.0]), FieldSpec.gaussian(0.0))
_ZERO_JSON = ({"kind": "zero"}, {"kind": "point_mass", "h0": 0},
              {"kind": "discrete", "values": [0], "probs": [1]},
              {"kind": "gaussian_centered", "v": 0})


def test_a_field_is_its_law():
    for field in _ZERO_SPELLINGS + tuple(map(FieldSpec.from_dict, _ZERO_JSON)):
        assert field == FieldSpec()
        assert hash(field) == hash(FieldSpec())
        assert field.kind == "zero" and field.is_zero and field.is_centred
        assert field.to_dict() == {"kind": "zero"}
        assert FieldSpec.from_dict(field.to_dict()) == field
    # One atom is a point mass whatever its spelling; its probability is 1.
    one_atom = FieldSpec.discrete([0.3], [1.0 - 1e-12])
    assert one_atom == FieldSpec.point_mass(0.3)
    assert one_atom.to_dict() == {"kind": "point_mass", "h0": 0.3}
    assert not one_atom.is_centred
    gaussian = FieldSpec.gaussian(0.4)
    assert gaussian == FieldSpec(v=0.4)
    assert gaussian.kind == "gaussian_centered"
    assert gaussian.is_centred and not gaussian.is_zero
    # Several atoms stay discrete, even when all of them sit at 0.
    split = FieldSpec.discrete([0.0, 0.0], [0.5, 0.5])
    assert split.kind == "discrete" and split.is_zero
    assert split.to_dict() == {"kind": "discrete", "values": [0.0, 0.0],
                               "probs": [0.5, 0.5]}
    assert FieldSpec.from_dict(split.to_dict()) == split
    assert split != FieldSpec.zero()


@pytest.mark.parametrize("beta, lam", [
    ((0.5, 0.5), (1e-320, 0.5, 0.5)),    # a_1 overflows to inf
    ((1e-200, 1e-200), (0.3, 0.4, 0.3)),  # beta^2 underflows to 0
])
def test_a_witness_past_the_floats_is_none_without_a_warning(beta, lam):
    # RuntimeWarnings are errors here, so an overflow in the recursion fails.
    verdict = machine.classify_annealed(ModelParams(K=3, beta=beta, lam=lam))
    assert verdict.verdict == "inside"
    assert verdict.feasible_a is None


def test_field_laws_that_have_no_json_form_or_no_meaning_are_refused():
    nan = float("nan")
    for make_field in (lambda: FieldSpec(v=0.5, values=(0.3,)),
                       lambda: FieldSpec(v=0.5, values=(0.0, 0.0),
                                         probs=(0.5, 0.5)),
                       lambda: FieldSpec.gaussian(-0.1),
                       lambda: FieldSpec.gaussian(math.inf),
                       lambda: FieldSpec.point_mass(nan),
                       lambda: FieldSpec.discrete([], []),
                       lambda: FieldSpec.discrete([0.1, 0.2], [1.0]),
                       lambda: FieldSpec.discrete([0.1, 0.2], [nan, 1.0]),
                       lambda: FieldSpec.discrete([0.1, 0.2], [1.0, nan]),
                       lambda: FieldSpec.discrete([0.1, 0.2], [math.inf, 1.0]),
                       lambda: FieldSpec.discrete([0.1, 0.2], [-0.5, 1.5]),
                       lambda: FieldSpec.discrete([0.1, 0.2], [0.5, 0.6]),
                       lambda: FieldSpec.discrete([0.0] * 65, [1 / 65] * 65)):
        with pytest.raises(ValueError):
            make_field()


# ---------------------------------------------------------------------------
# activities / annealed pressure
# ---------------------------------------------------------------------------


def test_activities_frozen_cases():
    np.testing.assert_allclose(machine.activities(make(2, (1.0,), (0.5, 0.5))), [1.0])
    for b in (0.7, 1.3):
        np.testing.assert_allclose(
            machine.activities(make(2, (b,), (0.5, 0.5))), [b**4], rtol=1e-15
        )
    np.testing.assert_allclose(
        machine.activities(make(3, (1.0, 1.0), (1 / 3, 1 / 3, 1 / 3))),
        [4.0 / 9.0, 4.0 / 9.0],
        rtol=1e-14,
    )


def test_annealed_pressure_frozen_cases():
    assert machine.annealed_pressure(make(1, (), (1.0,))) == pytest.approx(math.log(2.0), abs=1e-15)
    assert machine.annealed_pressure(make(2, (1.0,), (0.5, 0.5))) == pytest.approx(
        math.log(2.0) + 0.25, abs=1e-15
    )
    assert machine.annealed_pressure(make(3, (0.5, 0.5), (1 / 3, 1 / 3, 1 / 3))) == pytest.approx(
        math.log(2.0) + 1.0 / 18.0, abs=1e-14
    )


# ---------------------------------------------------------------------------
# interaction matrices
# ---------------------------------------------------------------------------


def test_build_matrices_two_layers():
    M0, M1, M = machine.build_matrices(make(2, (1.0,), (0.5, 0.5)))
    np.testing.assert_allclose(M0, [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(M1, [[0.0, 0.25], [0.25, 0.0]])
    np.testing.assert_allclose(M, [[0.0, 1.0], [1.0, 0.0]])


def test_build_matrices_single_layer():
    M0, M1, M = machine.build_matrices(make(1, (), (1.0,)))
    for A in (M0, M1, M):
        np.testing.assert_array_equal(A, np.zeros((1, 1)))


def test_characteristic_polynomial_matches_chain_polynomial():
    rng = np.random.default_rng(5)
    for _ in range(5):
        params = random_params(rng, K=4)
        _, _, M = machine.build_matrices(params)
        t = machine.activities(params)
        for x in rng.uniform(-3.0, 3.0, size=20):
            det = dense_charpoly_value(M, x)
            ref = chainpoly.eval_sequence(x, t)[-1]
            assert abs(det - ref) <= 1e-9 * max(1.0, abs(ref))


def test_half_quadratic_form_matches_matrix():
    rng = np.random.default_rng(9)
    for _ in range(10):
        params = random_params(rng)
        _, M1, _ = machine.build_matrices(params)
        u = rng.uniform(-1.0, 1.0, size=params.K)
        direct = machine.interaction_half_quadratic(params, u)
        assert direct == pytest.approx(0.5 * u @ M1 @ u, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------


def test_spectral_radius_two_layers_closed_form():
    for b, l1 in [(1.0, 0.5), (0.8, 0.3), (1.2, 0.7)]:
        params = make(2, (b,), (l1, 1.0 - l1))
        expected = 2.0 * b * b * math.sqrt(l1 * (1.0 - l1))
        assert machine.spectral_radius(params) == pytest.approx(expected, rel=1e-12)


def test_spectral_radius_three_layers_uniform():
    params = make(3, (1.0, 1.0), (1 / 3, 1 / 3, 1 / 3))
    assert machine.spectral_radius(params) == pytest.approx(math.sqrt(8.0) / 3.0, rel=1e-12)


def test_spectral_radius_single_layer():
    assert machine.spectral_radius(make(1, (), (1.0,))) == 0.0


def test_spectral_radius_monotone_in_beta():
    rng = np.random.default_rng(13)
    for _ in range(50):
        params = random_params(rng, k_range=(2, 8))
        rho = machine.spectral_radius(params)
        j = int(rng.integers(0, params.K - 1))
        beta = list(params.beta)
        beta[j] *= 1.0 + rng.uniform(0.01, 0.5)
        bumped = make(params.K, beta, params.lam)
        assert machine.spectral_radius(bumped) >= rho - 1e-12


def test_spectral_radius_bounded_by_max_beta_squared():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        params = random_params(rng, k_range=(2, 7))
        bound = max(b * b for b in params.beta)
        assert machine.spectral_radius(params) <= bound + 1e-12


# ---------------------------------------------------------------------------
# annealed-region classification
# ---------------------------------------------------------------------------


def test_classify_inside_two_layers():
    res = machine.classify_annealed(make(2, (0.9,), (0.5, 0.5)))
    assert res.verdict == "inside"
    assert res.rho == pytest.approx(0.81, rel=1e-12)
    assert res.feasible_a is not None
    np.testing.assert_allclose(res.feasible_a, [1.0 / 0.81], rtol=1e-12)


def test_classify_outside_two_layers():
    res = machine.classify_annealed(make(2, (1.1,), (0.5, 0.5)))
    assert res.verdict == "outside"
    assert res.rho == pytest.approx(1.21, rel=1e-12)
    assert res.feasible_a is None


def test_classify_boundary_two_layers():
    res = machine.classify_annealed(make(2, (1.0,), (0.5, 0.5)))
    assert res.verdict == "boundary"


def test_classify_inside_three_layers():
    res = machine.classify_annealed(make(3, (1.0, 1.0), (1 / 3, 1 / 3, 1 / 3)))
    assert res.verdict == "inside"
    np.testing.assert_allclose(res.z_chain, [1.0, 1.0, 5.0 / 9.0, 1.0 / 9.0], rtol=1e-12)
    # witness from the forward recursion: a1 = 3/2, a2 = 3/2 - 2/3 = 5/6
    np.testing.assert_allclose(res.feasible_a, [1.5, 5.0 / 6.0], rtol=1e-12)


def test_classify_single_layer_degenerate():
    res = machine.classify_annealed(make(1, (), (1.0,)))
    assert res.verdict == "inside"
    assert res.rho == 0.0
    assert res.feasible_a == ()


def test_classify_witness_satisfies_the_inequality_system():
    # The reported witness saturates the first K-1 lines (= 1/2 exactly) and
    # satisfies the last one strictly.
    rng = np.random.default_rng(21)
    found = 0
    while found < 50:
        params = random_params(rng, k_range=(2, 8), lam_floor=0.05)
        res = machine.classify_annealed(params)
        if res.verdict != "inside":
            continue
        found += 1
        a = np.asarray(res.feasible_a)
        lam = np.asarray(params.lam)
        beta_sq = np.asarray(params.beta) ** 2
        K = params.K
        theta_sq = np.empty(K)
        theta_sq[0] = lam[0] * a[0] * beta_sq[0]
        for p in range(1, K - 1):
            theta_sq[p] = lam[p] * (beta_sq[p - 1] / a[p - 1] + a[p] * beta_sq[p])
        theta_sq[K - 1] = lam[K - 1] * beta_sq[K - 2] / a[K - 2]
        assert np.all(theta_sq <= 0.5 + 1e-12)
        assert theta_sq[K - 1] < 0.5


def test_classify_skips_witness_when_a_layer_is_empty():
    res = machine.classify_annealed(make(3, (0.5, 0.9), (0.0, 0.5, 0.5)))
    assert res.verdict == "inside"
    assert res.feasible_a is None
    out = machine.classify_annealed(make(4, (1.0, 2.0, 1.0), (0.0, 0.5, 0.5, 0.0)))
    assert out.verdict == "outside"
    assert out.rho == pytest.approx(4.0, rel=1e-12)


def test_classification_criteria_are_equivalent():
    # z-chain positivity <=> spectral radius < 1 <=> forward witness recursion
    # stays positive, away from the boundary band.
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 300:
        params = random_params(rng, k_range=(2, 10), lam_floor=0.02)
        res = machine.classify_annealed(params)
        if res.verdict == "boundary":
            continue
        z_ok = bool(np.all(np.asarray(res.z_chain)[1:] > 0.0))
        rho_ok = res.rho < 1.0
        witness_ok = res.feasible_a is not None
        assert z_ok == rho_ok == witness_ok == (res.verdict == "inside")
        checked += 1


def test_classify_deep_chains_decide_before_overflow():
    # At x = 1 the chain values fall from Delta_1 = 1 while they stay
    # positive, so they lie in (0, 1] inside the region; far outside they
    # overflow to nan only after a non-positive value has decided the verdict.
    K = chainpoly.MAX_LAYERS
    inside = machine.classify_annealed(make(K, (10.0,) * (K - 1), (1 / K,) * K))
    assert inside.verdict == "inside"
    z = np.asarray(inside.z_chain)
    assert np.all((z > 0.0) & (z <= 1.0))
    outside = machine.classify_annealed(make(K, (1e30,) * (K - 1), (1 / K,) * K))
    assert outside.verdict == "outside"
    assert np.isnan(outside.z_chain).any()
    assert not all(v > 0.0 for v in outside.z_chain)


# ---------------------------------------------------------------------------
# extremal layer widths
# ---------------------------------------------------------------------------


def test_extremal_lambda_two_layers():
    res = machine.extremal_lambda((1.0,))
    assert res.value == pytest.approx(1.0)
    assert any(np.allclose(m, (0.5, 0.5)) for m in res.maximizers)
    b = 0.8
    res = machine.extremal_lambda((b,))
    assert res.value == pytest.approx(b * b)


def test_extremal_lambda_three_layers_uniform_beta():
    res = machine.extremal_lambda((1.0, 1.0))
    assert res.value == pytest.approx(1.0)
    mats = [tuple(np.round(m, 10)) for m in res.maximizers]
    assert (0.5, 0.5, 0.0) in mats
    assert (0.0, 0.5, 0.5) in mats
    # the interior family lambda = (x, 1/2, 1/2-x) achieves the value too
    for x in (0.1, 0.25, 0.4):
        params = make(3, (1.0, 1.0), (x, 0.5, 0.5 - x))
        assert machine.spectral_radius(params) == pytest.approx(1.0, rel=1e-12)


def test_extremal_lambda_peaked_middle():
    res = machine.extremal_lambda((1.0, 2.0, 1.0))
    assert res.value == pytest.approx(4.0)
    assert any(np.allclose(m, (0.0, 0.5, 0.5, 0.0)) for m in res.maximizers)


def test_extremal_maximizers_hold_python_floats():
    # Public records hold Python numbers: a maximizer's repr reads 0.5, not
    # np.float64(0.5).
    for beta in ((1.0,), (1.0, 1.0), (1.0, 2.0, 2.0, 1.0)):
        maximizers = machine.extremal_lambda(beta).maximizers
        assert maximizers
        assert all(type(x) is float for m in maximizers for x in m)
        assert "np." not in repr(maximizers)


def test_extremal_maximizers_achieve_the_value():
    rng = np.random.default_rng(33)
    for _ in range(20):
        K = int(rng.integers(2, 9))
        beta = tuple(rng.uniform(0.3, 1.5, size=K - 1))
        res = machine.extremal_lambda(beta)
        assert res.value == pytest.approx(max(b * b for b in beta), rel=1e-15)
        for m in res.maximizers:
            params = make(K, beta, m)
            assert machine.spectral_radius(params) == pytest.approx(res.value, rel=1e-9)


def test_extremal_value_is_an_upper_bound_over_random_lambda():
    rng = np.random.default_rng(35)
    for _ in range(200):
        K = int(rng.integers(2, 7))
        beta = tuple(rng.uniform(0.3, 1.5, size=K - 1))
        value = machine.extremal_lambda(beta).value
        params = make(K, beta, random_lambda(rng, K))
        assert machine.spectral_radius(params) <= value + 1e-9


# ---------------------------------------------------------------------------
# JSON form of the result records
# ---------------------------------------------------------------------------


def _json_leaves(value):
    if isinstance(value, dict):
        assert all(type(key) is str for key in value)
        for item in value.values():
            yield from _json_leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _json_leaves(item)
    else:
        yield value


def test_every_result_record_writes_json_types_in_its_field_order():
    gaussian = make(3, (0.6, 0.9), (0.3, 0.4, 0.3),
                    (FieldSpec.gaussian(0.4),) * 3)
    zero = make(2, (0.8,), (0.5, 0.5))
    solved = rs_solver.solve_nested(gaussian)
    at_zero = rs_solver.solve_nested(zero)
    bound = sk_chain_bound.maximize_bound(gaussian)
    trend = fvl.annealed_trend(
        zero, [fvl.LayerAssignment.from_weights(zero.lam, n) for n in (6, 8)],
        n_disorder=4, seed=3)
    pairs = fvl.covariance_report(fvl.LayerAssignment((3, 2)), zero,
                                  n_disorder=5, seed=3, n_pairs=2)
    certificates = ["talagrand_ok", "at_ok", "stable_at_zero"]
    trend_row = ["N", "method", "mean", "std_error", "p_annealed", "gap",
                 "flags"]
    keys = [
        (solved.certificates, certificates),
        (at_zero.certificates, certificates),
        (solved, ["q", "pressure", "residual", "method", "certificates"]),
        (at_zero, ["q", "pressure", "residual", "method", "certificates"]),
        (bound, ["a", "value", "certified", "theta", "overlaps"]),
        (pairs[0], ["overlaps", "empirical", "predicted", "std_error",
                    "standardized"]),
        (trend.rows[0], trend_row),
        (trend, ["rows", "p_annealed", "jensen_ok", "gap_decreasing"]),
    ]
    for record, expected in keys:
        d = record.to_dict()
        assert list(d) == expected
        assert all(type(leaf) in (bool, int, float, str, type(None))
                   for leaf in _json_leaves(d))
        assert json.loads(json.dumps(d, allow_nan=False)) == d
    assert at_zero.certificates.to_dict() == {
        "talagrand_ok": None, "at_ok": None, "stable_at_zero": True}
    assert type(solved.certificates.to_dict()["at_ok"]) is bool
    assert list(solved.to_dict()["certificates"]) == certificates
    assert [list(row) for row in trend.to_dict()["rows"]] == [trend_row] * 2
    assert trend.to_dict()["rows"][1] == trend.rows[1].to_dict()
    assert bound.to_dict()["theta"] == bound.theta.tolist()
    assert pairs[1].to_dict()["overlaps"] == pairs[1].overlaps.tolist()
    assert trend.rows[0].to_dict()["flags"] == list(trend.rows[0].flags)


def test_json_form_reads_numpy_scalars_and_nested_tuples():
    assert machine.json_form((np.float64(0.5), np.int64(3), np.bool_(True),
                              (np.array([1.0, -0.0]), "x", None))) == \
        [0.5, 3, True, [[1.0, -0.0], "x", None]]
    assert [type(x) for x in machine.json_form(
        (np.float64(0.5), np.int64(3), np.bool_(True)))] == [float, int, bool]
