"""Tests for the variational chain bound: temperatures, functional, optimizer, bridge."""
import collections
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from dbmlab import cli, ghquad, machine, rs_solver, sk_chain_bound
from dbmlab.ghquad import INV_COSH4
from dbmlab.machine import FieldSpec, ModelParams
from dbmlab.rs_solver import solve_nested
from dbmlab.sk_chain_bound import (
    bridge_check,
    maximize_bound,
    p_dbm_functional,
    related_aux,
)

from helpers import random_lambda, random_params
from oracles import interaction_image, trapezoid_inv_cosh4, trapezoid_log_cosh


def make(K, beta, lam, fields=()):
    return ModelParams(K=K, beta=tuple(beta), lam=tuple(lam), fields=tuple(fields))


def gaussian_params(rng, K=None, k_range=(2, 6), beta_range=(0.2, 1.5),
                    v_range=(0.05, 1.0)):
    return random_params(rng, K=K, k_range=k_range, beta_range=beta_range,
                         lam_floor=0.02, field_kind="gaussian", v_range=v_range)


def evaluate_at(a, params):
    """``(value, overlaps, theta_sq, converged, certified)`` of the split
    bound of one model at weights ``a``, cold-started: the one-model stack
    of the bound's evaluation."""
    stack = rs_solver._Stack([params])
    theta_sq = sk_chain_bound._theta_sq_from_aux(a, params)[None]
    values, overlaps, converged, stable = sk_chain_bound._evaluate(stack,
                                                                  theta_sq)
    certified = bool(converged[0] and stable[0])
    return values[0], overlaps[0], theta_sq[0], bool(converged[0]), certified


def inside_zero_field_params(rng, k_range=(2, 6)):
    """Random zero-field instance strictly inside the annealed region."""
    while True:
        params = random_params(rng, k_range=k_range, beta_range=(0.2, 1.1),
                               lam_floor=0.02)
        verdict = machine.classify_annealed(params)
        if verdict.verdict == "inside" and verdict.feasible_a is not None:
            return params, verdict


# ---------------------------------------------------------------------------
# theta map: the squared temperatures theta_p(a)^2
# ---------------------------------------------------------------------------


def test_theta_map_frozen_two_layer():
    params = make(2, (1.0,), (0.5, 0.5))
    got = sk_chain_bound._theta_sq_from_aux(np.array([1.0]), params)
    np.testing.assert_allclose(got, [0.5, 0.5], rtol=1e-15)


def test_theta_map_frozen_three_layer():
    params = make(3, (1.0, 1.0), (1 / 3, 1 / 3, 1 / 3))
    got = sk_chain_bound._theta_sq_from_aux(np.array([1.0, 1.0]), params)
    np.testing.assert_allclose(got, [1 / 3, 2 / 3, 1 / 3], rtol=1e-14)


def test_theta_map_single_layer_is_zero():
    params = make(1, (), (1.0,))
    got = sk_chain_bound._theta_sq_from_aux(np.zeros(0), params)
    np.testing.assert_array_equal(got, [0.0])


def test_theta_map_rejects_bad_aux():
    params = make(2, (1.0,), (0.5, 0.5))
    with pytest.raises(ValueError):
        sk_chain_bound._theta_sq_from_aux(np.array([0.0]), params)
    with pytest.raises(ValueError):
        sk_chain_bound._theta_sq_from_aux(np.array([-1.0]), params)
    with pytest.raises(ValueError):
        sk_chain_bound._theta_sq_from_aux(np.array([1.0, 1.0]), params)


def test_theta_interaction_identity_for_related_pairs():
    # With a built from q by the chain correspondence, 2 q_p theta_p^2 = (Mq)_p.
    rng = np.random.default_rng(31)
    for _ in range(20):
        params = random_params(rng, k_range=(2, 8), lam_floor=0.02,
                               field_kind="mixed")
        q = rng.uniform(0.05, 1.0, params.K)
        a = related_aux(q, params)
        theta_sq = sk_chain_bound._theta_sq_from_aux(a, params)
        np.testing.assert_allclose(2.0 * q * theta_sq,
                                   interaction_image(params, q), atol=1e-12)


def test_related_aux_validation():
    params = make(2, (1.0,), (0.5, 0.5))
    with pytest.raises(ValueError):
        related_aux(np.array([0.0, 0.5]), params)  # zero overlap entry
    with pytest.raises(ValueError):
        related_aux(np.array([0.5]), params)  # wrong length


# ---------------------------------------------------------------------------
# p_dbm_functional
# ---------------------------------------------------------------------------


def test_functional_zero_fields_at_witness_gives_annealed():
    rng = np.random.default_rng(32)
    for _ in range(5):
        params, verdict = inside_zero_field_params(rng)
        value, certified = p_dbm_functional(np.asarray(verdict.feasible_a), params)
        assert value == pytest.approx(machine.annealed_pressure(params), abs=1e-12)
        assert certified is True


def test_functional_flat_on_zero_field_low_temperature_plateau():
    # For K=2 balanced with beta=0.5, any a in [1/4, 4] keeps both effective
    # temperatures below threshold, so the value sticks at the annealed one.
    params = make(2, (0.5,), (0.5, 0.5))
    want = machine.annealed_pressure(params)
    for a1 in (0.3, 1.0, 2.5):
        value, certified = p_dbm_functional(np.array([a1]), params)
        assert value == pytest.approx(want, abs=1e-13)
        assert certified is True


def test_functional_single_layer():
    params = make(1, (), (1.0,), (FieldSpec.gaussian(0.8),))
    value, certified = p_dbm_functional(np.zeros(0), params)
    assert value == pytest.approx(math.log(2.0) + trapezoid_log_cosh(0.8), abs=1e-9)
    assert certified is True
    params0 = make(1, (), (1.0,))
    value0, certified0 = p_dbm_functional(np.zeros(0), params0)
    assert value0 == math.log(2.0)
    assert certified0 is True


def test_functional_certified_instance_matches_rs_pressure():
    rng = np.random.default_rng(33)
    for _ in range(5):
        params = gaussian_params(rng, k_range=(2, 5), beta_range=(0.2, 0.8))
        sol = solve_nested(params)
        a = related_aux(sol.q, params)
        value, certified = p_dbm_functional(a, params)
        assert certified is True
        assert value == pytest.approx(rs_solver.rs_pressure(sol.q, params), abs=1e-10)


def test_functional_unconverged_layer_solve_is_uncertified(monkeypatch):
    # Both layers sit below the high-temperature line, so only the layer
    # solves can withhold the certificate.  Shifting every expectation by
    # one leaves x = E tanh^2(...) + 1 without a root in [0, 1).
    params = make(2, (0.3,), (0.5, 0.5),
                  (FieldSpec.gaussian(0.5), FieldSpec.gaussian(0.5)))
    a = np.array([1.0])
    assert np.all(sk_chain_bound._theta_sq_from_aux(a, params) < 0.125)
    assert p_dbm_functional(a, params)[1] is True
    expect = sk_chain_bound.ghquad.expect
    monkeypatch.setattr(sk_chain_bound.ghquad, "expect",
                        lambda f, s, field: expect(f, s, field) + 1.0)
    value, certified = p_dbm_functional(a, params)
    assert math.isfinite(value)
    assert certified is False


def test_functional_certificate_equals_the_one_model_at_oracle_property():
    # Each layer's 1 x 1 Newton row returns m = 2 theta^2 x and E cosh^-4
    # at its root, which the certificate reads; the oracle evaluates the
    # scalar AT test m E cosh^-4 <= x on the one model with its own kernel
    # call.  Zero, Gaussian and mixed centred chains at random weights.
    rng = np.random.default_rng(47)
    outcomes = set()
    for i in range(240):
        kind = ("zero", "gaussian", "mixed")[i % 3]
        K = int(rng.integers(1, 7))
        variances = {"zero": np.zeros(K),
                     "gaussian": rng.uniform(0.01, 2.0, K),
                     "mixed": rng.choice([0.0, 0.05, 0.5], K)}[kind]
        params = make(K, rng.uniform(0.2, 2.5, K - 1),
                      random_lambda(rng, K, floor=0.02),
                      [FieldSpec.gaussian(v) for v in variances])
        a = np.exp(rng.uniform(-2.0, 2.0, K - 1))
        _, overlaps, theta_sq, converged, _ = evaluate_at(a, params)
        m = 2.0 * theta_sq * overlaps
        oracle = converged and bool(np.all(
            m * ghquad.expect(INV_COSH4, m, params.fields) <= overlaps))
        assert p_dbm_functional(a, params)[1] is oracle
        outcomes.add((kind, oracle))
    assert outcomes == {(kind, ok) for kind in ("zero", "gaussian", "mixed")
                        for ok in (True, False)}


def test_functional_rejects_unsupported_fields():
    params = make(2, (1.0,), (0.5, 0.5),
                  (FieldSpec.point_mass(0.2), FieldSpec.zero()))
    with pytest.raises(ValueError):
        p_dbm_functional(np.array([1.0]), params)


def test_functional_rejects_bad_aux():
    params = make(2, (1.0,), (0.5, 0.5))
    with pytest.raises(ValueError):
        p_dbm_functional(np.array([-1.0]), params)


# ---------------------------------------------------------------------------
# maximize_bound
# ---------------------------------------------------------------------------


def test_maximize_refuses_fields_before_any_solve(monkeypatch):
    # The field check costs microseconds; a refused model reaches neither
    # the Newton body nor the kernel.
    counts = collections.Counter()
    for module, name in ((rs_solver, "_newton"), (ghquad, "expect")):
        real = getattr(module, name)

        def wrapped(*args, real=real, name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)
    fields = [FieldSpec.gaussian(0.4)] * 6
    fields[3] = FieldSpec.point_mass(0.7)
    params = make(6, (0.8,) * 5, (1 / 6,) * 6, tuple(fields))
    with pytest.raises(ValueError, match=r"the split bound requires .* "
                       r"\(layer 3 has kind 'point_mass'\)"):
        maximize_bound(params)
    assert not counts


def test_bound_columns_solve_their_own_stack():
    # Each point's bound is read off its own stack's solution, and another
    # stack's solve where the tolerance goes is refused, so A's bound can
    # never be B's pressure (0.908847, certified).
    lam = (0.3, 0.4, 0.3)
    a, b = (make(3, (beta, beta), lam, (FieldSpec.gaussian(0.3),) * 3)
            for beta in (1.2, 0.6))
    other = rs_solver._solved(rs_solver._Stack([b]), 1e-10)
    assert other.pressure[0] == pytest.approx(0.908847, abs=1e-6)
    with pytest.raises(TypeError):
        sk_chain_bound._bound_columns(rs_solver._Stack([a]), other)
    bound = sk_chain_bound._bound_columns(rs_solver._Stack([a]), 1e-10)
    assert bound.value[0] == solve_nested(a).pressure
    assert bound.value[0] == pytest.approx(1.145565, abs=1e-6)
    both = sk_chain_bound._bound_columns(rs_solver._Stack([a, b]), 1e-10)
    assert both.value == [solve_nested(p).pressure for p in (a, b)]
    assert both.certified == [maximize_bound(p).certified for p in (a, b)]


def test_maximize_zero_fields_inside_collapses_to_annealed():
    params = make(2, (0.9,), (0.5, 0.5))
    result = maximize_bound(params)
    assert result.value == pytest.approx(machine.annealed_pressure(params), abs=1e-10)
    assert result.certified is True

    rng = np.random.default_rng(34)
    for _ in range(4):
        params, _ = inside_zero_field_params(rng, k_range=(2, 5))
        result = maximize_bound(params)
        assert result.value == pytest.approx(
            machine.annealed_pressure(params), abs=1e-10)
        assert result.certified is True


def test_maximize_two_layer_symmetric_gaussian_balances_aux():
    params = make(2, (1.0,), (0.5, 0.5),
                  (FieldSpec.gaussian(1.0), FieldSpec.gaussian(1.0)))
    result = maximize_bound(params)
    assert result.a[0] == pytest.approx(1.0, abs=1e-6)
    assert result.certified is True
    sol = solve_nested(params)
    assert result.value == pytest.approx(sol.pressure, abs=1e-8)


def test_maximize_certified_random_instances_match_nested_pressure():
    rng = np.random.default_rng(35)
    for _ in range(5):
        params = gaussian_params(rng, k_range=(2, 5), beta_range=(0.2, 0.7))
        result = maximize_bound(params)
        sol = solve_nested(params)
        assert result.certified is True
        assert result.value == pytest.approx(sol.pressure, abs=1e-8)
        # The maximizer is the weight vector related to the consistency
        # solution, and the surrogate overlaps are that solution.
        assert result.a.tolist() == related_aux(sol.q, params).tolist()
        assert result.overlaps.tolist() == sol.q.tolist()


def test_maximize_takes_a_single_layer():
    # One layer has no weights to choose: the bound is the functional at
    # the empty weight vector.
    for field in (FieldSpec.gaussian(1.0), FieldSpec.gaussian(1e-3),
                  FieldSpec.gaussian(5e-324), FieldSpec.zero()):
        params = make(1, (), (1.0,), (field,))
        result = maximize_bound(params)
        value, certified = p_dbm_functional(np.zeros(0), params)
        assert abs(result.value - value) <= 1e-15
        assert result.certified is certified is True
        assert result.a.shape == (0,)
        assert result.theta.tolist() == [0.0]
        assert result.overlaps.shape == (1,)


def test_maximize_uncertified_outside_is_labeled():
    params = make(2, (1.5,), (0.5, 0.5))
    result = maximize_bound(params)
    assert result.certified is False
    assert np.isfinite(result.value)
    # The reported maximum dominates an arbitrary sample of the functional.
    sampled, _ = p_dbm_functional(np.array([1.0]), params)
    assert result.value >= sampled - 1e-12


def test_maximize_is_deterministic():
    rng = np.random.default_rng(36)
    params = gaussian_params(rng, K=3)
    r1 = maximize_bound(params)
    r2 = maximize_bound(params)
    np.testing.assert_array_equal(r1.a, r2.a)
    assert r1.value == r2.value
    assert r1.certified == r2.certified


def test_maximize_is_stationary_near_a_zero_field_critical_line():
    # Model 129 of a default_rng(2024) stream of random centred-field chains.
    # Some layers' surrogate overlaps solve x = E tanh^2(z sqrt(2 theta^2 x))
    # with 2 theta^2 just above 1, where the defect's slope is near zero: a
    # stop on the defect alone left the overlap off by ~1e-6, and the
    # bond-matching defect at 9.6e-7.
    params = make(
        12,
        (2.302617169566035, 1.1143317141376732, 0.2704685518496361,
         0.6747510115652071, 0.9635589661462265, 2.1583672891862578,
         0.7321193446126213, 0.8142101796588874, 0.3736049886120616,
         1.2057618868913915, 2.9208050603385436),
        (0.0778402644201745, 0.0848912863179526, 0.17692946012223504,
         0.04840464030256687, 0.07785241572305869, 0.08856050713378143,
         0.04217333116933717, 0.04645568008634185, 0.09423078525562428,
         0.07668066799873077, 0.13076860274348462, 0.055212358726712304))
    assert params.zero_fields
    result = maximize_bound(params)
    sol = solve_nested(params)
    assert sol.residual <= 1e-10
    assert result.a.tolist() == related_aux(sol.q, params).tolist()
    assert result.overlaps.tolist() == sol.q.tolist()


def test_maximize_result_serializes_to_json():
    params = make(2, (0.9,), (0.5, 0.5))
    result = maximize_bound(params)
    blob = json.dumps(result.to_dict())
    data = json.loads(blob)
    assert set(data) == {"a", "value", "certified", "theta", "overlaps"}
    assert data["certified"] is True


@settings(max_examples=100, deadline=None, derandomize=True)
@given(layers=st.lists(
    st.tuples(st.floats(0.0, 0.125, exclude_max=True),
              st.one_of(st.just(0.0), st.floats(0.0, 2.0),
                        st.floats(2.0, 1e6))),
    min_size=2, max_size=4))
def test_at_test_holds_below_the_high_temperature_line(layers):
    # At a converged overlap x, m = 2 theta^2 x <= x / 4 and E cosh^-4 <= 1,
    # so the scalar AT test alone certifies every layer with theta^2 < 1/8.
    theta_sq = np.array([[t for t, _ in layers]])
    fields = tuple(FieldSpec.gaussian(v) for _, v in layers)
    K = len(fields)
    stack = rs_solver._Stack([make(K, (1.0,) * (K - 1), (1 / K,) * K, fields)])
    _, _, converged, stable = sk_chain_bound._evaluate(stack, theta_sq)
    assert converged.all()
    assert stable.tolist() == [True]


def test_maximize_certification_rederivable_from_checks():
    # A layer passes below the high-temperature line theta^2 < 1/8 or by
    # the scalar stability test at m = 2 theta^2 x for its overlap x.
    rng = np.random.default_rng(37)
    for _ in range(3):
        params = gaussian_params(rng, k_range=(2, 4), beta_range=(0.2, 0.9))
        result = maximize_bound(params)
        theta_sq = sk_chain_bound._theta_sq_from_aux(result.a, params)
        m = 2.0 * theta_sq * result.overlaps
        rederived = all(
            t < 0.125 or m_p * trapezoid_inv_cosh4(m_p, field) <= x
            for t, m_p, x, field in zip(theta_sq, m, result.overlaps,
                                        params.fields))
        assert rederived == result.certified


def test_maximize_rejects_zero_width_layers():
    params = make(3, (0.5, 0.5), (0.5, 0.0, 0.5),
                  tuple(FieldSpec.gaussian(0.3) for _ in range(3)))
    with pytest.raises(ValueError, match="strictly positive layer weights"):
        maximize_bound(params)


@st.composite
def centred_chains(draw):
    """Chains with zero, Gaussian or mixed centred fields, all widths >= 0.02."""
    K = draw(st.integers(2, 8))
    beta = draw(st.lists(st.floats(0.2, 2.0), min_size=K - 1, max_size=K - 1))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K))
    total = sum(weights)
    lam = [0.02 + (1.0 - 0.02 * K) * (w / total if total > 0.0 else 1.0 / K)
           for w in weights]
    variances = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                              min_size=K, max_size=K))
    return make(K, beta, lam, [FieldSpec.gaussian(v) for v in variances])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=centred_chains(),
       log_as=st.lists(st.lists(st.floats(-3.0, 3.0), min_size=7, max_size=7),
                       min_size=3, max_size=3))
def test_maximize_dominates_the_functional_at_random_weights_property(params,
                                                                      log_as):
    best = maximize_bound(params).value
    for log_a in log_as:
        a = np.exp(log_a[:params.K - 1])
        assert best >= p_dbm_functional(a, params)[0] - 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=centred_chains(),
       q=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8))
def test_bound_at_related_weights_is_at_most_rs_pressure_property(params, q):
    # Each surrogate overlap minimises its layer's term of the RS pressure,
    # so at weights related to any q the bound cannot exceed it; the two
    # agree where q solves the consistency equations.
    q = np.asarray(q[:params.K])
    bound, _ = p_dbm_functional(related_aux(q, params), params)
    assert bound <= rs_solver.rs_pressure(q, params) + 1e-12


def _zero_field_chains_outside(rng, count):
    """Random zero-field chains with no annealed-region witness."""
    chains = []
    while len(chains) < count:
        params = random_params(rng, k_range=(2, 6), beta_range=(0.8, 2.5),
                               lam_floor=0.02)
        if machine.classify_annealed(params).feasible_a is None:
            chains.append(params)
    return chains


def test_warm_started_surrogates_match_cold_starts(monkeypatch):
    # At weights related to the consistency solution q, q_p is each layer's
    # surrogate root, so starting the solves there changes nothing but the
    # number of steps.
    expect = sk_chain_bound.ghquad.expect
    calls = {"warm": 0, "cold": 0, "nested": 0}
    side = ["nested"]

    def counting(f, s, fields):
        calls[side[0]] += 1
        return expect(f, s, fields)

    monkeypatch.setattr(sk_chain_bound.ghquad, "expect", counting)
    rng = np.random.default_rng(41)
    chains = [gaussian_params(rng, beta_range=(0.2, 2.0)) for _ in range(12)]
    chains += _zero_field_chains_outside(rng, 12)
    for params in chains:
        side[0] = "nested"
        stack = rs_solver._Stack([params])
        q = rs_solver._solved(stack, 1e-10).q[0]
        side[0] = "warm"
        warm = sk_chain_bound._bound_columns(stack, 1e-10)
        side[0] = "cold"
        value, overlaps, theta_sq, converged, certified = evaluate_at(
            related_aux(q, params), params)
        assert converged and warm.rows == [0]
        np.testing.assert_allclose(q, overlaps, rtol=0.0, atol=1e-12)
        assert warm.value[0] == pytest.approx(value, rel=0.0, abs=1e-12)
        assert warm.certified[0] == certified
    # The warm side reads everything off the solution, with no kernel call.
    assert calls["warm"] == 0 < calls["cold"]


def test_maximize_reads_the_surrogate_overlaps_off_the_consistency_solution(
        monkeypatch):
    # At weights related to the consistency solution q, 2 theta_p^2 q_p =
    # (Mq)_p, so q_p is each layer's surrogate root and the bound reports q
    # as its overlaps; at the annealed witness it reports 0.  Neither makes
    # a one-layer solve, a 1 x 1 row of the Newton iteration.
    shapes = []
    newton = rs_solver._newton

    def recording(M, table, tol):
        shapes.append(M.shape[1:])
        return newton(M, table, tol)

    monkeypatch.setattr(rs_solver, "_newton", recording)
    params = make(3, (0.9, 1.1), (0.3, 0.4, 0.3),
                  tuple(FieldSpec.gaussian(0.3) for _ in range(3)))
    q = solve_nested(params).q
    stack = rs_solver._Stack([params])
    warm = sk_chain_bound._bound_columns(stack, 1e-10)
    np.testing.assert_array_equal(
        rs_solver._solved(stack, 1e-10).q[warm.rows], [q])
    np.testing.assert_array_equal(maximize_bound(params).overlaps, q)
    outside, = _zero_field_chains_outside(np.random.default_rng(3), 1)
    np.testing.assert_array_equal(maximize_bound(outside).overlaps,
                                  solve_nested(outside).q)
    inside, _ = inside_zero_field_params(np.random.default_rng(3))
    assert maximize_bound(inside).overlaps.tolist() == [0.0] * inside.K
    single = make(1, (), (1.0,), (FieldSpec.gaussian(0.4),))
    np.testing.assert_array_equal(maximize_bound(single).overlaps,
                                  solve_nested(single).q)
    assert shapes and (1, 1) not in shapes
    # Free weights still solve every layer's equation, all in one call.
    shapes.clear()
    p_dbm_functional(np.ones(2), params)
    assert shapes == [(1, 1)]


def _at_test(params, q):
    """The de Almeida--Thouless test ``m E cosh^-4(z sqrt(m) + h) <= q`` on
    every layer at ``m = Mq``, by the one-model products."""
    m = machine.build_matrices(params)[2] @ q
    return bool(np.all(m * ghquad.expect(INV_COSH4, m, params.fields) <= q))


def test_bound_reads_its_value_and_certificate_off_the_consistency_solution(
        monkeypatch):
    # By the bridge identity the bound at weights related to the
    # consistency solution q is the pressure at q, and each layer's test at
    # m = 2 theta_p^2 q_p = (Mq)_p is the solution's own.  So the value is
    # rs's pressure bit for bit, the certificate is the AT test at Mq for
    # every centred field (where rs reports at_ok only for Gaussian ones),
    # and the bound costs the kernel calls of the solve and no more.
    expect = ghquad.expect
    calls = [0]

    def counting(f, s, fields):
        calls[0] += 1
        return expect(f, s, fields)

    rng = np.random.default_rng(43)
    chains = [gaussian_params(rng, beta_range=(0.2, 2.5)) for _ in range(20)]
    chains += _zero_field_chains_outside(rng, 10)
    for _ in range(10):
        K = int(rng.integers(2, 6))
        chains.append(make(K, rng.uniform(0.5, 2.0, K - 1), (1 / K,) * K,
                           [FieldSpec.gaussian(v) for v in
                            rng.choice([0.0, 0.3], K)]))
    outcomes = set()
    for params in chains:
        monkeypatch.setattr(ghquad, "expect", counting)
        calls[0] = 0
        solution = solve_nested(params)
        solve_calls = calls[0]
        calls[0] = 0
        result = maximize_bound(params)
        assert calls[0] == solve_calls
        monkeypatch.undo()
        assert np.any(result.overlaps > 0.0)
        assert (np.float64(result.value).tobytes()
                == np.float64(solution.pressure).tobytes())
        stable = _at_test(params, solution.q)
        assert result.certified is stable
        gaussian = all(field.v > 0.0 for field in params.fields)
        assert solution.certificates.at_ok is (stable if gaussian else None)
        outcomes.add((gaussian, stable))
    # A zero-field layer at m > 0 fails the test, as the one-layer model
    # at zero field does at every temperature below its critical one.
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_witness_overlaps_are_exactly_zero(monkeypatch):
    # The annealed witness puts every layer at 2 theta_p^2 = 1 up to
    # rounding.  Where the float 2 theta_p^2 lands an ulp above 1 the
    # zero-field root is about 1e-16; the bound reports exactly 0 there, not
    # the artefact near 1e-13 at which a scalar solve with tolerance 1e-13
    # stops.  With zero fields and rho < 1, q = 0 is the only consistency
    # solution: the bound takes it as it is, with the annealed pressure bit
    # for bit and no kernel call or Newton solve.
    calls = collections.Counter()
    expect, newton = ghquad.expect, rs_solver._newton

    def counting_expect(f, s, fields):
        calls["expect"] += 1
        return expect(f, s, fields)

    def counting_newton(M, table, tol):
        calls["newton"] += 1
        return newton(M, table, tol)

    rng = np.random.default_rng(5)
    above = 0
    sizes = set()
    for _ in range(150):
        params, verdict = inside_zero_field_params(rng, k_range=(1, 8))
        sizes.add(params.K)
        theta_sq = sk_chain_bound._theta_sq_from_aux(
            np.array(verdict.feasible_a), params)
        above += bool(np.any(2.0 * theta_sq > 1.0))
        monkeypatch.setattr(ghquad, "expect", counting_expect)
        monkeypatch.setattr(rs_solver, "_newton", counting_newton)
        result = maximize_bound(params)
        monkeypatch.undo()
        assert result.overlaps.tolist() == [0.0] * params.K
        assert result.certified is True
        assert (np.float64(result.value).tobytes()
                == np.float64(machine.annealed_pressure(params)).tobytes())
    assert calls == {}
    assert sizes == set(range(1, 9))
    assert above >= 40


_ULP = 2.0 ** -52


@pytest.mark.parametrize("delta, value", [
    # value: the bound at a = 1 + delta as computed by the former scalar
    # solver, whose overlaps carried stopping-rule artefacts near 1e-13.
    (0.0, 0.9431471805599453),
    (_ULP, 0.9431471805599453),
    (2 * _ULP, 0.9431471805599453),
    (4 * _ULP, 0.9431471805599453),
    (1e-12, 0.9431471805599453),
    (1e-8, 0.9431471805599453),
    (1e-4, 0.9431471805599349),
])
def test_near_critical_zero_field_layer(monkeypatch, delta, value):
    # K = 2, lam = (1/2, 1/2), beta = 1 and a = 1 + delta put the first
    # layer at 2 theta_1^2 = 1 + delta and the second at 1 / (1 + delta).
    # Past the critical line the 1 x 1 Newton row converges onto the
    # positive root (about delta / 2) within its step limit; at and below
    # it a zero-field layer's only root is 0 and takes no solve.
    rows = []
    newton = rs_solver._newton

    def recording(M, table, tol):
        rows.append(len(M))
        return newton(M, table, tol)

    monkeypatch.setattr(rs_solver, "_newton", recording)
    params = make(2, (1.0,), (0.5, 0.5))
    a = np.array([1.0 + delta])
    got, overlaps, theta_sq, converged, _ = evaluate_at(a, params)
    assert 2.0 * theta_sq[0] == 1.0 + delta
    assert converged
    assert rows == ([1] if delta > 0.0 else [])
    assert overlaps[1] == 0.0
    assert (overlaps[0] > 0.0) == (delta > 0.0)
    assert abs(got - value) <= math.ulp(value)
    assert p_dbm_functional(a, params)[0] == got


# ---------------------------------------------------------------------------
# maximize_bound against an L-BFGS-B ascent from every start
# ---------------------------------------------------------------------------

_LBFGSB_OPTIONS = {"maxiter": 300, "ftol": 1e-15, "gtol": 1e-12}


def deterministic_starts(params):
    """Balanced weights, the annealed witness and the nested-related weights."""
    starts = [np.zeros(params.K - 1)]
    verdict = machine.classify_annealed(params)
    if verdict.feasible_a:
        starts.append(np.log(verdict.feasible_a))
    if all(f.v > 0.0 for f in params.fields):
        starts.append(np.log(related_aux(solve_nested(params).q, params)))
    return starts


def every_start_oracle(params, seed, n_random_starts=8):
    """``(value, certified)`` after an L-BFGS-B ascent from every start."""
    rng = np.random.default_rng(seed)
    starts = deterministic_starts(params) + [
        rng.normal(0.0, 1.5, params.K - 1) for _ in range(n_random_starts)]
    lam = np.asarray(params.lam)
    beta_sq = np.asarray(params.beta) ** 2

    def objective(u):
        # Envelope identity: each one-layer pressure has slope (1 - x_p^2) / 2
        # in theta_p^2 at its own overlap, so only the explicit terms remain.
        a = np.exp(u)
        value, overlaps = evaluate_at(a, params)[:2]
        lam_q = lam * overlaps
        grad = 0.5 * beta_sq * (lam_q[1:] ** 2 / a - lam_q[:-1] ** 2 * a)
        return -value, -grad

    out = []
    for u0 in starts:
        run = minimize(objective, u0, jac=True, method="L-BFGS-B",
                       bounds=[(-30.0, 30.0)] * u0.size, options=_LBFGSB_OPTIONS)
        certified = evaluate_at(np.exp(run.x), params)[4]
        out.append((-float(run.fun), certified))
    return out


def _oracle_draws(count):
    """The models of the every-start oracle comparison, draw by draw."""
    rng = np.random.default_rng(909)
    for i in range(count):
        yield i, random_params(rng, k_range=(2, 6), beta_range=(0.2, 1.5),
                               field_kind=("zero", "gaussian")[i % 2],
                               v_range=(0.1, 1.0))


def test_maximize_matches_every_start_oracle():
    # On the zero-field annealed plateau the bound is flat, so maximizers of
    # equal value (to roundoff) can differ in certification; there the flag
    # must be certified whenever a tied oracle maximizer is.  Elsewhere the
    # tied set holds a single flag and the check is exact agreement.
    for i, params in _oracle_draws(40):
        runs = every_start_oracle(params, seed=i)
        result = maximize_bound(params)
        top = max(value for value, _ in runs)
        assert result.value >= top - 1e-12
        tied = {certified for value, certified in runs if value >= top - 1e-12}
        assert result.certified in tied
        if all(f.v > 0.0 for f in params.fields):
            assert tied == {result.certified}
        elif True in tied:
            assert result.certified is True


def test_maximize_prefers_a_certified_point_on_the_annealed_plateau():
    # Draws 22 (K = 3) and 26 (K = 6): zero fields inside the annealed
    # region, where the bound is flat and an ascent can end at an
    # uncertified point that ties the certified annealed witness.
    draws = dict(_oracle_draws(27))
    for i in (22, 26):
        params = draws[i]
        verdict = machine.classify_annealed(params)
        assert params.zero_fields and verdict.verdict == "inside"
        result = maximize_bound(params)
        assert result.certified is True
        assert result.value == pytest.approx(machine.annealed_pressure(params),
                                             abs=1e-12)
        witness_value, witness_certified = p_dbm_functional(verdict.feasible_a,
                                                            params)
        assert witness_certified is True
        assert result.value >= witness_value - 1e-12


def test_scan_bound_reuses_the_nested_solution(tmp_path, monkeypatch):
    model = make(3, (0.5, 0.7), (0.3, 0.3, 0.4),
                 (FieldSpec.gaussian(0.4), FieldSpec.gaussian(0.3),
                  FieldSpec.gaussian(0.6)))
    config = model.to_dict()
    config["scan"] = {
        "axes": [{"path": "beta[0]", "min": 0.3, "max": 1.2, "steps": 3},
                 {"path": "fields[1].v", "min": 0.1, "max": 0.9, "steps": 2}],
        "outputs": ["rs_pressure", "bound"],
    }
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(config))
    # Points per nested Newton solve: the scan solves the grid as one
    # stack, and the bound takes its solutions without solving again.
    nested_points = []
    real_newton = rs_solver._newton

    def counted(M, table, tol):
        nested_points.append(len(M))
        return real_newton(M, table, tol)

    monkeypatch.setattr(rs_solver, "_newton", counted)
    out = tmp_path / "scan_out.json"
    assert cli.main(["scan", "--config", str(path), "--format", "json",
                     "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 6
    assert nested_points == [len(rows)]

    for row in rows:
        fields = list(model.fields)
        fields[1] = FieldSpec.gaussian(row["fields[1].v"])
        point = make(3, (row["beta[0]"], 0.7), model.lam, fields).to_dict()
        point_path = tmp_path / "point.json"
        point_path.write_text(json.dumps(point))
        point_out = tmp_path / "point_out.json"
        assert cli.main(["bound", "--config", str(point_path), "--format",
                         "json", "--out", str(point_out)]) == 0
        value = json.loads(point_out.read_text())["value"]
        assert abs(row["bound_value"] - value) <= 1e-10


# ---------------------------------------------------------------------------
# bridge_check
# ---------------------------------------------------------------------------


def test_bridge_related_pair_from_nested_solver():
    rng = np.random.default_rng(38)
    for _ in range(5):
        params = gaussian_params(rng, k_range=(2, 6))
        sol = solve_nested(params)
        a = related_aux(sol.q, params)
        related, gap = bridge_check(sol.q, a, params)
        assert related is True
        assert abs(gap) < 1e-10


def test_bridge_related_pair_from_arbitrary_overlap():
    # The identity behind the bound holds for any related pair, not just
    # consistency solutions, and for every supported field kind.
    rng = np.random.default_rng(39)
    for kind in ("zero", "gaussian", "point_mass", "discrete", "mixed"):
        for _ in range(5):
            params = random_params(rng, k_range=(2, 7), lam_floor=0.02,
                                   field_kind=kind)
            q = rng.uniform(0.05, 1.0, params.K)
            a = related_aux(q, params)
            related, gap = bridge_check(q, a, params)
            assert related is True
            assert gap >= -1e-10
            assert abs(gap) < 1e-10


def test_bridge_unrelated_pair_is_detected():
    rng = np.random.default_rng(40)
    params = gaussian_params(rng, K=3)
    q = rng.uniform(0.2, 0.9, 3)
    a = related_aux(q, params) * 1.5
    related, _ = bridge_check(q, a, params)
    assert related is False


def test_bridge_single_layer_trivially_related():
    params = make(1, (), (1.0,), (FieldSpec.gaussian(0.6),))
    related, gap = bridge_check(np.array([0.4]), np.zeros(0), params)
    assert related is True
    assert gap == 0.0


def test_bridge_validation():
    params = make(2, (1.0,), (0.5, 0.5))
    with pytest.raises(ValueError):
        bridge_check(np.array([0.0, 0.5]), np.array([1.0]), params)
    with pytest.raises(ValueError):
        bridge_check(np.array([0.5, 0.5]), np.array([-1.0]), params)
    with pytest.raises(ValueError):
        bridge_check(np.array([0.5, 1.2]), np.array([1.0]), params)
