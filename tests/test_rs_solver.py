"""Tests for the replica-symmetric layer: functional, consistency map, solvers, checks."""
import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dbmlab import ghquad, machine, rs_solver, sk_chain_bound
from dbmlab.ghquad import INV_COSH4, LOG_COSH, TANH_SQ
from dbmlab.machine import FieldSpec, ModelParams
from dbmlab.rs_solver import (
    SolverError,
    jacobian_at_zero,
    latala_guerra,
    rs_map,
    rs_pressure,
    solve_nested,
)

from helpers import field_specs, model_params, random_params
from oracles import (
    central_fd_gradient,
    central_fd_jacobian,
    damped_fixed_point,
    interaction_image,
    lg_root_grid_scan,
    rule_expect,
    trapezoid_inv_cosh4,
    trapezoid_log_cosh,
    trapezoid_tanh_sq,
)


def make(K, beta, lam, fields=()):
    return ModelParams(K=K, beta=tuple(beta), lam=tuple(lam), fields=tuple(fields))


def gaussian_params(rng, K=None, k_range=(2, 6), beta_range=(0.2, 1.5),
                    v_range=(0.05, 1.0)):
    """Random instance with strictly positive lambdas and Gaussian fields."""
    return random_params(rng, K=K, k_range=k_range, beta_range=beta_range,
                         lam_floor=0.02, field_kind="gaussian", v_range=v_range)


# ---------------------------------------------------------------------------
# rs_pressure
# ---------------------------------------------------------------------------


def test_pressure_at_zero_overlap_equals_annealed_for_zero_fields():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = random_params(rng, k_range=(1, 8))
        q = np.zeros(params.K)
        assert rs_pressure(q, params) == pytest.approx(
            machine.annealed_pressure(params), abs=1e-14)


def test_pressure_single_layer_ignores_overlap():
    params = make(1, (), (1.0,), (FieldSpec.gaussian(0.7),))
    want = math.log(2.0) + trapezoid_log_cosh(0.7)
    assert rs_pressure(np.array([0.0]), params) == pytest.approx(want, abs=1e-9)
    assert rs_pressure(np.array([0.3]), params) == rs_pressure(np.array([0.9]), params)


def test_pressure_two_layer_frozen_point():
    # q = (1, 1) makes the quadratic term vanish and each layer sees unit variance.
    params = make(2, (1.0,), (0.5, 0.5))
    got = rs_pressure(np.array([1.0, 1.0]), params)
    want = math.log(2.0) + trapezoid_log_cosh(1.0)
    assert got == pytest.approx(want, abs=1e-9)


def test_pressure_matches_handbuilt_formula_for_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(10):
        params = random_params(rng, k_range=(2, 6), field_kind="mixed")
        q = rng.uniform(0.0, 1.0, params.K)
        m = interaction_image(params, q)
        lam = np.asarray(params.lam)
        field_term = sum(
            lam[p] * ghquad.expect(LOG_COSH, m[p], params.fields[p])
            for p in range(params.K))
        one_minus = 1.0 - q
        quad = 0.0
        beta_sq = np.asarray(params.beta, dtype=float) ** 2
        for p in range(params.K - 1):
            quad += lam[p] * beta_sq[p] * lam[p + 1] * one_minus[p] * one_minus[p + 1]
        want = math.log(2.0) + field_term + quad
        assert rs_pressure(q, params) == pytest.approx(want, rel=1e-12)


def test_pressure_rejects_overlap_outside_unit_box():
    params = make(2, (1.0,), (0.5, 0.5))
    with pytest.raises(ValueError):
        rs_pressure(np.array([1.2, 0.0]), params)
    with pytest.raises(ValueError):
        rs_pressure(np.array([-0.1, 0.0]), params)
    with pytest.raises(ValueError):
        rs_pressure(np.array([0.5]), params)  # wrong length


# ---------------------------------------------------------------------------
# rs_map
# ---------------------------------------------------------------------------


def test_map_zero_overlap_zero_fields_is_zero():
    rng = np.random.default_rng(13)
    for _ in range(5):
        params = random_params(rng, k_range=(1, 6))
        assert np.all(rs_map(np.zeros(params.K), params) == 0.0)


def test_map_zero_overlap_gaussian_fields_gives_layer_variances():
    v = (0.3, 0.8, 0.5)
    params = make(3, (1.0, 0.7), (0.3, 0.4, 0.3),
                  tuple(FieldSpec.gaussian(x) for x in v))
    got = rs_map(np.zeros(3), params)
    want = [trapezoid_tanh_sq(x) for x in v]
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_map_depends_only_on_neighbouring_layers():
    # Tridiagonal interaction with zero diagonal: F_p sees only q_{p-1}, q_{p+1}.
    params = make(2, (1.0,), (0.5, 0.5))
    q_a = np.array([0.2, 0.6])
    q_b = np.array([0.9, 0.6])
    assert rs_map(q_a, params)[0] == rs_map(q_b, params)[0]
    assert rs_map(q_a, params)[1] != rs_map(q_b, params)[1]

    rng = np.random.default_rng(14)
    params = random_params(rng, K=5, field_kind="gaussian")
    q = rng.uniform(0.0, 1.0, 5)
    j = 2
    q2 = q.copy()
    q2[j] = rng.uniform(0.0, 1.0)
    f1, f2 = rs_map(q, params), rs_map(q2, params)
    for p in range(5):
        if p in (j - 1, j + 1):
            assert f1[p] != f2[p]
        else:
            assert f1[p] == f2[p]


def test_map_image_inside_unit_interval():
    rng = np.random.default_rng(15)
    for _ in range(10):
        params = random_params(rng, k_range=(2, 8), field_kind="mixed")
        q = rng.uniform(0.0, 1.0, params.K)
        f = rs_map(q, params)
        assert np.all(f >= 0.0) and np.all(f < 1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(params=model_params(), data=st.data())
def test_map_sends_unit_box_into_unit_box_property(params, data):
    q = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=params.K,
                                    max_size=params.K)))
    f = rs_map(q, params)
    assert f.shape == (params.K,)
    assert np.all(f >= 0.0) and np.all(f <= 1.0)


# ---------------------------------------------------------------------------
# jacobian_at_zero
# ---------------------------------------------------------------------------


def test_jacobian_at_zero_frozen_two_layer():
    params = make(2, (1.0,), (0.5, 0.5))
    np.testing.assert_allclose(jacobian_at_zero(params),
                               np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)


def test_jacobian_at_zero_matches_finite_differences():
    rng = np.random.default_rng(16)
    for _ in range(10):
        params = random_params(rng, k_range=(2, 6))
        jac = jacobian_at_zero(params)
        fd = central_fd_jacobian(lambda q: rs_map(q, params),
                                 np.full(params.K, 1e-8), 4e-9)
        np.testing.assert_allclose(fd, jac, atol=1e-5)


def test_jacobian_at_zero_rejects_nonzero_fields():
    params = make(2, (1.0,), (0.5, 0.5),
                  (FieldSpec.gaussian(0.5), FieldSpec.zero()))
    with pytest.raises(ValueError):
        jacobian_at_zero(params)


def test_jacobian_spectral_radius_agrees_with_region_verdict():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 50:
        params = random_params(rng, k_range=(2, 8), beta_range=(0.3, 1.4))
        verdict = machine.classify_annealed(params)
        if verdict.verdict == "boundary":
            continue
        rho = np.max(np.abs(np.linalg.eigvals(jacobian_at_zero(params))))
        assert (rho < 1.0) == (verdict.verdict == "inside")
        checked += 1


# ---------------------------------------------------------------------------
# latala_guerra
# ---------------------------------------------------------------------------


def test_scalar_solver_against_grid_scan_oracle():
    got = latala_guerra(1.0, 1.0, tol=1e-12)
    assert got == pytest.approx(lg_root_grid_scan(1.0, 1.0), abs=1e-6)


def test_scalar_solver_small_beta_limit():
    v = 0.6
    got = latala_guerra(1e-8, v, tol=1e-13)
    assert got == pytest.approx(trapezoid_tanh_sq(v), abs=1e-8)


def test_scalar_solver_monotone_in_beta_and_v():
    assert latala_guerra(1.0, 1.0, 1e-12) < latala_guerra(1.5, 1.0, 1e-12)
    assert latala_guerra(1.0, 0.5, 1e-12) < latala_guerra(1.0, 1.5, 1e-12)


def test_scalar_solver_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        latala_guerra(1.0, 0.0, 1e-12)
    with pytest.raises(ValueError):
        latala_guerra(1.0, -0.3, 1e-12)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -0.5, 1e154])
def test_scalar_solver_names_a_bad_beta(beta):
    # A NaN once passed the beta < 0 guard, and an infinite beta or one
    # whose 2 beta^2 overflows reached the kernel, whose message named the
    # variance s instead.
    with pytest.raises(ValueError, match="^beta must be nonnegative"):
        latala_guerra(beta, 0.5)


def test_scalar_solver_residual_and_range():
    rng = np.random.default_rng(18)
    cases = []
    for _ in range(20):
        beta = float(rng.uniform(0.05, 2.0))
        v = float(rng.uniform(0.02, 3.0))
        cases.append((beta, FieldSpec.gaussian(v),
                      latala_guerra(beta, v, tol=1e-12)))
    # Zero field beyond the critical line 2 beta^2 = 1: the roots are 0 and
    # one positive value, and the 1 x 1 Newton row with self-coupling
    # 2 beta^2, started at 1, must return the positive one.
    for beta in (0.75, 1.0, 1.5, 2.0):
        q, _, _, _, failure = rs_solver._newton(
            np.full((1, 1, 1), 2.0 * beta * beta),
            ghquad.FieldTable([FieldSpec.zero()]), 1e-12)
        assert failure == [None]
        cases.append((beta, FieldSpec.zero(), float(q[0, 0])))
    for beta, field, q in cases:
        assert 0.0 < q < 1.0
        resid = abs(q - ghquad.expect(TANH_SQ, 2.0 * q * beta * beta, field))
        assert resid < 1e-12


def _one_layer_rows(theta_sq, fields, tol):
    """``rs_solver._newton`` on one-layer equations ``x = E tanh^2(z sqrt(2
    theta^2 x) + h)``: ``1 x 1`` rows with self-coupling ``2 theta^2``."""
    return rs_solver._newton(2.0 * np.asarray(theta_sq)[:, None, None],
                             ghquad.FieldTable(fields), tol)


def _row(columns, i):
    """Row ``i`` of the ``rs_solver._newton`` columns ``(q, m, residual,
    stable, failure)``."""
    return tuple(column[i] for column in columns)


def _assert_same_row(got, want):
    """Two rows of ``rs_solver._newton`` columns agree: the same bits in
    ``q`` and ``m``, the same residual and test, and failures equal by
    type, text and ``last_q``."""
    *values, got_failure = got
    *wanted, want_failure = want
    for a, b in zip(values, wanted, strict=True):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    if want_failure is None:
        assert got_failure is None
    else:
        assert type(got_failure) is type(want_failure)
        assert str(got_failure) == str(want_failure)
        np.testing.assert_array_equal(got_failure.last_q, want_failure.last_q)


_ONE_LAYER_FIELDS = st.one_of(st.just(FieldSpec.zero()),
                              st.floats(0.0, 5.0).map(FieldSpec.gaussian))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(layers=st.lists(st.tuples(st.floats(0.0, 3.0), _ONE_LAYER_FIELDS),
                       min_size=1, max_size=8))
def test_lockstep_scalar_solver_matches_one_layer_solves_property(layers):
    # Each 1 x 1 row takes the steps of its own solve and stops by its own
    # rule, whatever the other rows in the call do.
    theta_sq = np.array([t for t, _ in layers])
    fields = [f for _, f in layers]
    columns = _one_layer_rows(theta_sq, fields, 1e-13)
    for p in range(len(layers)):
        alone = _one_layer_rows(theta_sq[p:p + 1], fields[p:p + 1], 1e-13)
        _assert_same_row(_row(columns, p), _row(alone, 0))


# A balanced K = 2 chain whose first Newton step leaves the monotone
# descent: its layer variance 1e6 is past the quadrature's range.
_GUARD_ROW = make(2, (1000.0,), (0.5, 0.5), (FieldSpec.gaussian(0.3),) * 2)


@st.composite
def newton_rows(draw):
    """``(M, fields)`` of one ``rs_solver._newton`` call: ``1 x 1``
    one-layer rows with self-coupling ``2 theta^2``, or K = 2 or K = 3
    chains with any mix of field kinds, among them, for K = 2, the chain
    that trips the guard."""
    K = draw(st.integers(1, 3))
    if K == 1:
        layers = draw(st.lists(st.tuples(st.floats(0.0, 3.0), field_specs()),
                               min_size=1, max_size=6))
        return (2.0 * np.array([t for t, _ in layers])[:, None, None],
                [f for _, f in layers])
    models = draw(st.lists(model_params(k_range=(K, K), zero_weights=False),
                           min_size=1, max_size=5))
    if K == 2:
        models.insert(draw(st.integers(0, len(models))), _GUARD_ROW)
    return (np.array([machine.build_matrices(params)[2] for params in models]),
            [f for params in models for f in params.fields])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=newton_rows())
def test_newton_columns_equal_each_row_solved_alone_property(rows):
    # Every row's columns are those of its own one-row call, its test is
    # the de Almeida--Thouless inequality at its q and m, and a failed row
    # holds its failure's last iterate and residual.
    M, fields = rows
    n, K = M.shape[:2]
    columns = rs_solver._newton(M, ghquad.FieldTable(fields), 1e-10)
    q, m, residual, stable, failure = columns
    assert q.shape == m.shape == (n, K)
    assert len(residual) == len(stable) == len(failure) == n
    for i in range(n):
        alone = rs_solver._newton(M[i:i + 1],
                                  ghquad.FieldTable(fields[i * K:(i + 1) * K]),
                                  1e-10)
        _assert_same_row(_row(columns, i), _row(alone, 0))
        if failure[i] is not None:
            assert q[i].tobytes() == failure[i].last_q.tobytes()
            assert residual[i] == failure[i].residual
    inv_cosh4 = ghquad.expect(INV_COSH4, m.ravel(), fields).reshape(n, K)
    assert stable == np.logical_and.reduce(m * inv_cosh4 <= q,
                                           axis=1).tolist()
    if K == 2:
        assert any("monotone descent" in str(error) for error in failure)


def test_lockstep_scalar_solver_makes_one_kernel_call_per_step(monkeypatch):
    theta_sq = np.array([0.3, 1.2, 0.4, 2.5, 0.05, 0.0])
    fields = [FieldSpec.gaussian(0.4), FieldSpec.zero(), FieldSpec.zero(),
              FieldSpec.gaussian(2.0), FieldSpec.gaussian(0.01),
              FieldSpec.gaussian(0.7)]
    expect = ghquad.expect
    calls = []

    def counting(f, s, fields):
        calls.append(np.size(s))
        return expect(f, s, fields)

    monkeypatch.setattr(ghquad, "expect", counting)
    _one_layer_rows(theta_sq, fields, 1e-13)
    stacked = list(calls)
    one_row = []
    for p in range(len(fields)):
        calls.clear()
        _one_layer_rows(theta_sq[p:p + 1], fields[p:p + 1], 1e-13)
        one_row.append(len(calls))
    assert min(one_row) >= 2 and len(set(one_row)) > 1
    assert len(stacked) == max(one_row)
    assert sum(stacked) == sum(one_row)


# ---------------------------------------------------------------------------
# the damped fixed-point oracle
# ---------------------------------------------------------------------------


def test_fixed_point_inside_region_zero_fields_converges_to_zero():
    params = make(2, (0.9,), (0.5, 0.5))
    sol = damped_fixed_point(params, q0=np.full(2, 0.5))
    assert sol.method == "fixed_point"
    assert sol.residual < 1e-10
    assert np.max(np.abs(sol.q)) < 1e-8
    assert sol.pressure == pytest.approx(machine.annealed_pressure(params), abs=1e-10)
    assert sol.certificates.stable_at_zero is True


def test_fixed_point_single_layer_gaussian():
    v = 0.4
    params = make(1, (), (1.0,), (FieldSpec.gaussian(v),))
    sol = damped_fixed_point(params, q0=np.array([0.5]))
    assert sol.q[0] == pytest.approx(trapezoid_tanh_sq(v), abs=1e-9)
    assert sol.residual < 1e-10


def test_fixed_point_nonconvergence_reports_last_iterate():
    params = make(2, (1.3,), (0.5, 0.5), tuple(FieldSpec.gaussian(0.5) for _ in range(2)))
    with pytest.raises(SolverError) as info:
        damped_fixed_point(params, q0=np.full(2, 0.5), tol=1e-16, max_iter=3)
    err = info.value
    assert err.last_q.shape == (2,)
    assert np.isfinite(err.residual)


def test_fixed_point_rejects_zero_lambda_layers():
    params = make(3, (1.0, 1.0), (0.5, 0.5, 0.0))
    with pytest.raises(ValueError, match="prune"):
        damped_fixed_point(params, q0=np.full(3, 0.5))


def test_fixed_point_residual_definition_and_solution_fields():
    rng = np.random.default_rng(19)
    params = gaussian_params(rng, K=3)
    sol = damped_fixed_point(params, q0=np.full(3, 0.5))
    resid = np.max(np.abs(sol.q - rs_map(sol.q, params)))
    assert sol.residual == pytest.approx(resid, abs=1e-15)
    assert sol.pressure == pytest.approx(rs_pressure(sol.q, params), abs=1e-14)


# ---------------------------------------------------------------------------
# solve_nested
# ---------------------------------------------------------------------------


def test_nested_single_layer():
    v = 0.9
    params = make(1, (), (1.0,), (FieldSpec.gaussian(v),))
    sol = solve_nested(params)
    assert sol.method == "nested"
    assert sol.q[0] == pytest.approx(trapezoid_tanh_sq(v), abs=1e-9)
    assert sol.residual < 1e-12


def test_nested_single_layer_solves_in_one_kernel_call(monkeypatch):
    # One layer has no interaction, so Mq = 0: q is the first row of one
    # TANH_MOMENTS call at variance 0, which is TANH_SQ's row bit for bit,
    # and the residual is exactly 0.  The pressure makes the other call.
    kernels = []
    real = ghquad.expect

    def counted(f, *args, **kwargs):
        kernels.append(f)
        return real(f, *args, **kwargs)
    for field in (FieldSpec.gaussian(0.3), FieldSpec.gaussian(40.0),
                  FieldSpec.point_mass(0.7),
                  FieldSpec.discrete((-1.0, 0.5, 2.0), (0.2, 0.5, 0.3))):
        want = real(TANH_SQ, np.zeros(1), (field,))
        kernels.clear()
        monkeypatch.setattr(ghquad, "expect", counted)
        sol = solve_nested(make(1, (), (1.0,), (field,)))
        monkeypatch.setattr(ghquad, "expect", real)
        assert kernels == [ghquad.TANH_MOMENTS, LOG_COSH]
        assert sol.q.tobytes() == want.tobytes() and sol.residual == 0.0
    # Zero fields sit at the witness, q = 0, with no kernel call.
    monkeypatch.setattr(ghquad, "expect", counted)
    kernels.clear()
    sol = solve_nested(make(1, (), (1.0,)))
    assert kernels == [] and sol.q.tolist() == [0.0] and sol.residual == 0.0


def test_nested_two_layer_symmetric_matches_scalar_reduction():
    params = make(2, (1.0,), (0.5, 0.5),
                  (FieldSpec.gaussian(1.0), FieldSpec.gaussian(1.0)))
    sol = solve_nested(params)
    assert sol.q[0] == pytest.approx(sol.q[1], abs=1e-10)
    # Symmetric reduction: q solves q = E tanh^2(z sqrt(q + 1)) by bisection.
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if trapezoid_tanh_sq(mid + 1.0) > mid:
            lo = mid
        else:
            hi = mid
    assert sol.q[0] == pytest.approx(0.5 * (lo + hi), abs=1e-7)
    fp = damped_fixed_point(params, q0=np.full(2, 0.5))
    np.testing.assert_allclose(sol.q, fp.q, atol=1e-8)


def test_nested_agrees_with_multistart_fixed_point():
    rng = np.random.default_rng(20)
    for _ in range(10):
        params = gaussian_params(rng)
        sol = solve_nested(params)
        assert sol.residual < 1e-8
        for _ in range(4):
            q0 = rng.uniform(0.0, 1.0, params.K)
            fp = damped_fixed_point(params, q0=q0, tol=1e-12, max_iter=100_000)
            np.testing.assert_allclose(sol.q, fp.q, atol=1e-7)


def test_nested_solution_is_stationary_point_of_pressure():
    rng = np.random.default_rng(21)
    for _ in range(5):
        params = gaussian_params(rng, k_range=(2, 5))
        sol = solve_nested(params)
        grad = central_fd_gradient(lambda q: rs_pressure(q, params), sol.q, 1e-5)
        assert np.max(np.abs(grad)) < 1e-4


def test_nested_takes_every_field_kind():
    # Centred fields (zero, zero-variance) take the monotone path from
    # q = 1, the others the safeguarded one from q = 1/2.
    for fields in ((), (FieldSpec.gaussian(0.0), FieldSpec.gaussian(1.0)),
                   (FieldSpec.point_mass(0.3), FieldSpec.point_mass(0.3)),
                   (FieldSpec.discrete((-0.5, 1.0), (0.25, 0.75)),
                    FieldSpec.zero())):
        params = make(2, (1.0,), (0.5, 0.5), fields)
        sol = solve_nested(params)
        assert sol.method == "nested" and sol.residual <= 1e-10
        assert np.max(np.abs(sol.q - rs_map(sol.q, params))) == sol.residual


def test_nested_reaches_the_largest_solution_with_zero_variance_fields():
    # With a zero field on some layer the consistency equations can have
    # several solutions (q = 0 solves them for zero fields); Newton from
    # q = 1 must land on the largest, where the undamped iteration from
    # q = 1 also ends.  Near rho = 1 that iteration is too slow to compare.
    rng = np.random.default_rng(28)
    checked = 0
    while checked < 12:
        params = random_params(rng, k_range=(2, 8), beta_range=(0.3, 2.0),
                               lam_floor=0.02)
        variances = rng.choice([0.0, 0.0, 0.3], size=params.K)
        params = make(params.K, params.beta, params.lam,
                      tuple(FieldSpec.gaussian(v) for v in variances))
        if abs(machine.spectral_radius(params) - 1.0) < 0.2:
            continue
        checked += 1
        sol = solve_nested(params)
        assert sol.residual <= 1e-10
        fp = damped_fixed_point(params, q0=np.ones(params.K), damping=1.0,
                                tol=1e-13, max_iter=100_000)
        np.testing.assert_allclose(sol.q, fp.q, rtol=0.0, atol=1e-9)


def test_nested_rejects_zero_lambda_layers():
    params = make(3, (1.0, 1.0), (0.5, 0.0, 0.5),
                  tuple(FieldSpec.gaussian(0.5) for _ in range(3)))
    with pytest.raises(ValueError, match="prune"):
        solve_nested(params)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, 1.0])
def test_solvers_reject_a_tolerance_that_is_not_positive(tol):
    # A NaN tolerance once ran every solve to its step limit and failed
    # with "residual 0.000e+00 > tol=nan".  The residual never exceeds 1,
    # so from tol = 1 every point of the unit box met the stopping rule,
    # and from tol = 100 the start q = 1 came back as the solution.
    params = make(2, (0.7,), (0.5, 0.5),
                  (FieldSpec.gaussian(0.5), FieldSpec.gaussian(0.5)))
    for solve in (lambda: solve_nested(params, tol),
                  lambda: sk_chain_bound.maximize_bound(params, tol),
                  lambda: latala_guerra(0.7, 0.5, tol)):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve()


def test_nested_overlaps_are_strictly_positive():
    rng = np.random.default_rng(22)
    for _ in range(5):
        params = gaussian_params(rng, k_range=(2, 6), beta_range=(0.05, 0.3))
        sol = solve_nested(params)
        assert np.all(sol.q > 0.0)


# A K=12 all-Gaussian chain on which the former scalar shooting solver
# failed: its bisection bracket shrank to two adjacent doubles with one end
# still infinite.
_COLLAPSING_CHAIN = {
    "K": 12,
    "beta": [0.6845458261465869, 0.5439850085468507, 0.8678781290060247,
             0.6337024407641715, 0.2912591807217949, 1.1967734432783101,
             0.5999217069971979, 0.7355932669321763, 0.8114245107717102,
             0.48422142112691363, 1.0397915921198755],
    "lambda": [0.06821240889418836, 0.06290201313724363, 0.05774089261807735,
               0.1515621299478433, 0.04460836872945795, 0.08425238310694158,
               0.10946199578231725, 0.10479244292356482, 0.09201874632179341,
               0.05888108432872921, 0.09308971415515907, 0.07247782005468408],
    "fields": [{"kind": "gaussian_centered", "v": v} for v in (
        0.481162642101288, 0.9585374114820423, 0.1783859250268458,
        0.9534454991062596, 0.9444077243790596, 0.6981288607712508,
        0.3949261031550421, 0.4526733455911364, 0.057109603199373346,
        0.34981319893791885, 0.8787134880852336, 0.7816623248241595)],
}


def test_nested_solves_the_collapsing_chain():
    params = ModelParams.from_dict(_COLLAPSING_CHAIN)
    sol = solve_nested(params)
    assert sol.residual <= 1e-12
    fp = damped_fixed_point(params, q0=np.ones(params.K), damping=1.0,
                            tol=1e-14, max_iter=100_000)
    np.testing.assert_allclose(sol.q, fp.q, rtol=0.0, atol=1e-12)


def _newton_iterates(params, count):
    """The first ``count`` ``(q, res)`` Newton iterates of one model's
    nested solve, recorded from its ``rs_solver._evaluate`` calls.  A
    damped step is evaluated right after the Newton step that it replaces,
    so it takes that step's place."""
    iterates = []
    evaluate = rs_solver._evaluate

    def record(M, fields, q):
        state = evaluate(M, fields, q)
        q, g, res = state[0][0].copy(), state[3][0].copy(), state[4][0]
        if len(iterates) >= 2:
            (prev, prev_g, prev_res), (_, _, newton_res) = iterates[-2:]
            if newton_res >= prev_res and np.array_equal(q, prev - 0.5 * prev_g):
                iterates.pop()
        iterates.append((q, g, res))
        return state

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rs_solver, "_evaluate", record)
        with contextlib.suppress(SolverError):
            solve_nested(params, 1e-10)
    return [(q, res) for q, _, res in iterates[:count]]


@st.composite
def gaussian_chains(draw, k_range=(2, 16)):
    """Chains with centred Gaussian fields and positive weights on every layer."""
    K = draw(st.integers(*k_range))
    beta = draw(st.lists(st.floats(0.05, 2.0), min_size=K - 1, max_size=K - 1))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=K, max_size=K))
    v = draw(st.lists(st.floats(0.01, 2.0), min_size=K, max_size=K))
    total = sum(weights)
    return ModelParams(K=K, beta=tuple(beta),
                       lam=tuple(w / total for w in weights),
                       fields=tuple(FieldSpec.gaussian(x) for x in v))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=gaussian_chains())
def test_nested_newton_is_monotone_and_matches_fixed_point_property(params):
    tol = 1e-10
    sol = solve_nested(params, tol)
    assert sol.residual <= tol
    assert np.max(np.abs(sol.q - rs_map(sol.q, params))) == sol.residual
    # While the guard is on, every Newton iterate lies in the unit box and
    # no coordinate grows beyond rounding.
    iterates = _newton_iterates(params, 8)
    assert len(iterates) >= 2
    for (q, res), (nxt, _) in zip(iterates, iterates[1:]):
        if res <= rs_solver._GUARD_RESIDUAL:
            break
        assert np.all(nxt >= 0.0) and np.all(nxt <= 1.0)
        assert np.all(nxt <= q + rs_solver._GUARD_SLACK)
    fp = damped_fixed_point(params, q0=np.ones(params.K), damping=1.0,
                            tol=1e-13, max_iter=100_000)
    np.testing.assert_allclose(sol.q, fp.q, rtol=0.0, atol=1e-9)


def _coarse_expect(monkeypatch, nodes):
    """Stand a ``nodes``-point trapezoid rule in for ``ghquad.expect``."""
    rule = ghquad.normal_trapezoid_rule(nodes)
    monkeypatch.setattr(ghquad, "expect",
                        lambda f, s, fields: rule_expect(f, s, fields, rule))


def test_nested_takes_the_damped_step_where_newton_does_not_lower_the_residual(
        monkeypatch):
    # No measured non-centred chain rejected a Newton step under the
    # package's rules.  A 9-node rule bends the layer maps away from the
    # slopes that integration by parts gives, so Newton steps from q = 1/2
    # can raise the residual; each such step must give way to the damped one.
    _coarse_expect(monkeypatch, 9)
    params = make(2, (2.0,), (0.5, 0.5),
                  (FieldSpec.point_mass(1.0), FieldSpec.zero()))
    iterates = _newton_iterates(params, 12)
    damped = 0
    for (q, res), (nxt, nxt_res) in zip(iterates, iterates[1:]):
        assert np.all(nxt >= 0.0) and np.all(nxt <= 1.0)
        if np.array_equal(nxt, q - 0.5 * (q - rs_map(q, params))):
            damped += 1
        else:
            assert nxt_res < res
    assert damped > 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=model_params(k_range=(2, 6), zero_weights=False).filter(
    lambda p: not all(f.is_centred for f in p.fields)))
def test_nested_matches_fixed_point_from_both_starts_on_non_centred_chains_property(
        params):
    # Without centred fields the monotone theory is gone, so Newton could
    # land on another fixed point than the damped iteration; it must not,
    # from either of that iteration's starts.
    tol = 1e-10
    sol = solve_nested(params, tol)
    assert sol.residual <= tol
    for start in (0.5, 1.0):
        fp = damped_fixed_point(params, q0=np.full(params.K, start), tol=tol)
        np.testing.assert_allclose(sol.q, fp.q, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("excess", [1e-6, 1e-7])
def test_nested_lands_on_the_root_just_past_a_critical_line(excess):
    # Just past the critical coupling G is nearly singular at the small
    # root, so residuals near 1e-12 occur far from it.  The bound's scalar
    # surrogate overlaps at the related weights equal the root.
    lam = (0.3, 0.4, 0.3)
    unit = machine.spectral_radius(make(3, (1.0, 1.0), lam))
    beta = (1.0 + excess) / math.sqrt(unit)
    params = make(3, (beta, beta), lam)
    sol = solve_nested(params)
    assert sol.residual <= 1e-10
    overlaps = sk_chain_bound.maximize_bound(params, 1e-10).overlaps
    np.testing.assert_allclose(sol.q, overlaps, rtol=1e-4, atol=0.0)


@pytest.mark.parametrize("beta", [1.0, 1.0 + 2.0**-52])
def test_nested_stops_within_twice_tol_of_a_double_root(beta):
    # At rho = 1 (and 4.4e-16 past it) q - F(q) = 2 q^2 + O(q^3), so the
    # root 0 (2.2e-16) is double and Newton halves the distance each step:
    # a step at most tol leaves q at most 2 tol from the root.
    sol = solve_nested(make(2, (beta,), (0.5, 0.5)), 1e-10)
    assert np.all(np.abs(sol.q) <= 2e-10)


def test_nested_keeps_its_bits_just_past_a_double_root():
    # At beta^2 = 1 + 1e-8 the root, about 5.0e-9, is simple but nearly
    # double, and Newton stops 7.4e-11 above it, within tol.
    sol = solve_nested(make(2, (math.sqrt(1.0 + 1e-8),), (0.5, 0.5)), 1e-10)
    assert sol.q.tolist() == [5.074301306590723e-09] * 2


@pytest.mark.parametrize("nodes", [3, 5, 9])
def test_nested_guard_trips_on_the_first_step_of_coarse_rules(monkeypatch, nodes):
    # So few trapezoid nodes make T non-concave, and the first Newton step
    # from q = 1 already overshoots the unit box or climbs.
    params = make(2, (0.6,), (0.5, 0.5),
                  (FieldSpec.gaussian(0.5), FieldSpec.gaussian(0.3)))
    _coarse_expect(monkeypatch, nodes)
    with pytest.raises(SolverError, match="left the monotone descent") as info:
        solve_nested(params)
    assert info.value.iterations == 1
    np.testing.assert_array_equal(info.value.last_q, np.ones(2))


def test_nested_guard_trips_past_the_accurate_variance():
    # At beta = 1000 the layer variance reaches about 1e6, past the range of
    # the finest rule, and the guard reports the variance against that range.
    params = make(2, (1000.0,), (0.5, 0.5),
                  (FieldSpec.gaussian(0.5), FieldSpec.gaussian(0.3)))
    with pytest.raises(SolverError, match="left the monotone descent") as info:
        solve_nested(params)
    message = str(info.value)
    assert f"accurate for s + v <= {ghquad.ACCURATE_VARIANCE:g}" in message
    assert "s + v <= 25" not in message


def test_nested_solve_never_evaluates_the_kernel_at_zero_variance(monkeypatch):
    expect = ghquad.expect
    zero_variance = []

    def recording(f, s, fields):
        layers = [fields] if isinstance(fields, FieldSpec) else fields
        for s_p, field in zip(np.reshape(s, -1), layers, strict=True):
            if s_p == 0.0 and field.is_zero:
                zero_variance.append(field)
        return expect(f, s, fields)

    monkeypatch.setattr(ghquad, "expect", recording)
    rng = np.random.default_rng(27)
    for beta_range in ((0.2, 1.5), (5.0, 30.0)):
        for _ in range(4):
            sol = solve_nested(gaussian_params(rng, k_range=(2, 6),
                                               beta_range=beta_range))
            assert sol.residual < 1e-10
    assert zero_variance == []


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=model_params(k_range=(2, 6), zero_weights=False, beta_max=30.0))
def test_nested_matches_the_damped_iteration_at_large_beta_property(params):
    # Past s + v = 25 the kernel refines its rule, and the solver must still
    # land where the damped iteration does: from q = 1 undamped for centred
    # fields (the largest solution), from q = 1/2 otherwise.
    tol = 1e-10
    sol = solve_nested(params, tol)
    assert sol.residual <= tol
    if all(f.is_centred for f in params.fields):
        fp = damped_fixed_point(params, q0=np.ones(params.K), damping=1.0,
                                tol=1e-13, max_iter=100_000)
    else:
        fp = damped_fixed_point(params, tol=1e-13, max_iter=100_000)
    np.testing.assert_allclose(sol.q, fp.q, rtol=0.0, atol=1e-7)


# ---------------------------------------------------------------------------
# certificates against their defining inequalities
# ---------------------------------------------------------------------------


def talagrand_oracle(params, q):
    """The high-temperature verdict from ``(Mq)_p < q_p / 4``: False when a
    layer with ``q_p > 0`` fails it, else None when some ``q_p = 0``, else
    True; a single layer has no interaction and passes."""
    if params.K == 1:
        return True
    m = interaction_image(params, q)
    if any(q_p > 0.0 and not m_p < 0.25 * q_p for m_p, q_p in zip(m, q)):
        return False
    return None if np.any(q == 0.0) else True


def at_oracle(params, q):
    """``all`` of ``m_p E cosh^-4(z sqrt(m_p) + h_p) <= q_p`` with ``m =
    Mq``, or None unless every layer has positive field variance."""
    if not all(f.v > 0.0 for f in params.fields):
        return None
    m = interaction_image(params, q)
    return all(m_p * trapezoid_inv_cosh4(m_p, field) <= q_p
               for m_p, q_p, field in zip(m, q, params.fields))


def test_talagrand_single_layer_is_vacuous():
    # One layer has no interaction, so it passes whatever its overlap.
    sol = solve_nested(make(1, (), (1.0,), (FieldSpec.gaussian(0.5),)))
    assert sol.q[0] > 0.0
    assert sol.certificates.talagrand_ok is True
    sol = solve_nested(make(1, (), (1.0,)))
    np.testing.assert_array_equal(sol.q, [0.0])
    assert sol.certificates.talagrand_ok is True


def test_talagrand_zero_overlap_indeterminate_without_witness():
    # beta^2 underflows to 0, so M = 0 and a zero-field layer solves at
    # q_p = 0, which leaves the high-temperature test open.
    params = make(2, (1e-200,), (0.5, 0.5))
    assert np.all(machine.build_matrices(params)[2] == 0.0)
    sol = solve_nested(params)
    np.testing.assert_array_equal(sol.q, [0.0, 0.0])
    assert sol.certificates.talagrand_ok is talagrand_oracle(params, sol.q)
    assert sol.certificates.talagrand_ok is None
    params = make(3, (1e-200, 1e-200), (0.3, 0.4, 0.3),
                  (FieldSpec.gaussian(1.0), FieldSpec.zero(),
                   FieldSpec.gaussian(0.2)))
    sol = solve_nested(params)
    assert sol.q[1] == 0.0 and sol.q[0] > 0.0 and sol.q[2] > 0.0
    assert sol.certificates.talagrand_ok is None


@st.composite
def inside_zero_field_chains(draw):
    """Zero-field chains, K 2-8, beta uniform in [0.2, 1.3] and Dirichlet
    weights, strictly inside the annealed region with a witness."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = int(rng.integers(2, 9))
    params = make(K, rng.uniform(0.2, 1.3, K - 1).tolist(),
                  rng.dirichlet(np.ones(K)).tolist())
    verdict = machine.classify_annealed(params)
    assume(verdict.verdict == "inside" and verdict.feasible_a is not None)
    return params


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=inside_zero_field_chains())
def test_zero_fields_inside_the_region_take_q_zero_unsolved_property(params):
    # With zero fields and rho < 1, q = 0 is the only consistency solution:
    # rs and the bound both take it as it is, with the annealed pressure
    # bit for bit, and neither makes a Newton step or a kernel call.
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((rs_solver, "_newton"), (ghquad, "expect")):
            real = getattr(module, name)
            patch.setattr(module, name, lambda *args, _real=real, _name=name:
                          calls.append(_name) or _real(*args))
        sol = solve_nested(params)
        bound = sk_chain_bound.maximize_bound(params)
    assert calls == []
    assert sol.q.tolist() == [0.0] * params.K and sol.residual == 0.0
    assert sol.pressure == machine.annealed_pressure(params)
    assert sol.certificates.to_dict() == {
        "talagrand_ok": None, "at_ok": None, "stable_at_zero": True}
    assert (np.float64(bound.value).tobytes()
            == np.float64(sol.pressure).tobytes())
    assert bound.overlaps.tobytes() == sol.q.tobytes()
    assert bound.certified is True


def test_zero_fields_on_the_region_boundary_take_newton(monkeypatch):
    # K = 2, lam = (1/2, 1/2), beta = 1 has rho = 1: the verdict is
    # boundary, there is no witness, and Newton solves the point.
    params = make(2, (1.0,), (0.5, 0.5))
    assert machine.classify_annealed(params).verdict == "boundary"
    calls = []
    newton = rs_solver._newton
    monkeypatch.setattr(rs_solver, "_newton",
                        lambda *args: calls.append(1) or newton(*args))
    solve_nested(params)
    sk_chain_bound.maximize_bound(params)
    assert len(calls) == 2


def test_talagrand_positive_overlap_uses_interaction_form():
    rng = np.random.default_rng(23)
    verdicts = set()
    for _ in range(12):
        params = gaussian_params(rng, k_range=(2, 5))
        sol = solve_nested(params)
        assert np.all(sol.q > 0.0)
        want = talagrand_oracle(params, sol.q)
        assert sol.certificates.talagrand_ok is want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_at_condition_zero_interaction_is_true():
    # With M = 0 every layer decouples, and m = 0 passes the test.
    params = make(2, (1e-200,), (0.5, 0.5),
                  (FieldSpec.gaussian(1.0), FieldSpec.gaussian(1.0)))
    sol = solve_nested(params)
    assert sol.certificates.at_ok is True
    assert sol.certificates.talagrand_ok is True
    sol = solve_nested(make(1, (), (1.0,), (FieldSpec.gaussian(1.0),)))
    assert sol.certificates.at_ok is True


def test_at_condition_small_beta_instance_all_true():
    params = make(2, (0.3,), (0.5, 0.5),
                  (FieldSpec.gaussian(1.0), FieldSpec.gaussian(1.0)))
    sol = solve_nested(params)
    assert at_oracle(params, sol.q) is True
    assert sol.certificates.at_ok is True


def test_at_condition_matches_direct_quadrature_evaluation():
    rng = np.random.default_rng(24)
    models = [gaussian_params(rng, k_range=(2, 5)) for _ in range(5)]
    # Over a weak field, m E cosh^-4 / q is 0.985 at beta = 1.3 and 1.013
    # at beta = 1.35, on either side of the stability line.
    models += [make(2, (beta,), (0.5, 0.5),
                    (FieldSpec.gaussian(0.05), FieldSpec.gaussian(0.05)))
               for beta in (1.3, 1.35)]
    verdicts = set()
    for params in models:
        sol = solve_nested(params)
        want = at_oracle(params, sol.q)
        assert sol.certificates.at_ok is want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_at_condition_is_none_without_gaussian_fields():
    # The test needs positive field variance on every layer.
    for fields in [(),
                   (FieldSpec.point_mass(0.3), FieldSpec.point_mass(-0.2)),
                   (FieldSpec.gaussian(0.5),
                    FieldSpec.discrete([-1.0, 1.0], [0.5, 0.5])),
                   (FieldSpec.gaussian(0.5), FieldSpec.zero())]:
        sol = solve_nested(make(2, (0.7,), (0.5, 0.5), fields))
        assert sol.certificates.at_ok is None
    sol = solve_nested(make(1, (), (1.0,)))
    assert sol.certificates.at_ok is None


# ---------------------------------------------------------------------------
# certificates and serialization
# ---------------------------------------------------------------------------


def test_certificates_small_beta_gaussian_instance():
    params = make(3, (0.2, 0.2), (1 / 3, 1 / 3, 1 / 3),
                  tuple(FieldSpec.gaussian(0.5) for _ in range(3)))
    sol = solve_nested(params)
    assert sol.certificates.talagrand_ok is True
    assert sol.certificates.at_ok is True
    assert sol.certificates.stable_at_zero is True


def test_solution_serializes_to_json():
    rng = np.random.default_rng(25)
    params = gaussian_params(rng, K=3)
    sol = solve_nested(params)
    data = json.loads(json.dumps(sol.to_dict()))
    assert data["q"] == sol.q.tolist()
    assert data["pressure"] == sol.pressure
    assert data["residual"] == sol.residual
    assert data["method"] == sol.method
    assert set(data) == {"q", "pressure", "residual", "method", "certificates"}
    assert data["certificates"] == {
        "talagrand_ok": sol.certificates.talagrand_ok,
        "at_ok": sol.certificates.at_ok,
        "stable_at_zero": sol.certificates.stable_at_zero}


def test_solvers_are_deterministic():
    rng = np.random.default_rng(26)
    params = gaussian_params(rng, K=4)
    s1 = solve_nested(params)
    s2 = solve_nested(params)
    np.testing.assert_array_equal(s1.q, s2.q)
    assert s1.pressure == s2.pressure and s1.residual == s2.residual
    f1 = damped_fixed_point(params, q0=np.full(4, 0.5))
    f2 = damped_fixed_point(params, q0=np.full(4, 0.5))
    np.testing.assert_array_equal(f1.q, f2.q)
