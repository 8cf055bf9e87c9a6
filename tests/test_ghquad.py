import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbmlab import ghquad
from dbmlab.ghquad import INV_COSH4, LOG_COSH, TANH_MOMENTS, TANH_SQ
from dbmlab.machine import FieldSpec

from helpers import field_specs
from oracles import (folded_rule, gauss_hermite_rule, mc_gauss_expect,
                     rule_expect, tanh_sq_slope, trapezoid_gauss_expect)


# ---------------------------------------------------------------------------
# quadrature rule
# ---------------------------------------------------------------------------


def test_rule_weights_normalized():
    for order in (1, 7, 61, 122):
        rule = gauss_hermite_rule(order)
        assert rule.nodes.size == order
        assert abs(rule.weights.sum() - 1.0) < 1e-13
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-12)
    rules = [ghquad.normal_trapezoid_rule(order)
             for order in (1, 2, 61, 181, 361, 722, 23041)]
    rules += [ghquad._coarse_rule()]
    rules += [ghquad._refined_rule(doublings) for doublings in range(7)]
    for rule in rules:
        assert rule.nodes.size == rule.order
        assert abs(rule.weights.sum() - 1.0) < 1e-13
        assert np.all(rule.weights > 0.0)
        # The exact sum is at most one, so no atom at the largest float
        # overflows, and short of it by at most the step of the middle
        # weight, or of the middle pair for even orders: 6.9e-18 for the
        # 181-node rule, 3.5e-18 for the 361-node one.
        deficit = 1 - sum(map(Fraction, rule.weights.tolist()))
        assert 0 <= deficit <= 2 * np.spacing(rule.weights.max())
        assert deficit <= 7e-18
        # Exactly symmetric, which the fold of centred atoms rests on, and
        # each node within an ulp of the half-width of the equispaced one.
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        if rule.order % 2:
            assert rule.nodes[rule.order // 2] == 0.0
        if rule.order > 1:
            equispaced = np.linspace(-9.3, 9.3, rule.order)
            assert np.all(np.abs(rule.nodes - equispaced) <= np.spacing(9.3))


def test_folded_rule_is_the_non_negative_half():
    for order in (1, 2, 61, 361, 722, 23041):
        rule = ghquad.normal_trapezoid_rule(order)
        nodes, weights = rule.folded
        assert nodes.size == weights.size == order - order // 2
        assert np.all(nodes >= 0.0)
        if order % 2:
            assert nodes[0] == 0.0
        # Node 0 keeps its weight, every other weight doubles.
        expected_nodes, expected_weights = folded_rule(rule)
        assert np.array_equal(nodes, expected_nodes)
        assert np.array_equal(weights, expected_weights)
        assert math.fsum(weights) == math.fsum(rule.weights)
        assert rule.folded is rule.folded


def test_rules_match_gaussian_moments():
    for rule in (gauss_hermite_rule(61), ghquad.default_rule()):
        assert np.sum(rule.weights * rule.nodes) == pytest.approx(0.0, abs=1e-13)
        assert np.sum(rule.weights * rule.nodes**2) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(rule.weights * rule.nodes**4) == pytest.approx(3.0, abs=1e-11)


def test_rule_rejects_bad_order():
    with pytest.raises(ValueError):
        ghquad.normal_trapezoid_rule(0)


# ---------------------------------------------------------------------------
# stable log cosh
# ---------------------------------------------------------------------------


def test_logcosh_at_zero():
    assert ghquad.logcosh(0.0) == 0.0
    assert ghquad.logcosh(np.zeros(3)).tolist() == [0.0] * 3


def test_logcosh_matches_naive_form_in_safe_range():
    y = np.linspace(-20.0, 20.0, 1001)
    np.testing.assert_allclose(ghquad.logcosh(y), np.log(np.cosh(y)), atol=1e-12)


def test_logcosh_accurate_near_zero():
    # log cosh y = y^2/2 - y^4/12 + y^6/45 - ...; subtracting a rounded
    # log 2 left errors near 1e-16 here, where the values are far smaller.
    for y in (1e-300, 1e-150, 1e-8, 1e-5, 1e-3, 1e-2):
        series = y * y / 2 - y**4 / 12 + y**6 / 45 - 17 * y**8 / 2520
        assert abs(ghquad.logcosh(y) - series) <= 4 * np.spacing(y)
        assert ghquad.logcosh(-y) == ghquad.logcosh(y)


def test_logcosh_stable_for_large_arguments():
    for y in (50.0, -50.0, 800.0, -800.0):
        assert ghquad.logcosh(y) == pytest.approx(abs(y) - math.log(2.0), rel=1e-15)


def test_logcosh_keeps_its_bits_and_raises_no_warning_near_the_largest_float():
    # expm1(-2|y|) is -1 from |y| = 19 on, so taking it at min(|y|, 400)
    # keeps the bits of the plain formula, whose -2|y| overflows past 9e307.
    big = np.finfo(float).max
    y = np.array([0.0, -0.0, 1e-300, 0.3, -20.0, 18.0, 19.0, 372.0, 373.0,
                  399.5, 400.0, 400.5, 1e5, 8.9e307, 9e307, 1e308, -1e308,
                  big, -big, np.inf, -np.inf, np.nan])
    with np.errstate(over="ignore"):
        a = np.abs(y)
        plain = a + np.log1p(0.5 * np.expm1(-2.0 * a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ghquad.logcosh(y).tobytes() == plain.tobytes()
        for value, expected in zip(y.tolist(), plain.tolist()):
            assert np.float64(ghquad.logcosh(value)).tobytes() == (
                np.float64(expected).tobytes())


def test_kernels_are_even_bit_for_bit():
    # expect folds the integrand of an atom at 0 onto the rule's
    # non-negative nodes, which is exact only for even kernels.
    big = np.finfo(float).max
    y = np.concatenate((np.linspace(0.0, 40.0, 4001),
                        np.geomspace(1e-300, 1e308, 2001),
                        [373.0, 400.0, 1e308, big, np.inf]))
    y = np.concatenate((-y[::-1], y))
    assert {0.0, 373.0, 400.0, 1e308, np.inf} <= set(np.abs(y).tolist())
    assert np.signbit(y[y == 0.0]).tolist() == [True, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (TANH_SQ, LOG_COSH, INV_COSH4, TANH_MOMENTS):
            assert kernel(-y).tobytes() == kernel(y).tobytes()


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def test_expect_zero_variance_point_mass():
    for h0 in (0.0, 0.7, -1.3):
        val = ghquad.expect(TANH_SQ, 0.0, FieldSpec.point_mass(h0))
        assert val == pytest.approx(math.tanh(h0) ** 2, abs=1e-15)


def test_expect_logcosh_degenerate_zero():
    assert ghquad.expect(LOG_COSH, 0.0, FieldSpec.zero()) == pytest.approx(0.0, abs=1e-15)


def test_expect_tanh_sq_standard_gaussian_against_oracles():
    val = ghquad.expect(TANH_SQ, 1.0, FieldSpec.zero())
    mc, se = mc_gauss_expect(lambda y: np.tanh(y) ** 2, 1.0, n=10_000_000, seed=101)
    assert abs(val - mc) < 3.0 * se
    trap = trapezoid_gauss_expect(lambda y: np.tanh(y) ** 2, 1.0)
    assert val == pytest.approx(trap, abs=1e-6)


def test_expect_log_cosh_against_trapezoid():
    for s, h in [(0.5, 0.0), (2.0, 0.4), (4.0, -1.0)]:
        val = ghquad.expect(LOG_COSH, s, FieldSpec.point_mass(h))
        trap = trapezoid_gauss_expect(
            lambda y: np.abs(y) + np.log1p(np.exp(-2.0 * np.abs(y))) - math.log(2.0),
            math.sqrt(s),
            h,
        )
        assert val == pytest.approx(trap, abs=1e-6)


def test_expect_gaussian_field_folds_variance():
    a = ghquad.expect(TANH_SQ, 0.5, FieldSpec.gaussian(0.3))
    b = ghquad.expect(TANH_SQ, 0.8, FieldSpec.zero())
    assert a == pytest.approx(b, abs=1e-12)
    trap = trapezoid_gauss_expect(lambda y: np.tanh(y) ** 2, math.sqrt(0.8))
    assert a == pytest.approx(trap, abs=1e-6)


def test_expect_discrete_field_mixture():
    field = FieldSpec.discrete((-1.0, 0.5), (0.3, 0.7))
    val = ghquad.expect(TANH_SQ, 0.4, field)
    ref = 0.3 * trapezoid_gauss_expect(
        lambda y: np.tanh(y) ** 2, math.sqrt(0.4), -1.0
    ) + 0.7 * trapezoid_gauss_expect(lambda y: np.tanh(y) ** 2, math.sqrt(0.4), 0.5)
    assert val == pytest.approx(ref, abs=1e-6)


def test_expect_point_mass_equals_single_atom_discrete():
    a = ghquad.expect(TANH_SQ, 0.9, FieldSpec.point_mass(0.3))
    b = ghquad.expect(TANH_SQ, 0.9, FieldSpec.discrete((0.3,), (1.0,)))
    assert a == b


def test_expect_accepts_plain_callables():
    val = ghquad.expect(lambda y: y**2, 2.0, FieldSpec.point_mass(0.5))
    assert val == pytest.approx(2.0 + 0.25, rel=1e-12)


def test_expect_rejects_negative_variance():
    with pytest.raises(ValueError):
        ghquad.expect(TANH_SQ, -0.1, FieldSpec.zero())


def test_expect_is_the_only_expectation_entry_point():
    assert [n for n in ghquad.__all__ if n.startswith("expect")] == ["expect"]


# ---------------------------------------------------------------------------
# derivative in the variance, by Gaussian integration by parts
# ---------------------------------------------------------------------------


_ALL_FIELD_KINDS = (FieldSpec.zero(), FieldSpec.gaussian(0.6),
                    FieldSpec.point_mass(0.4),
                    FieldSpec.discrete((-1.0, 0.5, 2.0), (0.2, 0.5, 0.3)),
                    FieldSpec.discrete((-1.0, 0.0, 1.5), (0.3, 0.4, 0.3)))


def _slope(s, field):
    """The overlap solver's ``d/ds E tanh^2(z sqrt(s) + h)``."""
    return tanh_sq_slope(s, field, ghquad.expect(TANH_SQ, s, field))


def _differentiated_under_the_integral(s, field):
    """``E[(tanh^2)'(z sqrt(u) + h) z] / (2 sqrt(u))``, ``u`` the total variance.

    Differentiation under the integral sign, the reference for the
    integration-by-parts slope; it needs ``u > 0``.
    """
    rule = ghquad.default_rule()
    shifts, probs = np.array(field.values), np.array(field.probs)
    std = math.sqrt(s + field.v)
    t = np.tanh(std * rule.nodes[None, :] + shifts[:, None])
    vals = 2.0 * t * (1.0 - t * t) * rule.nodes[None, :]
    return float(probs @ (vals @ rule.weights)) / (2.0 * std)


def test_expect_derivative_matches_finite_differences():
    eps = 1e-5
    for field in _ALL_FIELD_KINDS:
        for s in (0.3, 1.0, 2.0, 4.0, 20.0):
            der = _slope(s, field)
            fd = (
                ghquad.expect(TANH_SQ, s + eps, field)
                - ghquad.expect(TANH_SQ, s - eps, field)
            ) / (2.0 * eps)
            assert der == pytest.approx(fd, abs=1e-8)
            assert der == pytest.approx(
                _differentiated_under_the_integral(s, field), abs=1e-14)


def test_expect_derivative_of_square_is_one():
    # d/ds E f = (1/2) E f'' for f(y) = y^2, and the rule is exact on it.
    eps = 0.1
    for field in (FieldSpec.zero(), FieldSpec.point_mass(0.7)):
        for s in (0.2, 1.0, 9.0):
            fd = (
                ghquad.expect(lambda y: y**2, s + eps, field)
                - ghquad.expect(lambda y: y**2, s - eps, field)
            ) / (2.0 * eps)
            assert fd == pytest.approx(1.0, rel=1e-12)


def test_expect_derivative_at_zero_variance():
    # At s = 0 only the Gaussian field keeps the total variance positive.
    # For the other kinds the slope is (1/2) E (tanh^2)''(h)
    # = E[3 cosh^-4 h - 2 cosh^-2 h].
    eps = 1e-5
    for field in _ALL_FIELD_KINDS:
        der = _slope(0.0, field)
        if field.v > 0.0:
            exact = _differentiated_under_the_integral(0.0, field)
        else:
            shifts, probs = np.array(field.values), np.array(field.probs)
            sech_sq = 1.0 / np.cosh(shifts) ** 2
            exact = float(probs @ (3.0 * sech_sq**2 - 2.0 * sech_sq))
        assert der == pytest.approx(exact, abs=1e-14)
        tanh_sq = [ghquad.expect(TANH_SQ, k * eps, field) for k in range(3)]
        fd = (-3.0 * tanh_sq[0] + 4.0 * tanh_sq[1] - tanh_sq[2]) / (2.0 * eps)
        assert der == pytest.approx(fd, abs=1e-8)
    assert _slope(0.0, FieldSpec.zero()) == 1.0


# ---------------------------------------------------------------------------
# stability and structure
# ---------------------------------------------------------------------------


def test_doubling_the_order_is_converged():
    for s in (0.1, 1.0, 9.0, 25.0, 60.0, 400.0):
        doubled = ghquad.normal_trapezoid_rule(2 * ghquad._rule_for(s).order)
        for kernel in (TANH_SQ, LOG_COSH, INV_COSH4):
            a = ghquad.expect(kernel, s, FieldSpec.zero())
            b = rule_expect(kernel, s, FieldSpec.zero(), doubled)
            assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_default_rule_accurate_at_large_variance():
    # the default rule must hold ~1e-12 accuracy through s = 25, where naive
    # 61-node Gauss-Hermite is off by ~3e-2
    val = ghquad.expect(TANH_SQ, 25.0, FieldSpec.zero())
    ref = trapezoid_gauss_expect(lambda y: np.tanh(y) ** 2, 5.0)
    assert val == pytest.approx(ref, abs=1e-12)


def test_rule_follows_the_total_variance():
    # The default rule object through s + v = 25, then one node-count
    # doubling per factor 4 in variance, capped at ACCURATE_VARIANCE.
    assert ghquad._rule_for(0.0) is ghquad.default_rule()
    assert ghquad._rule_for(25.0) is ghquad.default_rule()
    # A shifted atom takes the 181-node rule through 3.125, with its
    # spacing in y = z sqrt(s + v) at most the default's at 25, and the
    # centred atom's rule past that.
    coarse, default = ghquad._coarse_rule(), ghquad.default_rule()
    assert coarse.order == 181 and coarse is ghquad._coarse_rule()
    for variance in (0.0, 1e-300, 0.5, 3.0, 3.125):
        assert ghquad._rule_for(variance, shifted=True) is coarse
        assert ghquad._rule_for(variance) is default
    assert ((coarse.nodes[1] - coarse.nodes[0]) * math.sqrt(3.125)
            <= (default.nodes[1] - default.nodes[0]) * 5.0)
    for variance in (np.nextafter(3.125, 4.0), 3.2, 25.0, 25.0 + 1e-9, 1e4,
                     1e9):
        assert (ghquad._rule_for(variance, shifted=True)
                is ghquad._rule_for(variance))
    assert ghquad._rule_for(np.nextafter(3.125, 4.0), shifted=True) is default
    for variance, order in ((25.0 + 1e-9, 721), (100.0, 721),
                            (100.0 + 1e-9, 1441), (1e4, 11521),
                            (ghquad.ACCURATE_VARIANCE, 23041)):
        rule = ghquad._rule_for(variance)
        assert rule.order == order
        assert rule is ghquad._rule_for(variance)
        # Node spacing in y = z sqrt(s + v) stays at most the default's at 25.
        spacing = (rule.nodes[1] - rule.nodes[0]) * math.sqrt(variance)
        default = ghquad.default_rule()
        assert spacing <= (default.nodes[1] - default.nodes[0]) * 5.0 * (1 + 1e-12)
    for variance in (1e9, 1e308 * 10.0):
        assert (ghquad._rule_for(variance)
                is ghquad._rule_for(ghquad.ACCURATE_VARIANCE))


def _reference(f, s, field):
    """``E f(z sqrt(s) + h)`` atom by atom, on the oracle's wide fine grid."""
    return sum(p * trapezoid_gauss_expect(f, math.sqrt(s + field.v), h,
                                          n=200_001)
               for h, p in zip(field.values, field.probs))


@pytest.mark.parametrize("s", [60.0, 400.0, 1e4, 1e5])
def test_expect_accurate_past_the_default_range(s):
    fields = (FieldSpec.zero(), FieldSpec.point_mass(0.7),
              FieldSpec.discrete((-1.0, 0.5, 2.0), (0.2, 0.5, 0.3)),
              FieldSpec.gaussian(0.02 * s))
    for field in fields:
        for kernel in (TANH_SQ, LOG_COSH, INV_COSH4):
            val = ghquad.expect(kernel, s, field)
            ref = _reference(kernel, s, field)
            assert val == pytest.approx(ref, rel=1e-13, abs=1e-13)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(s=st.one_of(st.just(3.125), st.just(0.0), st.floats(0.0, 3.125)),
       h=st.floats(-3.0, 3.0).filter(bool))
def test_shifted_atoms_on_the_coarse_rule_are_accurate_property(s, h):
    # A shifted atom takes the 181-node rule through s + v = 3.125: every
    # kernel within 3e-16 (relative past 1, where log cosh reaches 3.6 and
    # its ulp is 4.4e-16) of the finest rule's sum, correctly rounded.
    finest = ghquad._rule_for(ghquad.ACCURATE_VARIANCE)
    field = FieldSpec.point_mass(h)
    assert ghquad._rule_for(s, shifted=True).order == 181
    for kernel in (TANH_SQ, LOG_COSH, INV_COSH4):
        ref = rule_expect(kernel, s, field, finest, exact=True)
        assert abs(ghquad.expect(kernel, s, field) - ref) <= 3e-16 * max(
            1.0, abs(ref))


def test_coarse_rule_misses_at_twice_its_top():
    # The negative control: at s + v = 6.25, the top that the node spacing
    # alone would give, the 181-node rule misses by more than 1e-14.
    coarse = ghquad._coarse_rule()
    finest = ghquad._rule_for(ghquad.ACCURATE_VARIANCE)
    misses = [abs(rule_expect(kernel, 6.25, FieldSpec.point_mass(h), coarse)
                  - rule_expect(kernel, 6.25, FieldSpec.point_mass(h), finest,
                                exact=True))
              for kernel in (TANH_SQ, LOG_COSH, INV_COSH4)
              for h in (0.3, 1.0, 2.5)]
    assert max(misses) > 1e-14


@pytest.mark.parametrize("s", [0.0, 0.5, 3.0, 5.0, 30.0, 150.0, 600.0,
                               2500.0, 5000.0, 2e4, 1e5, 1e6])
def test_expect_at_the_largest_float_is_finite_and_raises_no_warning(s):
    # Every rule's exact weight sum is at most one, but the rounding of a
    # dot product could still carry an atom at the largest float past it.
    big = np.finfo(float).max
    fields = [FieldSpec.point_mass(big), FieldSpec.point_mass(-big)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        layered = ghquad.expect(LOG_COSH, np.full(2, s), fields)
        for field, value in zip(fields, layered.tolist()):
            one = ghquad.expect(LOG_COSH, s, field)
            assert math.isfinite(one) and one > 0.5 * big
            assert one == value


def test_tanh_sq_expectation_bounded_and_monotone():
    vals = [ghquad.expect(TANH_SQ, s, FieldSpec.zero()) for s in (0.1, 0.5, 1.0, 4.0, 16.0)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert np.all(np.diff(vals) > 0.0)


def _fresh_atom_expect(f, s, field):
    """``expect`` with freshly allocated atoms: one dot product per atom,
    on the default rule folded onto its non-negative nodes for an atom at
    0, and for any other atom on the 181-node rule through total variance
    3.125 and the default rule past it (through 25), and the atoms weighed
    and summed by ``expect``'s reduction."""
    total = s + field.v
    assert total <= 25.0
    std = math.sqrt(total)
    rule = ghquad.default_rule()
    half_nodes, half_weights = folded_rule(rule)
    if total <= 3.125:
        rule = ghquad.normal_trapezoid_rule(181)
    sums = []
    for shift in field.values:
        if shift == 0.0:
            row = np.asarray(f(std * half_nodes), dtype=float)
            sums.append(np.dot(row, half_weights))
        else:
            row = np.asarray(f(std * rule.nodes + shift), dtype=float)
            sums.append(np.dot(row, rule.weights))
    return float(np.add.reduceat(np.array(field.probs) * np.array(sums),
                                 [0])[0])


_CENTRED_FIELDS = st.one_of(
    st.just(FieldSpec.zero()),
    st.floats(0.0, 5.0).map(FieldSpec.gaussian),
    st.just(FieldSpec.discrete((0.0, 0.0), (0.25, 0.75))))
_SHIFTED_FIELDS = st.one_of(
    st.floats(-3.0, 3.0).filter(bool).map(FieldSpec.point_mass),
    st.floats(0.01, 2.0).map(
        lambda h: FieldSpec.discrete((0.0, h), (0.5, 0.5))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(layers=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
                                 _CENTRED_FIELDS), min_size=1, max_size=6),
       shifted=st.tuples(st.floats(0.0, 30.0), _SHIFTED_FIELDS),
       at=st.integers(0, 6))
def test_centred_layers_keep_their_bytes_beside_a_shifted_layer_property(
        layers, shifted, at):
    # A call whose atoms are all 0 skips adding the shifts, where a call
    # with a shifted layer adds 0.0 to the centred ones; that changes no
    # bit but the sign of y = 0 * x = -0.0 (zero variance at s = 0), where
    # every kernel agrees.
    s = [variance for variance, _ in layers]
    fields = [field for _, field in layers]
    at = min(at, len(layers))
    mixed_s = s[:at] + [shifted[0]] + s[at:]
    mixed_fields = fields[:at] + [shifted[1]] + fields[at:]
    centred = [i for i in range(len(mixed_s)) if i != at]
    for kernel in (TANH_SQ, LOG_COSH, INV_COSH4, TANH_MOMENTS):
        alone = ghquad.expect(kernel, np.array(s), fields)
        beside = ghquad.expect(kernel, np.array(mixed_s), mixed_fields)
        assert alone.tobytes() == beside[..., centred].tobytes()


def test_table_atoms_are_bit_identical_to_fresh_atoms():
    fields = (FieldSpec.zero(), FieldSpec.gaussian(0.7),
              FieldSpec.point_mass(0.3),
              FieldSpec.discrete((-1.0, 0.5, 2.0), (0.2, 0.5, 0.3)),
              FieldSpec.discrete((0.0, 1.2), (0.4, 0.6)))
    for field in fields:
        for s in (0.0, 0.4, 3.0, 3.125, 3.5, 20.0):
            for kernel in (TANH_SQ, LOG_COSH, INV_COSH4):
                assert ghquad.expect(kernel, s, field) == _fresh_atom_expect(
                    kernel, s, field)


# ---------------------------------------------------------------------------
# layered calls and the fused kernel
# ---------------------------------------------------------------------------


_LAYER_KERNELS = (TANH_SQ, LOG_COSH, INV_COSH4, TANH_MOMENTS)
# Variances on both sides of the coarse rule's 3.125 and the default
# rule's 25, and past the range of the finest rule.
_LAYER_VARIANCES = st.one_of(
    st.floats(0.0, 3.125), st.floats(3.125, 25.0), st.floats(25.0, 2000.0),
    st.floats(ghquad.ACCURATE_VARIANCE, 4.0 * ghquad.ACCURATE_VARIANCE))


def _assert_layered_matches_one_layer_calls(s, fields):
    # Bit for bit, as expect promises.
    for kernel in _LAYER_KERNELS:
        layered = ghquad.expect(kernel, np.array(s), fields)
        assert layered.shape[-1] == len(fields)
        for p, (s_p, field) in enumerate(zip(s, fields)):
            one = ghquad.expect(kernel, s_p, field)
            assert layered[..., p].tobytes() == np.asarray(one).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(layers=st.lists(st.tuples(_LAYER_VARIANCES, field_specs()),
                       min_size=1, max_size=8))
def test_layered_expect_matches_one_layer_calls_property(layers):
    s, fields = zip(*layers)
    _assert_layered_matches_one_layer_calls(list(s), list(fields))


def test_layered_expect_mixes_every_field_kind_and_rule():
    # Every kind on both sides of s + v = 25 and past ACCURATE_VARIANCE, so
    # one call spans three rules and both atom paths.
    kinds = _ALL_FIELD_KINDS
    s = [0.0, 3.0, 24.0, 30.0, 800.0, 2.0 * ghquad.ACCURATE_VARIANCE,
         ghquad.ACCURATE_VARIANCE, 10.0]
    fields = [kinds[p % len(kinds)] for p in range(len(s))]
    assert len({ghquad._rule_for(s_p + f.v).order
                for s_p, f in zip(s, fields)}) >= 3
    _assert_layered_matches_one_layer_calls(s, fields)
    # Wide discrete fields span several blocks.
    wide = FieldSpec.discrete(np.linspace(-2.0, 2.0, 40), np.full(40, 1 / 40))
    fields = [wide, FieldSpec.gaussian(0.3), wide, wide, FieldSpec.zero()]
    _assert_layered_matches_one_layer_calls([0.5, 1.0, 2.0, 40.0, 3.0],
                                            fields)


def test_expect_blocks_are_bounded_by_entries():
    # Every array a kernel sees holds at most _BLOCK_ENTRIES entries per
    # kernel row, or one atom whose rule alone has more nodes, and the
    # blocks are as full as that allows.
    wide = FieldSpec.discrete(np.linspace(-2.0, 2.0, 64), np.full(64, 1 / 64))
    shapes = []

    def recording(y):
        shapes.append(y.shape)
        return TANH_MOMENTS(y)

    # The coarse rule, the default one, a refined one and the finest, past
    # the cap alone.
    orders = []
    for s in (0.5, 5.0, 100.0, 2.0 * ghquad.ACCURATE_VARIANCE):
        order = ghquad._rule_for(s, shifted=True).order
        orders.append(order)
        for fields in ([wide], [wide, FieldSpec.gaussian(0.3), wide]):
            shapes.clear()
            ghquad.expect(recording, np.full(len(fields), s), fields)
            assert sum(atoms for atoms, _ in shapes) == sum(
                len(field.values) for field in fields)
            for atoms, nodes in shapes:
                assert atoms * nodes <= max(ghquad._BLOCK_ENTRIES, nodes)
            assert max(atoms for atoms, nodes in shapes if nodes == order) \
                == max(1, min(64, ghquad._BLOCK_ENTRIES // order))
    # A shifted atom at s = 0.5 takes the 181-node rule: 45 atoms a block.
    assert orders[0] == 181 and ghquad._BLOCK_ENTRIES // 181 == 45
    assert orders[1] == ghquad.DEFAULT_ORDER
    assert ghquad.DEFAULT_ORDER < orders[2] < ghquad._BLOCK_ENTRIES < orders[3]
    # Centred atoms take the folded half of each rule, so a block holds
    # twice as many of them, alone or beside shifted atoms.
    centred = [FieldSpec.gaussian(0.3)] * 100
    for s, fields in ((0.5, centred), (5.0, centred + [wide]),
                      (200.0, centred + [wide])):
        order = ghquad._rule_for(s + 0.3).order
        half = (order + 1) // 2
        shapes.clear()
        ghquad.expect(recording, np.full(len(fields), s), fields)
        folded = [atoms for atoms, nodes in shapes if nodes == half]
        assert sum(folded) == 100
        assert max(folded) == min(100, ghquad._BLOCK_ENTRIES // half)
        assert sum(atoms for atoms, nodes in shapes if nodes == order) == (
            len(fields) - 100) * 64
    # At s = 0.5 the folded default and the coarse rule both have 181
    # nodes: the 100 centred atoms fill their blocks, then the 64 shifted.
    shapes.clear()
    ghquad.expect(recording, np.full(101, 0.5), centred + [wide])
    assert shapes == [(45, 181), (45, 181), (10, 181), (45, 181), (19, 181)]


def test_tanh_moments_are_the_two_kernels_bit_for_bit():
    y = np.linspace(-40.0, 40.0, 2001).reshape(3, -1)[:, :-1]
    tanh_sq, inv_cosh4 = TANH_MOMENTS(y)
    np.testing.assert_array_equal(tanh_sq, TANH_SQ(y))
    np.testing.assert_array_equal(inv_cosh4, INV_COSH4(y))
    for field in _ALL_FIELD_KINDS:
        for s in (0.0, 0.7, 60.0):
            fused = ghquad.expect(TANH_MOMENTS, s, field)
            assert fused.shape == (2,)
            assert fused[0] == ghquad.expect(TANH_SQ, s, field)
            assert fused[1] == ghquad.expect(INV_COSH4, s, field)


def test_layered_expect_rejects_bad_variances():
    fields = (FieldSpec.zero(), FieldSpec.gaussian(0.3))
    for s in ([0.1, -0.1], [0.1, math.nan], [math.inf, 0.1], [0.1]):
        with pytest.raises(ValueError):
            ghquad.expect(TANH_SQ, np.array(s), fields)
    with pytest.raises(TypeError):
        ghquad.expect(TANH_SQ, np.array([0.1, 0.2]), (FieldSpec.zero(), 0.3))
