import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dbmlab import chainpoly

from oracles import (
    companion_zeros,
    matching_coefficients_bruteforce,
    matching_eval_bruteforce,
)


# ---------------------------------------------------------------------------
# eval_sequence
# ---------------------------------------------------------------------------


def test_eval_sequence_single_vertex():
    vals = chainpoly.eval_sequence(5.0, ())
    np.testing.assert_array_equal(vals, [1.0, 5.0])


def test_eval_sequence_quadratic():
    for x, t1 in [(1.7, 0.6), (-2.0, 1.3), (0.0, 0.9), (3.5, 0.0)]:
        vals = chainpoly.eval_sequence(x, (t1,))
        assert vals[2] == pytest.approx(x * x - t1, rel=1e-15, abs=1e-15)


def test_eval_sequence_cubic_uniform_activities():
    # Delta_3(x; (1,1)) = x^3 - 2x
    for x in [2.0, -1.5, 0.3, 1.0]:
        vals = chainpoly.eval_sequence(x, (1.0, 1.0))
        assert vals[3] == pytest.approx(x**3 - 2.0 * x, rel=1e-14, abs=1e-14)


def test_eval_sequence_matches_matching_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(10):
        t = rng.uniform(0.0, 2.0, size=4)  # five-vertex chain
        x = rng.uniform(-3.0, 3.0)
        top = chainpoly.eval_sequence(x, t)[-1]
        ref = matching_eval_bruteforce(x, t)
        assert top == pytest.approx(ref, rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    t=st.lists(st.floats(0.0, 3.0), min_size=0, max_size=11),
    x=st.floats(-6.0, 6.0),
)
def test_eval_sequence_parity(t, x):
    # Delta_p(-x) = (-1)^p Delta_p(x), exactly in floating point
    plus = chainpoly.eval_sequence(x, t)
    minus = chainpoly.eval_sequence(-x, t)
    signs = (-1.0) ** np.arange(len(t) + 2)
    np.testing.assert_array_equal(minus, signs * plus)


def test_eval_sequence_rejects_oversized_chain():
    with pytest.raises(ValueError):
        chainpoly.eval_sequence(1.0, np.ones(600))


def test_eval_sequence_rejects_negative_activity():
    with pytest.raises(ValueError):
        chainpoly.eval_sequence(1.0, (0.5, -0.1))


# ---------------------------------------------------------------------------
# coefficients / matching sums
# ---------------------------------------------------------------------------


def test_coefficients_quadratic():
    np.testing.assert_allclose(chainpoly.coefficients((0.7,)), [-0.7, 0.0, 1.0])


def test_coefficients_cubic_uniform():
    np.testing.assert_allclose(chainpoly.coefficients((1.0, 1.0)), [0.0, -2.0, 0.0, 1.0])


def test_coefficients_match_bruteforce_enumeration():
    rng = np.random.default_rng(7)
    for K in range(1, 10):
        t = rng.uniform(0.0, 2.5, size=K - 1)
        ours = chainpoly.coefficients(t)
        ref = matching_coefficients_bruteforce(t)
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_coefficients_satisfy_three_term_recursion():
    # c_{p+1}[k] = c_p[k-1] - t_p c_{p-1}[k], checked through K = 20
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 2.0, size=19)
    coeff = [chainpoly.coefficients(t[: p - 1]) for p in range(1, 21)]
    coeff.insert(0, np.array([1.0]))  # Delta_0
    for p in range(1, 20):
        lhs = coeff[p + 1]
        shifted = np.concatenate(([0.0], coeff[p]))
        prev = np.concatenate((coeff[p - 1], [0.0, 0.0]))
        rhs = shifted - t[p - 1] * prev
        scale = max(1.0, float(np.abs(lhs).max()))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)


def test_coefficient_evaluation_agrees_with_recursion():
    rng = np.random.default_rng(3)
    for K in [2, 5, 11, 20]:
        t = rng.uniform(0.0, 2.0, size=K - 1)
        c = chainpoly.coefficients(t)
        for x in rng.uniform(-3.0, 3.0, size=5):
            via_coeff = float(np.polynomial.polynomial.polyval(x, c))
            via_rec = chainpoly.eval_sequence(x, t)[-1]
            scale = max(1.0, abs(via_rec))
            assert abs(via_coeff - via_rec) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def test_zeros_cubic_uniform():
    np.testing.assert_allclose(
        chainpoly.zeros((1.0, 1.0)), [-math.sqrt(2.0), 0.0, math.sqrt(2.0)], atol=1e-12
    )


def test_zeros_quadratic():
    for t1 in [0.25, 1.0, 2.3]:
        np.testing.assert_allclose(
            chainpoly.zeros((t1,)), [-math.sqrt(t1), math.sqrt(t1)], atol=1e-12
        )


def test_zeros_single_vertex():
    np.testing.assert_allclose(chainpoly.zeros(()), [0.0])


def test_zeros_against_companion_matrix():
    rng = np.random.default_rng(19)
    for _ in range(10):
        t = rng.uniform(0.05, 2.0, size=5)  # six-vertex chain
        ours = chainpoly.zeros(t)
        roots = companion_zeros(chainpoly.coefficients(t))
        assert np.abs(roots.imag).max() < 1e-9
        np.testing.assert_allclose(ours, np.sort(roots.real), atol=1e-8)


def test_zeros_real_and_simple_for_positive_activities():
    rng = np.random.default_rng(23)
    for K in range(2, 13):
        t = rng.uniform(0.05, 3.0, size=K - 1)
        z = chainpoly.zeros(t)
        assert z.size == K
        assert np.all(np.diff(z) > 0.0)


# Zero activities, ordinary ones and activities from 1e-300 to 1e300,
# whose matrices LAPACK rescales before solving.
_ACTIVITIES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 3.0),
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
              st.floats(1.0, 9.99), st.integers(-300, 299)))


# Chains past 40 layers repeat a drawn list of activities, which keeps
# drawing them cheap.
@settings(max_examples=400, deadline=None, derandomize=True)
@given(t=st.builds(lambda pattern, n: (pattern * n)[:n],
                   st.lists(_ACTIVITIES, min_size=1, max_size=39), st.integers(1, 127)))
@example(t=[1.0] * 31)  # K = 32
@example(t=[1.0] * 32)  # K = 33
@example(t=[1.0] * 127)  # K = 128
@example(t=[1.0] * (chainpoly.MAX_LAYERS - 1))
@example(t=[(1 + p % 7) * 1e200 for p in range(chainpoly.MAX_LAYERS - 1)])
@example(t=[(1 + p % 5) * 1e-200 for p in range(127)])
@example(t=[1e-300] * 20)
@example(t=[1e300, 0.0, 1e300, 1e-300])
def test_zeros_are_bit_identical_to_the_tridiagonal_solver(t):
    # NumPy's dense eigvalsh and SciPy's tridiagonal solver both end in
    # LAPACK dsterf on the same matrix, at every chain length.
    pytest.importorskip("scipy")
    from scipy.linalg import eigh_tridiagonal
    expected = eigh_tridiagonal(np.zeros(len(t) + 1), np.sqrt(t),
                                eigvals_only=True)
    assert np.array_equal(chainpoly.zeros(t), expected)


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------


def test_interlacing_cubic_uniform():
    assert chainpoly.interlacing_check((1.0, 1.0))


def test_interlacing_random_chains():
    rng = np.random.default_rng(31)
    for _ in range(50):
        K = int(rng.integers(2, 13))
        t = rng.uniform(0.0, 3.0, size=K - 1)
        assert chainpoly.interlacing_check(t)
        t_pos = np.maximum(t, 1e-5)
        assert chainpoly.interlacing_check(t_pos, strict=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(K=st.integers(2, 128), log_scale=st.floats(-200.0, 200.0),
       spread=st.sampled_from([1, 4]), zero=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(K=128, log_scale=200.0, spread=4, zero=True, seed=0)
@example(K=128, log_scale=-200.0, spread=4, zero=True, seed=1)
def test_interlacing_holds_on_every_valid_chain_at_any_scale_property(
        K, log_scale, spread, zero, seed):
    # Cauchy interlacing holds exactly for every chain with t_p >= 0, so
    # the check on the computed zeros must hold as well, whatever the scale.
    rng = np.random.default_rng(seed)
    t = 10.0 ** log_scale * rng.uniform(0.0, 1.0, K - 1) ** spread
    if zero:
        t[rng.integers(0, K - 1)] = 0.0
    assert chainpoly.interlacing_check(t)


def test_interlacing_fails_a_zero_moved_past_its_neighbour(monkeypatch):
    # Negative control: one sub-chain zero moved past its upper neighbour in
    # the next set by 10 times the solver's error bound breaks interlacing;
    # moved by a tenth of it, the check still takes it as rounding.
    rng = np.random.default_rng(36)
    for scale in (1e-200, 1.0, 1e200):
        t = scale * rng.uniform(0.1, 2.0, 15)
        zs = chainpoly.zeros_sequence(t)
        tol = 4 * len(zs) * np.finfo(float).eps * np.abs(zs[-1]).max()
        for margin, ok in ((10.0, False), (0.1, True)):
            moved = [z.copy() for z in zs]
            moved[7][3] = moved[8][4] + margin * tol
            monkeypatch.setattr(chainpoly, "zeros_sequence", lambda _: moved)
            assert chainpoly.interlacing_check(t) is ok
            monkeypatch.undo()


# ---------------------------------------------------------------------------
# zero localisation
# ---------------------------------------------------------------------------


def test_zeros_in_interval_cubic_uniform():
    for method in ("signs", "eigen"):
        assert chainpoly.zeros_in_interval((1.0, 1.0), 1.5, method=method)
        assert not chainpoly.zeros_in_interval((1.0, 1.0), 1.4, method=method)


def test_zeros_in_interval_methods_agree():
    rng = np.random.default_rng(37)
    for _ in range(50):
        t = rng.uniform(0.0, 2.5, size=9)  # ten-vertex chain
        radius = rng.uniform(0.2, 2.0 * math.sqrt(2.5) + 0.5)
        a = chainpoly.zeros_in_interval(t, radius, method="signs")
        b = chainpoly.zeros_in_interval(t, radius, method="eigen")
        assert a == b


def test_zeros_in_interval_methods_agree_on_deep_chains():
    # The plain recursion overflows to inf - inf = nan on such chains well
    # inside the localisation radius; the ratio test must not.
    t = np.full(511, 2.0)
    assert not np.all(np.isfinite(chainpoly.eval_sequence(9.0, t)))
    assert chainpoly.zeros_in_interval(t, 9.0, method="signs")
    rng = np.random.default_rng(53)
    for _ in range(200):
        K = int(rng.integers(2, chainpoly.MAX_LAYERS + 1))
        t = rng.uniform(0.0, 3.0, size=K - 1)
        largest = chainpoly.largest_zero(t)
        radius = rng.uniform(0.5, 10.0) * largest
        if abs(radius - largest) <= 1e-9 * largest:
            continue  # boundary case: the methods may round differently
        a = chainpoly.zeros_in_interval(t, radius, method="signs")
        b = chainpoly.zeros_in_interval(t, radius, method="eigen")
        assert a == b, (K, radius, largest)


def test_localisation_equivalences():
    # Four equivalent statements, tested away from the boundary:
    #   (A) all zeros of Delta_K lie in (-r, r)
    #   (B) zeros of every Delta_p lie in (-r, r)
    #   (C) Delta_p(r) > 0 for all p with p = K (mod 2)
    #   (D) Delta_p(r) > 0 for all p
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 200:
        K = int(rng.integers(2, 11))
        t = rng.uniform(0.0, 2.5, size=K - 1)
        radius = rng.uniform(0.1, 2.0 * math.sqrt(2.5) + 0.5)
        vals = chainpoly.eval_sequence(radius, t)
        if np.abs(vals).min() <= 1e-9:
            continue  # too close to a zero for a clean verdict
        all_zero_sets = [chainpoly.zeros(t[: p - 1]) for p in range(1, K + 1)]
        stmt_a = bool(np.abs(all_zero_sets[-1]).max() < radius)
        stmt_b = all(np.abs(z).max() < radius for z in all_zero_sets)
        stmt_c = all(vals[p] > 0.0 for p in range(K % 2, K + 1, 2))
        stmt_d = bool(np.all(vals[1:] > 0.0))
        assert stmt_a == stmt_b == stmt_c == stmt_d
        checked += 1
