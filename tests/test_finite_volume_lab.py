"""Tests for finite-size ground truth: enumeration, Monte Carlo, covariance."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dbmlab import finite_volume_lab as fvl
from dbmlab import machine
from dbmlab.finite_volume_lab import (
    DisorderSample,
    LayerAssignment,
    annealed_trend,
    covariance_check,
    covariance_report,
    exact_pressure,
    hamiltonian,
    layer_overlaps,
    log_partition,
    mc_pressure,
    sample_disorder,
)
from dbmlab.machine import FieldSpec, ModelParams

from helpers import random_field
from oracles import (_sample_tempering_sweep, all_spin_configs, bruteforce_log_partition,
                     class_order, full_table_log_partition, per_sample_mc_pressure,
                     reference_disorder)

LOG2 = math.log(2.0)


def make(K, beta, lam, fields=()):
    return ModelParams(K=K, beta=tuple(beta), lam=tuple(lam), fields=tuple(fields))


def logcosh(x):
    x = np.abs(np.asarray(x, dtype=float))
    return x + np.log1p(np.exp(-2.0 * x)) - LOG2


# ---------------------------------------------------------------------------
# layer assignment
# ---------------------------------------------------------------------------


def test_assignment_largest_remainder_rounding():
    a = LayerAssignment.from_weights((1 / 3, 1 / 3, 1 / 3), 10)
    assert a.sizes == (4, 3, 3)  # tie on remainders -> lowest index first
    b = LayerAssignment.from_weights((0.5, 0.3, 0.2), 7)
    assert b.sizes == (4, 2, 1)
    c = LayerAssignment.from_weights((0.5, 0.5), 24)
    assert c.sizes == (12, 12)
    assert c.N == 24


def test_assignment_validation():
    with pytest.raises(ValueError):
        LayerAssignment((0, 0))
    with pytest.raises(ValueError):
        LayerAssignment((2, -1))


def test_assignment_from_weights_refuses_counts_past_the_integers():
    # Refused before the cast to integers, which would warn and wrap, and
    # 10**400 before its product with the weights, which would overflow.
    for N in (10**308, 10**400, 2**64, 2**63, math.inf, math.nan):
        with pytest.raises(ValueError, match="too large to split"):
            LayerAssignment.from_weights((0.5, 0.5), N)


# ---------------------------------------------------------------------------
# disorder samples
# ---------------------------------------------------------------------------


def test_sample_reproducible_and_index_dependent():
    assignment = LayerAssignment((3, 2))
    params = make(2, (0.8,), (0.6, 0.4), (FieldSpec.gaussian(0.5), FieldSpec.zero()))
    s1 = sample_disorder(assignment, params, seed=11, index=4)
    s2 = sample_disorder(assignment, params, seed=11, index=4)
    for a, b in zip(s1.couplings, s2.couplings):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(s1.fields, s2.fields):
        np.testing.assert_array_equal(a, b)
    s3 = sample_disorder(assignment, params, seed=11, index=5)
    assert not np.array_equal(s1.couplings[0], s3.couplings[0])


def test_sample_field_kinds():
    assignment = LayerAssignment((4, 4))
    params = make(2, (1.0,), (0.5, 0.5),
                  (FieldSpec.point_mass(0.7), FieldSpec.discrete((-1.0, 2.0), (0.5, 0.5))))
    s = sample_disorder(assignment, params, seed=0, index=0)
    np.testing.assert_array_equal(s.fields[0], np.full((1, 4), 0.7))
    assert set(np.unique(s.fields[1])) <= {-1.0, 2.0}
    assert s.couplings[0].shape == (1, 4, 4)


_FIELD_KINDS = ("zero", "gaussian", "point_mass", "discrete")


def _assert_rows_match_reference(stack, params, seed):
    sizes = stack.assignment.sizes
    for d in range(len(stack.fields[0])):
        couplings, fields = reference_disorder(sizes, params, seed, stack.index + d)
        for block, want in zip(stack.couplings, couplings):
            assert np.array_equal(block[d], want)
        for h, want in zip(stack.fields, fields):
            assert np.array_equal(h[d], want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(layers=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(_FIELD_KINDS)),
                       min_size=1, max_size=4).filter(lambda ls: sum(n for n, _ in ls) > 0),
       field_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**40))
@example(layers=[(4, "gaussian")], field_seed=0, seed=3, index=0)
@example(layers=[(3, "zero"), (0, "gaussian"), (2, "point_mass"), (3, "discrete")],
         field_seed=1, seed=7, index=5)
def test_disorder_stacks_equal_the_reference_draw_property(layers, field_seed, seed,
                                                           index):
    # Every sample of every stack, whatever its width, is the sample a
    # fresh generator keyed by (seed, index) draws on its own.
    rng = np.random.default_rng(field_seed)
    sizes = tuple(n for n, _ in layers)
    K = len(sizes)
    params = make(K, (0.7,) * (K - 1), (1.0 / K,) * K,
                  [random_field(rng, kind) for _, kind in layers])
    assignment = LayerAssignment(sizes)
    for width in (1, 3):
        stack = sample_disorder(assignment, params, seed, index, width)
        assert (stack.seed, stack.index, len(stack.fields[0])) == (seed, index, width)
        _assert_rows_match_reference(stack, params, seed)
    n_disorder = 5
    per_sample = max(1, sum(a * b for a, b in zip(sizes, sizes[1:])))
    for width in range(1, n_disorder + 1):
        with mock.patch.object(fvl, "_CHUNK_ENTRIES", width * per_sample):
            stacks = list(fvl._disorder_stacks(assignment, params, seed, n_disorder, 0))
        assert [stack.index for stack in stacks] == list(range(0, n_disorder, width))
        assert sum(len(stack.fields[0]) for stack in stacks) == n_disorder
        for stack in stacks:
            _assert_rows_match_reference(stack, params, seed)


# ---------------------------------------------------------------------------
# hamiltonian
# ---------------------------------------------------------------------------


def test_hamiltonian_zero_couplings():
    assignment = LayerAssignment((2, 2))
    params = make(2, (1.3,), (0.5, 0.5))
    sample = DisorderSample(assignment=assignment, couplings=(np.zeros((1, 2, 2)),),
                            fields=(np.zeros((1, 2)), np.zeros((1, 2))), seed=0, index=0)
    assert hamiltonian(sample, np.array([1.0, -1.0, 1.0, 1.0]), params).tolist() == [0.0]


def test_hamiltonian_single_bond_value():
    assignment = LayerAssignment((1, 1))
    params = make(2, (0.75,), (0.5, 0.5))
    sample = DisorderSample(assignment=assignment, couplings=(np.array([[[1.4]]]),),
                            fields=(np.zeros((1, 1)), np.zeros((1, 1))), seed=0, index=0)
    got = hamiltonian(sample, np.array([1.0, 1.0]), params)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(-0.75 * 1.4, rel=1e-15)


def test_hamiltonian_layer_flip_negates():
    assignment = LayerAssignment((3, 2))
    params = make(2, (0.9,), (0.6, 0.4))
    sample = sample_disorder(assignment, params, seed=3, index=0)
    sigma = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    flipped = sigma.copy()
    flipped[3:] *= -1.0
    h0 = hamiltonian(sample, sigma, params)[0]
    assert hamiltonian(sample, flipped, params)[0] == pytest.approx(-h0, rel=1e-14)


def test_hamiltonian_validation():
    assignment = LayerAssignment((2, 2))
    params = make(2, (1.0,), (0.5, 0.5))
    sample = sample_disorder(assignment, params, seed=0, index=0)
    with pytest.raises(ValueError):
        hamiltonian(sample, np.ones(3), params)
    with pytest.raises(ValueError):
        hamiltonian(sample, np.array([1.0, 2.0, 1.0, 1.0]), params)
    stack = np.ones((3, 4))
    for bad in (stack * 0.5, np.concatenate((stack, np.zeros((1, 4)))),
                np.ones((3, 5)), np.ones((2, 3, 4)), np.float64(1.0)):
        with pytest.raises(ValueError):
            hamiltonian(sample, bad, params)


def _loop_hamiltonian(sample, sigma, params):
    """Energy of one configuration under the first sample of ``sample``,
    bond by bond with vector-matrix-vector products."""
    bounds = np.cumsum((0,) + sample.assignment.sizes)
    parts = [sigma[bounds[p]:bounds[p + 1]] for p in range(params.K)]
    total = sum(params.beta[p] * float(parts[p] @ sample.couplings[p][0] @ parts[p + 1])
                for p in range(params.K - 1))
    return -math.sqrt(2.0 / sample.assignment.N) * total


def test_hamiltonian_stack_matches_scalar_calls():
    params = make(4, (0.9, 1.3, 0.6), (0.3, 0.0, 0.3, 0.4),
                  (FieldSpec.gaussian(0.5),) + (FieldSpec.zero(),) * 3)
    for sizes in ((3, 0, 4, 5), (0, 0, 6, 2), (4, 3, 2, 3)):
        assignment = LayerAssignment(sizes)
        sample = sample_disorder(assignment, params, seed=5, index=1)
        rng = np.random.default_rng(sum(sizes))
        stack = rng.choice((-1.0, 1.0), size=(7, assignment.N))
        energies = hamiltonian(sample, stack, params)
        assert energies.shape == (1, 7)
        for row, energy in zip(stack, energies[0]):
            single = hamiltonian(sample, row, params)
            assert single.shape == (1,)
            assert abs(energy - single[0]) <= 1e-13
            assert abs(energy - _loop_hamiltonian(sample, row, params)) <= 1e-13
        assert hamiltonian(sample, stack[:0], params).shape == (1, 0)
    single_layer = LayerAssignment((5,))
    sample = sample_disorder(single_layer, make(1, (), (1.0,)), seed=0)
    assert hamiltonian(sample, np.ones((3, 5)), make(1, (), (1.0,))).tolist() == [[0.0] * 3]


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def test_log_partition_matches_bruteforce_oracle():
    assignment = LayerAssignment((2, 2))
    params = make(2, (1.1,), (0.5, 0.5),
                  (FieldSpec.gaussian(0.4), FieldSpec.point_mass(-0.3)))
    sample = sample_disorder(assignment, params, seed=7, index=2)
    got = log_partition(sample, params)
    assert got.shape == (1,)
    layer_index = np.array([0, 0, 1, 1])
    h = np.concatenate([h[0] for h in sample.fields])
    want = bruteforce_log_partition(layer_index, params.beta,
                                    [c[0] for c in sample.couplings], h)
    assert got[0] == pytest.approx(want, abs=1e-12)


def test_log_partition_three_layers_vs_bruteforce():
    assignment = LayerAssignment((2, 3, 1))
    params = make(3, (0.7, 1.2), (1 / 3, 1 / 2, 1 / 6),
                  (FieldSpec.zero(), FieldSpec.gaussian(0.2), FieldSpec.point_mass(0.5)))
    sample = sample_disorder(assignment, params, seed=19, index=0)
    got = log_partition(sample, params)
    assert got.shape == (1,)
    layer_index = np.array([0, 0, 1, 1, 1, 2])
    h = np.concatenate([h[0] for h in sample.fields])
    want = bruteforce_log_partition(layer_index, params.beta,
                                    [c[0] for c in sample.couplings], h)
    assert got[0] == pytest.approx(want, abs=1e-12)


def _fsum_log_partition(sample, params):
    """``log Z`` of the first sample of ``sample`` by enumerating all ``2^N``
    states, summed with ``math.fsum``."""
    sizes = sample.assignment.sizes
    N = sample.assignment.N
    spins = all_spin_configs(N)
    bounds = np.cumsum((0,) + sizes)
    layers = [spins[:, bounds[p]:bounds[p + 1]] for p in range(len(sizes))]
    energy = spins @ np.concatenate([h[0] for h in sample.fields])
    for p in range(len(sizes) - 1):
        bonds = np.einsum("ci,ij,cj->c", layers[p], sample.couplings[p][0],
                          layers[p + 1])
        energy += math.sqrt(2.0 / N) * params.beta[p] * bonds
    top = float(energy.max())
    return top + math.log(math.fsum(np.exp(energy - top)))


# (4, 0, 5), (5, 6, 5), (0, 3, 4), (6, 2, 6) and (3, 2, 3, 2, 3) enumerate the
# odd-indexed layers, (4, 0, 5) none of their spins; the other chains the
# even-indexed ones, (4, 4, 4, 4) on a tie.
@pytest.mark.parametrize("sizes", [(9,), (7, 9), (4, 0, 5), (5, 6, 5),
                                   (0, 3, 4), (3, 5, 0, 8), (4, 4, 4, 4),
                                   (6, 2, 6), (3, 2, 3, 2, 3), (2, 4, 1, 4, 2)])
def test_log_partition_matches_fsum_enumeration(sizes):
    K = len(sizes)
    fields = [FieldSpec.gaussian(0.6), FieldSpec.zero(),
              FieldSpec.discrete((-0.5, 1.0), (0.4, 0.6)), FieldSpec.point_mass(0.3),
              FieldSpec.gaussian(1.5)]
    params = make(K, (1.4, 0.8, 1.1, 0.9)[:K - 1], (1.0 / K,) * K, fields[:K])
    assignment = LayerAssignment(sizes)
    singles = []
    for index in range(3):
        sample = sample_disorder(assignment, params, seed=13, index=index)
        want = _fsum_log_partition(sample, params)
        single = log_partition(sample, params)
        assert single.shape == (1,)
        singles.append(single[0])
        assert abs(singles[-1] - want) <= 1e-12 * max(1.0, abs(want))
    # A stack runs each sample through the same product and reductions as a
    # stack of one, so every value keeps its bits.
    stack, = fvl._disorder_stacks(assignment, params, 13, 3, 0)
    assert log_partition(stack, params).tolist() == singles


@settings(max_examples=150, deadline=None, derandomize=True)
@given(layers=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(_FIELD_KINDS)),
                       min_size=1, max_size=6)
       .filter(lambda ls: 0 < sum(n for n, _ in ls) <= fvl.EXACT_SPIN_CAP),
       field_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
       width=st.integers(1, 3))
# Enumerated classes of no spins: a one-row table, whose flip is itself.
@example(layers=[(0, "gaussian"), (5, "zero")], field_seed=0, seed=1, width=2)
@example(layers=[(0, "zero"), (5, "discrete"), (0, "point_mass")], field_seed=1,
         seed=2, width=1)
@example(layers=[(4, "point_mass"), (0, "gaussian"), (3, "zero")], field_seed=2,
         seed=3, width=3)
# The largest tables, with and without fields.
@example(layers=[(6, "zero"), (12, "zero"), (6, "zero")], field_seed=3, seed=4,
         width=2)
@example(layers=[(12, "gaussian"), (12, "discrete")], field_seed=4, seed=5, width=1)
def test_log_partition_has_the_bits_of_the_full_table_property(layers, field_seed,
                                                               seed, width):
    # Enumeration multiplies half the configuration table and reads the other
    # half's rows off it as their flips; every value keeps the bits of the
    # whole table's product and reductions.
    rng = np.random.default_rng(field_seed)
    sizes = tuple(n for n, _ in layers)
    K = len(sizes)
    params = make(K, rng.uniform(0.2, 1.5, K - 1), (1.0 / K,) * K,
                  [random_field(rng, kind) for _, kind in layers])
    stack = sample_disorder(LayerAssignment(sizes), params, seed, 0, width)
    got = log_partition(stack, params)
    want = full_table_log_partition(stack, params)
    assert got.shape == (width,)
    assert got.tobytes() == want.tobytes()


_SUM_TERMS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-30, -1e-30, 1e30, -1e30, 1.0, -1.0]),
    st.floats(-1e30, 1e30, allow_nan=False, allow_subnormal=False),
    st.builds(lambda sign, exponent, mantissa: sign * mantissa * 10.0 ** exponent,
              st.sampled_from([1.0, -1.0]), st.integers(-30, 30),
              st.floats(1.0, 10.0)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(terms=st.integers(0, 40).flatmap(
    lambda n: st.lists(st.lists(_SUM_TERMS, min_size=n, max_size=n),
                       min_size=1, max_size=6)))
# Below eight terms, exactly eight, multiples of eight, and tails.
@example(terms=[[]])
@example(terms=[[-0.0] * 7, [-0.0, 0.0] * 3 + [-0.0]])
@example(terms=[[1e30, 1.0, -1e30, 1.0, 1e-30, -1.0, 1e30, -1e30],
                [-0.0] * 8])
@example(terms=[[1e30, -1e30, 3.0] * 5 + [1e-30]])
@example(terms=[[(-1.0) ** k * 10.0 ** (k - 20) for k in range(40)]])
def test_row_sum_has_the_bits_of_numpy_sum_property(terms):
    # One sum per row, its terms down the leading axis: every sum has the
    # bits NumPy's pairwise row sum gives, signed zeros included.
    rows = np.array(terms, dtype=float).reshape(len(terms), -1)
    got = fvl._row_sum(np.ascontiguousarray(rows.T))
    assert got.tobytes() == np.sum(rows, axis=-1).tobytes()


@pytest.mark.parametrize("n", [128, 129, 136, 300])
def test_row_sum_splits_long_rows_as_numpy_does(n):
    rng = np.random.default_rng(n)
    rows = rng.choice((-1.0, 1.0), (5, n)) * 10.0 ** rng.uniform(-30, 30, (5, n))
    got = fvl._row_sum(np.ascontiguousarray(rows.T))
    assert got.tobytes() == np.sum(rows, axis=-1).tobytes()


def test_logsumexp_has_the_bits_of_scipy():
    scipy = pytest.importorskip("scipy")
    from scipy.special import logsumexp
    if tuple(int(part) for part in scipy.__version__.split(".")[:2]) < (1, 15):
        pytest.skip("SciPy before 1.15 does not split the maximum out of "
                    "logsumexp's sum, so the bits are not comparable")
    rng = np.random.default_rng(24)
    stacks = [
        rng.normal(0.0, 1.0, (300, 64)),
        rng.normal(0.0, 1e3, (3, 100, 16)),  # a wide spread: underflowing terms
        rng.integers(-2, 3, (300, 9)).astype(float),  # ties at the maximum
        np.full((4, 7), -3.25),  # every entry a tie
        rng.normal(5.0, 1e-13, (300, 40)),  # nearly equal entries
        rng.normal(0.0, 1.0, (5, 1)),
    ]
    for a in stacks:
        assert fvl._logsumexp(a).tobytes() == logsumexp(a, axis=-1).tobytes()


def test_exact_pressure_is_independent_of_stacking(monkeypatch):
    assignment = LayerAssignment((3, 4, 3))
    params = make(3, (0.9, 0.7), (0.3, 0.4, 0.3), (FieldSpec.gaussian(0.4),) * 3)
    whole = exact_pressure(assignment, params, n_disorder=9, seed=2)
    monkeypatch.setattr(fvl, "_CHUNK_ENTRIES", 1)
    assert exact_pressure(assignment, params, n_disorder=9, seed=2) == whole
    values = [log_partition(sample_disorder(assignment, params, 2, j), params)[0] / 10
              for j in range(9)]
    assert whole.mean == float(np.mean(values))


def test_stacked_sample_shapes():
    assignment = LayerAssignment((2, 3))
    couplings, fields = (np.zeros((4, 2, 3)),), (np.zeros((4, 2)), np.zeros((4, 3)))
    stack = DisorderSample(assignment=assignment, couplings=couplings,
                           fields=fields, seed=0, index=8)
    assert hamiltonian(stack, np.ones(5), make(2, (1.0,), (0.4, 0.6))).tolist() == [0.0] * 4
    for bad in ((np.zeros((3, 2, 3)),), (np.zeros((2, 3)),)):
        with pytest.raises(ValueError, match="coupling block 0"):
            DisorderSample(assignment=assignment, couplings=bad, fields=fields,
                           seed=0, index=0)
    with pytest.raises(ValueError, match="coupling block 0"):
        DisorderSample(assignment=assignment, couplings=(np.zeros((1, 4, 2, 3)),),
                       fields=(np.zeros((1, 4, 2)), np.zeros((1, 4, 3))),
                       seed=0, index=0)
    # One sample without its leading axis is refused, not read as a stack.
    with pytest.raises(ValueError, match="coupling block 0"):
        DisorderSample(assignment=assignment, couplings=(np.zeros((2, 3)),),
                       fields=(np.zeros(2), np.zeros(3)), seed=0, index=0)
    with pytest.raises(ValueError, match="field vector 1"):
        DisorderSample(assignment=assignment, couplings=couplings,
                       fields=(np.zeros((4, 2)), np.zeros((3, 3))), seed=0, index=0)
    single_layer = LayerAssignment((5,))
    stack, = fvl._disorder_stacks(single_layer, make(1, (), (1.0,)), 0, 3, 0)
    assert hamiltonian(stack, np.ones((2, 5)), make(1, (), (1.0,))).tolist() == \
        [[0.0] * 2] * 3


# Inverse temperatures must be strictly positive, so the decoupled limit is
# probed with a coupling small enough to vanish at double precision.
TINY_BETA = 1e-20


def test_exact_pressure_decoupled_limits():
    # Couplings negligible, fields zero: log 2 exactly, no disorder spread.
    assignment = LayerAssignment((3, 3))
    params = make(2, (TINY_BETA,), (0.5, 0.5))
    est = exact_pressure(assignment, params, n_disorder=5, seed=1)
    assert est.mean == pytest.approx(LOG2, abs=1e-13)
    assert est.std_error == 0.0
    assert est.method == "exact_enum"
    assert est.n_samples == 5

    # Deterministic fields, negligible coupling: log 2 + mean log cosh h, spread 0.
    params_h = make(2, (TINY_BETA,), (0.5, 0.5),
                    (FieldSpec.point_mass(0.7), FieldSpec.point_mass(-0.2)))
    est_h = exact_pressure(assignment, params_h, n_disorder=4, seed=1)
    want = LOG2 + 0.5 * (logcosh(0.7) + logcosh(-0.2))
    assert est_h.mean == pytest.approx(want, abs=1e-12)
    assert est_h.std_error == 0.0


def test_exact_pressure_single_layer_field_formula():
    # K=1: per-sample pressure is log 2 + (1/N) sum_i log cosh h_i exactly.
    assignment = LayerAssignment((6,))
    params = make(1, (), (1.0,), (FieldSpec.gaussian(0.9),))
    n = 7
    est = exact_pressure(assignment, params, n_disorder=n, seed=5)
    vals = []
    for j in range(n):
        s = sample_disorder(assignment, params, seed=5, index=j)
        vals.append(LOG2 + float(np.mean(logcosh(s.fields[0][0]))))
    vals = np.asarray(vals)
    assert est.mean == pytest.approx(float(np.mean(vals)), abs=1e-12)
    want_se = float(np.std(vals, ddof=1) / math.sqrt(n))
    assert est.std_error == pytest.approx(want_se, rel=1e-12)


def test_exact_pressure_refuses_large_n():
    assignment = LayerAssignment((13, 13))
    params = make(2, (1.0,), (0.5, 0.5))
    with pytest.raises(ValueError, match="[Mm]onte"):
        exact_pressure(assignment, params, n_disorder=2, seed=0)


def test_exact_pressure_gauge_symmetry():
    # At zero field, negating one coupling block leaves log Z unchanged.
    assignment = LayerAssignment((3, 2, 3))
    params = make(3, (0.8, 1.1), (0.4, 0.25, 0.35))
    sample = sample_disorder(assignment, params, seed=23, index=1)
    base = log_partition(sample, params)
    for p in range(2):
        couplings = list(np.copy(c) for c in sample.couplings)
        couplings[p] = -couplings[p]
        negated = DisorderSample(assignment=assignment, couplings=tuple(couplings),
                                 fields=sample.fields, seed=0, index=0)
        assert log_partition(negated, params) == pytest.approx(base, abs=1e-12)


def test_exact_pressure_jensen_bound():
    # Quenched estimate never beats the finite-size annealed value.
    assignment = LayerAssignment((4, 4))
    params = make(2, (1.2,), (0.5, 0.5))
    est = exact_pressure(assignment, params, n_disorder=60, seed=9)
    lam_n = np.asarray(assignment.sizes, dtype=float) / assignment.N
    annealed_n = LOG2 + float(
        np.sum(np.asarray(params.beta) ** 2 * lam_n[:-1] * lam_n[1:]))
    assert est.mean <= annealed_n + 3.0 * est.std_error + 1e-12


def test_exact_pressure_deterministic():
    assignment = LayerAssignment((3, 3))
    params = make(2, (0.9,), (0.5, 0.5), (FieldSpec.gaussian(0.3), FieldSpec.zero()))
    e1 = exact_pressure(assignment, params, n_disorder=6, seed=13)
    e2 = exact_pressure(assignment, params, n_disorder=6, seed=13)
    assert e1.mean == e2.mean
    assert e1.std_error == e2.std_error


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------


def test_layer_overlaps_range_and_diagonal():
    assignment = LayerAssignment((3, 2))
    rng = np.random.default_rng(2)
    sigma = rng.choice([-1.0, 1.0], 5)
    tau = rng.choice([-1.0, 1.0], 5)
    q = layer_overlaps(assignment, sigma, tau)
    assert q.shape == (2,)
    assert np.all(q >= -1.0) and np.all(q <= 1.0)
    np.testing.assert_array_equal(layer_overlaps(assignment, sigma, sigma), [1.0, 1.0])
    got = layer_overlaps(assignment, np.array([1.0, 1.0, -1.0, 1.0, -1.0]),
                         np.array([1.0, -1.0, -1.0, 1.0, 1.0]))
    np.testing.assert_allclose(got, [1.0 / 3.0, 0.0])


# ---------------------------------------------------------------------------
# Monte Carlo pressure
# ---------------------------------------------------------------------------


def test_mc_pressure_zero_coupling_is_exact_anchor():
    assignment = LayerAssignment((5, 5))
    params = make(2, (TINY_BETA,), (0.5, 0.5),
                  (FieldSpec.gaussian(0.6), FieldSpec.gaussian(0.2)))
    mc = mc_pressure(assignment, params, n_disorder=6, sweeps=24, replicas=5, seed=21)
    ex = exact_pressure(assignment, params, n_disorder=6, seed=21)
    assert mc.mean == pytest.approx(ex.mean, abs=1e-13)
    assert mc.std_error == pytest.approx(ex.std_error, rel=1e-12)
    assert mc.method == "monte_carlo"


def test_mc_pressure_agrees_with_enumeration():
    assignment = LayerAssignment((5, 5))
    params = make(2, (0.5,), (0.5, 0.5),
                  (FieldSpec.gaussian(0.5), FieldSpec.zero()))
    n = 24
    mc = mc_pressure(assignment, params, n_disorder=n, sweeps=400, replicas=16, seed=4)
    ex = exact_pressure(assignment, params, n_disorder=n, seed=4)
    combined = math.hypot(mc.std_error, ex.std_error)
    assert abs(mc.mean - ex.mean) <= 3.0 * combined + 1e-4


def test_mc_pressure_agrees_with_enumeration_on_a_deep_chain():
    params = make(6, (0.9, 0.8, 1.0, 0.7, 0.9), (1 / 6,) * 6,
                  (FieldSpec.gaussian(0.3), FieldSpec.zero(), FieldSpec.point_mass(0.2),
                   FieldSpec.zero(), FieldSpec.gaussian(0.5), FieldSpec.zero()))
    assignment = LayerAssignment.from_weights(params.lam, 24)
    n = 24
    mc = mc_pressure(assignment, params, n_disorder=n, sweeps=400, replicas=16, seed=4)
    ex = exact_pressure(assignment, params, n_disorder=n, seed=4)
    combined = math.hypot(mc.std_error, ex.std_error)
    assert abs(mc.mean - ex.mean) <= 3.0 * combined + 1e-4


# Layer sizes per depth, with empty layers and, for (0, 5, 0) and
# (4, 0, 3, 0, 2), an empty class.
SWEEP_SIZES = {1: ((6,),), 2: ((4, 5), (0, 5)), 3: ((4, 5, 3), (4, 0, 3), (0, 5, 0)),
               4: ((3, 4, 2, 3), (0, 3, 2, 0)), 5: ((2, 3, 4, 1, 3), (4, 0, 3, 0, 2))}


def test_mc_sweep_gain_is_minus_hamiltonian():
    laws = (FieldSpec.gaussian(0.4), FieldSpec.zero(), FieldSpec.point_mass(0.2))
    for K, sizes in [(K, sizes) for K in SWEEP_SIZES for sizes in SWEEP_SIZES[K]]:
        params = make(K, (1.2, 0.8, 1.0, 0.6)[:K - 1], (1 / K,) * K,
                      [laws[p % 3] for p in range(K)])
        assignment = LayerAssignment(sizes)
        samples = sample_disorder(assignment, params, seed=9, index=0, count=3)
        rng = np.random.default_rng(1)
        D, R, N = 3, 4, assignment.N
        states = rng.choice((-1.0, 1.0), size=(D, R, N))
        even, odd = fvl._class_couplings(
            sizes, samples.couplings, [math.sqrt(2.0 / N) * b for b in params.beta])
        assert even == sum(sizes[0::2])
        order = class_order(sizes)
        doubled = 2.0 * np.concatenate(samples.fields, axis=1)[:, None, order]
        fields2 = (doubled[..., :even], doubled[..., even:])
        slope = (2.0 * np.linspace(0.1, 1.0, R))[:, None]
        blocks = fvl._class_blocks(states, even, slope, fields2)
        gain = np.empty((D, R))
        for _ in range(3):
            fvl._tempering_sweep(blocks, odd, rng.random((D, R * N)), gain)
            layered = np.empty_like(states)
            layered[..., order] = np.concatenate([b.spins for b in blocks], axis=-1)
            for d in range(D):
                sample = sample_disorder(assignment, params, seed=9, index=d)
                np.testing.assert_allclose(gain[d], -hamiltonian(sample, layered[d], params)[0],
                                           rtol=0.0, atol=1e-13)


def _heat_bath_boundary_case():
    """A two-layer sweep whose layer-0 uniforms sit on the heat-bath threshold.

    With two layers the class order is the layer order.  Layer 0's first
    spins have no couplings, so their argument ``x`` is their doubled field
    exactly, in the package and in the per-sample oracle.  Their fields run
    over moderate values, ``x < -710`` (where ``exp(-x)`` overflows) and
    ``x`` past ``+-745`` (where ``expit`` is 0 or 1).  At rung 0 each
    uniform is SciPy's ``expit(x)``, at rungs 1 and 2 its neighbours one
    ulp down and up, and at rung 3 it is 0.  The last spins of layer 0 and
    all of layer 1 are coupled, with random uniforms, so the gains are not
    trivial.
    """
    from scipy.special import expit

    rng = np.random.default_rng(29)
    D, R, free, bound, n1 = 2, 4, 30, 3, 4
    x = np.concatenate([np.linspace(-40.0, 40.0, free - 6),
                        [-720.0, -745.5, -746.0, 745.5, 746.0, 800.0]])
    x = np.stack([x, rng.permutation(x)])
    fields2 = [np.concatenate([x, rng.normal(0.0, 1.0, (D, bound))], axis=1)[:, None, :],
               rng.normal(0.0, 1.0, (D, 1, n1))]
    sizes = (free + bound, n1)
    N = sum(sizes)
    coupled = [rng.normal(0.0, 0.3, (D, sizes[0], n1))]
    coupled[0][:, :free] = 0.0
    slope = (2.0 * np.linspace(0.2, 1.0, R))[:, None]
    on = expit(x)
    u0 = np.stack([on, np.nextafter(on, 0.0), np.nextafter(on, 1.0), np.zeros_like(on)],
                  axis=1)
    draws = rng.random((D, R * N))
    first = draws[:, :R * sizes[0]].reshape(D, R, sizes[0])
    first[:, :, :free] = u0
    states = rng.choice((-1.0, 1.0), size=(D, R, N))
    return sizes, states, coupled, slope, fields2, draws


def _heat_bath_sweeps(sizes, states, coupled, slope, fields2, draws):
    """The package's spins and gains, and the per-sample oracle's."""
    even, odd = fvl._class_couplings(sizes, coupled, [1.0])
    blocks = fvl._class_blocks(states, even, slope, tuple(fields2))
    gain = np.empty(states.shape[:2])
    fvl._tempering_sweep(blocks, odd, draws, gain)
    pkg = np.concatenate([block.spins for block in blocks], axis=-1)
    ref = states.copy()
    ref_gain = np.stack([
        _sample_tempering_sweep(ref[d], sizes, [coupled[0][d]], slope,
                                [f[d, 0] for f in fields2], draws[d])
        for d in range(len(states))])
    return pkg, gain, ref, ref_gain


def test_heat_bath_decides_as_scipy_expit_on_its_threshold(monkeypatch):
    case = _heat_bath_boundary_case()
    free = 30
    pkg, gain, ref, ref_gain = _heat_bath_sweeps(*case)
    assert pkg.tobytes() == ref.tobytes()
    assert gain.tobytes() == ref_gain.tobytes()
    # The oracle sets a spin up at u = expit(x) one ulp down and never at
    # expit(x) itself, so the cases hold both answers.
    assert np.all(ref[:, 1, :free] >= ref[:, 0, :free])
    assert np.any(ref[:, 1, :free] != ref[:, 0, :free])
    # Negative control: with no margin NumPy's exp decides every test but
    # the NaN ones, and the boundary cases are no longer the oracle's.
    monkeypatch.setattr(fvl, "_MARGIN", -math.inf)
    bypassed, _, ref, _ = _heat_bath_sweeps(*case)
    assert np.count_nonzero(bypassed != ref) > 0


def test_swap_test_decides_as_libm_log_on_its_threshold():
    rng = np.random.default_rng(30)
    u = np.concatenate([rng.random(4000), [1e-300, 2.0**-53, 0.5, 1.0 - 2.0**-53]])
    libm = np.array([math.log(v) for v in u])
    log_u = np.log(u)
    near = fvl._MARGIN * np.abs(log_u)
    for threshold in (libm, np.nextafter(libm, -np.inf), np.nextafter(libm, 0.0), log_u):
        assert np.array_equal(fvl._log_below(u, log_u, near, threshold), libm < threshold)
    # Negative control, where NumPy's log rounds below libm's somewhere: with
    # no margin it decides alone, and accepts at libm's own log.
    if not np.any(log_u < libm):
        pytest.skip("NumPy's log is never below libm's on these uniforms here")
    bypassed = fvl._log_below(u, log_u, np.full_like(near, -1.0), libm)
    assert np.any(bypassed != (libm < libm))


STACKED_CASES = {
    "fields": ((5, 5), make(2, (0.7,), (0.5, 0.5),
                            (FieldSpec.gaussian(0.5),
                             FieldSpec.discrete((-1.0, 0.5), (0.3, 0.7)))),
               6, 40, 5),
    "single-layer": ((6,), make(1, (), (1.0,), (FieldSpec.gaussian(0.7),)), 3, 10, 3),
    "empty-middle": ((5, 0, 5), make(3, (0.9, 0.7), (0.4, 0.2, 0.4)), 8, 60, 5),
    "empty-first": ((0, 5, 5), make(3, (0.9, 0.7), (0.4, 0.2, 0.4),
                                    (FieldSpec.zero(), FieldSpec.point_mass(0.2),
                                     FieldSpec.gaussian(0.3))), 8, 60, 5),
    "one-rung": ((3, 4, 2, 3), make(4, (1.2, 0.8, 0.5), (0.25,) * 4), 4, 30, 1),
    "deep": ((3, 0, 2, 4, 2, 3), make(6, (0.9, 0.7, 1.1, 0.8, 0.6), (1 / 6,) * 6,
                                      (FieldSpec.gaussian(0.3), FieldSpec.zero(),
                                       FieldSpec.point_mass(0.2), FieldSpec.zero(),
                                       FieldSpec.discrete((-1.0, 0.5), (0.3, 0.7)),
                                       FieldSpec.zero())), 5, 30, 4),
    "several-chunks": ((1000, 1000), make(2, (0.5,), (0.5, 0.5)), 5, 4, 3),
    "several-blocks": ((4, 5), make(2, (0.8,), (0.5, 0.5),
                                    (FieldSpec.gaussian(0.4), FieldSpec.zero())),
                       12, 29, 4),
}

# Entries per stack for "several-blocks": stacks of 10 and 2 samples, whose
# uniforms come in blocks of 2 and 12 sweeps, so 29 sweeps end in a part block.
BLOCK_CHUNK_ENTRIES = 1000


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_mc_pressure_equals_per_sample_chains(case, monkeypatch):
    sizes, params, n_disorder, sweeps, replicas = STACKED_CASES[case]
    assignment = LayerAssignment(sizes)
    if case == "several-chunks":
        per_sample = 1000 * 1000 + 2 * replicas * assignment.N
        assert fvl._CHUNK_ENTRIES // per_sample < n_disorder
    if case == "several-blocks":
        monkeypatch.setattr(fvl, "_CHUNK_ENTRIES", BLOCK_CHUNK_ENTRIES)
        per_sample = 4 * 5 + 2 * replicas * assignment.N
        width = BLOCK_CHUNK_ENTRIES // per_sample
        assert (width, n_disorder - width) == (10, 2)
        # Uniforms of an even and an odd sweep: R N spins plus the swaps.
        pair_width = 2 * replicas * assignment.N + replicas - 1
        for D, block in ((10, 2), (2, 12)):
            assert 2 * (BLOCK_CHUNK_ENTRIES // (D * pair_width)) == block
            assert sweeps > block and sweeps % block
    est = mc_pressure(assignment, params, n_disorder=n_disorder, sweeps=sweeps,
                      replicas=replicas, seed=3)
    mean, std_error = per_sample_mc_pressure(assignment, params, n_disorder,
                                             sweeps, replicas, 3)
    assert est.mean == mean
    assert est.std_error == std_error


def test_mc_pressure_tracks_enumeration_sample_by_sample():
    # Strong coupling, where a wrong integrand shows: the same disorder
    # samples enumerated exactly pin both the mean and the spread.
    params = make(3, (1.2, 1.0), (1 / 3, 1 / 3, 1 / 3))
    assignment = LayerAssignment.from_weights(params.lam, 12)
    for seed in range(4):
        mc = mc_pressure(assignment, params, n_disorder=10, sweeps=200,
                         replicas=5, seed=seed)
        ex = exact_pressure(assignment, params, n_disorder=10, seed=seed)
        assert abs(mc.mean - ex.mean) <= 0.005
        assert mc.std_error <= 1.5 * ex.std_error


def test_mc_pressure_single_and_empty_layers():
    single = make(1, (), (1.0,), (FieldSpec.gaussian(0.7),))
    assignment = LayerAssignment((6,))
    mc = mc_pressure(assignment, single, n_disorder=3, sweeps=10, replicas=3, seed=2)
    ex = exact_pressure(assignment, single, n_disorder=3, seed=2)
    assert mc.mean == pytest.approx(ex.mean, abs=1e-14)
    params = make(3, (0.9, 0.7), (0.4, 0.2, 0.4),
                  (FieldSpec.gaussian(0.3), FieldSpec.zero(), FieldSpec.zero()))
    for sizes in ((5, 0, 5), (0, 5, 5)):
        assignment = LayerAssignment(sizes)
        mc = mc_pressure(assignment, params, n_disorder=8, sweeps=200, replicas=5,
                         seed=3)
        ex = exact_pressure(assignment, params, n_disorder=8, seed=3)
        assert math.isfinite(mc.mean)
        assert abs(mc.mean - ex.mean) <= 3.0 * math.hypot(mc.std_error, ex.std_error) + 2e-3


def test_mc_pressure_deep_annealed_matches_limit():
    params = make(3, (0.3, 0.3), (1 / 3, 1 / 3, 1 / 3))
    assignment = LayerAssignment.from_weights(params.lam, 600)
    mc = mc_pressure(assignment, params, n_disorder=12, sweeps=160, replicas=21,
                     seed=6)
    p_ann = machine.annealed_pressure(params)
    assert abs(mc.mean - p_ann) <= 3.0 * mc.std_error + 0.01


def test_mc_pressure_deterministic():
    assignment = LayerAssignment((4, 4))
    params = make(2, (0.7,), (0.5, 0.5))
    m1 = mc_pressure(assignment, params, n_disorder=4, sweeps=50, replicas=6, seed=17)
    m2 = mc_pressure(assignment, params, n_disorder=4, sweeps=50, replicas=6, seed=17)
    assert m1.mean == m2.mean
    assert m1.std_error == m2.std_error


def test_mc_pressure_size_cap():
    assignment = LayerAssignment((3000, 3000))
    params = make(2, (0.3,), (0.5, 0.5))
    with pytest.raises(ValueError):
        mc_pressure(assignment, params, n_disorder=2, sweeps=10, replicas=4, seed=0)


def test_drift_detector_on_synthetic_series():
    rng = np.random.default_rng(0)
    steady = rng.normal(0.0, 1.0, 400)
    assert fvl._drift_detected(steady[:, None, None]) is False
    drifting = np.linspace(0.0, 40.0, 400) + rng.normal(0.0, 1.0, 400)
    assert fvl._drift_detected(drifting[:, None, None]) is True
    assert fvl._drift_detected(np.zeros((400, 1, 1))) is False  # zero-variance series
    # (sweeps, samples, rungs): one drifting series among 200 is found, and
    # 200 steady ones pass the Bonferroni-corrected threshold together.
    stack = rng.normal(0.0, 1.0, (400, 40, 5))
    assert fvl._drift_detected(stack) is False
    stack[:, 17, 3] = drifting
    assert fvl._drift_detected(stack) is True


def _ulps(a, b):
    return np.abs(np.asarray(a, float).view(np.int64) - np.asarray(b, float).view(np.int64))


def test_drift_threshold_is_the_exact_level_quantile_within_two_ulps():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    tests = np.unique(np.concatenate([np.arange(1, 301),
                                      np.round(10.0 ** rng.uniform(2.5, 5.0, 300))]))
    tests = tests.astype(int).tolist()
    nu = fvl._DRIFT_BATCHES - 2

    def quantile(m):
        # P(|T| > t) = I_x(nu / 2, 1 / 2) at x = nu / (nu + t^2), solved at
        # the level level / m itself.
        level = mpmath.mpf(fvl._DRIFT_LEVEL) / m
        return float(mpmath.findroot(
            lambda t: mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + t * t),
                                     regularized=True) - level,
            mpmath.mpf(fvl._drift_threshold(m))))

    with mpmath.workdps(40):
        expected = [quantile(m) for m in tests]
    assert _ulps([fvl._drift_threshold(m) for m in tests], expected).max() <= 2
    # Negative control: the quantile of the tail 2 (1 - fl(1 - level / (2 m)))
    # is a different number, many ulps away where 1 - level / (2 m) rounds far.
    rounded = [fvl._t_quantile(2.0 * (1.0 - (1.0 - 0.5 * fvl._DRIFT_LEVEL / m)))
               for m in tests]
    assert _ulps(rounded, expected).max() > 1000


# ---------------------------------------------------------------------------
# covariance identity
# ---------------------------------------------------------------------------


def test_covariance_self_pair_matches_closed_form():
    assignment = LayerAssignment((2, 2))
    params = make(2, (0.7,), (0.5, 0.5))
    sigma = np.array([1.0, -1.0, 1.0, 1.0])
    n = 4000
    rows = covariance_report(assignment, params, n_disorder=n, seed=31,
                             pairs=[(sigma, sigma)])
    row = rows[0]
    want = 2.0 * assignment.N * 0.5 * 0.7**2 * 0.5  # 2 N lam1 beta^2 lam2 at q=1
    assert row.predicted == pytest.approx(want, rel=1e-12)
    assert abs(row.empirical - want) <= 4.0 / math.sqrt(n) * want


def test_covariance_orthogonal_pair_is_null():
    assignment = LayerAssignment((2, 2))
    params = make(2, (1.0,), (0.5, 0.5))
    sigma = np.array([1.0, 1.0, 1.0, 1.0])
    tau = np.array([1.0, -1.0, 1.0, -1.0])  # zero overlap in both layers
    rows = covariance_report(assignment, params, n_disorder=3000, seed=37,
                             pairs=[(sigma, tau)])
    row = rows[0]
    assert row.predicted == 0.0
    assert abs(row.empirical) <= 5.0 * row.std_error


def _covariance_rows_from(energies, n_disorder):
    """(empirical, std_error) per pair from (pairs, 2, n_disorder) energies."""
    out = []
    for pair in energies:
        products = (pair[0] - pair[0].mean()) * (pair[1] - pair[1].mean())
        out.append((float(np.sum(products) / (n_disorder - 1)),
                    float(np.std(products, ddof=1) / math.sqrt(n_disorder))))
    return out


@pytest.mark.parametrize("split", [False, True])
def test_covariance_energies_equal_per_sample_hamiltonian(monkeypatch, split):
    # The batched contraction over stacked couplings must give every
    # energy the bits of hamiltonian(), also when the samples are stacked a
    # few at a time (a budget of 100 entries holds 4 or 5 of them here).
    if split:
        monkeypatch.setattr(fvl, "_CHUNK_ENTRIES", 100)
    params = make(4, (0.9, 1.3, 0.6), (0.3, 0.1, 0.3, 0.3),
                  (FieldSpec.gaussian(0.5),) + (FieldSpec.zero(),) * 3)
    for sizes in ((3, 0, 4, 5), (4, 3, 2, 3)):
        assignment = LayerAssignment(sizes)
        n = 30
        rows = covariance_report(assignment, params, n_disorder=n, seed=5, n_pairs=4)
        gen = fvl._generator(5, 0, fvl._STREAM_PAIRS)
        configs = np.array([gen.integers(0, 2, assignment.N).astype(float) * 2.0 - 1.0
                            for _ in range(8)])
        energies = np.array([
            hamiltonian(sample_disorder(assignment, params, 5, j), configs, params)[0]
            for j in range(n)]).T.reshape(4, 2, n)
        assert [(row.empirical, row.std_error) for row in rows] == \
            _covariance_rows_from(energies, n)
        stacks = list(fvl._disorder_stacks(assignment, params, 5, n, 0))
        for stack in stacks:
            stacked = hamiltonian(stack, configs, params)
            for d in range(stacked.shape[0]):
                sample = sample_disorder(assignment, params, 5, stack.index + d)
                assert np.array_equal(stacked[d], hamiltonian(sample, configs, params)[0])
        assert (len(stacks) > 1) == split


def test_covariance_needs_a_pair():
    assignment = LayerAssignment((2, 2))
    params = make(2, (0.7,), (0.5, 0.5))
    with pytest.raises(ValueError):
        covariance_report(assignment, params, n_disorder=5, pairs=[])
    with pytest.raises(ValueError):
        covariance_report(assignment, params, n_disorder=5, n_pairs=0)


def test_covariance_refuses_systems_past_the_spin_cap(monkeypatch):
    # The refusal comes before any configuration or disorder sample exists.
    def unreachable(*args, **kwargs):
        raise AssertionError("allocated before the cap check")

    for name in ("_generator", "sample_disorder", "_disorder_stacks", "hamiltonian"):
        monkeypatch.setattr(fvl, name, unreachable)
    n = fvl.MC_SPIN_CAP + 1
    assignment = LayerAssignment.from_weights((0.25, 0.5, 0.25), n)
    assert assignment.N == n
    params = make(3, (0.7, 0.7), (0.25, 0.5, 0.25))
    with pytest.raises(ValueError, match=f"capped at {fvl.MC_SPIN_CAP} spins"):
        covariance_report(assignment, params, n_disorder=5)


def test_covariance_check_standardized_deviation():
    assignment = LayerAssignment((3, 3))
    params = make(2, (0.9,), (0.5, 0.5))
    worst = covariance_check(assignment, params, n_disorder=2500, seed=41)
    assert worst < 5.0
    again = covariance_check(assignment, params, n_disorder=2500, seed=41)
    assert worst == again


# ---------------------------------------------------------------------------
# annealed trend
# ---------------------------------------------------------------------------


def test_annealed_trend_three_layer_frozen_case():
    params = make(3, (0.5, 0.5), (1 / 3, 1 / 3, 1 / 3))
    sizes = [LayerAssignment.from_weights(params.lam, n) for n in (12, 18, 24)]
    report = annealed_trend(params, sizes, n_disorder=200, seed=2)
    assert report.p_annealed == pytest.approx(LOG2 + 1.0 / 18.0, abs=1e-12)
    assert report.jensen_ok is True
    assert report.gap_decreasing is True
    gaps = [row.gap for row in report.rows]
    assert all(g > 0.0 for g in gaps)
    assert gaps[-1] < gaps[0]
    assert [row.N for row in report.rows] == [12, 18, 24]
    assert all(row.method == "exact_enum" for row in report.rows)


def test_annealed_trend_zero_coupling_gap_vanishes():
    params = make(2, (TINY_BETA,), (0.5, 0.5))
    sizes = [LayerAssignment.from_weights(params.lam, n) for n in (8, 12)]
    report = annealed_trend(params, sizes, n_disorder=4, seed=0)
    for row in report.rows:
        assert row.gap == pytest.approx(0.0, abs=1e-12)
    assert report.jensen_ok is True


def test_annealed_trend_refusals():
    outside = make(2, (1.5,), (0.5, 0.5))
    sizes = [LayerAssignment.from_weights(outside.lam, n) for n in (8, 12)]
    with pytest.raises(ValueError):
        annealed_trend(outside, sizes, n_disorder=2, seed=0)
    fielded = make(2, (0.5,), (0.5, 0.5),
                   (FieldSpec.gaussian(0.5), FieldSpec.zero()))
    with pytest.raises(ValueError):
        annealed_trend(fielded, sizes, n_disorder=2, seed=0)
    inside = make(2, (0.5,), (0.5, 0.5))
    shrinking = [LayerAssignment.from_weights(inside.lam, n) for n in (12, 8)]
    with pytest.raises(ValueError):
        annealed_trend(inside, shrinking, n_disorder=2, seed=0)
