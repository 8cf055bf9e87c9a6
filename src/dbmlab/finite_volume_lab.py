"""Finite-size ground truth for the layered model.

Draws reproducible disorder samples (couplings and external fields),
evaluates the Hamiltonian and exact log-partition functions for small
systems, estimates the quenched pressure by thermodynamic integration
with parallel tempering for larger ones, checks the Gaussian covariance
identity of the interaction energy, and tabulates how finite-size
pressure estimates approach the annealed value inside the annealed
region.

The layered chain is bipartite: given the even-indexed layers, the spins
of the odd-indexed layers are independent, and vice versa.  Exact
enumeration uses that to sum one parity class of layers in closed form; of
the other class's configurations it computes half, and reads the other
half off them as their flips.  The Monte Carlo sweep is a two-colour heat
bath: every even-indexed layer in one pass given the odd ones, then every
odd-indexed layer.
A disorder sample is always a stack: a :class:`DisorderSample` holds
consecutive samples along a leading array axis, one sample being a stack of
one, and :func:`sample_disorder` is the one function that draws them.  All
three estimators (exact enumeration, Monte Carlo and the covariance check)
reduce one stack at a time.

The module runs on NumPy and the standard library alone.  Enumeration
takes its ``logsumexp`` from :func:`_logsumexp`, a NumPy transcription of
SciPy's algorithm with the same bits.  The Monte Carlo's heat-bath and swap
tests take NumPy's vectorised ``exp`` and ``log``, and libm's ``exp`` and
``log`` through :mod:`math` only near a threshold; its drift test takes its
Student ``t`` quantile from the closed-form tail of :func:`_t_tail`.

Randomness is keyed by ``(master seed, sample index, stream id)``, so
results are bit-identical regardless of evaluation order or parallelism.
Disorder samples and the covariance check's configuration pairs come from
Philox streams, one bit generator re-keyed in place per sample: a
covariance stack draws a thousand samples of a few doubles each, and
seeding a ``SeedSequence`` costs more than ten re-keyings.  The Monte Carlo
draws far more per sample than it seeds, so each sample's dynamics take an
SFC64 stream seeded by a ``SeedSequence`` of its key, which draws a double
in well under half of Philox's time.  The chains take their uniforms in
blocks of sweeps, one call per sample and block; a double consumes one
64-bit output in stream order, so a block holds exactly the uniforms the
sweeps would draw one by one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import machine
from .machine import ModelParams

_LOG2 = math.log(2.0)
_MASK64 = (1 << 64) - 1

EXACT_SPIN_CAP = 24
MC_SPIN_CAP = 4096

# Caps on the counts of one verify run, checked before any work: disorder
# samples and sweeps, tempering rungs, covariance pairs, and the entries of
# the Monte Carlo record array (samples x recorded sweeps x rungs).
COUNT_CAP = 10**6
REPLICA_CAP = 1024
PAIR_CAP = 10**4
MC_RECORD_CAP = 1 << 24

# Stream ids within one (seed, index) key.
_STREAM_DISORDER = 0
_STREAM_DYNAMICS = 1
_STREAM_PAIRS = 2

# Array entries per stack of disorder samples: couplings plus the per-sample
# working arrays, so that large systems are stacked a few samples at a time.
_CHUNK_ENTRIES = 1 << 18

# Entries of half product per chunk of samples that enumeration reduces at
# once, so that its working arrays stay in cache: at N = 24, 2^14 to 2^16
# measured alike and 2^18 about a fifth slower.
_ENUM_ENTRIES = _CHUNK_ENTRIES // 8

# Batches per energy series in the drift test, and the probability that it
# flags a row of equilibrated series.
_DRIFT_BATCHES = 10
_DRIFT_LEVEL = 0.01

# NumPy's exp and log decide a heat-bath or swap test where the tested
# quantity is further than this, relative to its size, from the threshold:
# thousands of ulps wider than their rounding and that of the arithmetic
# between.  Scalar logistic and log tests through libm (_expit and
# math.log), as a single chain takes them, decide the rest, so every
# decision is the scalar one.
_MARGIN = 2.0 ** -40

# Element by element through math.log, for swap tests within the margin.
_libm_log = np.vectorize(math.log, otypes=[float])


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerAssignment:
    """Concrete layer sizes ``N_1, ..., N_K`` for a finite system."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) == 0:
            raise ValueError("need at least one layer")
        if any((not float(n).is_integer()) or n < 0 for n in self.sizes):
            raise ValueError("layer sizes must be non-negative integers")
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        if self.N < 1:
            raise ValueError("total spin count must be at least 1")

    @property
    def N(self) -> int:
        return int(sum(self.sizes))

    @property
    def weights(self) -> np.ndarray:
        """Empirical layer weights ``sizes / N``."""
        return np.asarray(self.sizes, dtype=float) / self.N

    @staticmethod
    def from_weights(lam, N: int) -> "LayerAssignment":
        """Largest-remainder rounding of ``lam * N``; ties to the lowest index."""
        lam = np.asarray(lam, dtype=float)
        if np.any(lam < 0.0) or lam.sum() <= 0.0:
            raise ValueError("weights must be non-negative with positive sum")
        if N < 1:
            raise ValueError("total spin count must be at least 1")
        # Counts of 2^63 or more, inf and nan would not survive the cast to
        # integers below (a Python int past the floats not even the product),
        # and rounding can carry a share of a smaller count up to 2^63.
        raw = lam / lam.sum() * N if N < 2**63 else np.inf
        if not np.all(raw < 2.0 ** 63):
            raise ValueError("total spin count is too large to split into "
                             "layers")
        base = np.floor(raw).astype(int)
        leftover = N - int(base.sum())
        order = np.argsort(-(raw - base), kind="stable")
        for i in order[:leftover]:
            base[i] += 1
        return LayerAssignment(tuple(int(n) for n in base))


@dataclass(frozen=True, eq=False)
class DisorderSample:
    """Couplings and fields of ``D`` consecutive disorder samples.

    ``couplings[p]`` is the ``(D, N_p, N_{p+1})`` stack of standard-Gaussian
    blocks of bond ``p``; ``fields[p]`` is the ``(D, N_p)`` stack of the
    per-spin external fields of layer ``p``.  ``index`` is the first
    sample, so sample ``index + d`` is row ``d`` of every array, and each
    is reproducible from ``(seed, index + d)``.  One sample is a stack of
    one.
    """

    assignment: LayerAssignment
    couplings: tuple[np.ndarray, ...]
    fields: tuple[np.ndarray, ...]
    seed: int
    index: int

    def __post_init__(self) -> None:
        sizes = self.assignment.sizes
        if len(self.couplings) != len(sizes) - 1:
            raise ValueError("need one coupling block per adjacent layer pair")
        if len(self.fields) != len(sizes):
            raise ValueError("need one field vector per layer")
        D = len(self.fields[0])
        for p, block in enumerate(self.couplings):
            if block.shape != (D, sizes[p], sizes[p + 1]):
                raise ValueError(f"coupling block {p} must have shape "
                                 f"{(D, sizes[p], sizes[p + 1])}")
        for p, h in enumerate(self.fields):
            if h.shape != (D, sizes[p]):
                raise ValueError(f"field vector {p} must have shape {(D, sizes[p])}")


@dataclass(frozen=True)
class PressureEstimate:
    """Mean and spread of per-sample pressure values across disorder."""

    mean: float
    std_error: float
    n_samples: int
    method: str
    flags: tuple[str, ...] = ()

    @staticmethod
    def from_values(values: np.ndarray, method: str,
                    flags: tuple[str, ...] = ()) -> "PressureEstimate":
        """Mean and standard error (``0`` for one sample) of ``values``."""
        n = values.size
        std_error = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return PressureEstimate(mean=float(np.mean(values)), std_error=std_error,
                                n_samples=n, method=method, flags=flags)


# ---------------------------------------------------------------------------
# disorder generation
# ---------------------------------------------------------------------------


def _stream_state(seed: int, index: int, stream: int) -> dict:
    """Philox state at the start of the stream keyed by ``(seed, index, stream)``.

    The words are Python ints in lists, which the ``state`` setter reads in
    under half the time of ``uint64`` arrays.
    """
    return {"bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, stream & _MASK64],
                      "key": [seed & _MASK64, index & _MASK64]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}


def _generator(seed: int, index: int, stream: int) -> np.random.Generator:
    """Generator on the Philox stream keyed by ``(seed, index, stream)``."""
    philox = np.random.Philox(0)
    philox.state = _stream_state(seed, index, stream)
    return np.random.Generator(philox)


def _dynamics_generator(seed: int, index: int) -> np.random.Generator:
    """Generator on sample ``index``'s Monte Carlo stream: SFC64 seeded by
    ``SeedSequence((seed, index, _STREAM_DYNAMICS))``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        (seed & _MASK64, index, _STREAM_DYNAMICS))))


def sample_disorder(assignment: LayerAssignment, params: ModelParams,
                    seed: int, index: int = 0, count: int = 1) -> DisorderSample:
    """Draw the ``count`` disorder samples keyed by ``(seed, index)`` onwards.

    This is the one place that draws disorder.  Sample ``index + d`` is
    drawn into row ``d`` of the stack from its own counter-based stream,
    so it is independent of any other randomness in the process and of how
    the samples are stacked: one Philox bit generator is re-keyed for
    each.  Couplings are drawn bond by bond, then fields layer by layer.
    A sample's couplings are one row of a ``(count, sum N_p N_{p+1})``
    buffer, filled by one call in that order, and the per-bond ``couplings``
    are views of it.  A field is drawn from its law: a Gaussian draw when
    ``v > 0``, the atom itself when there is one, and a draw among the
    atoms otherwise, so a layer whose field is constant takes nothing from
    the stream and is filled once for the whole stack.
    """
    sizes = assignment.sizes
    if params.K != len(sizes):
        raise ValueError("assignment and parameters disagree on the layer count")
    ends = np.cumsum([0] + [a * b for a, b in zip(sizes, sizes[1:])]).tolist()
    bonds = np.empty((count, ends[-1]))
    couplings = tuple(bonds[:, lo:hi].reshape(count, a, b) for lo, hi, a, b
                      in zip(ends, ends[1:], sizes, sizes[1:]))
    fields = tuple(np.empty((count, n)) for n in sizes)
    drawn = []
    for field, rows in zip(params.fields, fields):
        if field.v == 0.0 and len(field.values) == 1:
            rows[...] = field.values[0]
        else:
            drawn.append((field, rows))
    philox = np.random.Philox(0)
    gen = np.random.Generator(philox)
    # One state, re-keyed in place for each sample.
    state = _stream_state(seed, index, _STREAM_DISORDER)
    key = state["state"]["key"]
    for d in range(count):
        key[1] = (index + d) & _MASK64
        philox.state = state
        gen.standard_normal(out=bonds[d])
        for field, rows in drawn:
            if field.v > 0.0:
                gen.standard_normal(out=rows[d])
                rows[d] *= math.sqrt(field.v)
            else:
                rows[d] = gen.choice(field.values, size=rows.shape[1], p=field.probs)
    return DisorderSample(assignment=assignment, couplings=couplings,
                          fields=fields, seed=seed, index=index)


def _disorder_stacks(assignment: LayerAssignment, params: ModelParams,
                     seed: int, n_disorder: int, work_entries: int):
    """Samples ``0 .. n_disorder - 1`` as consecutive :class:`DisorderSample` stacks.

    A stack holds at most :data:`_CHUNK_ENTRIES` entries of couplings plus
    ``work_entries`` per sample, the caller's working arrays (and at least
    one sample).  Those are what the caller holds for a whole stack:
    enumeration, which reduces a stack in chunks of samples
    (:func:`log_partition`), counts only its linear map.
    """
    sizes = assignment.sizes
    per_sample = sum(a * b for a, b in zip(sizes, sizes[1:])) + work_entries
    width = max(1, _CHUNK_ENTRIES // max(1, per_sample))
    for start in range(0, n_disorder, width):
        yield sample_disorder(assignment, params, seed, start,
                              min(width, n_disorder - start))


# ---------------------------------------------------------------------------
# Hamiltonian and exact enumeration
# ---------------------------------------------------------------------------


def _split_layers(assignment: LayerAssignment, sigma: np.ndarray) -> list[np.ndarray]:
    """Per-layer views of one configuration ``(N,)`` or of a stack ``(n, N)``."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim not in (1, 2) or sigma.shape[-1] != assignment.N:
        raise ValueError(
            f"spin configurations must have shape ({assignment.N},) or (n, {assignment.N})")
    if not np.all(np.abs(sigma) == 1.0):
        raise ValueError("spins must be +-1")
    bounds = np.cumsum((0,) + assignment.sizes)
    return [sigma[..., bounds[p]:bounds[p + 1]]
            for p in range(len(assignment.sizes))]


def hamiltonian(sample: DisorderSample, sigma, params: ModelParams):
    """Interaction energy ``-sqrt(2/N) sum_p beta_p sigma_p . J_p sigma_{p+1}``.

    Fields enter ``Z`` separately.  ``sigma`` is one configuration of shape
    ``(N,)`` or a stack of shape ``(n, N)``, and ``sample`` a stack of ``D``
    samples.  The energies have shape ``(D,)`` for one configuration and
    ``(D, n)`` for ``n``.  Each sample goes through its own matrix product
    and per-row reduction, so its energies have the same bits in a stack of
    any width.
    """
    if params.K != len(sample.assignment.sizes):
        raise ValueError("sample and parameters disagree on the layer count")
    parts = _split_layers(sample.assignment, sigma)
    total = np.zeros((len(sample.fields[0]),) + parts[0].shape[:-1])
    for p, block in enumerate(sample.couplings):
        total += params.beta[p] * np.einsum("...i,...i->...", parts[p] @ block,
                                            parts[p + 1])
    return -math.sqrt(2.0 / sample.assignment.N) * total


def layer_overlaps(assignment: LayerAssignment, sigma, tau) -> np.ndarray:
    """Per-layer overlaps ``(sigma_p . tau_p) / N_p`` (zero for empty layers)."""
    if np.ndim(sigma) != 1 or np.ndim(tau) != 1:
        raise ValueError("layer overlaps take two single configurations")
    parts_s = _split_layers(assignment, sigma)
    parts_t = _split_layers(assignment, tau)
    out = np.zeros(len(assignment.sizes))
    for p, n in enumerate(assignment.sizes):
        if n > 0:
            out[p] = float(parts_s[p] @ parts_t[p]) / n
    return out


def _spin_table(n: int) -> np.ndarray:
    """All ``2^n`` configurations of ``n`` spins, shape ``(2^n, n)``.

    Row ``c`` has spin ``i`` equal to ``+1`` where bit ``i`` of ``c`` is set;
    the rows from ``2^i`` to ``2^(i+1) - 1`` repeat the first ``2^i`` rows
    with spin ``i`` up, so row ``2^n - 1 - c`` is the flip of row ``c``.
    Enumeration reads only the first half, transposed
    (:func:`_half_table_t`).
    """
    table = np.full((1 << n, n), -1.0)
    for i in range(n):
        half = 1 << i
        table[half:2 * half, :i] = table[:half, :i]
        table[half:2 * half, i] = 1.0
    return table


@functools.cache
def _half_table_t(n: int) -> np.ndarray:
    """The first ``ceil(2^n / 2)`` rows of :func:`_spin_table`, transposed to
    a contiguous ``(n, ceil(2^n / 2))`` array.

    Built on first use, cached and read-only: :func:`log_partition` asks for
    at most 13 sizes, the largest of ``12 x 2^11`` entries.
    """
    table = _spin_table(n)
    half = np.ascontiguousarray(table[:(len(table) + 1) // 2].T)
    half.flags.writeable = False
    return half


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a)))`` over the last axis of a finite array.

    A transcription of ``scipy.special.logsumexp``'s algorithm, bit for bit
    without its per-call dispatch: the ``m`` entries equal to the maximum
    are split out of the sum of the shifted exponentials ``s``, and the
    result is ``log1p(s / m) + log(m) + max``.
    """
    top = np.max(a, axis=-1, keepdims=True)
    ties = a == top
    shifted = np.exp(a - top)
    shifted[ties] = 0.0
    m = np.count_nonzero(ties, axis=-1)
    return np.log1p(np.sum(shifted, axis=-1) / m) + np.log(m) + top[..., 0]


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """The sum over the leading axis of ``terms``, with the bits of
    ``np.sum(rows, axis=-1)`` on the same terms laid out as contiguous rows.

    NumPy sums a row of ``n`` terms pairwise, onto an initial 0: below 8
    terms one by one; up to 128 in eight running sums, over every eighth
    term, combined as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 +
    r7))``, and then the last ``n mod 8`` terms one by one; past 128 as the
    sums of two parts, the first ``n // 2`` rounded down to a multiple of 8
    terms long.  Here each addition in that order is one NumPy call over the
    trailing axes, so it runs one long loop over every row at once.  Every
    value is NumPy's, and a zero is ``+0.0``, as NumPy's initial 0 makes it.
    """
    n = len(terms)
    if n > 128:
        cut = n // 2 - n // 2 % 8
        return _row_sum(terms[:cut]) + _row_sum(terms[cut:])
    total = np.zeros(terms.shape[1:])
    stop = 0 if n < 8 else n - n % 8
    if stop:
        running = terms[:8]
        for i in range(8, stop, 8):
            running = running + terms[i:i + 8]
        running = running[0::2] + running[1::2]
        total += (running[0] + running[1]) + (running[2] + running[3])
    for term in terms[stop:]:
        total += term
    return total


def _log_cosh_sum(local: np.ndarray) -> np.ndarray:
    """``sum log 2 cosh g`` over the leading axis of ``local``, overwritten.

    Each term is ``|g| + log1p(exp(-2|g|))``; the soft parts take one more
    array of ``local``'s shape.  The terms of one sum lie one per row, and
    :func:`_row_sum` adds them in the order ``np.sum(axis=-1)`` takes.
    """
    np.abs(local, out=local)
    soft = np.multiply(local, -2.0)
    np.exp(soft, out=soft)
    np.log1p(soft, out=soft)
    soft += local
    return _row_sum(soft)


def log_partition(sample: DisorderSample, params: ModelParams):
    """Exact ``log Z``: enumerate one parity class of layers, sum the other.

    Given the spins of the even-indexed layers, each spin of an odd-indexed
    layer sees a fixed local field ``g`` (its external field plus the
    couplings to its two neighbours) and sums to ``log 2 cosh g``, computed
    as ``|g| + log1p(exp(-2|g|))``; the same holds with the classes swapped.
    The class with fewer spins is enumerated (the even one on a tie), so
    with the cap of ``N <= 24`` spins there are at most ``2^12`` rows.  The
    enumerated spins enter linearly, through their own fields and the local
    fields of the summed spins, so all rows come from one product of the
    configuration table with a matrix.  Flipping every enumerated spin
    negates a row of that product, and the table's second half holds the
    flips of its first half in reverse order, so only the first half is
    multiplied: a flipped row's local fields are ``h - row`` and its field
    term is ``-row[0]``.  Where the summed spins have no fields, the
    flipped rows' ``log 2 cosh`` sums are the rows' own and are not
    computed again, and the fields are not added (``|g + 0| = |g|``).

    The class couplings, the linear map and the fields are built once for
    the stack.  The product is formed already transposed, as the linear
    map's transpose times the transposed half table (:func:`_half_table_t`),
    so that the field term and each summed spin's local fields are
    contiguous rows over the configurations (and the samples of a chunk):
    every step after it runs one long loop, and the ``log 2 cosh`` terms are
    summed row by row (:func:`_row_sum`) in the order ``np.sum(axis=-1)``
    takes over a configuration's terms.  The rows reach :func:`_logsumexp`
    in table order, so the values have the bits of the whole table's.  The
    samples of a stack of ``D`` go through the product and the reductions a
    chunk at a time, as many as fit :data:`_ENUM_ENTRIES` entries of half
    product (at least one), each chunk in one product and one
    :func:`_logsumexp` call, and the stack gives an array of ``D`` values.
    Beside the stack's linear map, the working set is at most three arrays
    of a chunk's half product: the product, one half's local fields and
    their ``log1p(exp(-2|g|))`` terms, which stay in cache.
    """
    assignment = sample.assignment
    sizes = assignment.sizes
    N = assignment.N
    K = len(sizes)
    if params.K != K:
        raise ValueError("sample and parameters disagree on the layer count")
    if N > EXACT_SPIN_CAP:
        raise ValueError(
            f"exact enumeration is capped at {EXACT_SPIN_CAP} spins; "
            "use the Monte Carlo estimator for larger systems")
    if K == 1:
        h = sample.fields[0]
        return np.sum(np.logaddexp(h, -h), axis=-1)
    scale = math.sqrt(2.0 / N)
    even, odd = _class_couplings(sizes, sample.couplings,
                                 [scale * b for b in params.beta])
    first = 0 if even <= N - even else 1
    enumerated, summed = sample.fields[first::2], sample.fields[1 - first::2]
    # Row j of sample d's linear map takes its enumerated spins, in class
    # order, to column j of its product: column 0 to their fields, the rest
    # to the summed spins' coupling fields, per odd layer the columns of W_p
    # if the odd class is enumerated, else those of W_p^T.
    n = N - even if first else even
    D = len(sample.fields[0])
    linear_t = np.zeros((N - n + 1, D, n))
    linear_t[0] = np.concatenate(enumerated, axis=-1)
    for cols, window, w, w_t in odd:
        if first:
            linear_t[window.start + 1:window.stop + 1, :, cols] = w.transpose(2, 0, 1)
        else:
            linear_t[cols.start + 1:cols.stop + 1, :, window] = w_t.transpose(2, 0, 1)
    summed_fields = np.concatenate(summed, axis=-1).T[..., None]
    has_fields = summed_fields.any()
    # Row 2^r - 1 - c of the table is the flip of row c, and flipping every
    # enumerated spin negates its row of the product: the first n_flips rows
    # of the half table are those whose flips are the second half, reversed.
    # A one-row table (no enumerated spins) has no second half.
    half_t = _half_table_t(n)
    n_flips = (1 << n) // 2
    width = max(1, _ENUM_ENTRIES // (len(linear_t) * half_t.shape[1]))
    values = np.empty(D)
    for lo in range(0, D, width):
        chunk = linear_t[:, lo:lo + width]
        M, d = chunk.shape[:2]
        # (1 + summed spins, samples of the chunk, rows of the half table),
        # from one matrix product over the chunk's rows: a product per
        # summed spin would go to BLAS as a matrix-vector product for a
        # chunk of one sample, which groups its sums differently.
        rows = (chunk.reshape(M * d, n) @ half_t).reshape(M, d, -1)
        field_term, flips = rows[0], rows[0, :, :n_flips]
        if has_fields:
            local = summed_fields[:, lo:lo + width]
            up = _log_cosh_sum(rows[1:] + local)
            down = _log_cosh_sum(local - rows[1:, :, :n_flips])
        else:
            # |-g| = |g|: without fields the flipped rows' terms are the rows'.
            up = _log_cosh_sum(rows[1:])
            down = up[..., :n_flips]
        values[lo:lo + width] = _logsumexp(
            np.concatenate((field_term + up, (down - flips)[..., ::-1]), axis=-1))
    return values


def exact_pressure(assignment: LayerAssignment, params: ModelParams,
                   n_disorder: int = 200, seed: int = 0) -> PressureEstimate:
    """Quenched pressure by full enumeration over seeded disorder samples.

    The samples are enumerated a stack at a time.  A stack is budgeted its
    couplings and :func:`log_partition`'s linear map per sample, the arrays
    it holds for the whole stack; enumeration bounds its own working set by
    chunks of samples.  So a run at ``N = 24`` draws about 900 samples at
    once.
    """
    if assignment.N > EXACT_SPIN_CAP:
        raise ValueError(
            f"exact enumeration is capped at {EXACT_SPIN_CAP} spins; "
            "use the Monte Carlo estimator (mc_pressure) for larger systems")
    if n_disorder < 1:
        raise ValueError("need at least one disorder sample")
    even, odd = sum(assignment.sizes[0::2]), sum(assignment.sizes[1::2])
    linear = min(even, odd) * (1 + max(even, odd))
    values = np.concatenate([
        log_partition(stack, params)
        for stack in _disorder_stacks(assignment, params, seed, n_disorder,
                                      linear)]) / assignment.N
    return PressureEstimate.from_values(values, "exact_enum")


# ---------------------------------------------------------------------------
# Monte Carlo pressure (thermodynamic integration + parallel tempering)
# ---------------------------------------------------------------------------


def _t_tail(t: float) -> float:
    """``P(|T| > t)`` for Student's ``T`` with ``nu = _DRIFT_BATCHES - 2``
    degrees of freedom (``nu`` even), at ``t > 0``.

    For even ``nu`` (Abramowitz and Stegun 26.7.4), with ``theta =
    arctan(t / sqrt(nu))``, ``P(|T| <= t)`` is ``sin(theta)`` times the
    first ``nu / 2`` terms of ``sum_k c_k cos(theta)^(2k)``, where ``c_k =
    (2k - 1)!! / (2k)!!`` are the coefficients of ``(1 - x)^(-1/2)``.  The
    whole series is ``1 / sin(theta)``, so the tail is the positive
    remainder ``sin(theta) * sum_{k >= nu/2} c_k cos(theta)^(2k)``, summed
    smallest term first; ``1 - P(|T| <= t)`` would cancel.
    """
    nu = _DRIFT_BATCHES - 2
    cos2 = nu / (nu + t * t)
    k = nu // 2
    term = math.prod((2 * j - 1) / (2 * j) for j in range(1, k + 1)) * cos2**k
    terms = [term]
    while term > 2.0**-60 * terms[0]:
        term *= cos2 * (2 * k + 1) / (2 * k + 2)
        k += 1
        terms.append(term)
    return t / math.sqrt(nu + t * t) * sum(reversed(terms))


def _t_quantile(level: float) -> float:
    """The ``t`` whose tail :func:`_t_tail` is ``level``.

    Bisection over the floats of ``[1, 1e4]``, whose tails bracket every
    level the caps on a verify run allow, ends at two neighbours, and the
    one whose tail is nearer ``level`` is returned.
    """
    lo, hi = 1.0, 1e4
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _t_tail(mid) > level:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo if abs(_t_tail(lo) - level) < abs(_t_tail(hi) - level) else hi


@functools.cache
def _drift_threshold(tests: int) -> float:
    """The ``|t|`` past which :func:`_drift_detected` flags one of ``tests``
    series: the two-sided quantile at the Bonferroni level ``_DRIFT_LEVEL /
    tests`` itself, not at a probability ``1 - level / 2`` rounded first."""
    return _t_quantile(_DRIFT_LEVEL / tests)


def _drift_detected(records: np.ndarray) -> bool:
    """Whether any energy series in ``records`` drifts, by batch means.

    ``records`` has shape ``(S, ...)``: one series of ``S`` sweeps per
    trailing index, ``m`` series in all.  The last ``10 L`` sweeps of each
    series (``L = S // 10``) form ten batches of ``L`` sweeps.  Batches much
    longer than the autocorrelation time have nearly independent, normal
    means, so the least-squares slope of the batch means against the batch
    index, over its standard error from their scatter about the fitted
    line, is a Student ``t`` statistic with 8 degrees of freedom.  A series
    drifts when ``|t|`` exceeds the two-sided ``_DRIFT_LEVEL / m`` quantile
    (Bonferroni), :func:`_drift_threshold`, so a row of equilibrated series
    is flagged with probability at most ``_DRIFT_LEVEL``.  Series shorter
    than 20 sweeps are never flagged.
    """
    records = np.asarray(records, dtype=float)
    length = records.shape[0] // _DRIFT_BATCHES
    if length < 2:
        return False
    tail = records[records.shape[0] - _DRIFT_BATCHES * length:]
    batches = tail.reshape((_DRIFT_BATCHES, length) + tail.shape[1:]).mean(axis=1)
    index = np.arange(_DRIFT_BATCHES) - 0.5 * (_DRIFT_BATCHES - 1)
    index = index.reshape((-1,) + (1,) * (batches.ndim - 1))
    spread = np.sum(index**2)
    slope = np.sum(index * batches, axis=0) / spread
    residual = batches - batches.mean(axis=0) - slope * index
    scatter = np.sum(residual**2, axis=0) / (_DRIFT_BATCHES - 2)
    tests = max(1, int(np.prod(records.shape[1:])))
    threshold = _drift_threshold(tests)
    return bool(np.any(np.abs(slope) > threshold * np.sqrt(scatter / spread)))


def _expit(x: float) -> float:
    """The logistic ``1 / (1 + exp(-x))`` through libm's ``exp``, and 0
    where ``exp(-x)`` overflows (``x`` below about ``-709.78``): the form
    SciPy's ``expit`` evaluates, which gives 0 there too."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _class_couplings(sizes: tuple[int, ...], couplings, factors) -> tuple[int, list]:
    """The chain's couplings by parity class, for the two-colour sweep and
    :func:`log_partition`'s linear map.

    A state is held in class order, the even-indexed layers and then the
    odd-indexed ones, as two blocks, so the two neighbours ``p - 1`` and
    ``p + 1`` of an odd layer ``p`` sit side by side in the even block.
    Returns the even block's width and, per odd layer ``p``, a tuple of its
    columns in the odd block, its neighbours' columns in the even block,
    ``W_p = [C_{p-1}^T | C_p]`` (shape ``(D, N_p, N_{p-1} + N_{p+1})``) and
    ``W_p^T``, both contiguous, where ``C_q`` is ``factors[q]`` times
    ``couplings[q]`` (``C_p`` is left out for the last layer).  Together
    they hold the entries of every bond twice, once per direction.
    """
    K = len(sizes)
    evens = np.cumsum((0,) + sizes[0::2])
    odds = np.cumsum((0,) + sizes[1::2])
    odd = []
    for k, p in enumerate(range(1, K, 2)):
        parts = [factors[p - 1] * couplings[p - 1]]
        if p < K - 1:
            parts.append(factors[p] * np.swapaxes(couplings[p], -1, -2))
        down = np.concatenate(parts, axis=-2)
        odd.append((slice(odds[k], odds[k + 1]),
                    slice(evens[k], evens[min(k + 2, len(evens) - 1)]),
                    np.ascontiguousarray(np.swapaxes(down, -1, -2)), down))
    return int(evens[-1]), odd


@dataclass(frozen=True, eq=False)
class _ClassBlock:
    """One parity class of a stack's tempering states, with the buffers of
    its heat-bath pass.

    ``spins`` is the C-contiguous ``(D, R, n)`` block of the class's spins
    of ``D`` disorder samples at ``R`` rungs; ``field``, ``arg`` and
    ``test`` are buffers of its shape, for the spins' coupling field and
    :func:`_heat_bath`'s work.  ``minus_slope`` is minus twice each rung's
    coupling scale, broadcast to the block's shape, and ``fields2`` the
    ``(D, 1, n)`` array of twice the spins' fields, or ``None`` when every
    field of the stack is zero.
    """

    spins: np.ndarray
    minus_slope: np.ndarray
    fields2: np.ndarray | None
    field: np.ndarray
    arg: np.ndarray
    test: np.ndarray


def _class_blocks(states: np.ndarray, even: int, slope: np.ndarray,
                  fields2) -> tuple[_ClassBlock, _ClassBlock]:
    """The even and the odd :class:`_ClassBlock` of the class-ordered
    ``(D, R, N)`` states, whose first ``even`` columns are the even class.

    ``slope`` (shape ``(R, 1)``) is twice each rung's coupling scale and
    ``fields2`` the pair of the blocks' doubled fields (or of ``None``).
    The spins are copied; ``states`` is left as it is.
    """
    blocks = []
    for spins, doubled in zip((states[..., :even], states[..., even:]), fields2):
        spins = np.ascontiguousarray(spins)
        blocks.append(_ClassBlock(
            spins=spins, minus_slope=np.broadcast_to(-slope, spins.shape).copy(),
            fields2=doubled, field=np.zeros_like(spins),
            arg=np.empty_like(spins), test=np.empty_like(spins)))
    return blocks[0], blocks[1]


def _heat_bath(block: _ClassBlock, uniforms: np.ndarray) -> None:
    """Heat-bath draws of ``block.spins`` given ``block.field``, in place.

    A spin with coupling field ``g`` at rung ``r`` becomes ``+1`` with
    probability ``expit(x)``, ``x = 2 t_r g + fields2``, where ``t_r`` is
    the rung's coupling scale and ``fields2``, twice the spin's field, is
    left out when every field is zero (``expit(-0.0)`` is 0.5 too).  The
    test ``u < expit(x)`` is taken as the sign of ``1 - u (1 + exp(-x))``,
    with NumPy's vectorised ``exp``, and written to the spins.  ``-x`` is
    formed as ``g * minus_slope - fields2``, which is exact: negation
    commutes with rounding.  The scalar :func:`_expit` and the comparison
    decide the tests within :data:`_MARGIN` of 0 and the NaN ones, so every
    spin is the one the scalar logistic gives.  ``exp(-x)`` overflows for
    ``x`` below about -709.78, so the caller runs this under an
    ``np.errstate`` that ignores overflow and invalid operations
    (:func:`_tempering_sweep`).  Every operation writes to a buffer of the
    block, over its whole contiguous shape.
    """
    arg, test, spins = block.arg, block.test, block.spins
    np.multiply(block.field, block.minus_slope, out=arg)
    if block.fields2 is not None:
        arg -= block.fields2
    # u < expit(x) exactly when 1 - u (1 + exp(-x)) > 0.  The test is NaN
    # where u = 0 and exp(-x) overflows, and fails the margin.
    np.exp(arg, out=test)
    test += 1.0
    test *= uniforms
    np.subtract(1.0, test, out=test)
    np.copysign(1.0, test, out=spins)
    np.abs(test, out=test)
    # The least |test| is NaN where some test is.
    if test.size and not test.min() > _MARGIN:
        unsure = ~(test > _MARGIN)
        spins[unsure] = [1.0 if u < _expit(-v) else -1.0 for u, v in
                         zip(uniforms[unsure].tolist(), arg[unsure].tolist())]


def _tempering_sweep(blocks: tuple[_ClassBlock, _ClassBlock], odd: list,
                     draws: np.ndarray, out: np.ndarray) -> None:
    """One two-colour heat-bath sweep over every rung and stacked sample.

    ``blocks`` are the even and the odd :class:`_ClassBlock` of ``D``
    disorder samples at ``R`` rungs (:func:`_class_blocks`), updated in
    place, and ``odd`` is :func:`_class_couplings`'s.  Given the odd
    layers, every spin of the even ones is independent, and the reverse
    holds too, so the sweep is two heat-bath passes (:func:`_heat_bath`):
    the even block, then the odd one, under one ``np.errstate``.  The even
    block's coupling field is one product ``sigma_p @ W_p`` per odd layer,
    added into the columns of its neighbours; the odd block's is one
    product of the neighbours' columns with ``W_p^T`` per odd layer.  With
    one odd layer (``K`` = 2 or 3) each product is of whole blocks and
    writes straight into the block's ``field``.  Row ``d`` of ``draws``
    (shape ``(D, >= R * N)``, rows of any stride) starts with sample ``d``'s
    ``R * N`` uniforms, the even block's and then the odd block's.  Every
    bond joins an even and an odd layer, so the odd pass's products,
    contracted with the updated odd block, are ``-H``: they are written to
    ``out``, shape ``(D, R)`` and of any strides, per sample and rung.
    """
    even, odds = blocks
    D, R, n_even = even.spins.shape
    n_draws = R * (n_even + odds.spins.shape[-1])
    if len(odd) == 1:
        # K = 2 or 3: the one odd layer's neighbours are the whole even block.
        _, _, up, down = odd[0]
        np.matmul(odds.spins, up, out=even.field)
    else:
        even.field[...] = 0.0
        for cols, window, up, _ in odd:
            even.field[..., window] += odds.spins[..., cols] @ up
    with np.errstate(over="ignore", invalid="ignore"):
        _heat_bath(even, draws[:, :R * n_even].reshape(even.spins.shape))
        if len(odd) == 1:
            np.matmul(even.spins, down, out=odds.field)
        else:
            for cols, window, _, down in odd:
                odds.field[..., cols] = even.spins[..., window] @ down
        _heat_bath(odds, draws[:, R * n_even:n_draws].reshape(odds.spins.shape))
    np.einsum("dri,dri->dr", odds.field, odds.spins, out=out)


def _log_below(u: np.ndarray, log_u: np.ndarray, near: np.ndarray,
               threshold: np.ndarray) -> np.ndarray:
    """Whether libm's ``log(u) < threshold``, entry by entry.

    ``log_u`` is NumPy's ``log(u)`` and ``near`` is ``_MARGIN * |log_u|``.
    NumPy's log may round differently from libm's in the last places, so it
    decides only where it is further than ``near`` from the threshold, and
    libm's log, as a single chain's scalar swap test takes it, decides the
    rest.
    """
    below = log_u < threshold
    unsure = np.abs(log_u - threshold) <= near
    if unsure.any():
        below[unsure] = _libm_log(u[unsure]) < threshold[unsure]
    return below


def mc_pressure(assignment: LayerAssignment, params: ModelParams,
                n_disorder: int = 200, sweeps: int = 400, replicas: int = 21,
                seed: int = 0) -> PressureEstimate:
    """Quenched pressure by thermodynamic integration with parallel tempering.

    ``log Z`` at coupling scale one is the decoupled (fields-only) value
    plus the integral over the scale ``t`` in ``[0, 1]`` of the mean of
    ``-H`` (:func:`hamiltonian`) under the Gibbs measure at scale ``t``.
    The ``replicas`` rungs sit at the Gauss-Legendre nodes of that
    integral; each records ``-H`` of its states after every sweep, and the
    second half of the sweeps is averaged.  A sweep is a two-colour heat
    bath (:func:`_tempering_sweep`): the states are held in class order,
    the even-indexed layers and then the odd-indexed ones, as two
    C-contiguous ``(D, R, n)`` blocks (:func:`_class_blocks`), and each
    class is updated in one pass given the other.  After every sweep,
    alternately the even and the odd neighbouring rung pairs propose to
    swap states: the tests read the pairs' gains off a ``(D, pairs, 2)``
    view of the sweep's ``-H``, which a kept sweep writes straight into the
    records, and the accepted pairs trade their rows in one masked copy per
    array, on ``(D, pairs, 2, ...)`` views of the gains and of each block.

    The chains of all disorder samples run together, stacked along a
    leading axis (a few samples at a time for large systems, see
    :func:`_disorder_stacks`).  Each sample still draws from its own
    seeded SFC64 stream (:func:`_dynamics_generator`), in the order a chain
    run alone would, so the estimate is reproducible regardless of how
    samples are stacked: first its ``(R, N)`` initial spins, then per sweep
    ``R * N`` uniforms for the spins and one per proposed swap.  The uniforms
    come in blocks of an even number of sweeps, at most
    :data:`_CHUNK_ENTRIES` entries for the stack (two sweeps at least):
    one call per sample fills its row of a buffer allocated once per stack,
    with the uniforms its sweeps would draw one by one, and the swap tests
    of the block take NumPy's logarithms in one call (libm's near a
    threshold, see :func:`_log_below`).  A
    ``nonequilibrated`` flag is attached when :func:`_drift_detected`
    finds a drift in any rung's recorded energy series.
    """
    if assignment.N > MC_SPIN_CAP:
        raise ValueError(f"Monte Carlo estimator is capped at {MC_SPIN_CAP} spins")
    if params.K != len(assignment.sizes):
        raise ValueError("assignment and parameters disagree on the layer count")
    if n_disorder < 1:
        raise ValueError("need at least one disorder sample")
    if sweeps < 2:
        raise ValueError("need at least two sweeps")
    if replicas < 1:
        raise ValueError("need at least one temperature rung")
    x, w = np.polynomial.legendre.leggauss(replicas)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    sizes = assignment.sizes
    N = assignment.N
    R = replicas
    scale = math.sqrt(2.0 / N)
    slope = (2.0 * nodes)[:, None]
    burn_in = sweeps // 2
    # Per parity of the sweep: the lower rungs of the pairs proposing swaps,
    # the node gaps scaling their log acceptance, the sweep's count of
    # uniforms, and its columns among a block's swap logarithms.
    lo = [np.arange(parity, R - 1, 2) for parity in (0, 1)]
    gap = [nodes[pairs + 1] - nodes[pairs] for pairs in lo]
    width = [R * N + pairs.size for pairs in lo]
    swap_cut = [slice(0, lo[0].size), slice(lo[0].size, None)]
    # Sample-major, so that each sample's (sweep, rung) block reduces in the
    # order of a single chain's records.
    records = np.empty((n_disorder, sweeps - burn_in, R))
    values = np.empty(n_disorder)
    for stack in _disorder_stacks(assignment, params, seed, n_disorder, 2 * R * N):
        start, fields = stack.index, stack.fields
        D = fields[0].shape[0]
        gens = [_dynamics_generator(seed, j) for j in range(start, start + D)]
        states = np.stack([gen.integers(0, 2, size=(R, N)) for gen in gens])
        states = states.astype(float) * 2.0 - 1.0
        even, odd = _class_couplings(sizes, stack.couplings,
                                     [scale * b for b in params.beta])
        # Zero fields add nothing but a sign to a zero: expit(-0.0) is 0.5.
        fields2 = (None, None)
        if any(h.any() for h in fields):
            doubled = 2.0 * np.concatenate(fields[0::2] + fields[1::2], axis=1)[:, None, :]
            fields2 = (doubled[..., :even], doubled[..., even:])
        blocks = _class_blocks(states, even, slope, fields2)
        # Per parity, the blocks' rungs of the pairs proposing swaps as
        # (D, pairs, 2, n) views: an accepted pair trades its two rows.
        pair_views = [[block.spins[:, p:p + 2 * pairs.size].reshape(
            D, pairs.size, 2, block.spins.shape[-1]) for block in blocks]
            for p, pairs in enumerate(lo)]
        scratch = np.empty((D, R))
        # draws[d, k] holds sample d's uniforms for the k-th even sweep of
        # the block, then for the odd sweep after it.  Zeros, not garbage,
        # where a part block leaves its last odd sweep unfilled: the swap
        # logarithms are taken over whole pairs.
        pair_width = width[0] + width[1]
        per_block = max(2, 2 * (_CHUNK_ENTRIES // (D * pair_width)))
        per_block = min(per_block, sweeps + sweeps % 2)
        draws = np.zeros((D, per_block // 2, pair_width))
        rows = draws.reshape(D, -1)
        for first in range(0, sweeps, per_block):
            count = min(per_block, sweeps - first)
            filled = count // 2 * pair_width + count % 2 * width[0]
            for d, gen in enumerate(gens):
                gen.random(out=rows[d, :filled])
            used = draws[:, :(count + 1) // 2]
            swap_u = np.maximum(np.concatenate(
                (used[..., R * N:width[0]], used[..., width[0] + R * N:]),
                axis=-1), 1e-300)
            log_u = np.log(swap_u)
            near = _MARGIN * np.abs(log_u)
            for sweep in range(first, first + count):
                parity, k = sweep % 2, (sweep - first) // 2
                offset = parity * width[0]
                # -H goes straight into the records once they are kept.
                gain = (records[start:start + D, sweep - burn_in]
                        if sweep >= burn_in else scratch)
                _tempering_sweep(blocks, odd,
                                 draws[:, k, offset:offset + width[parity]], gain)
                n_pairs = lo[parity].size
                pairs = gain[:, parity:parity + 2 * n_pairs].reshape(D, n_pairs, 2)
                log_accept = gap[parity] * (pairs[..., 0] - pairs[..., 1])
                cut = swap_cut[parity]
                accept = _log_below(swap_u[:, k, cut], log_u[:, k, cut],
                                    near[:, k, cut], log_accept)
                if accept.any():
                    # Each accepted pair (r, r + 1) trades places: one masked
                    # copy per array.  Pairs of a sweep share no rung.
                    np.copyto(pairs, pairs[..., ::-1], where=accept[..., None])
                    for view in pair_views[parity]:
                        np.copyto(view, view[..., ::-1, :],
                                  where=accept[..., None, None])
        h_all = np.concatenate(fields, axis=1)
        anchor = np.sum(np.logaddexp(h_all, -h_all), axis=1) / N
        mean_gain = records[start:start + D].mean(axis=1)
        # One (1, R) @ (R, 1) product per sample rounds as a single chain's
        # dot product does; a (D, R) @ (R,) product would not.
        integral = (mean_gain[:, None, :] @ weights[:, None])[:, 0, 0]
        values[start:start + D] = anchor + integral / N
    drifted = _drift_detected(records.transpose(1, 0, 2))
    return PressureEstimate.from_values(
        values, "monte_carlo", ("nonequilibrated",) if drifted else ())


# ---------------------------------------------------------------------------
# covariance identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CovariancePair:
    """Empirical vs. predicted interaction covariance for one spin pair."""

    overlaps: np.ndarray
    empirical: float
    predicted: float
    std_error: float
    standardized: float

    to_dict = machine.json_form


def _predicted_covariance(assignment: LayerAssignment, params: ModelParams,
                          overlaps: np.ndarray) -> float:
    lam_n = assignment.weights
    beta = np.asarray(params.beta, dtype=float)
    return float(assignment.N * np.sum(
        2.0 * beta**2 * lam_n[:-1] * lam_n[1:] * overlaps[:-1] * overlaps[1:]))


def covariance_report(assignment: LayerAssignment, params: ModelParams,
                      n_disorder: int = 200, seed: int = 0, *,
                      pairs=None, n_pairs: int = 10) -> list[CovariancePair]:
    """Empirical disorder-covariance of the energy against its closed form.

    For each configuration pair, estimates ``Cov(H(sigma), H(tau))`` over
    ``n_disorder`` common disorder samples and compares it to the quadratic
    overlap form it must equal in distribution.  ``pairs`` defaults to
    ``n_pairs`` seeded random configuration pairs.  The energies of all
    ``2 * len(pairs)`` configurations come from one :func:`hamiltonian`
    call per stack of disorder samples (a few samples at a time for large
    systems).  Systems above ``MC_SPIN_CAP`` spins are refused, because the
    coupling blocks of one disorder sample grow as ``N^2``.
    """
    if n_disorder < 3:
        raise ValueError("need at least three disorder samples")
    if assignment.N > MC_SPIN_CAP:
        raise ValueError(f"the covariance check is capped at {MC_SPIN_CAP} "
                         f"spins, got {assignment.N}")
    if pairs is None:
        gen = _generator(seed, 0, _STREAM_PAIRS)
        pairs = [
            (gen.integers(0, 2, assignment.N).astype(float) * 2.0 - 1.0,
             gen.integers(0, 2, assignment.N).astype(float) * 2.0 - 1.0)
            for _ in range(n_pairs)]
    pairs = [(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
             for s, t in pairs]
    if not pairs:
        raise ValueError("need at least one configuration pair")
    configs = np.array([spins for pair in pairs for spins in pair])
    energies = np.concatenate([
        hamiltonian(stack, configs, params)
        for stack in _disorder_stacks(assignment, params, seed, n_disorder,
                                      configs.size)])
    energies = energies.T.reshape(len(pairs), 2, n_disorder)
    rows = []
    for k, (sigma, tau) in enumerate(pairs):
        ds = energies[k, 0] - energies[k, 0].mean()
        dt = energies[k, 1] - energies[k, 1].mean()
        products = ds * dt
        empirical = float(np.sum(products) / (n_disorder - 1))
        std_error = float(np.std(products, ddof=1) / math.sqrt(n_disorder))
        overlaps = layer_overlaps(assignment, sigma, tau)
        predicted = _predicted_covariance(assignment, params, overlaps)
        if std_error > 0.0:
            standardized = abs(empirical - predicted) / std_error
        else:
            standardized = 0.0 if empirical == predicted else math.inf
        rows.append(CovariancePair(overlaps=overlaps, empirical=empirical,
                                   predicted=predicted, std_error=std_error,
                                   standardized=standardized))
    return rows


# ---------------------------------------------------------------------------
# annealed trend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrendRow:
    """One system size in the annealed-trend table."""

    N: int
    method: str
    mean: float
    std_error: float
    p_annealed: float
    gap: float
    flags: tuple[str, ...] = ()

    to_dict = machine.json_form


@dataclass(frozen=True)
class TrendReport:
    """Finite-size pressure estimates against the annealed value."""

    rows: tuple[TrendRow, ...]
    p_annealed: float
    jensen_ok: bool
    gap_decreasing: bool

    to_dict = machine.json_form


def annealed_trend(params: ModelParams, sizes, n_disorder: int = 200,
                   seed: int = 0, *, sweeps: int = 400,
                   replicas: int = 21) -> TrendReport:
    """Pressure estimates across system sizes inside the annealed region.

    Requires zero external fields and parameters strictly inside the
    annealed region (outside it the limiting comparison value is not the
    annealed pressure, so the trend would be meaningless).  Sizes must be
    strictly increasing; systems up to 24 spins are enumerated exactly and
    larger ones (up to 4096) sampled by Monte Carlo.  Each row records the
    estimate and its gap to the annealed pressure; rows violating the
    annealed upper bound by more than three standard errors are flagged.
    """
    if not params.zero_fields:
        raise ValueError("the annealed trend is defined for zero external fields")
    regions = machine._classify(params, machine.spectral_radius(params))
    if regions.verdict[0] != "inside":
        raise ValueError(
            "parameters must lie strictly inside the annealed region "
            f"(classified as '{regions.verdict[0]}')")
    assignments = list(sizes)
    if len(assignments) < 2:
        raise ValueError("need at least two system sizes to compare")
    totals = [a.N for a in assignments]
    if any(b <= a for a, b in zip(totals, totals[1:])):
        raise ValueError("system sizes must be strictly increasing")
    p_annealed = machine.annealed_pressure(params)
    rows = []
    for assignment in assignments:
        if assignment.N <= EXACT_SPIN_CAP:
            est = exact_pressure(assignment, params, n_disorder, seed)
        elif assignment.N <= MC_SPIN_CAP:
            est = mc_pressure(assignment, params, n_disorder, sweeps,
                              replicas, seed)
        else:
            raise ValueError(f"system size {assignment.N} exceeds every estimator cap")
        flags = est.flags
        # 1e-12 absolute slack so pure round-off never flags an exact estimate
        if not est.mean <= p_annealed + 3.0 * est.std_error + 1e-12:
            flags = flags + ("jensen_violation",)
        rows.append(TrendRow(N=assignment.N, method=est.method, mean=est.mean,
                             std_error=est.std_error, p_annealed=p_annealed,
                             gap=p_annealed - est.mean, flags=flags))
    jensen_ok = all("jensen_violation" not in row.flags for row in rows)
    gap_decreasing = bool(rows[-1].gap < rows[0].gap)
    return TrendReport(rows=tuple(rows), p_annealed=p_annealed,
                       jensen_ok=jensen_ok, gap_decreasing=gap_decreasing)
