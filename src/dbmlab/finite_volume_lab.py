"""Finite-size ground truth for the layered model.

Draws reproducible disorder samples (couplings and external fields),
evaluates the Hamiltonian and exact log-partition functions for small
systems, estimates the quenched pressure by thermodynamic integration
with parallel tempering for larger ones, checks the Gaussian covariance
identity of the interaction energy, and tabulates how finite-size
pressure estimates approach the annealed value inside the annealed
region.

Randomness is counter-based: every disorder sample is generated from a
Philox stream keyed by ``(master seed, sample index, stream id)``, so
results are bit-identical regardless of evaluation order or parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import machine
from .machine import FieldSpec, ModelParams

_LOG2 = math.log(2.0)
_MASK64 = (1 << 64) - 1

EXACT_SPIN_CAP = 24
MC_SPIN_CAP = 4096

# Stream ids within one (seed, index) Philox key.
_STREAM_DISORDER = 0
_STREAM_DYNAMICS = 1
_STREAM_PAIRS = 2

# Entries per chunk when contracting layer transfer blocks.
_CHUNK_ENTRIES = 1 << 22


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
        raw = lam / lam.sum() * N
        base = np.floor(raw).astype(int)
        leftover = N - int(base.sum())
        order = np.argsort(-(raw - base), kind="stable")
        for i in order[:leftover]:
            base[i] += 1
        return LayerAssignment(tuple(int(n) for n in base))


@dataclass(frozen=True, eq=False)
class DisorderSample:
    """One realization of couplings and fields for a finite assignment.

    ``couplings[p]`` is the ``N_p x N_{p+1}`` standard-Gaussian block of
    bond ``p``; ``fields[p]`` holds the per-spin external fields of layer
    ``p``.  Reproducible from ``(seed, index)``.
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
        for p, block in enumerate(self.couplings):
            if block.shape != (sizes[p], sizes[p + 1]):
                raise ValueError(
                    f"coupling block {p} must have shape {(sizes[p], sizes[p + 1])}")
        if len(self.fields) != len(sizes):
            raise ValueError("need one field vector per layer")
        for p, h in enumerate(self.fields):
            if h.shape != (sizes[p],):
                raise ValueError(f"field vector {p} must have shape ({sizes[p]},)")


@dataclass(frozen=True)
class PressureEstimate:
    """Mean and spread of per-sample pressure values across disorder."""

    mean: float
    std_error: float
    n_samples: int
    method: str
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "mean": float(self.mean),
            "std_error": float(self.std_error),
            "n_samples": int(self.n_samples),
            "method": self.method,
            "flags": list(self.flags),
        }


# ---------------------------------------------------------------------------
# disorder generation
# ---------------------------------------------------------------------------


def _generator(seed: int, index: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, 0, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _draw_field(gen: np.random.Generator, field: FieldSpec, n: int) -> np.ndarray:
    if field.kind == "zero":
        return np.zeros(n)
    if field.kind == "gaussian_centered":
        return math.sqrt(field.v) * gen.standard_normal(n)
    if field.kind == "point_mass":
        return np.full(n, field.values[0])
    return gen.choice(np.asarray(field.values, dtype=float), size=n,
                      p=np.asarray(field.probs, dtype=float))


def sample_disorder(assignment: LayerAssignment, params: ModelParams,
                    seed: int, index: int = 0) -> DisorderSample:
    """Draw the disorder sample keyed by ``(seed, index)``.

    Couplings are drawn bond by bond, then fields layer by layer, from a
    dedicated counter-based stream, so the draw is independent of any
    other randomness in the process.
    """
    sizes = assignment.sizes
    if params.K != len(sizes):
        raise ValueError("assignment and parameters disagree on the layer count")
    gen = _generator(seed, index, _STREAM_DISORDER)
    couplings = tuple(
        gen.standard_normal((sizes[p], sizes[p + 1]))
        for p in range(len(sizes) - 1))
    fields = tuple(
        _draw_field(gen, params.fields[p], sizes[p]) for p in range(len(sizes)))
    return DisorderSample(assignment=assignment, couplings=couplings,
                          fields=fields, seed=seed, index=index)


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
    ``(N,)``, giving a ``float``, or a stack of shape ``(n, N)``, giving an
    array of ``n`` energies, one per row.
    """
    if params.K != len(sample.assignment.sizes):
        raise ValueError("sample and parameters disagree on the layer count")
    parts = _split_layers(sample.assignment, sigma)
    total = np.zeros(parts[0].shape[:-1])
    for p in range(params.K - 1):
        total += params.beta[p] * np.einsum(
            "...i,...i->...", parts[p] @ sample.couplings[p], parts[p + 1])
    energy = -math.sqrt(2.0 / sample.assignment.N) * total
    return float(energy) if energy.ndim == 0 else energy


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


def _signed_sums(vectors: np.ndarray) -> np.ndarray:
    """All ``2^n`` signed column sums of an ``(n, m)`` array.

    Row order follows the binary code of the sign pattern: bit ``i`` of the
    row index is ``1`` where entry ``i`` enters with ``+``.
    """
    out = np.zeros((1, vectors.shape[1]))
    for row in vectors:
        out = np.concatenate((out - row, out + row), axis=0)
    return out


def _spin_block(codes: np.ndarray, n: int) -> np.ndarray:
    """Rows of the +-1 configuration table for the given binary codes."""
    return ((codes[:, None] >> np.arange(n)) & 1).astype(float) * 2.0 - 1.0


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a)))`` over the last axis; overwrites ``a``.

    The arithmetic of ``scipy.special.logsumexp`` (SciPy 1.15 and later):
    with the row max ``m`` held by ``c`` entries, those entries leave the
    sum ``s`` of ``exp(a - m)``, and the result is
    ``log1p(s / c) + log(c) + m``.  On finite rows this is bit-identical to
    SciPy; a row whose max is ``+inf``, ``-inf`` or NaN gives that max, as
    SciPy does.
    """
    m = a.max(axis=-1, keepdims=True)
    finite = np.isfinite(m)
    # Only rows with a non-finite max can raise here, and their values are
    # discarded by the last line.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a -= np.where(finite, m, 0.0)
        top = a == 0.0
        np.exp(a, out=a)
        np.copyto(a, 0.0, where=top)
        count = np.count_nonzero(top, axis=-1)
        s = a.sum(axis=-1)
        out = np.log1p(np.where(s == 0.0, s, s / count)) + np.log(count) + m[..., 0]
    return np.where(finite[..., 0], out, m[..., 0])


def log_partition(sample: DisorderSample, params: ModelParams) -> float:
    """Exact ``log Z`` by a layer-by-layer transfer contraction.

    Sums all ``2^N`` configurations in log space, processing layers left to
    right so that memory stays polynomial in the per-layer counts; capped
    at ``N <= 24`` spins.  Each transfer row is reduced by
    :func:`_logsumexp_rows`, a NumPy log-sum-exp that performs SciPy's
    ``logsumexp`` operations in SciPy's order, so ``log Z`` keeps its bits,
    but skips SciPy's second, unshifted pass over the row and its per-call
    dispatch.  A plain ``m + log(sum(exp(a - m)))`` would not keep them:
    SciPy takes the max entries out of the sum and adds ``log1p``.
    """
    assignment = sample.assignment
    sizes = assignment.sizes
    N = assignment.N
    if params.K != len(sizes):
        raise ValueError("sample and parameters disagree on the layer count")
    if N > EXACT_SPIN_CAP:
        raise ValueError(
            f"exact enumeration is capped at {EXACT_SPIN_CAP} spins; "
            "use the Monte Carlo estimator for larger systems")
    if len(sizes) == 1:
        h = sample.fields[0]
        return float(np.sum(np.logaddexp(h, -h)))
    scale = math.sqrt(2.0 / N)
    log_weights = _signed_sums(sample.fields[0][:, None])[:, 0]
    for p in range(len(sizes) - 1):
        bond = (scale * params.beta[p]) * _signed_sums(sample.couplings[p])
        n_next = sizes[p + 1]
        total_next = 1 << n_next
        nxt = np.empty(total_next)
        block = max(1, _CHUNK_ENTRIES // max(1, bond.shape[0]))
        for t0 in range(0, total_next, block):
            codes = np.arange(t0, min(t0 + block, total_next))
            spins = _spin_block(codes, n_next)
            rows = spins @ bond.T
            rows += log_weights
            nxt[t0:t0 + codes.size] = (_logsumexp_rows(rows)
                                       + spins @ sample.fields[p + 1])
        log_weights = nxt
    return float(_logsumexp_rows(log_weights))


def exact_pressure(assignment: LayerAssignment, params: ModelParams,
                   n_disorder: int = 200, seed: int = 0) -> PressureEstimate:
    """Quenched pressure by full enumeration over seeded disorder samples."""
    if assignment.N > EXACT_SPIN_CAP:
        raise ValueError(
            f"exact enumeration is capped at {EXACT_SPIN_CAP} spins; "
            "use the Monte Carlo estimator (mc_pressure) for larger systems")
    if n_disorder < 1:
        raise ValueError("need at least one disorder sample")
    values = np.empty(n_disorder)
    for j in range(n_disorder):
        sample = sample_disorder(assignment, params, seed, j)
        values[j] = log_partition(sample, params) / assignment.N
    std_error = (
        float(np.std(values, ddof=1) / math.sqrt(n_disorder))
        if n_disorder > 1 else 0.0)
    return PressureEstimate(mean=float(np.mean(values)), std_error=std_error,
                            n_samples=n_disorder, method="exact_enum")


# ---------------------------------------------------------------------------
# Monte Carlo pressure (thermodynamic integration + parallel tempering)
# ---------------------------------------------------------------------------


def _drift_detected(series: np.ndarray) -> bool:
    """Heuristic equilibration check on a per-sweep energy series.

    Splits the last fifth of the series into two windows and flags a drift
    when the window means differ by more than three pooled standard errors.
    """
    series = np.asarray(series, dtype=float)
    win = series.size // 10
    if win < 2:
        return False
    recent = series[-win:]
    previous = series[-2 * win:-win]
    pooled = math.sqrt(
        (np.var(recent, ddof=1) + np.var(previous, ddof=1)) / win)
    return bool(abs(float(np.mean(recent) - np.mean(previous))) > 3.0 * pooled)


def _tempering_sweep(layers: list[np.ndarray], coupled: list[np.ndarray],
                     slope: np.ndarray, fields2: list[np.ndarray],
                     draws: np.ndarray) -> np.ndarray:
    """One heat-bath sweep over the layers of every rung; returns ``-H`` per rung.

    ``layers[p]`` is the ``(R, N_p)`` view of layer ``p`` in the rung
    states, updated in place, and ``coupled[p]`` is ``sqrt(2/N) beta_p J_p``.
    A spin of layer ``p`` with coupling field ``g`` at rung ``r`` becomes
    ``+1`` with probability ``expit(slope[r] * g + fields2[p])``, where
    ``slope`` is twice the rung's coupling scale and ``fields2[p]`` twice
    the layer's fields.  ``draws`` holds the sweep's ``R * N`` uniforms,
    layer by layer.  The product ``layers[p] @ coupled[p]`` taken after
    layer ``p`` updates is both the left part of layer ``p + 1``'s coupling
    field and, contracted with the updated layer ``p + 1``, bond ``p``'s
    share of ``-H``.
    """
    R = slope.shape[0]
    K = len(layers)
    gain = np.zeros(R)
    local = np.zeros(layers[0].shape)
    start = 0
    for p in range(K):
        layer = layers[p]
        if p < K - 1:
            local = local + layers[p + 1] @ coupled[p].T
        stop = start + layer.size
        uniforms = draws[start:stop].reshape(layer.shape)
        start = stop
        layer[...] = np.where(uniforms < expit(slope * local + fields2[p]),
                              1.0, -1.0)
        if p > 0:
            gain += np.einsum("ri,ri->r", below, layer)
        if p < K - 1:
            below = layer @ coupled[p]
            local = below
    return gain


def _mc_sample_pressure(sample: DisorderSample, params: ModelParams,
                        sweeps: int, nodes: np.ndarray, weights: np.ndarray,
                        gen: np.random.Generator) -> tuple[float, bool]:
    """Thermodynamic-integration pressure estimate for one disorder sample.

    The coupling scale runs over Gauss-Legendre ``nodes`` in ``[0, 1]``; the
    rungs double as a parallel-tempering ladder with swap moves after every
    sweep.  The anchor at scale zero is the exact decoupled pressure, and
    the integrand at a rung is its mean ``-H``, the interaction energy
    :func:`hamiltonian` gives for the same states.  Each sweep draws its
    heat-bath and swap uniforms in one call.
    """
    assignment = sample.assignment
    sizes = assignment.sizes
    N = assignment.N
    K = len(sizes)
    R = nodes.size
    bounds = np.cumsum((0,) + sizes)
    scale = math.sqrt(2.0 / N)
    h_all = np.concatenate(sample.fields) if N else np.zeros(0)
    coupled = [(scale * params.beta[p]) * sample.couplings[p] for p in range(K - 1)]
    slope = (2.0 * nodes)[:, None]
    fields2 = [2.0 * h for h in sample.fields]

    states = gen.integers(0, 2, size=(R, N)).astype(float) * 2.0 - 1.0
    layers = [states[:, bounds[p]:bounds[p + 1]] for p in range(K)]
    burn_in = sweeps // 2
    records = np.empty((sweeps - burn_in, R))
    for sweep in range(sweeps):
        rungs = range(sweep % 2, R - 1, 2)
        draws = gen.random(R * N + len(rungs))
        gain = _tempering_sweep(layers, coupled, slope, fields2, draws)
        for r, u in zip(rungs, draws[R * N:]):
            log_accept = (nodes[r + 1] - nodes[r]) * (gain[r] - gain[r + 1])
            if math.log(max(u, 1e-300)) < log_accept:
                states[[r, r + 1]] = states[[r + 1, r]]
                gain[[r, r + 1]] = gain[[r + 1, r]]
        if sweep >= burn_in:
            records[sweep - burn_in] = gain
    anchor = float(np.sum(np.logaddexp(h_all, -h_all))) / N
    mean_gain = records.mean(axis=0)
    value = anchor + float(weights @ mean_gain) / N
    drift = any(_drift_detected(records[:, r]) for r in range(R))
    return value, drift


def mc_pressure(assignment: LayerAssignment, params: ModelParams,
                n_disorder: int = 200, sweeps: int = 400, replicas: int = 21,
                seed: int = 0) -> PressureEstimate:
    """Quenched pressure by thermodynamic integration with parallel tempering.

    ``log Z`` at coupling scale one is the decoupled (fields-only) value
    plus the integral over the scale ``t`` in ``[0, 1]`` of the mean of
    ``-H`` (:func:`hamiltonian`) under the Gibbs measure at scale ``t``.
    The ``replicas`` rungs sit at the Gauss-Legendre nodes of that
    integral; each records ``-H`` of its states after every sweep, and the
    second half of the sweeps is averaged.  Each disorder sample gets an
    independent keyed random stream, so the estimate is reproducible
    regardless of evaluation order.  A ``nonequilibrated`` flag is attached
    when any temperature rung shows a significant energy drift late in its
    sweep series.
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
    values = np.empty(n_disorder)
    drifted = False
    for j in range(n_disorder):
        sample = sample_disorder(assignment, params, seed, j)
        gen = _generator(seed, j, _STREAM_DYNAMICS)
        values[j], drift = _mc_sample_pressure(sample, params, sweeps, nodes,
                                               weights, gen)
        drifted = drifted or drift
    std_error = (
        float(np.std(values, ddof=1) / math.sqrt(n_disorder))
        if n_disorder > 1 else 0.0)
    return PressureEstimate(mean=float(np.mean(values)), std_error=std_error,
                            n_samples=n_disorder, method="monte_carlo",
                            flags=("nonequilibrated",) if drifted else ())


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

    def to_dict(self) -> dict:
        return {
            "overlaps": [float(x) for x in self.overlaps],
            "empirical": float(self.empirical),
            "predicted": float(self.predicted),
            "std_error": float(self.std_error),
            "standardized": float(self.standardized),
        }


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
    ``n_pairs`` seeded random configuration pairs.  Each disorder sample
    costs one stacked :func:`hamiltonian` call on all ``2 * len(pairs)``
    configurations.
    """
    if n_disorder < 3:
        raise ValueError("need at least three disorder samples")
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
    energies = np.empty((len(configs), n_disorder))
    for j in range(n_disorder):
        sample = sample_disorder(assignment, params, seed, j)
        energies[:, j] = hamiltonian(sample, configs, params)
    energies = energies.reshape(len(pairs), 2, n_disorder)
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


def covariance_check(assignment: LayerAssignment, params: ModelParams,
                     n_disorder: int = 200, seed: int = 0) -> float:
    """Worst standardized covariance deviation over ten random pairs."""
    rows = covariance_report(assignment, params, n_disorder, seed)
    return max(row.standardized for row in rows)


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

    def to_dict(self) -> dict:
        return {
            "N": int(self.N),
            "method": self.method,
            "mean": float(self.mean),
            "std_error": float(self.std_error),
            "p_annealed": float(self.p_annealed),
            "gap": float(self.gap),
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class TrendReport:
    """Finite-size pressure estimates against the annealed value."""

    rows: tuple[TrendRow, ...]
    p_annealed: float
    jensen_ok: bool
    gap_decreasing: bool

    def to_dict(self) -> dict:
        return {
            "rows": [row.to_dict() for row in self.rows],
            "p_annealed": float(self.p_annealed),
            "jensen_ok": bool(self.jensen_ok),
            "gap_decreasing": bool(self.gap_decreasing),
        }

    def to_csv(self) -> str:
        lines = ["N,method,mean,std_error,p_annealed,gap,flags"]
        for row in self.rows:
            lines.append(",".join([
                str(row.N), row.method, repr(row.mean), repr(row.std_error),
                repr(row.p_annealed), repr(row.gap), ";".join(row.flags)]))
        return "\n".join(lines) + "\n"


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
    verdict = machine.classify_annealed(params)
    if verdict.verdict != "inside":
        raise ValueError(
            "parameters must lie strictly inside the annealed region "
            f"(classified as '{verdict.verdict}')")
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
