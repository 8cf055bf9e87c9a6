"""Independent oracles used to pin expected values in the test suite.

Every function here deliberately uses a *different* algorithm from the package
under test (brute-force enumeration, dense linear algebra, trapezoid
integration, plain Monte Carlo, grid scans), so agreement between package and
oracle is meaningful evidence of correctness rather than a tautology.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from dbmlab import ghquad, machine
from dbmlab.ghquad import QuadratureRule
from dbmlab.rs_solver import (Certificates, RsSolution, SolverError,
                              _certificates, _check_overlap, _Stack, rs_map,
                              rs_pressure)

# ---------------------------------------------------------------------------
# Chain matching polynomials
# ---------------------------------------------------------------------------


def matching_eval_bruteforce(x: float, t) -> float:
    """Evaluate the chain matching polynomial by enumerating matchings.

    The K-vertex path graph (K = len(t)+1) has edge p joining vertices
    p, p+1 with weight t[p]; the polynomial is
    sum_d (-1)^d x^(K-2d) * sum_{d-matchings} prod(weights).
    """
    t = np.asarray(t, dtype=float)
    K = t.size + 1
    edges = range(t.size)
    total = float(x) ** K
    for d in range(1, K // 2 + 1):
        acc = 0.0
        for combo in itertools.combinations(edges, d):
            if any(b - a == 1 for a, b in zip(combo, combo[1:])):
                continue  # adjacent edges share a vertex: not a matching
            acc += float(np.prod(t[list(combo)]))
        total += (-1.0) ** d * float(x) ** (K - 2 * d) * acc
    return total


def matching_coefficients_bruteforce(t) -> np.ndarray:
    """Ascending coefficient vector of the chain matching polynomial."""
    t = np.asarray(t, dtype=float)
    K = t.size + 1
    coeffs = np.zeros(K + 1)
    coeffs[K] = 1.0
    edges = range(t.size)
    for d in range(1, K // 2 + 1):
        acc = 0.0
        for combo in itertools.combinations(edges, d):
            if any(b - a == 1 for a, b in zip(combo, combo[1:])):
                continue
            acc += float(np.prod(t[list(combo)]))
        coeffs[K - 2 * d] = (-1.0) ** d * acc
    return coeffs


def companion_zeros(coeffs_ascending) -> np.ndarray:
    """Roots of a polynomial via the companion matrix (numpy polyroots)."""
    roots = np.polynomial.polynomial.polyroots(np.asarray(coeffs_ascending, dtype=float))
    return roots  # complex array in general; callers check imaginary parts


def dense_charpoly_value(M: np.ndarray, x: float) -> float:
    """det(x I - M) by dense LU determinant."""
    M = np.asarray(M, dtype=float)
    return float(np.linalg.det(x * np.eye(M.shape[0]) - M))


# ---------------------------------------------------------------------------
# Gaussian expectations
# ---------------------------------------------------------------------------


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Normalized probabilists' Gauss--Hermite rule with ``order`` nodes.

    Exact for polynomials of degree ``< 2 * order``, so a comparison rule
    built on a different principle from the package's trapezoid rule.
    """
    nodes, weights = hermegauss(order)
    return QuadratureRule(nodes=nodes, weights=weights / weights.sum(),
                          order=order)


def trapezoid_gauss_expect(f, std: float, shift: float = 0.0,
                           n: int = 1_000_001, half_width: float = 12.0) -> float:
    """E f(std * z + shift), z ~ N(0,1), by trapezoid rule on [-hw, hw].

    The Gaussian weight at |z| = 12 is ~ e^-72, far below float64 resolution,
    so truncation is negligible; normalizing by the summed weights removes the
    residual quadrature error of the weight itself.
    """
    z = np.linspace(-half_width, half_width, n)
    w = np.exp(-0.5 * z * z)
    w /= w.sum()
    return float(np.sum(w * f(std * z + shift)))


def folded_rule(rule: QuadratureRule):
    """``(nodes, weights)`` of a symmetric rule on its non-negative nodes:
    node 0 at its weight, the others at twice theirs."""
    half = rule.order // 2
    weights = 2.0 * rule.weights[half:]
    if rule.order % 2:
        weights[0] = rule.weights[half]
    return rule.nodes[half:], weights


def rule_expect(f, s, fields, rule: QuadratureRule, exact: bool = False):
    """E f(z sqrt(s_p) + h_p) under a given quadrature rule, for every field
    kind, with ``ghquad.expect``'s signature: a float ``s`` with one field
    gives a float, a ``(K,)`` ``s`` with ``K`` fields a ``(K,)`` array, and a
    kernel returning stacked arrays one row per array.

    The package picks its rule from the variance; this evaluates the same
    sum under any rule, layer by layer and atom by atom, so tests can
    compare rules or stand a coarse one in for ``ghquad.expect``.  As the
    package does, an atom at 0 takes the sum folded onto the rule's
    non-negative nodes (node 0 at its weight, the others at twice theirs),
    which needs an even ``f`` and a symmetric rule.  With ``exact`` each
    atom's products are summed by ``math.fsum``, correctly rounded.
    """
    single = isinstance(fields, machine.FieldSpec)
    layers = [fields] if single else list(fields)
    variances = np.asarray(s, dtype=float).reshape(-1)
    half_nodes, half_weights = folded_rule(rule)

    def total(products):
        if not exact:
            return np.sum(products, axis=-1)
        return np.apply_along_axis(math.fsum, -1, products)

    out = []
    for s_p, field in zip(variances, layers, strict=True):
        std = math.sqrt(s_p + field.v)
        sums = []
        for shift in field.values:
            if shift == 0.0:
                vals = np.asarray(f(std * half_nodes), dtype=float)
                sums.append(total(vals * half_weights))
            else:
                vals = np.asarray(f(std * rule.nodes + shift), dtype=float)
                sums.append(total(vals * rule.weights))
        out.append(np.sum(np.array(field.probs) * np.moveaxis(sums, 0, -1),
                          axis=-1))
    out = np.moveaxis(np.array(out), 0, -1)
    if not single:
        return out
    return float(out[0]) if out.ndim == 1 else out[..., 0]


def tanh_sq_slope(s: float, field, tanh_sq: float) -> float:
    """``d/ds tanh_sq`` for ``tanh_sq = E tanh^2(z sqrt(s) + h)``, by parts,
    from a separate ``cosh^-4`` expectation."""
    return 3.0 * ghquad.expect(ghquad.INV_COSH4, s, field) - 2.0 * (1.0 - tanh_sq)


def mc_gauss_expect(f, std: float, shift: float = 0.0,
                    n: int = 10_000_000, seed: int = 0):
    """Monte Carlo E f(std*z + shift); returns (mean, standard_error)."""
    rng = np.random.default_rng(seed)
    vals = f(std * rng.standard_normal(n) + shift)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


def trapezoid_tanh_sq(total_variance: float, shift: float = 0.0, n: int = 200_001) -> float:
    return trapezoid_gauss_expect(lambda y: np.tanh(y) ** 2,
                                  math.sqrt(total_variance), shift, n=n)


def trapezoid_log_cosh(total_variance: float, shift: float = 0.0, n: int = 200_001) -> float:
    def stable_log_cosh(y):
        a = np.abs(y)
        return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)
    return trapezoid_gauss_expect(stable_log_cosh, math.sqrt(total_variance), shift, n=n)


def trapezoid_inv_cosh4(s: float, field, n: int = 200_001) -> float:
    """E cosh^-4(z sqrt(s) + h) for a field law ``h = sqrt(v) z' + X``,
    summed atom by atom over ``X``."""
    def sech4(y):
        e = np.exp(-np.abs(y))
        return (2.0 * e / (1.0 + e * e)) ** 4
    std = math.sqrt(s + field.v)
    return sum(prob * trapezoid_gauss_expect(sech4, std, x, n=n)
               for x, prob in zip(field.values, field.probs))


# ---------------------------------------------------------------------------
# Single-layer consistency equation (grid-scan oracle)
# ---------------------------------------------------------------------------


def lg_root_grid_scan(beta: float, v: float, n_grid: int = 2000) -> float:
    """Root of q = E tanh^2(z sqrt(2 q beta^2 + v)) by fixed-grid scan.

    Scans g(q) = F(q)/q on a fixed grid over (0, 1], locates the unique
    crossing of g = 1, and linearly interpolates inside the bracketing cell.
    Quadrature for F is an independent trapezoid rule.
    """
    qs = np.linspace(1.0 / n_grid, 1.0, n_grid)
    g = np.empty(n_grid)
    for i, q in enumerate(qs):
        F = trapezoid_tanh_sq(2.0 * q * beta * beta + v, n=100_001)
        g[i] = F / q
    below = np.nonzero(g < 1.0)[0]
    if below.size == 0:
        return 1.0  # crossing beyond the grid (not exercised in tests)
    j = below[0]
    if j == 0:
        return qs[0]
    # linear interpolation of g between grid points j-1 and j
    q0, q1 = qs[j - 1], qs[j]
    g0, g1 = g[j - 1], g[j]
    return float(q0 + (1.0 - g0) * (q1 - q0) / (g1 - g0))


# ---------------------------------------------------------------------------
# Consistency equations (damped fixed-point iteration)
# ---------------------------------------------------------------------------


def damped_fixed_point(params, q0=None, damping: float = 0.5,
                       tol: float = 1e-10, max_iter: int = 10_000) -> RsSolution:
    """Damped iteration ``q <- (1 - damping) q + damping F(q)``.

    Damping widens the convergence basin without moving fixed points.
    Raises :class:`SolverError` (carrying the last iterate and residual)
    when ``max_iter`` iterations do not reach ``tol``.  A different
    algorithm from the package's Newton solver, and its reference.
    """
    if min(params.lam) <= 0.0:
        raise ValueError("the fixed-point oracle requires strictly positive "
                         "layer weights; prune zero-weight layers first")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if tol <= 0.0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter at least 1")
    q = np.full(params.K, 0.5) if q0 is None else _check_overlap(q0, params.K)
    residual = math.inf
    for iteration in range(max_iter):
        f = rs_map(q, params)
        residual = float(np.max(np.abs(q - f)))
        if residual < tol:
            m = machine.build_matrices(params)[2] @ q
            inv_cosh4 = ghquad.expect(ghquad.INV_COSH4, m, params.fields)
            stable = bool(np.all(m * inv_cosh4 <= q))
            columns = _certificates(_Stack([params]), q[None], m[None],
                                    [stable])
            return RsSolution(
                q=q.copy(),
                pressure=rs_pressure(q, params),
                residual=residual,
                method="fixed_point",
                certificates=Certificates(*(column[0] for column in columns)),
            )
        q = (1.0 - damping) * q + damping * f
    raise SolverError(
        f"fixed-point iteration did not reach tol={tol} within "
        f"{max_iter} iterations (residual {residual:.3e})",
        last_q=q, residual=residual, iterations=max_iter)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def central_fd_jacobian(fun, q0: np.ndarray, eps: float) -> np.ndarray:
    """Central finite-difference Jacobian of a vector map at q0."""
    q0 = np.asarray(q0, dtype=float)
    n = q0.size
    f0 = np.asarray(fun(q0), dtype=float)
    J = np.zeros((f0.size, n))
    for j in range(n):
        dq = np.zeros(n)
        dq[j] = eps
        J[:, j] = (np.asarray(fun(q0 + dq)) - np.asarray(fun(q0 - dq))) / (2.0 * eps)
    return J


def central_fd_gradient(fun, q0: np.ndarray, eps: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function at q0."""
    q0 = np.asarray(q0, dtype=float)
    g = np.zeros(q0.size)
    for j in range(q0.size):
        dq = np.zeros(q0.size)
        dq[j] = eps
        g[j] = (fun(q0 + dq) - fun(q0 - dq)) / (2.0 * eps)
    return g


# ---------------------------------------------------------------------------
# Finite-volume brute force
# ---------------------------------------------------------------------------


def reference_disorder(sizes, params, seed: int, index: int):
    """(couplings, fields) of disorder sample ``index``, drawn on its own.

    A fresh Philox keyed by ``(seed, index)`` at counter zero draws each
    bond's ``(N_p, N_{p+1})`` block with one ``standard_normal`` call, then
    each layer's fields: ``sqrt(v)`` times a standard normal vector when
    ``v > 0``, the atom when there is one, else a ``choice`` among the atoms.
    """
    mask = (1 << 64) - 1
    gen = np.random.Generator(np.random.Philox(
        key=np.array([seed & mask, index & mask], dtype=np.uint64),
        counter=np.zeros(4, dtype=np.uint64)))
    couplings = [gen.standard_normal((a, b)) for a, b in zip(sizes, sizes[1:])]
    fields = []
    for field, n in zip(params.fields, sizes):
        if field.v > 0.0:
            fields.append(math.sqrt(field.v) * gen.standard_normal(n))
        elif len(field.values) == 1:
            fields.append(np.full(n, field.values[0]))
        else:
            fields.append(gen.choice(field.values, size=n, p=field.probs))
    return couplings, fields


def all_spin_configs(n: int) -> np.ndarray:
    """(2^n, n) array of all +-1 configurations (bit order: spin i = bit i)."""
    if n > 20:
        raise ValueError("brute force capped at 20 spins")
    codes = np.arange(2 ** n, dtype=np.int64)
    return ((codes[:, None] >> np.arange(n)) & 1).astype(np.float64) * 2.0 - 1.0


def bruteforce_log_partition(layer_index: np.ndarray, beta, couplings, fields_h) -> float:
    """log Z by literal enumeration of all 2^N configurations.

    layer_index[i] gives the layer (0-based) of spin i; couplings[p] is the
    (N_p, N_{p+1}) Gaussian coupling block; energy of sigma is
    sqrt(2/N) * sum_p beta_p * sigma_p^T J_p sigma_{p+1} + h . sigma,
    and Z sums exp(energy).
    """
    layer_index = np.asarray(layer_index)
    N = layer_index.size
    S = all_spin_configs(N)
    K = int(layer_index.max()) + 1
    idx = [np.nonzero(layer_index == p)[0] for p in range(K)]
    energy = S @ np.asarray(fields_h, dtype=float)
    scale = math.sqrt(2.0 / N)
    for p in range(K - 1):
        Sp = S[:, idx[p]]
        Sq = S[:, idx[p + 1]]
        energy += scale * beta[p] * np.einsum("ci,ij,cj->c", Sp, couplings[p], Sq)
    m = energy.max()
    return float(m + np.log(np.sum(np.exp(energy - m))))


def full_table_log_partition(sample, params) -> np.ndarray:
    """``log Z`` per sample of a stack from the whole configuration table.

    The enumeration ``finite_volume_lab.log_partition`` did before it read
    half the table: every row of the smaller parity class's configuration
    table goes through the product with the linear map, and every row's
    local fields through ``log 2 cosh``.  ``log_partition`` must give these
    bits.
    """
    from dbmlab.finite_volume_lab import _logsumexp, _spin_table

    sizes = sample.assignment.sizes
    N = sample.assignment.N
    K = len(sizes)
    if K == 1:
        h = sample.fields[0]
        return np.sum(np.logaddexp(h, -h), axis=-1)
    scale = math.sqrt(2.0 / N)
    first = 0 if sum(sizes[0::2]) <= sum(sizes[1::2]) else 1
    enumerated = range(first, K, 2)
    summed = range(1 - first, K, 2)
    rows = np.cumsum((0,) + tuple(sizes[p] for p in enumerated))
    cols = np.cumsum((1,) + tuple(sizes[p] for p in summed))
    linear = np.zeros((len(sample.fields[0]), rows[-1], cols[-1]))
    linear[..., 0] = np.concatenate([sample.fields[p] for p in enumerated], axis=-1)
    for p in summed:
        c = slice(cols[p // 2], cols[p // 2 + 1])
        if p > 0:
            r = slice(rows[(p - 1) // 2], rows[(p - 1) // 2 + 1])
            linear[..., r, c] = (scale * params.beta[p - 1]) * sample.couplings[p - 1]
        if p < K - 1:
            r = slice(rows[(p + 1) // 2], rows[(p + 1) // 2 + 1])
            linear[..., r, c] = ((scale * params.beta[p])
                                 * np.swapaxes(sample.couplings[p], -1, -2))
    table = _spin_table(rows[-1]) @ linear
    summed_fields = np.concatenate([sample.fields[p] for p in summed], axis=-1)
    local = table[..., 1:] + summed_fields[..., None, :]
    np.abs(local, out=local)
    soft = np.multiply(local, -2.0)
    np.exp(soft, out=soft)
    np.log1p(soft, out=soft)
    soft += local
    return _logsumexp(table[..., 0] + np.sum(soft, axis=-1))


def interaction_image(params, q) -> np.ndarray:
    """(Mq)_p from the chain formula, independent of the matrix builder:

    (Mq)_p = 2 [ beta_{p-1}^2 lam_{p-1} q_{p-1} + beta_p^2 lam_{p+1} q_{p+1} ].
    """
    lam = np.asarray(params.lam)
    beta_sq = np.asarray(params.beta, dtype=float) ** 2
    q = np.asarray(q, dtype=float)
    out = np.zeros(params.K)
    for p in range(params.K):
        acc = 0.0
        if p > 0:
            acc += beta_sq[p - 1] * lam[p - 1] * q[p - 1]
        if p < params.K - 1:
            acc += beta_sq[p] * lam[p + 1] * q[p + 1]
        out[p] = 2.0 * acc
    return out


# ---------------------------------------------------------------------------
# Finite-volume Monte Carlo, one disorder sample at a time
# ---------------------------------------------------------------------------
#
# The same parallel-tempering algorithm as ``finite_volume_lab.mc_pressure``,
# run chain by chain with scalar swap moves.  The package stacks the chains of
# all samples; both must give the same bits.


def class_order(sizes) -> np.ndarray:
    """Layer-order spin index of each class-ordered position: the
    even-indexed layers' spins, then the odd-indexed layers'."""
    bounds = np.cumsum((0,) + tuple(sizes))
    layers = list(range(0, len(sizes), 2)) + list(range(1, len(sizes), 2))
    return np.concatenate([np.arange(bounds[p], bounds[p + 1]) for p in layers])


def _sample_tempering_sweep(states, sizes, coupled, slope, fields2, draws):
    """One two-colour heat-bath sweep over the class-ordered (R, N) states of
    one sample; -H per rung.

    ``coupled[p]`` is the ``(N_p, N_{p+1})`` block of bond ``p``, scaled, and
    ``fields2[p]`` twice layer ``p``'s fields.  The even block goes first,
    its field summed in order of the odd layers ``p`` from ``sigma_p @ W_p``
    with ``W_p = [C_{p-1}^T | C_p]``; then the odd block, each odd layer's
    field from its neighbours ``[sigma_{p-1} | sigma_{p+1}] @ W_p^T``.
    """
    from scipy.special import expit

    K = len(sizes)
    R = states.shape[0]
    even = sum(sizes[0::2])
    evens = np.cumsum((0,) + tuple(sizes[0::2]))
    odds = even + np.cumsum((0,) + tuple(sizes[1::2]))
    shift = np.concatenate([fields2[p] for p in range(0, K, 2)]
                           + [fields2[p] for p in range(1, K, 2)])
    blocks = []
    for k, p in enumerate(range(1, K, 2)):
        right = [coupled[p].T] if p < K - 1 else []
        down = np.concatenate([coupled[p - 1]] + right, axis=0)
        blocks.append((slice(odds[k], odds[k + 1]),
                       slice(evens[k], evens[min(k + 2, len(evens) - 1)]),
                       np.ascontiguousarray(down.T), down))
    field = np.zeros((R, even))
    for cols, window, up, _ in blocks:
        field[:, window] += states[:, cols] @ up
    u = draws[:R * even].reshape(R, even)
    states[:, :even] = np.where(u < expit(slope * field + shift[:even]), 1.0, -1.0)
    field = np.zeros((R, states.shape[1] - even))
    for cols, window, _, down in blocks:
        field[:, cols.start - even:cols.stop - even] = states[:, window] @ down
    u = draws[R * even:states.size].reshape(field.shape)
    states[:, even:] = np.where(u < expit(slope * field + shift[even:]), 1.0, -1.0)
    return np.einsum("ri,ri->r", field, states[:, even:])


def per_sample_mc_pressure(assignment, params, n_disorder, sweeps, replicas,
                           seed):
    """(mean, std_error) of the tempering pressure, one chain set per sample.

    Sample ``j``'s dynamics take an SFC64 seeded by ``SeedSequence((seed,
    j, 1))``, built here rather than read from the package.
    """
    x, w = np.polynomial.legendre.leggauss(replicas)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    sizes = assignment.sizes
    N = assignment.N
    K = len(sizes)
    R = replicas
    scale = math.sqrt(2.0 / N)
    slope = (2.0 * nodes)[:, None]
    values = np.empty(n_disorder)
    for j in range(n_disorder):
        couplings, fields = reference_disorder(sizes, params, seed, j)
        gen = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence((seed & ((1 << 64) - 1), j, 1))))
        h_all = np.concatenate(fields)
        coupled = [(scale * params.beta[p]) * couplings[p] for p in range(K - 1)]
        fields2 = [2.0 * h for h in fields]
        states = gen.integers(0, 2, size=(R, N)).astype(float) * 2.0 - 1.0
        burn_in = sweeps // 2
        records = np.empty((sweeps - burn_in, R))
        for sweep in range(sweeps):
            rungs = range(sweep % 2, R - 1, 2)
            draws = gen.random(R * N + len(rungs))
            gain = _sample_tempering_sweep(states, sizes, coupled, slope, fields2,
                                           draws)
            for r, u in zip(rungs, draws[R * N:]):
                log_accept = (nodes[r + 1] - nodes[r]) * (gain[r] - gain[r + 1])
                if math.log(max(u, 1e-300)) < log_accept:
                    states[[r, r + 1]] = states[[r + 1, r]]
                    gain[[r, r + 1]] = gain[[r + 1, r]]
            if sweep >= burn_in:
                records[sweep - burn_in] = gain
        anchor = float(np.sum(np.logaddexp(h_all, -h_all))) / N
        values[j] = anchor + float(weights @ records.mean(axis=0)) / N
    std_error = (float(np.std(values, ddof=1) / math.sqrt(n_disorder))
                 if n_disorder > 1 else 0.0)
    return float(np.mean(values)), std_error
