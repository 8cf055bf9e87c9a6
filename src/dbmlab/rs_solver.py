"""Replica-symmetric layer of the deep chain model.

The replica-symmetric (RS) pressure functional in a per-layer overlap
vector ``q`` is

    p_rs(q) = log 2 + sum_p lam_p E log cosh(z sqrt((M q)_p) + h_p)
              + (1/2) (1 - q)^T M1 (1 - q),

with ``z`` standard normal, ``h_p`` the layer-``p`` external field and
``M``, ``M1`` the interaction matrices of :mod:`dbmlab.machine`.
Stationary points solve the consistency equations

    q_p = E tanh^2(z sqrt((M q)_p) + h_p),          p = 1..K.

This module provides the functional, the consistency map and its Jacobian
at ``q = 0``, the scalar overlap solver (the classical Latala--Guerra
uniqueness argument), which solves every layer of a split model in
lockstep, the nested Newton solver for every field kind, which is the one
consistency solver, and the Talagrand / de Almeida--Thouless sufficient
conditions used to certify the scalar surrogate downstream.  Every
per-layer quantity comes from one layered :func:`ghquad.expect` call: the
pressure, the map, the stability test, and each Newton or scalar step,
whose map and slope come together from the fused
:data:`~dbmlab.ghquad.TANH_MOMENTS` kernel.

The nested solver is Newton's method on ``G(q) = q - F(q)`` with the
analytic Jacobian ``I - diag(T'_p) M``, where ``T' = 3 E cosh^-4 - 2 (1 -
T)`` by Gaussian integration by parts for any field.  With zero or centred
Gaussian fields each layer map ``T_v(s) = E tanh^2(z sqrt(s + v))`` is
increasing and concave, so ``G`` is convex, and Newton from ``q = 1``,
which lies above every root, decreases monotonically onto the largest.  A
guard raises :class:`SolverError` when an iterate leaves ``[0, 1]`` or
climbs while the residual is still above ``1e-6``, which is how a
layer variance past the quadrature's accuracy range
(``ghquad.ACCURATE_VARIANCE``) shows.  Fields with a nonzero atom
(point-mass or discrete, alone or mixed with centred ones) lose that
theory: Newton starts at ``q = 1/2`` and keeps a step only if it lowers
the residual, taking the damped step ``q - G(q) / 2`` otherwise.  Either way the iteration stops at residual
``max(1e-14, tol / 100)`` once the next step, estimated with the last
Jacobian, is within ``tol``, and fails only if its best residual stays
above ``tol``.

The nested solver, the pressure and the certificates take a stack of
same-K models (:func:`solve_stack`), the points of a scan grid: every
per-step array gains a leading point axis, and each Newton step makes one
layered kernel call and one batched linear solve for every point still
iterating, while each point stops on its own.  Every per-point product is
a batched matmul of one row, no layer's kernel value depends on the other
layers of its call, and a batched solve gives each system the bits of its
own solve, so every point gets the bits of its one-model solve.
:func:`solve_nested` is the stack of one.  A point whose solve fails gets
its :class:`SolverError` or ``ValueError`` as its result, and the other
points go on.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import ghquad, machine
from .ghquad import LOG_COSH, TANH_MOMENTS, TANH_SQ
from .machine import FieldSpec, ModelParams

__all__ = [
    "Certificates",
    "RsSolution",
    "SolverError",
    "rs_pressure",
    "rs_map",
    "jacobian_at_zero",
    "latala_guerra",
    "solve_nested",
    "solve_stack",
]

_LOG2 = math.log(2.0)
# Newton steps allowed to one scalar overlap solve.
_SCALAR_STEPS = 60


class SolverError(RuntimeError):
    """Raised when an iterative solver fails to reach its tolerance.

    Carries the last iterate and its residual so callers can inspect or
    restart from where the solver stopped.
    """

    def __init__(self, message: str, last_q: np.ndarray, residual: float,
                 iterations: int):
        super().__init__(message)
        self.last_q = np.asarray(last_q, dtype=float)
        self.residual = float(residual)
        self.iterations = int(iterations)


@dataclass(frozen=True)
class Certificates:
    """Certification flags attached to a solution.

    ``talagrand_ok``: every layer passes the high-temperature criterion
    ``(Mq)_p < q_p / 4`` (``None`` when some layer is indeterminate).
    ``at_ok``: every layer passes the de Almeida--Thouless stability
    inequality (``None`` when the fields are not centred Gaussian).
    ``stable_at_zero``: the consistency map is a local contraction at
    ``q = 0``, i.e. the spectral radius of ``M`` is below one.
    """

    talagrand_ok: bool | None
    at_ok: bool | None
    stable_at_zero: bool

    def to_dict(self) -> dict:
        return {
            "talagrand_ok": self.talagrand_ok,
            "at_ok": self.at_ok,
            "stable_at_zero": self.stable_at_zero,
        }


@dataclass(frozen=True, eq=False)
class RsSolution:
    """Solver output: overlap vector, pressure value and certificates.

    ``residual`` is ``max_p |q_p - F_p(q)|`` at the returned ``q``;
    ``method`` names the solver (``nested``).
    """

    q: np.ndarray
    pressure: float
    residual: float
    method: str
    certificates: Certificates

    def to_dict(self) -> dict:
        return {
            "q": [float(x) for x in self.q],
            "pressure": float(self.pressure),
            "residual": float(self.residual),
            "method": self.method,
            "certificates": self.certificates.to_dict(),
        }


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _check_overlap(q, K: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (K,):
        raise ValueError(f"overlap vector must have shape ({K},), got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("overlap entries must be finite")
    if np.any(q < 0.0) or np.any(q > 1.0):
        raise ValueError("overlap entries must lie in [0, 1]")
    return q


def _require_positive_lambda(params: ModelParams) -> None:
    if any(lam <= 0.0 for lam in params.lam):
        raise ValueError(
            "solvers require strictly positive layer weights; prune "
            "zero-weight layers from the model first")


# ---------------------------------------------------------------------------
# stacks of models
# ---------------------------------------------------------------------------


class _Stack:
    """Same-K models solved as one: the points of every per-step array.

    ``lam`` holds the layer weights as a ``(P, K)`` array, and ``M``, built
    on first use with one :func:`machine.build_matrices` call per model,
    the interaction matrices as ``(P, K, K)``.  Every per-point product is
    a batched matmul of one row, which gives the bits of the one-model
    product: ``M q`` per row is the GEMV of ``M @ q``, and a weighted sum
    per row the dot product of ``np.dot``.
    """

    def __init__(self, models):
        self.models = tuple(models)
        if len({params.K for params in self.models}) != 1:
            raise ValueError("a stack needs at least one model and one K")
        self.lam = np.array([params.lam for params in self.models], dtype=float)

    @functools.cached_property
    def M(self) -> np.ndarray:
        return np.stack([machine.build_matrices(params)[2]
                         for params in self.models])

    @functools.cached_property
    def table(self) -> ghquad.FieldTable:
        """The fields of every point, point by point, one per layer, as a
        table for :func:`ghquad.expect`."""
        return ghquad.FieldTable(
            f for params in self.models for f in params.fields)

    def fields(self, rows) -> ghquad.FieldTable:
        """The table of the fields of the distinct points ``rows``, in
        stack order; the table of every point is built once."""
        if len(rows) == len(self.models):
            return self.table
        return ghquad.FieldTable(f for i in rows for f in self.models[i].fields)


def _mv(M, q) -> np.ndarray:
    """``M_i q_i`` for every row ``i``: ``(n, K, K)`` by ``(n, K)``."""
    return np.matmul(M, q[..., None])[..., 0]


def _row_dot(a, b) -> np.ndarray:
    """``a_i . b_i`` for every row ``i``, each its own dot product."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _expect_rows(f, s, fields) -> np.ndarray:
    """One layered :func:`ghquad.expect` call on ``(n, K)`` variances with
    one field per layer; the result keeps the rows, after the leading axis
    of a stacked kernel such as ``TANH_MOMENTS``."""
    out = ghquad.expect(f, s.ravel(), fields)
    return out.reshape(out.shape[:-1] + s.shape)


# ---------------------------------------------------------------------------
# functional, consistency map, Jacobian
# ---------------------------------------------------------------------------


def rs_pressure(q, params: ModelParams) -> float:
    """Replica-symmetric pressure at overlap ``q`` (nats per spin).

    At ``q = 0`` with all-zero fields this reduces, through the shared
    quadratic code path, to exactly ``machine.annealed_pressure``.
    """
    q = _check_overlap(q, params.K)
    stack = _Stack([params])
    return _pressures(stack, [0], q[None], _mv(stack.M, q[None]))[0]


def _pressures(stack: _Stack, rows, q, m) -> list[float]:
    """:func:`rs_pressure` of the points ``rows`` of ``stack`` at the
    overlaps ``q`` with ``m = Mq`` (one row each), with one kernel call
    for all of them."""
    log_cosh = _expect_rows(LOG_COSH, m, stack.fields(rows))
    field_terms = _row_dot(stack.lam[rows], log_cosh)
    return [_LOG2 + float(term)
            + machine.interaction_half_quadratic(stack.models[i], 1.0 - q_i)
            for i, term, q_i in zip(rows, field_terms, q)]


def rs_map(q, params: ModelParams) -> np.ndarray:
    """Consistency map ``F_p(q) = E tanh^2(z sqrt((Mq)_p) + h_p)``."""
    q = _check_overlap(q, params.K)
    _, _, M = machine.build_matrices(params)
    return ghquad.expect(TANH_SQ, M @ q, params.fields)


def jacobian_at_zero(params: ModelParams) -> np.ndarray:
    """Jacobian of the consistency map at ``q = 0`` for zero fields.

    Equals the interaction matrix ``M`` exactly: near zero overlap,
    ``E tanh^2(z sqrt(s)) = s + O(s^2)``, so ``F(q) = Mq + O(|q|^2)``.
    The expansion needs the fields to vanish; other fields are rejected.
    """
    if not params.zero_fields:
        raise ValueError("jacobian_at_zero supports zero external fields only")
    _, _, M = machine.build_matrices(params)
    return M


# ---------------------------------------------------------------------------
# scalar single-layer solver
# ---------------------------------------------------------------------------


def _scalar_overlap(theta_sq, fields, tol: float,
                    start=None) -> tuple[np.ndarray, np.ndarray]:
    """Largest root of ``x_p = E tanh^2(z sqrt(2 x_p theta_sq_p) + h_p)`` in
    ``[0, 1)`` for every layer ``p``, all layers in lockstep.

    For zero-like fields the root is ``0`` up to the critical line
    ``2 theta_sq = 1`` and the positive branch beyond it.  For centred
    Gaussian fields with positive variance the positive root is unique
    (the Latala--Guerra argument: ``F(x)/x`` is strictly decreasing on
    ``(0, 1]``).  Each layer runs bracketed Newton iteration from ``x =
    1/2``, or from ``start`` clipped into ``(0, 1)`` when given, and stops
    once both the defect ``|F(x) - x|`` and the Newton step
    ``|(F(x) - x) / (1 - F'(x))|`` are below ``tol``.  The step bounds the
    distance to the root; near the critical line ``F'`` tends to one, and a
    small defect alone can leave ``x`` far from it.  The slope comes with
    the defect from one :data:`~dbmlab.ghquad.TANH_MOMENTS` call, ``F' =
    2 theta_sq (3 E cosh^-4 - 2 (1 - F))`` by Gaussian integration by
    parts, and one call per step serves every layer still iterating, so
    each layer takes the steps of its own one-layer solve.  Returns
    ``(x, converged)`` per layer; a layer that does not converge within 60
    steps reports the iterate with the smallest defect.
    """
    two_t = 2.0 * np.asarray(theta_sq, dtype=float)
    if not isinstance(fields, ghquad.FieldTable):
        fields = ghquad.FieldTable(fields)
    K = len(fields)
    x = (np.full(K, 0.5) if start is None else
         np.clip(start, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)))
    converged = np.array([f.is_zero and t <= 1.0
                          for f, t in zip(fields, two_t)])
    x[converged] = 0.0
    lo, hi = np.zeros(K), np.ones(K)
    best_x, best_defect = x.copy(), np.full(K, math.inf)
    table = None
    for _ in range(_SCALAR_STEPS):
        active = np.flatnonzero(~converged)
        if active.size == 0:
            break
        if table is None or len(table) != active.size:
            table = (fields if active.size == K
                     else ghquad.FieldTable(fields[p] for p in active))
        xa, ta = x[active], two_t[active]
        tanh_sq, inv_cosh4 = ghquad.expect(TANH_MOMENTS, ta * xa, table)
        defect = tanh_sq - xa
        better = np.abs(defect) < np.abs(best_defect[active])
        best_x[active[better]] = xa[better]
        best_defect[active[better]] = defect[better]
        lo[active] = np.where(defect > 0.0, xa, lo[active])
        hi[active] = np.where(defect > 0.0, hi[active], xa)
        slope = ta * (3.0 * inv_cosh4 - 2.0 * (1.0 - tanh_sq))
        newton = slope < 1.0
        step = defect / np.where(newton, 1.0 - slope, 1.0)
        done = newton & (np.abs(defect) < tol) & (np.abs(step) < tol)
        converged[active[done]] = True
        mid = 0.5 * (lo[active] + hi[active])
        candidate = np.where(newton, xa + step, mid)
        inside = (lo[active] < candidate) & (candidate < hi[active])
        x[active] = np.where(done, xa, np.where(inside, candidate, mid))
    return np.where(converged, x, best_x), converged


def latala_guerra(beta: float, v: float, tol: float = 1e-12) -> float:
    """Unique positive root of ``q = E tanh^2(z sqrt(2 q beta^2 + v))``.

    Validating entry to the scalar overlap solver with ``theta^2 = beta^2``
    and a centred Gaussian field of variance ``v > 0``, where the root is
    unique.  Stops when ``|q - F(q)|`` and the Newton step are below
    ``tol`` and raises :class:`SolverError` when that is not reached.
    """
    beta = float(beta)
    v = float(v)
    if v <= 0.0:
        raise ValueError("field variance v must be positive")
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    field = FieldSpec.gaussian(v)
    x, converged = _scalar_overlap(np.array([beta * beta]), (field,), tol)
    q = float(x[0])
    if not converged[0]:
        residual = abs(q - ghquad.expect(TANH_SQ, 2.0 * beta * beta * q, field))
        raise SolverError(
            f"scalar overlap solve did not reach tol={tol} "
            f"(residual {residual:.3e})",
            last_q=np.array([q]), residual=residual, iterations=_SCALAR_STEPS)
    return q


# ---------------------------------------------------------------------------
# certification checks
# ---------------------------------------------------------------------------


def _certificates(stack: _Stack, rows, q, m, inv_cosh4,
                  rho=None) -> list[Certificates]:
    """Certificates of the points ``rows`` of ``stack`` at overlaps ``q``
    (one row each), from ``m = Mq`` and ``E cosh^-4(z sqrt(m) + h)``,
    which the Newton iteration has evaluated at ``q`` already.

    ``talagrand_ok`` is ``False`` when some layer with ``q_p > 0`` fails
    the high-temperature test ``(Mq)_p < q_p / 4``, else ``None`` when
    some ``q_p = 0`` leaves a layer open, else ``True``; a single layer
    has no interaction and passes.  ``at_ok`` is the de Almeida--Thouless
    test ``(Mq)_p E cosh^-4(z sqrt((Mq)_p) + h_p) <= q_p`` on every layer,
    for points with positive field variance on every layer, and ``None``
    for the others.  ``rho`` holds each point's spectral radius when the
    caller has it; otherwise :func:`machine.spectral_radius` computes it.
    """
    models = [stack.models[i] for i in rows]
    if q.shape[1] == 1:
        talagrand = [True] * len(rows)
    else:
        fails = np.any((q > 0.0) & ~(m < 0.25 * q), axis=1)
        open_layer = np.any(q <= 0.0, axis=1)
        talagrand = [False if fail else None if open_ else True
                     for fail, open_ in zip(fails, open_layer)]
    stable = np.logical_and.reduce(m * inv_cosh4 <= q, axis=1).tolist()
    at_ok = [ok if params.gaussian_fields else None
             for ok, params in zip(stable, models)]
    if rho is None:
        rho = [machine.spectral_radius(params) for params in models]
    return [Certificates(talagrand_ok=t, at_ok=a, stable_at_zero=bool(r < 1.0))
            for t, a, r in zip(talagrand, at_ok, rho)]


# ---------------------------------------------------------------------------
# nested solver (Newton, every field kind)
# ---------------------------------------------------------------------------

# Newton steps allowed to one nested solve; every measured chain (K up to
# 16, beta up to 30) converged in at most six.
_NEWTON_STEPS = 50
# The monotonicity guard holds only while the residual exceeds this.  Below
# it, quadrature roundoff in the concavity of T can lift a converging
# iterate by more than rounding although the step is sound.
_GUARD_RESIDUAL = 1e-6
# Rounding allowed in the guard's "does not increase" test.
_GUARD_SLACK = 1e-15


def _solve(systems, rhs) -> tuple[np.ndarray, np.ndarray | None]:
    """``x_i = systems_i^{-1} rhs_i`` for every row, in one batched
    ``np.linalg.solve``, which gives each system the bits of its own
    solve.  Returns ``(x, solved)`` with ``solved`` None when every system
    is regular.  Otherwise each system is solved alone: a singular one
    gets a NaN row and ``solved`` False."""
    try:
        return np.linalg.solve(systems, rhs[..., None])[..., 0], None
    except np.linalg.LinAlgError:
        pass
    x = np.full(rhs.shape, math.nan)
    solved = np.zeros(len(rhs), dtype=bool)
    for i, (system, b) in enumerate(zip(systems, rhs)):
        with contextlib.suppress(np.linalg.LinAlgError):
            x[i] = np.linalg.solve(system, b)
            solved[i] = True
    return x, solved


def _evaluate(M, fields, q) -> list:
    """``[q, m, T', G, max |G|, E cosh^-4]`` per row at the iterates
    ``q``, with ``m = Mq``, from one ``TANH_MOMENTS`` call: the slope
    ``T' = 3 E cosh^-4 - 2 (1 - T)`` and ``G = q - T``."""
    m = _mv(M, q)
    f, inv_cosh4 = _expect_rows(TANH_MOMENTS, m, fields)
    g = q - f
    slope = 3.0 * inv_cosh4 - 2.0 * (1.0 - f)
    return [q, m, slope, g, np.maximum.reduce(np.abs(g), axis=1), inv_cosh4]


def _guard_error(steps, q, residual, m, fields) -> SolverError:
    """The failure of a centred point whose Newton step ``steps`` left the
    monotone descent, naming its largest layer variance ``m_p + v_p``."""
    variance = max(float(m_p) + field.v for m_p, field in zip(m, fields))
    return SolverError(
        f"nested Newton step {steps} left the monotone descent "
        f"at residual {residual:.3e}; the largest layer variance "
        f"(Mq)_p + v_p is {variance:.3g}, and the quadrature is "
        f"accurate for s + v <= {ghquad.ACCURATE_VARIANCE:g}",
        last_q=q, residual=residual, iterations=steps)


def _newton(stack: _Stack, tol: float) -> list:
    """Largest consistency solution of every point of ``stack``: per point
    ``(q, residual, Mq, E cosh^-4(z sqrt(Mq) + h))`` at its best-residual
    iterate, or the :class:`SolverError` it ends with, either when its
    step leaves the monotone descent or when its best residual stays above
    ``tol``.

    Safeguarded Newton on ``G(q) = q - F(q)``, with the starts, steps,
    guard and stopping rule of :func:`solve_nested`, for every point at
    once.  Each step makes one layered ``TANH_MOMENTS`` call for every
    point still iterating, a second one only for the damped steps of
    non-centred points, and one batched linear solve: every point's
    Jacobian for its step, with its previous one for the distance to the
    root, ``max |J^{-1} G(q)|`` (``inf`` at the start or after a singular
    ``J``), an estimate that costs no expectation.  A point that stops
    leaves the rows, so its values are those of a one-point stack.  A
    single layer has no interaction: ``q`` is the layer's own ``E tanh^2(z
    sqrt(v) + h)``.
    """
    P, K = stack.lam.shape
    if K == 1:
        q = _expect_rows(TANH_SQ, np.zeros((P, 1)), stack.table)
        m = _mv(stack.M, q)
        f, inv_cosh4 = _expect_rows(TANH_MOMENTS, m, stack.table)
        residual = np.max(np.abs(q - f), axis=1).tolist()
        return list(zip(q, residual, m, inv_cosh4))
    rows, M, fields = np.arange(P), stack.M, stack.table
    centred = [all(f.is_centred for f in params.fields)
               for params in stack.models]
    mixed = not all(centred)
    eye = np.eye(K)
    target = max(1e-14, 0.01 * tol)
    results: list = [None] * P
    best: list = [None] * P  # per point (q, residual, m, E cosh^-4)
    best_res = [math.inf] * P
    state = _evaluate(M, fields, np.where(np.array(centred)[:, None], 1.0, 0.5)
                      * np.ones(K))
    jac_prev = None
    for step in itertools.count():
        q, m, slope, g, res, inv_cosh4 = state
        n = rows.size
        jac = eye - slope[:, :, None] * M
        if jac_prev is None:
            x, solved = _solve(jac, g)
            distance = np.full(n, math.inf)
        else:
            # A singular previous Jacobian fails its solve again here.
            x, solved = _solve(np.concatenate([jac_prev, jac]),
                               np.concatenate([g, g]))
            distance = np.maximum.reduce(np.abs(x[:n]), axis=1)
            if solved is not None:
                distance[~solved[:n]] = math.inf
            x = x[n:]
        new = q - x  # a singular Jacobian's row is NaN
        finite = np.logical_and.reduce(np.isfinite(new), axis=1).tolist()
        guard = None
        keep = []
        for j, (i, r, d) in enumerate(zip(rows.tolist(), res.tolist(),
                                          distance.tolist())):
            lowered = r < best_res[i]
            if lowered:
                best[i], best_res[i] = (q[j], r, m[j], inv_cosh4[j]), r
            # A step that no longer lowers a residual within tol has
            # stalled at rounding level.
            if ((not lowered and best_res[i] <= tol)
                    or (best_res[i] <= target and d <= tol)
                    or step == _NEWTON_STEPS):
                results[i] = best[i] if best_res[i] <= tol else SolverError(
                    f"nested solve stalled at residual {best_res[i]:.3e} > "
                    f"tol={tol}", last_q=best[i][0], residual=best_res[i],
                    iterations=step)
                continue
            descends = finite[j]
            if centred[j] and descends and r > _GUARD_RESIDUAL:
                if guard is None:
                    # Per row: the smallest entry, and max(new - (q +
                    # slack)), which is <= 0 exactly when no entry climbs
                    # past q + slack.
                    guard = (np.minimum.reduce(new, axis=1).tolist(),
                             np.maximum.reduce(new - (q + _GUARD_SLACK),
                                               axis=1).tolist())
                descends = guard[0][j] >= 0.0 and guard[1][j] <= 0.0
            if centred[j] and not descends:
                results[i] = _guard_error(step + 1, q[j], r, m[j],
                                          stack.models[i].fields)
                continue
            keep.append(j)
        if len(keep) < n:
            if not keep:
                return results
            q, g, res, new, jac, rows, M = (
                a[keep] for a in (q, g, res, new, jac, rows, M))
            centred = [centred[j] for j in keep]
            finite = [finite[j] for j in keep]
            fields = stack.fields(rows)
        jac_prev = jac
        # Centred points take the Newton step; the others take it only if
        # it is finite and lowers the residual, else the damped step.
        candidate = np.clip(new, 0.0, 1.0)
        if not all(finite):
            candidate = np.where(np.array(finite)[:, None], candidate,
                                 q - 0.5 * g)
        state = _evaluate(M, fields, candidate)
        if mixed:
            lowers = (state[4] < res).tolist()
            redo = [j for j, (c, ok, lower) in enumerate(
                zip(centred, finite, lowers)) if not (c or lower) and ok]
            if redo:
                again = _evaluate(M[redo], stack.fields(rows[redo]),
                                  q[redo] - 0.5 * g[redo])
                for part, value in zip(state, again):
                    part[redo] = value


def solve_stack(models, tol: float = 1e-10, rho=None) -> list:
    """:func:`solve_nested` on every model of a stack of same-K models.

    One body serves the whole stack: each Newton step makes one layered
    kernel call and one batched linear solve for every point still
    iterating, and the pressure and the certificates take one pass each.
    Every point gets the bits of its own :func:`solve_nested` call.
    Returns per model its :class:`RsSolution`, or the
    :class:`SolverError` or ``ValueError`` that :func:`solve_nested`
    raises for it, while the other points go on.  ``rho`` holds each
    model's spectral radius when the caller has it already (for the
    ``stable_at_zero`` certificate).
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    models = tuple(models)
    results: list = []
    for params in models:
        try:
            _require_positive_lambda(params)
        except ValueError as exc:
            results.append(exc)
        else:
            results.append(None)
    valid = [i for i, result in enumerate(results) if result is None]
    if not valid:
        return results
    stack = _Stack(models[i] for i in valid)
    roots = _newton(stack, tol)
    rows = [j for j, root in enumerate(roots)
            if not isinstance(root, SolverError)]
    for j, root in enumerate(roots):
        results[valid[j]] = root
    if not rows:
        return results
    q, m, inv_cosh4 = (np.array([roots[j][k] for j in rows]) for k in (0, 2, 3))
    pressures = _pressures(stack, rows, q, m)
    certificates = _certificates(
        stack, rows, q, m, inv_cosh4,
        None if rho is None else [rho[valid[j]] for j in rows])
    for j, q_j, pressure, certs in zip(rows, q, pressures, certificates):
        results[valid[j]] = RsSolution(
            q=q_j, pressure=pressure, residual=roots[j][1],
            method="nested", certificates=certs)
    return results


def _one(result):
    """The one point of a stack's results, raising its failure."""
    if isinstance(result, Exception):
        raise result
    return result


def solve_nested(params: ModelParams, tol: float = 1e-10) -> RsSolution:
    """Safeguarded Newton solver for the consistency equations, any field kind.

    The one-model stack of :func:`solve_stack`; raises what that returns
    for the model.  The Jacobian of ``G(q) = q - F(q)`` is
    ``I - diag(T'_p) M`` with the
    slopes ``T'_p = 3 E cosh^-4 - 2 (1 - T_p)`` of the layer maps
    ``T_p(s) = E tanh^2(z sqrt(s) + h_p)`` at ``(Mq)_p``, by Gaussian
    integration by parts for every field kind.  A step costs one layered
    ``TANH_MOMENTS`` expectation, which gives ``T_p`` and ``E cosh^-4``
    on every layer, and one batched linear solve of two ``K x K``
    systems: the step's Jacobian for the step, and the previous step's for
    the distance to the root.

    *Centred fields* (zero, or Gaussian with variance ``v >= 0``, on every
    layer).  Each ``T_v(s) = E tanh^2(z sqrt(s + v))`` is increasing and
    concave in ``s``, so ``G`` is convex and order-monotone.  Newton's
    method started from ``q = 1``, which lies above every solution because
    ``F(1) <= 1``, decreases monotonically onto the largest one (the
    monotone Newton theorem: Ortega and Rheinboldt, *Iterative Solution of
    Nonlinear Equations in Several Variables*, 1970, section 13.3).  With
    positive variance on every layer that solution is the unique one and
    strictly positive; with zero fields ``q = 0`` also solves the
    equations.  The guard checks that theory: while the residual
    ``max |G(q)|`` is above ``1e-6``, every iterate must stay in ``[0, 1]``
    and must not increase in any coordinate beyond rounding (``1e-15``).  A
    violation, which a layer variance past the quadrature's accuracy range
    bends ``T`` into, raises :class:`SolverError`; its message names the
    largest layer variance ``(Mq)_p + v_p``, to compare with that range,
    ``s + v <= ghquad.ACCURATE_VARIANCE``.  Closer to the root the guard is
    off and iterates are clipped to the unit box.

    *Fields with a nonzero atom* (point-mass or discrete, alone or mixed
    with centred ones).  The
    monotone theory no longer applies, so the iteration starts at
    ``q = 1/2`` and keeps a Newton step (clipped to the unit box) only if
    it lowers the residual; otherwise it takes the damped fixed-point step
    ``q - G(q) / 2``, the step of ``q <- (q + F(q)) / 2``.

    Iteration stops once the residual is at most ``max(1e-14, tol / 100)``
    and the last Jacobian's step from the iterate is at most ``tol`` (near
    a critical line ``G`` is nearly singular at the root, and a tiny
    residual alone can leave ``q`` far from it), or when a step no longer
    lowers the residual and the best one is within ``tol``, or after 50
    steps; the iterate with the smallest residual is returned.
    :class:`SolverError`, carrying the step count, is raised when that
    residual stays above ``tol``.
    """
    return _one(solve_stack([params], tol)[0])
