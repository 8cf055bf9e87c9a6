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
at ``q = 0``, the nested Newton solver for every field kind, which is the
one overlap solver, and the Talagrand / de Almeida--Thouless sufficient
conditions used to certify the scalar surrogate downstream.  The same
Newton body solves a one-layer equation ``x = E tanh^2(z sqrt(2 theta^2 x)
+ h)`` (the classical Latala--Guerra root) as a 1 x 1 system with
self-coupling ``M = 2 theta^2``.  Every per-layer quantity comes from one
layered :func:`ghquad.expect` call: the pressure, the map, the stability
test, and each Newton step, whose map and slope come together from the
fused :data:`~dbmlab.ghquad.TANH_MOMENTS` kernel.

The nested solver (:func:`solve_nested`, which sets out its theory, guard
and stopping rule) is Newton's method on ``G(q) = q - F(q)`` with the
analytic Jacobian ``I - diag(T'_p) M``.  A model with zero fields strictly
inside the annealed region takes no step: ``q = 0`` is its only solution,
and the solver returns it exactly, with the annealed pressure.

The solver, the pressure and the certificates take a stack of same-K
models (:class:`_Stack`), the points of a scan grid, with one kernel call
per Newton step for every point still iterating; a stack answers in
columns (:func:`_solved`), and every point gets the bits of its
one-model solve, :func:`solve_nested`, which builds its record from row
0 of its stack of one.  A stack derives its matrices, spectral radii and
annealed classification from its own parameters, once each, so which
zero-field point sits at ``q = 0`` follows from the point alone, and it
keeps its solutions, one solve per tolerance.  A point whose solve fails
gets its :class:`SolverError` or ``ValueError`` as its failure, and the
other points go on.  The columns also hold what the split bound reads off
the solve (:func:`sk_chain_bound._bound_columns`, which solves its own
stack): each point's de Almeida--Thouless test on every layer, for every
field kind, and the witness of a point put at ``q = 0``.  So which
solution a point takes, and what its test says, is decided here alone.
No model is built back from a row: a reader of a stack takes what it
needs from the stack's arrays and field table, as the bound reads which
points' fields it refuses.
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
]

_LOG2 = math.log(2.0)


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
    ``(Mq)_p < q_p / 4`` (``None`` when some layer is indeterminate, as a
    layer at ``q_p = 0`` is).
    ``at_ok``: the split bound's per-layer de Almeida--Thouless test,
    ``(Mq)_p E cosh^-4(z sqrt((Mq)_p) + h_p) <= q_p`` on every layer, the
    test that the bound's ``certified`` reads.  It is reported only when
    every layer's field is Gaussian with positive variance, and is ``None``
    otherwise: a zero field on any layer, or a field with an atom besides
    0, gives ``None``.
    ``stable_at_zero``: the spectral radius of ``M`` is below one.  With
    zero fields that says the consistency map is a local contraction at
    its solution ``q = 0``; with fields ``q = 0`` solves nothing, and the
    flag states the zero-field fact alone.

    Neither ``at_ok`` nor ``stable_at_zero`` proves replica symmetry for
    this model; ``at_ok`` is the test of each decoupled SK layer of the
    split bound, not of the full model's replica-symmetric solution.

    With zero fields strictly inside the annealed region the solution is
    ``q = 0`` exactly: ``talagrand_ok`` and ``at_ok`` are ``None`` and
    ``stable_at_zero`` is true.  The split bound there is certified, since
    its de Almeida--Thouless test at ``q = 0`` reads ``0 <= 0``.
    """

    talagrand_ok: bool | None
    at_ok: bool | None
    stable_at_zero: bool

    to_dict = machine.json_form


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

    to_dict = machine.json_form


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


# ---------------------------------------------------------------------------
# stacks of models
# ---------------------------------------------------------------------------


class _Stack:
    """Same-K models solved as one, held as arrays: a point is a row.

    ``beta`` holds the inverse temperatures as a ``(P, K - 1)`` array,
    ``lam`` the layer weights as ``(P, K)`` and ``table`` the fields of
    every point, point by point, one per layer, as one
    :class:`ghquad.FieldTable`.  Three facts of the points are derived on
    first use, each by one call that is a row expression like every
    per-point quantity of the stack: ``M``, the interaction matrices as
    ``(P, K, K)`` (:func:`machine.build_matrices`); ``rho``, the spectral
    radii (:func:`machine.spectral_radius`); and ``regions``, the
    :func:`machine.classify_annealed` classification as columns, built
    from ``rho``.  A sub-stack (:meth:`take`) starts underived and
    unsolved: ``solved`` holds the stack's solves as :class:`_Solved`
    columns, keyed by tolerance.  Every per-point product
    is a batched matmul of one row, which gives the bits of the one-model
    product: ``M q`` per row is the GEMV of ``M @ q``, and a weighted sum
    per row the dot product of ``np.dot``.

    ``_Stack(models)`` stacks same-K :class:`ModelParams`; a scan grid
    builds its rows directly with :meth:`rows`.
    """

    def __init__(self, models):
        models = tuple(models)
        if len({params.K for params in models}) != 1:
            raise ValueError("a stack needs at least one model and one K")
        K = models[0].K
        self._set(np.array([params.beta for params in models],
                           dtype=float).reshape(len(models), K - 1),
                  np.array([params.lam for params in models], dtype=float),
                  ghquad.FieldTable(f for params in models
                                    for f in params.fields))

    @classmethod
    def rows(cls, beta, lam, table: ghquad.FieldTable) -> "_Stack":
        """The stack of the points whose parameters are the rows of
        ``beta`` and ``lam``, with the fields ``table``."""
        stack = cls.__new__(cls)
        stack._set(beta, lam, table)
        return stack

    def _set(self, beta, lam, table) -> None:
        self.beta, self.lam, self.table = beta, lam, table
        self.solved: dict = {}
        centred = table.centred.reshape(lam.shape)
        # Per point: every layer's field centred, Gaussian with positive
        # variance, or zero.
        self.centred = np.logical_and.reduce(centred, axis=1)
        v = table.v.reshape(lam.shape)
        self.gaussian = np.logical_and.reduce(v > 0.0, axis=1)
        self.zero_fields = np.logical_and.reduce(centred & (v == 0.0), axis=1)

    def __len__(self) -> int:
        return len(self.lam)

    @functools.cached_property
    def M(self) -> np.ndarray:
        return machine.build_matrices(self)[2]

    @functools.cached_property
    def rho(self) -> np.ndarray:
        return machine.spectral_radius(self)

    @functools.cached_property
    def regions(self) -> machine._Regions:
        return machine._classify(self, self.rho)

    def take(self, rows) -> "_Stack":
        """The stack of the distinct points ``rows``, in stack order."""
        if len(rows) == len(self):
            return self
        return _Stack.rows(self.beta[rows], self.lam[rows],
                           _row_fields(self.table, self.lam.shape[1], rows))


def _row_fields(table: ghquad.FieldTable, K: int, rows) -> ghquad.FieldTable:
    """The table of the fields of the distinct rows ``rows`` of ``table``,
    which holds ``K`` layers per row, in row order."""
    if len(rows) * K == len(table):
        return table
    return table.take((np.asarray(rows)[:, None] * K + np.arange(K)).ravel())


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
    return _pressures(stack, q[None], _mv(stack.M, q[None]))[0]


def _pressures(stack: _Stack, q, m) -> list[float]:
    """:func:`rs_pressure` of the points of ``stack`` at the overlaps ``q``
    with ``m = Mq`` (one row each), with one kernel call for all of
    them."""
    log_cosh = _expect_rows(LOG_COSH, m, stack.table)
    field_terms = _row_dot(stack.lam, log_cosh)
    return ((_LOG2 + field_terms)
            + machine.interaction_half_quadratic(stack, 1.0 - q)).tolist()


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
# certification checks
# ---------------------------------------------------------------------------


def _certificates(stack: _Stack, q, m, stable) -> tuple[list, list, list]:
    """The certificate columns ``(talagrand_ok, at_ok, stable_at_zero)``
    of the points of ``stack`` at overlaps ``q`` (one row each), from ``m
    = Mq``, each point's de Almeida--Thouless test ``stable``
    (:attr:`_Solved.stable`), which the solver has evaluated at ``q``
    already, and the stack's spectral radii ``rho``.

    ``talagrand_ok`` is ``False`` when some layer with ``q_p > 0`` fails
    the high-temperature test ``(Mq)_p < q_p / 4``, else ``None`` when
    some ``q_p = 0`` leaves a layer open, else ``True``; a single layer
    has no interaction and passes.  ``at_ok`` is ``stable`` for points
    with positive field variance on every layer, and ``None`` for the
    others.  ``stable_at_zero`` is ``rho < 1``.  Each entry reads its
    point's row alone.
    """
    if q.shape[1] == 1:
        talagrand = [True] * len(q)
    else:
        fails = np.logical_or.reduce((q > 0.0) & ~(m < 0.25 * q),
                                     axis=1).tolist()
        open_layer = np.logical_or.reduce(q <= 0.0, axis=1).tolist()
        talagrand = [False if fail else None if open_ else True
                     for fail, open_ in zip(fails, open_layer)]
    at_ok = [ok if gaussian else None
             for ok, gaussian in zip(stable, stack.gaussian.tolist())]
    return talagrand, at_ok, (stack.rho < 1.0).tolist()


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


def _solve(systems, rhs) -> np.ndarray:
    """``x_i = systems_i^{-1} rhs_i`` for every row, in one batched
    ``np.linalg.solve``, which gives each system the bits of its own
    solve.  When some system is singular, each is solved alone, and a
    singular one gets a NaN row."""
    try:
        return np.linalg.solve(systems, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    x = np.full(rhs.shape, math.nan)
    for i, (system, b) in enumerate(zip(systems, rhs)):
        with contextlib.suppress(np.linalg.LinAlgError):
            x[i] = np.linalg.solve(system, b)
    return x


def _evaluate(M, fields, q) -> list:
    """``[q, m, T', G, max |G|, E cosh^-4]`` per row at the iterates
    ``q``, with ``m = Mq``, from one ``TANH_MOMENTS`` call: the slope
    ``T' = 3 E cosh^-4 - 2 (1 - T)`` and ``G = q - T``."""
    m = _mv(M, q)
    f, inv_cosh4 = _expect_rows(TANH_MOMENTS, m, fields)
    g = q - f
    slope = 3.0 * inv_cosh4 - 2.0 * (1.0 - f)
    return [q, m, slope, g, np.maximum.reduce(np.abs(g), axis=1), inv_cosh4]


def _guard_error(steps, q, residual, m, v) -> SolverError:
    """The failure of a centred point whose Newton step ``steps`` left the
    monotone descent, naming its largest layer variance ``m_p + v_p``
    (``v`` the field variances)."""
    variance = max(m_p + v_p for m_p, v_p in zip(m.tolist(), v.tolist()))
    return SolverError(
        f"nested Newton step {steps} left the monotone descent "
        f"at residual {residual:.3e}; the largest layer variance "
        f"(Mq)_p + v_p is {variance:.3g}, and the quadrature is "
        f"accurate for s + v <= {ghquad.ACCURATE_VARIANCE:g}",
        last_q=q, residual=residual, iterations=steps)


def _newton(M, table: ghquad.FieldTable, tol: float) -> tuple:
    """Largest consistency solution ``q = E tanh^2(z sqrt(Mq) + h)`` of
    every row, as the columns ``(q, m, residual, stable, failure)``, built
    once when the last row stops: ``q`` and ``m = Mq`` as ``(n, K)`` arrays
    at each row's best-residual iterate, and per row its ``residual``, its
    de Almeida--Thouless test ``stable``, ``(Mq)_p E cosh^-4(z sqrt((Mq)_p)
    + h_p) <= q_p`` on every layer, and its ``failure``, ``None`` or the
    :class:`SolverError` it ends with, either when its step leaves the
    monotone descent or when its best residual stays above ``tol``.  A
    failed row's ``q`` is its failure's ``last_q``, and its ``residual``
    the failure's.

    ``M`` holds the rows' matrices as ``(n, K, K)`` and ``table`` their
    fields, ``K`` layers per row; a row is centred when all its fields
    are.  A row is a point of a stack, or a one-layer equation ``x = E
    tanh^2(z sqrt(2 theta^2 x) + h)`` with ``M = 2 theta^2``.  Safeguarded
    Newton on ``G(q) = q - F(q)``, with the starts, steps, guard and
    stopping rule of :func:`solve_nested`, for every row at once.  Each
    step makes one layered ``TANH_MOMENTS`` call for every row still
    iterating, a second one only for the damped steps of non-centred rows,
    and one batched linear solve of those rows' Jacobians.  A row's step
    ``J(q)^{-1} G(q)`` is also its distance to the root, ``max |J(q)^{-1}
    G(q)|`` (NaN after a singular ``J``, which no ``<= tol`` test passes).
    A row that stops leaves the rows, so its values are those of a one-row
    solve.
    """
    n, K = M.shape[:2]
    rows, fields = np.arange(n), table
    centred = np.logical_and.reduce(table.centred.reshape(n, K), axis=1).tolist()
    mixed = not all(centred)
    eye = np.eye(K)
    target = max(1e-14, 0.01 * tol)
    failure: list = [None] * n
    best: list = [None] * n  # per row (q, m, E cosh^-4)
    best_res = [math.inf] * n
    state = _evaluate(M, fields, np.where(np.array(centred)[:, None], 1.0, 0.5)
                      * np.ones(K))
    for step in itertools.count():
        q, m, slope, g, res, inv_cosh4 = state
        n = rows.size
        x = _solve(eye - slope[:, :, None] * M, g)
        new = q - x  # a singular Jacobian's row is NaN
        distance = np.maximum.reduce(np.abs(x), axis=1)
        finite = np.logical_and.reduce(np.isfinite(new), axis=1).tolist()
        guard = None
        keep = []
        for j, (i, r, d) in enumerate(zip(rows.tolist(), res.tolist(),
                                          distance.tolist())):
            lowered = r < best_res[i]
            if lowered:
                best[i], best_res[i] = (q[j], m[j], inv_cosh4[j]), r
            # A step that no longer lowers a residual within tol has
            # stalled at rounding level.
            if ((not lowered and best_res[i] <= tol)
                    or (best_res[i] <= target and d <= tol)
                    or step == _NEWTON_STEPS):
                if best_res[i] > tol:
                    failure[i] = SolverError(
                        f"nested solve stalled at residual {best_res[i]:.3e} "
                        f"> tol={tol}", last_q=best[i][0],
                        residual=best_res[i], iterations=step)
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
                best[i], best_res[i] = (q[j], m[j], inv_cosh4[j]), r
                failure[i] = _guard_error(step + 1, q[j], r, m[j],
                                          table.v[i * K:(i + 1) * K])
                continue
            keep.append(j)
        if len(keep) < n:
            if not keep:
                q, m, inv_cosh4 = (np.array([row[k] for row in best])
                                   for k in range(3))
                stable = np.logical_and.reduce(m * inv_cosh4 <= q, axis=1)
                return q, m, best_res, stable.tolist(), failure
            q, g, res, new, rows, M = (
                a[keep] for a in (q, g, res, new, rows, M))
            centred = [centred[j] for j in keep]
            finite = [finite[j] for j in keep]
            fields = _row_fields(table, K, rows)
        # Centred rows take the Newton step; the others take it only if it
        # is finite and lowers the residual, else the damped step.
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
                again = _evaluate(M[redo], _row_fields(table, K, rows[redo]),
                                  q[redo] - 0.5 * g[redo])
                for part, value in zip(state, again):
                    part[redo] = value


class _Solved:
    """A stack's solve at one tolerance as columns, a point per entry.

    ``q`` is a read-only ``(P, K)`` array (a zero row for a failed point).
    The lists ``failure`` (the point's :class:`SolverError` or
    ``ValueError``, else ``None``), ``pressure`` and ``residual``, and the
    certificate columns ``talagrand_ok``, ``at_ok`` and ``stable_at_zero``,
    hold the fields of each point's :class:`RsSolution` (:meth:`record`),
    with ``None`` for a failed point's pressure and certificates.  Two more
    lists are what the split bound reads off the solve: ``stable``, the de
    Almeida--Thouless test ``(Mq)_p E cosh^-4(z sqrt((Mq)_p) + h_p) <=
    q_p`` on every layer, for every field kind (``at_ok`` reports it where
    every layer has Gaussian variance), and ``witness``, the
    annealed-region witness of a point put at ``q = 0``, else ``None``.
    """

    def __init__(self, q, failure, pressure, residual, stable, witness,
                 certificates):
        self.q, self.failure, self.pressure = q, failure, pressure
        self.residual, self.stable, self.witness = residual, stable, witness
        self.talagrand_ok, self.at_ok, self.stable_at_zero = certificates

    def record(self, i: int) -> RsSolution:
        """The :class:`RsSolution` of point ``i``; raises its failure."""
        if self.failure[i] is not None:
            raise self.failure[i]
        return RsSolution(
            q=self.q[i], pressure=self.pressure[i],
            residual=self.residual[i], method="nested",
            certificates=Certificates(talagrand_ok=self.talagrand_ok[i],
                                      at_ok=self.at_ok[i],
                                      stable_at_zero=self.stable_at_zero[i]))


def _solved(stack: _Stack, tol: float) -> _Solved:
    """:func:`solve_nested` on every point of ``stack``, as the columns of
    a :class:`_Solved`, which the stack keeps (:attr:`_Stack.solved`),
    one solve per tolerance.

    When some point has zero fields, the stack classifies itself
    (:attr:`_Stack.regions`); with zero fields and a witness (strictly
    inside the annealed region), ``q = 0`` is the only solution: the point
    takes it with residual 0, the annealed pressure ``log 2 + (1/2) 1^T M1
    1``, the test ``0 <= 0`` and the witness, with no Newton step and no
    kernel call.  The other points take one :func:`_newton` body, whose
    steps make one layered kernel call and one batched linear solve for
    every point still iterating, and whose columns (``q``, ``m = Mq``, the
    residual, the de Almeida--Thouless test and the failure) they take as
    they are.  A single layer has no interaction, so ``Mq = 0`` and its
    ``q`` is the layer's own ``E tanh^2(z sqrt(v) + h)``, the first row of
    one ``TANH_MOMENTS`` call, which writes the same columns, with residual
    0 and the test true (at ``Mq = 0`` it reads ``0 <= q``).  A ``tol``
    outside ``(0, 1)`` is a ``ValueError``: the residual never exceeds 1,
    so from ``tol = 1`` on every point of the unit box would stop the
    iteration, the start ``q = 1`` included.  The pressures and
    the certificates, which read the stack's spectral radii
    (:attr:`_Stack.rho`), take one pass each, as row expressions, so every
    point gets the bits of its own :func:`solve_nested` call.  A point
    that :func:`solve_nested` would fail gets the :class:`SolverError` or
    ``ValueError`` it raises as its ``failure``, while the other points go
    on.  Solved again at the same ``tol``, the stack hands back the same
    columns, with no kernel call.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be positive and below 1")
    if tol in stack.solved:
        return stack.solved[tol]
    P, K = stack.lam.shape
    positive = np.logical_and.reduce(stack.lam > 0.0, axis=1).tolist()
    failure: list = [None if ok else ValueError(
        "solvers require strictly positive layer weights; prune zero-weight "
        "layers from the model first") for ok in positive]
    zero = [ok and z for ok, z in zip(positive, stack.zero_fields.tolist())]
    witness = [None] * P
    if any(zero):
        witness = [a if z else None
                   for z, a in zip(zero, stack.regions.witness)]
    # Per point: q, m = Mq, the residual, the pressure (None while the
    # point is unsolved) and the de Almeida--Thouless test.
    q, m = np.zeros((P, K)), np.zeros((P, K))
    residual, pressure, stable = [0.0] * P, [None] * P, [True] * P
    rows = [i for i, a in enumerate(witness) if a is not None]
    if rows:
        annealed = _LOG2 + machine.interaction_half_quadratic(
            stack.take(rows), np.ones((len(rows), K)))
        for i, value in zip(rows, annealed.tolist()):
            pressure[i] = value
    newton = [i for i, (ok, a) in enumerate(zip(positive, witness))
              if ok and a is None]
    if newton:
        points = stack.take(newton)
        if K > 1:
            found = _newton(points.M, points.table, tol)
        else:
            m1 = np.zeros((len(newton), 1))
            found = (_expect_rows(TANH_MOMENTS, m1, points.table)[0], m1,
                     [0.0] * len(newton), [True] * len(newton),
                     [None] * len(newton))
        found_q, found_m, found_res, found_stable, found_failure = found
        roots = [j for j, error in enumerate(found_failure) if error is None]
        rows = [newton[j] for j in roots]
        for i, error in zip(newton, found_failure):
            failure[i] = error
        if rows:
            q[rows], m[rows] = found_q[roots], found_m[roots]
            values = _pressures(stack.take(rows), q[rows], m[rows])
            for i, j, value in zip(rows, roots, values):
                residual[i], pressure[i] = found_res[j], value
                stable[i] = found_stable[j]
    # Every later read of the stack's solve hands out these rows of q.
    q.flags.writeable = False
    certificates = _certificates(stack, q, m, stable)
    for i, value in enumerate(pressure):
        if value is None:
            for column in certificates:
                column[i] = None
    solved = _Solved(q, failure, pressure, residual, stable, witness,
                     certificates)
    stack.solved[tol] = solved
    return solved


def solve_nested(params: ModelParams, tol: float = 1e-10) -> RsSolution:
    """Safeguarded Newton solver for the consistency equations, any field kind.

    The record of the one point of its stack's :func:`_solved` columns;
    raises that point's failure.  The Jacobian of ``G(q) = q - F(q)`` is ``I - diag(T'_p) M``
    with the slopes ``T'_p = 3 E cosh^-4 - 2 (1 - T_p)`` of the layer maps
    ``T_p(s) = E tanh^2(z sqrt(s) + h_p)`` at ``(Mq)_p``, by Gaussian
    integration by parts for every field kind.  A step costs one layered
    ``TANH_MOMENTS`` expectation, which gives ``T_p`` and ``E cosh^-4`` on
    every layer, and one ``K x K`` linear solve, of the step's Jacobian.

    *Centred fields* (zero, or Gaussian with variance ``v >= 0``, on every
    layer).  Each ``T_v(s) = E tanh^2(z sqrt(s + v))`` is increasing and
    concave in ``s``, so ``G`` is convex and order-monotone.  Newton's method
    started from ``q = 1``, which lies above every solution because
    ``F(1) <= 1``, decreases monotonically onto the largest one (the monotone
    Newton theorem: Ortega and Rheinboldt, *Iterative Solution of Nonlinear
    Equations in Several Variables*, 1970, section 13.3).  With positive
    variance on every layer that solution is the unique one and strictly
    positive; with zero fields ``q = 0`` also solves the equations, and
    strictly inside the annealed region (where
    :func:`machine.classify_annealed` gives a witness) it is the only
    solution, returned with no Newton step.  The guard checks that theory:
    while the residual ``max |G(q)|`` is above ``1e-6``, every iterate must
    stay in ``[0, 1]`` and must not increase in any coordinate beyond rounding
    (``1e-15``).  A violation, which a layer variance past the quadrature's
    accuracy range bends ``T`` into, raises :class:`SolverError`; its message
    names the largest layer variance ``(Mq)_p + v_p``, to compare with that
    range, ``s + v <= ghquad.ACCURATE_VARIANCE``.  Closer to the root the guard
    is off and iterates are clipped to the unit box.

    *Fields with a nonzero atom* (point-mass or discrete, alone or mixed with
    centred ones).  The monotone theory no longer applies, so the iteration
    starts at ``q = 1/2`` and keeps a Newton step (clipped to the unit box)
    only if it lowers the residual; otherwise it takes the damped fixed-point
    step ``q - G(q) / 2``, the step of ``q <- (q + F(q)) / 2``.

    Iteration stops once the residual is at most ``max(1e-14, tol / 100)`` and
    the iterate's own Newton step ``J(q)^{-1} G(q)`` is at most ``tol`` in
    every layer (near a critical line ``G`` is nearly singular at the root,
    and a tiny residual alone can leave ``q`` far from it), or when a step no
    longer lowers the residual and the best one is within ``tol``, or after 50
    steps; the iterate with the smallest residual is returned.  At a double
    root Newton converges linearly with ratio 1/2, and its step is half the
    distance to the root, so ``q`` can stop up to ``2 tol`` from it.
    :class:`SolverError`, carrying the step count, is raised when that
    residual stays above ``tol``.
    """
    return _solved(_Stack([params]), tol).record(0)


def latala_guerra(beta: float, v: float, tol: float = 1e-12) -> float:
    """Unique positive root of ``q = E tanh^2(z sqrt(2 q beta^2 + v))``.

    The one-layer equation with a centred Gaussian field of variance ``v >
    0``, where the root is unique (the Latala--Guerra argument: ``F(q)/q``
    is strictly decreasing on ``(0, 1]``), solved as a ``1 x 1`` row of the
    nested Newton iteration with self-coupling ``M = 2 beta^2``, from ``q =
    1``, with its stopping rule at ``tol``.  Raises :class:`SolverError`
    when that is not reached, and ``ValueError`` unless ``v > 0``, ``beta
    >= 0`` with ``2 beta^2`` finite, and ``0 < tol < 1``.
    """
    beta = float(beta)
    v = float(v)
    if v <= 0.0:
        raise ValueError("field variance v must be positive")
    if not (beta >= 0.0 and math.isfinite(2.0 * beta * beta)):
        raise ValueError("beta must be nonnegative, with 2 beta^2 finite")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be positive and below 1")
    q, _, _, _, failure = _newton(np.full((1, 1, 1), 2.0 * beta * beta),
                                  ghquad.FieldTable([FieldSpec.gaussian(v)]),
                                  tol)
    if failure[0] is not None:
        raise failure[0]
    return float(q[0, 0])
