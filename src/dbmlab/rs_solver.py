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
(``ghquad.ACCURATE_VARIANCE``) shows.  Other fields (point-mass, discrete
or mixed) lose that theory: Newton starts at ``q = 1/2`` and keeps a step
only if it lowers the residual, taking the damped step ``q - G(q) / 2``
otherwise.  Either way the iteration stops at residual
``max(1e-14, tol / 100)`` once the next step, estimated with the last
Jacobian, is within ``tol``, and fails only if its best residual stays
above ``tol``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ghquad, machine
from .ghquad import INV_COSH4, LOG_COSH, TANH_MOMENTS, TANH_SQ
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
    "check_talagrand",
    "check_at",
]

_LOG2 = math.log(2.0)
# Newton steps allowed to one scalar overlap solve.
_SCALAR_STEPS = 60
# High-temperature line: a layer with theta^2 below it is certified outright.
_TALAGRAND_LINE = 0.125


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


def _theta_sq_from_aux(a, params: ModelParams) -> np.ndarray:
    """Effective squared layer temperatures induced by auxiliary variables.

    theta_1^2 = lam_1 a_1 beta_1^2, interior
    theta_p^2 = lam_p (beta_{p-1}^2 / a_{p-1} + a_p beta_p^2), and
    theta_K^2 = lam_K beta_{K-1}^2 / a_{K-1}.  A single layer has no
    interaction, so theta = (0,).
    """
    K = params.K
    a = np.asarray(a, dtype=float)
    if a.shape != (K - 1,):
        raise ValueError(f"auxiliary vector must have shape ({K - 1},)")
    if K == 1:
        return np.zeros(1)
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("auxiliary entries must be positive and finite")
    lam = np.asarray(params.lam)
    beta_sq = np.asarray(params.beta, dtype=float) ** 2
    theta_sq = np.empty(K)
    theta_sq[0] = lam[0] * a[0] * beta_sq[0]
    for p in range(1, K - 1):
        theta_sq[p] = lam[p] * (beta_sq[p - 1] / a[p - 1] + a[p] * beta_sq[p])
    theta_sq[K - 1] = lam[K - 1] * beta_sq[K - 2] / a[K - 2]
    return theta_sq


# ---------------------------------------------------------------------------
# functional, consistency map, Jacobian
# ---------------------------------------------------------------------------


def rs_pressure(q, params: ModelParams) -> float:
    """Replica-symmetric pressure at overlap ``q`` (nats per spin).

    At ``q = 0`` with all-zero fields this reduces, through the shared
    quadratic code path, to exactly ``machine.annealed_pressure``.
    """
    q = _check_overlap(q, params.K)
    _, _, M = machine.build_matrices(params)
    field_term = float(np.dot(params.lam,
                              ghquad.expect(LOG_COSH, M @ q, params.fields)))
    return _LOG2 + field_term + machine.interaction_half_quadratic(params, 1.0 - q)


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
    K = len(fields)
    x = (np.full(K, 0.5) if start is None else
         np.clip(start, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)))
    converged = np.array([f.is_zero and t <= 1.0
                          for f, t in zip(fields, two_t)])
    x[converged] = 0.0
    lo, hi = np.zeros(K), np.ones(K)
    best_x, best_defect = x.copy(), np.full(K, math.inf)
    for _ in range(_SCALAR_STEPS):
        active = np.flatnonzero(~converged)
        if active.size == 0:
            break
        xa, ta = x[active], two_t[active]
        tanh_sq, inv_cosh4 = ghquad.expect(
            TANH_MOMENTS, ta * xa, [fields[p] for p in active])
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


def check_talagrand(q, params: ModelParams, a=None) -> list:
    """Per-layer high-temperature flags ``(Mq)_p < q_p / 4``.

    For ``q_p > 0`` the flag is the overlap-form inequality above.  A
    ``q_p = 0`` layer carries no overlap scale, so the equivalent
    effective-temperature form ``theta_p(a)^2 < 1/8`` is used when the
    auxiliary vector ``a`` is supplied; otherwise the layer is marked
    ``None`` (indeterminate).  A single layer has no interaction and is
    vacuously ``True``.
    """
    q = _check_overlap(q, params.K)
    if params.K == 1:
        return [True]
    theta_sq = _theta_sq_from_aux(a, params) if a is not None else None
    _, _, M = machine.build_matrices(params)
    m = M @ q
    flags: list = []
    for p in range(params.K):
        if q[p] > 0.0:
            flags.append(bool(m[p] < 0.25 * q[p]))
        elif theta_sq is not None:
            flags.append(bool(theta_sq[p] < _TALAGRAND_LINE))
        else:
            flags.append(None)
    return flags


def check_at(q, params: ModelParams) -> list:
    """Per-layer de Almeida--Thouless stability flags (Gaussian fields).

    Layer ``p`` passes when
    ``(Mq)_p * E cosh^{-4}(z sqrt((Mq)_p + v_p)) <= q_p``; a decoupled
    layer (``(Mq)_p = 0``) passes trivially.
    """
    q = _check_overlap(q, params.K)
    params.require_fields("check_at", gaussian=True)
    _, _, M = machine.build_matrices(params)
    m = M @ q
    stable = m * ghquad.expect(INV_COSH4, m, params.fields) <= q
    return [bool(flag) for flag in stable]


def _certificates(q, params: ModelParams) -> Certificates:
    tala_flags = check_talagrand(q, params)
    if any(f is False for f in tala_flags):
        talagrand_ok: bool | None = False
    elif all(f is True for f in tala_flags):
        talagrand_ok = True
    else:
        talagrand_ok = None
    at_ok: bool | None
    if params.gaussian_fields:
        at_ok = all(check_at(q, params))
    else:
        at_ok = None
    stable = bool(machine.spectral_radius(params) < 1.0)
    return Certificates(talagrand_ok=talagrand_ok, at_ok=at_ok,
                        stable_at_zero=stable)


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


def _newton_iterates(params: ModelParams):
    """Safeguarded Newton iterates for ``G(q) = q - F(q)``.

    Centred fields (zero, or Gaussian with ``v >= 0``) start at ``q = 1``
    under the monotone guard (see :func:`solve_nested`).  Other fields start
    at ``q = 1/2``; a Newton step, clipped to the unit box, is kept only if
    it lowers ``max |G|``, and otherwise the damped step
    ``q - G(q) / 2`` is taken.  Yields ``(q, max |G(q)|, distance)`` for the
    start and each later iterate, where ``distance`` is ``max |J^{-1} G(q)|``
    with the Jacobian ``J`` of the previous step (``inf`` at the start or
    after a singular ``J``), an estimate of the distance to the root that
    costs no expectation.  The Jacobian step runs only when the caller asks
    for the next iterate.  Raises :class:`SolverError` when a step from
    centred fields leaves the monotone descent or is not finite.
    """
    _, _, M = machine.build_matrices(params)
    fields = params.fields
    K = params.K
    centred = all(f.is_centred for f in fields)
    eye = np.eye(K)

    def evaluate(q):
        m = M @ q
        f, inv_cosh4 = ghquad.expect(TANH_MOMENTS, m, fields)
        g = q - f
        slope = 3.0 * inv_cosh4 - 2.0 * (1.0 - f)
        return q, m, slope, g, float(np.max(np.abs(g)))

    q, m, slope, g, res = evaluate(np.ones(K) if centred else np.full(K, 0.5))
    jac = None
    steps = 0
    while True:
        # Every kept ``jac`` has solved a step already, so it is not singular.
        distance = (math.inf if jac is None
                    else float(np.max(np.abs(np.linalg.solve(jac, g)))))
        yield q, res, distance
        steps += 1
        jac = eye - slope[:, None] * M
        try:
            new = q - np.linalg.solve(jac, g)
        except np.linalg.LinAlgError:
            new = np.full(K, math.nan)
            jac = None
        finite = bool(np.all(np.isfinite(new)))
        if not centred:
            state = evaluate(np.clip(new, 0.0, 1.0)) if finite else None
            if state is None or not state[4] < res:
                state = evaluate(q - 0.5 * g)
            q, m, slope, g, res = state
            continue
        guarded = res > _GUARD_RESIDUAL
        if not (finite and (not guarded or (
                np.all(new >= 0.0) and np.all(new <= q + _GUARD_SLACK)))):
            variance = max(float(m[p]) + fields[p].v for p in range(K))
            raise SolverError(
                f"nested Newton step {steps} left the monotone descent "
                f"at residual {res:.3e}; the largest layer variance "
                f"(Mq)_p + v_p is {variance:.3g}, and the quadrature is "
                f"accurate for s + v <= {ghquad.ACCURATE_VARIANCE:g}",
                last_q=q, residual=res, iterations=steps)
        q, m, slope, g, res = evaluate(np.clip(new, 0.0, 1.0))


def solve_nested(params: ModelParams, tol: float = 1e-10) -> RsSolution:
    """Safeguarded Newton solver for the consistency equations, any field kind.

    The Jacobian of ``G(q) = q - F(q)`` is ``I - diag(T'_p) M`` with the
    slopes ``T'_p = 3 E cosh^-4 - 2 (1 - T_p)`` of the layer maps
    ``T_p(s) = E tanh^2(z sqrt(s) + h_p)`` at ``(Mq)_p``, by Gaussian
    integration by parts for every field kind.  A step costs one layered
    ``TANH_MOMENTS`` expectation, which gives ``T_p`` and ``E cosh^-4``
    on every layer, and one ``K x K`` linear solve.

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

    *Other fields* (point-mass, discrete, or a mix with centred ones).  The
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
    _require_positive_lambda(params)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if params.K == 1:
        q = np.array([ghquad.expect(TANH_SQ, 0.0, params.fields[0])])
        residual = float(np.max(np.abs(q - rs_map(q, params))))
        return RsSolution(
            q=q, pressure=rs_pressure(q, params),
            residual=residual, method="nested",
            certificates=_certificates(q, params))

    target = max(1e-14, 0.01 * tol)
    best_q, best_res = None, math.inf
    for steps, (q, res, distance) in enumerate(_newton_iterates(params)):
        if res < best_res:
            best_q, best_res = q, res
        elif best_res <= tol:
            break  # stalled at rounding level
        if (best_res <= target and distance <= tol) or steps == _NEWTON_STEPS:
            break
    if best_res > tol:
        raise SolverError(
            f"nested solve stalled at residual {best_res:.3e} > tol={tol}",
            last_q=best_q, residual=best_res, iterations=steps)
    return RsSolution(
        q=best_q,
        pressure=rs_pressure(best_q, params),
        residual=best_res,
        method="nested",
        certificates=_certificates(best_q, params))
