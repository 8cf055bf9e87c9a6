"""Auxiliary-split upper bound for the layered-model pressure.

Every vector of positive auxiliary weights ``a = (a_1, ..., a_{K-1})``
splits the inter-layer interaction into independent one-layer models with
effective squared temperatures ``theta_p^2`` (see
:func:`theta_map`).  Evaluating each layer's one-layer replica-symmetric
pressure at its own surrogate overlap and re-adding the exchanged
quadratic terms yields an upper bound for the pressure of the full model,
valid for every admissible ``a``; maximizing over ``a`` gives the best
bound of this family.

The surrogate for layer ``p`` couples to the rest of the chain only
through ``theta_p``; with centred Gaussian (or zero) external fields the
surrogate overlap is the unique non-negative solution of the scalar
consistency equation ``x = E tanh^2(z sqrt(2 x theta_p^2) + h_p)``.

An overlap vector ``q`` and auxiliary weights ``a`` are *related* when
``lam_p q_p a_p = lam_{p+1} q_{p+1}`` for every bond; for related pairs
the bound evaluated with the given overlaps collapses onto the
replica-symmetric functional of the full model (see :func:`bridge_check`),
which is what makes certified maximizers comparable across solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import ghquad, machine, rs_solver
from .ghquad import LOG_COSH, QuadratureRule
from .machine import ModelParams
from .rs_solver import (_TALAGRAND_LINE, _at_stable, _scalar_overlap,
                        _theta_sq_from_aux)

_LOG2 = math.log(2.0)

# Relatedness tolerance for (overlap, auxiliary) pairs.
_RELATED_TOL = 1e-10
# Scalar consistency solves stop at this defect.
_SCALAR_TOL = 1e-13
# Optimization box in u = log(a), and the width beyond which a maximizer
# is flagged as suspiciously close to the box.
_LOG_BOX = 30.0
_SUSPECT_WIDTH = 12.0
# Bound values this close count as tied maximizers.
_TIE_WIDTH = 1e-12


# ---------------------------------------------------------------------------
# auxiliary geometry
# ---------------------------------------------------------------------------


def theta_map(a, params: ModelParams) -> np.ndarray:
    """Effective one-layer temperatures ``theta_p`` for auxiliary weights.

    ``a`` must be a positive vector of length ``K - 1``; a single layer has
    no bonds and maps to ``theta = (0,)``.
    """
    return np.sqrt(_theta_sq_from_aux(a, params))


def related_aux(q, params: ModelParams) -> np.ndarray:
    """Auxiliary weights related to a strictly positive overlap vector.

    Solves ``lam_p q_p a_p = lam_{p+1} q_{p+1}`` bond by bond, which is the
    stationarity condition of the bound in ``a`` and the matching condition
    used by :func:`bridge_check`.
    """
    K = params.K
    q = np.asarray(q, dtype=float)
    if q.shape != (K,) or not np.all(np.isfinite(q)):
        raise ValueError(f"overlap vector must be finite with shape ({K},)")
    if np.any(q <= 0.0):
        raise ValueError("related auxiliary weights need strictly positive overlaps")
    lam = np.asarray(params.lam, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("related auxiliary weights need positive layer weights")
    return lam[1:] * q[1:] / (lam[:-1] * q[:-1])


# ---------------------------------------------------------------------------
# scalar surrogate overlaps
# ---------------------------------------------------------------------------


def _surrogate_overlaps(theta_sq: np.ndarray, params: ModelParams, rule,
                        warm: dict[int, float] | None = None
                        ) -> tuple[np.ndarray, bool]:
    """Per-layer surrogate overlaps and whether every layer solve converged."""
    out = np.zeros(params.K)
    converged = True
    for p in range(params.K):
        seed = None if warm is None else warm.get(p)
        out[p], ok = _scalar_overlap(theta_sq[p], params.fields[p],
                                     _SCALAR_TOL, rule, seed)
        converged = converged and ok
        if warm is not None and out[p] > 0.0:
            warm[p] = out[p]
    return out, converged


# ---------------------------------------------------------------------------
# bound functional
# ---------------------------------------------------------------------------


def _functional_value(theta_sq: np.ndarray, overlaps: np.ndarray,
                      params: ModelParams, rule) -> float:
    """Value of the split bound at given temperatures and overlaps."""
    lam = np.asarray(params.lam, dtype=float)
    value = 0.0
    for p in range(params.K):
        m = 2.0 * float(overlaps[p]) * float(theta_sq[p])
        layer = _LOG2 + ghquad.expect(LOG_COSH, m, params.fields[p], rule)
        layer += 0.5 * float(theta_sq[p]) * (1.0 - float(overlaps[p])) ** 2
        value += float(lam[p]) * layer
    value -= 0.5 * float(np.dot(lam, theta_sq))
    value += machine.interaction_half_quadratic(params, np.ones(params.K))
    return float(value)


def _certified(theta_sq: np.ndarray, overlaps: np.ndarray, converged: bool,
               params: ModelParams, rule) -> bool:
    """Whether the replica-symmetric surrogate is valid on every layer.

    Needs every scalar overlap solve to have converged.  A layer then
    passes when its temperature sits strictly below the high-temperature
    line ``theta^2 < 1/8`` or when the scalar Almeida-Thouless criterion
    holds at its surrogate overlap.
    """
    return converged and all(
        float(t) < _TALAGRAND_LINE
        or _at_stable(2.0 * float(x) * float(t), x, field, rule)
        for t, x, field in zip(theta_sq, overlaps, params.fields))


def p_dbm_functional(a, params: ModelParams, *,
                     rule: QuadratureRule | None = None) -> tuple[float, bool]:
    """Evaluate the split bound at auxiliary weights ``a``.

    Returns ``(value, certified)`` where ``value`` bounds the pressure of
    the full model from above and ``certified`` records whether every
    decoupled layer passed its replica-symmetric validity check, so that
    the one-layer pressures entering the bound are exact rather than
    merely bounds themselves; a layer whose overlap solve did not
    converge leaves the value uncertified.  Fields must be zero or
    centred Gaussian.
    """
    params.require_fields("the split bound", gaussian=False)
    theta_sq = _theta_sq_from_aux(a, params)
    overlaps, converged = _surrogate_overlaps(theta_sq, params, rule)
    value = _functional_value(theta_sq, overlaps, params, rule)
    return value, _certified(theta_sq, overlaps, converged, params, rule)


# ---------------------------------------------------------------------------
# maximization over auxiliary weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Outcome of maximizing the split bound over auxiliary weights.

    ``a`` is the maximizer, ``value`` the bound there, ``certified``
    whether every layer passed its validity check, ``boundary_suspect``
    whether the maximizer pressed against the search box in ``log a``,
    ``theta`` and ``overlaps`` the induced temperatures and surrogate
    overlaps, and ``stationarity`` the largest violation of the bond-wise
    matching conditions at the reported point.
    """

    a: np.ndarray
    value: float
    certified: bool
    boundary_suspect: bool
    theta: np.ndarray
    overlaps: np.ndarray
    stationarity: float

    def to_dict(self) -> dict:
        return {
            "a": [float(x) for x in self.a],
            "value": float(self.value),
            "certified": bool(self.certified),
            "boundary_suspect": bool(self.boundary_suspect),
            "theta": [float(x) for x in self.theta],
            "overlaps": [float(x) for x in self.overlaps],
            "stationarity": float(self.stationarity),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BoundResult":
        return cls(
            a=np.asarray(data["a"], dtype=float),
            value=float(data["value"]),
            certified=bool(data["certified"]),
            boundary_suspect=bool(data["boundary_suspect"]),
            theta=np.asarray(data["theta"], dtype=float),
            overlaps=np.asarray(data["overlaps"], dtype=float),
            stationarity=float(data["stationarity"]),
        )


def _evaluate(u: np.ndarray, params: ModelParams, rule, warm: dict[int, float]
              ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, bool]:
    """Bound value and its gradient in ``u = log a``, plus the layer state
    (overlaps, squared temperatures, whether every overlap solve converged).

    The gradient uses the envelope identity: at its own consistency point
    each one-layer pressure depends on ``theta_p^2`` with slope
    ``(1 - q_p^2) / 2``, so only the explicit temperature terms survive.
    """
    a = np.exp(u)
    theta_sq = _theta_sq_from_aux(a, params)
    overlaps, converged = _surrogate_overlaps(theta_sq, params, rule, warm)
    value = _functional_value(theta_sq, overlaps, params, rule)
    lam_q = np.asarray(params.lam, dtype=float) * overlaps
    beta_sq = np.asarray(params.beta, dtype=float) ** 2
    grad_u = 0.5 * beta_sq * (lam_q[1:] ** 2 / a - lam_q[:-1] ** 2 * a)
    return value, grad_u, overlaps, theta_sq, converged


def _matching_defect(a: np.ndarray, lam: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """Bond-wise residuals of the relatedness equations."""
    lam_q = lam * overlaps
    return lam_q[:-1] * a - lam_q[1:]


def _newton_polish(residual, x: np.ndarray, lower: float, upper: float,
                   step_rule, target: float, max_steps: int):
    """Finite-difference Newton on ``residual(x) = 0`` inside a box.

    The Jacobian comes from central differences with the per-coordinate
    steps ``step_rule(x)``; Newton iterates are clipped to
    ``[lower, upper]``.  A step is kept only when it lowers
    ``max |residual|``, so the result is never worse than the start.
    Stops once that maximum is at most ``target``, after ``max_steps``
    kept steps, or at the first step that does not improve.  Returns
    ``(x, max |residual(x)|, kept steps)``.
    """
    x = np.asarray(x, dtype=float)
    r = residual(x)
    err = float(np.max(np.abs(r)))
    steps = 0
    while steps < max_steps and err > target:
        h = step_rule(x)
        jac = np.empty((r.size, x.size))
        for j in range(x.size):
            bump = np.zeros(x.size)
            bump[j] = h[j]
            jac[:, j] = (residual(x + bump) - residual(x - bump)) / (2.0 * h[j])
        try:
            delta = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            break
        candidate = np.clip(x - delta, lower, upper)
        cand_r = residual(candidate)
        cand_err = float(np.max(np.abs(cand_r)))
        if not cand_err < err:
            break
        x, r, err = candidate, cand_r, cand_err
        steps += 1
    return x, err, steps


def maximize_bound(params: ModelParams, tol: float = 1e-10, *, seed: int = 0,
                   n_random_starts: int = 8,
                   rule: QuadratureRule | None = None,
                   nested_q: np.ndarray | None = None) -> BoundResult:
    """Maximize the split bound over positive auxiliary weights.

    Runs bounded quasi-Newton (L-BFGS-B) ascent in ``u = log a`` from the
    deterministic starts (balanced weights, the annealed-region witness
    when one exists, weights related to the nested-solver overlaps when
    fields are Gaussian) and sharpens the best maximizer with Newton
    steps on the bond-matching residuals.  Only when that result is
    uncertified, boundary-suspect, stationary to no better than ``tol``,
    or came from an ascent that did not report success, does a second
    batch of ``n_random_starts`` random starts run, drawn from ``seed``;
    a better maximizer found there is sharpened again.  ``seed`` thus
    changes nothing unless that fallback runs.  ``nested_q`` passes in
    an already computed nested-solver overlap vector for the related
    start (default: solve for it here).  Needs at least two layers and
    zero or centred Gaussian fields.

    Among points whose values tie within ``1e-12`` a certified one is
    preferred.  The bound can be flat, as it is for zero fields inside
    the annealed region, so an uncertified maximizer may tie a certified
    point; when the result is uncertified and the annealed-region witness
    exists, the bound is evaluated once at the witness and that point is
    reported instead if it is certified and ties.
    """
    if params.K == 1:
        raise ValueError("the split bound needs at least two layers")
    params.require_fields("the split bound", gaussian=False)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    n_bonds = params.K - 1

    starts: list[np.ndarray] = [np.zeros(n_bonds)]
    verdict = machine.classify_annealed(params)
    witness = None
    if verdict.feasible_a:
        witness = np.log(np.asarray(verdict.feasible_a, dtype=float))
        starts.append(witness)
    if params.gaussian_fields and min(params.lam) > 0.0:
        try:
            if nested_q is None:
                nested_q = rs_solver.solve_nested(params, rule=rule).q
            starts.append(np.log(related_aux(nested_q, params)))
        except (RuntimeError, ValueError):
            pass
    rng = np.random.default_rng(seed)
    random_starts = [rng.normal(0.0, 1.5, n_bonds)
                     for _ in range(n_random_starts)]

    warm: dict[int, float] = {}
    lam = np.asarray(params.lam, dtype=float)

    def objective(u: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad_u, _, _, _ = _evaluate(u, params, rule, warm)
        return -value, -grad_u

    def matching(u: np.ndarray) -> np.ndarray:
        overlaps = _evaluate(u, params, rule, warm)[2]
        return _matching_defect(np.exp(u), lam, overlaps)

    def result_at(u: np.ndarray) -> BoundResult:
        value, _, overlaps, theta_sq, converged = _evaluate(u, params, rule, warm)
        a = np.exp(u)
        return BoundResult(
            a=a,
            value=value,
            certified=_certified(theta_sq, overlaps, converged, params, rule),
            boundary_suspect=bool(np.any(np.abs(u) > _SUSPECT_WIDTH)),
            theta=np.sqrt(theta_sq),
            overlaps=overlaps,
            stationarity=float(np.max(np.abs(_matching_defect(a, lam, overlaps)))),
        )

    def sharpened(u: np.ndarray) -> BoundResult:
        """The maximizer after Newton steps on the matching residuals."""
        u, _, _ = _newton_polish(
            matching, u, -_LOG_BOX, _LOG_BOX,
            lambda x: np.full(x.size, 1e-6), target=max(1e-14, 0.01 * tol),
            max_steps=8)
        return result_at(u)

    best: BoundResult | None = None
    best_value = -math.inf
    for batch in (starts, random_starts):
        winner = None
        for u0 in batch:
            run = minimize(
                objective, np.clip(u0, -_LOG_BOX, _LOG_BOX), jac=True,
                method="L-BFGS-B", bounds=[(-_LOG_BOX, _LOG_BOX)] * n_bonds,
                options={"maxiter": 300, "ftol": 1e-15, "gtol": 1e-12})
            if -run.fun > best_value:
                best_value = -float(run.fun)
                winner = run
        if winner is not None:
            best = sharpened(np.asarray(winner.x, dtype=float))
            best_value = max(best_value, best.value)
            success = bool(winner.success)
        if (best.certified and not best.boundary_suspect
                and best.stationarity <= tol and success):
            break
    if not best.certified and witness is not None:
        tie = result_at(witness)
        if tie.certified and tie.value >= best.value - _TIE_WIDTH:
            best = tie
    return best


# ---------------------------------------------------------------------------
# bridge to the replica-symmetric functional
# ---------------------------------------------------------------------------


def bridge_check(q, a, params: ModelParams, *,
                 rule: QuadratureRule | None = None) -> tuple[bool, float]:
    """Compare the split bound at given overlaps with the full functional.

    ``q`` must be strictly positive with entries in ``(0, 1]`` and ``a``
    positive of length ``K - 1``.  Returns ``(related, gap)`` where
    ``related`` states whether the pair satisfies the bond-matching
    equations within ``1e-10`` and ``gap`` is the replica-symmetric
    pressure minus the bound evaluated at ``q`` itself (no surrogate
    overlap solve).  For related pairs the two agree up to roundoff; for
    unrelated pairs the gap carries no sign guarantee.  Works for every
    supported field kind.
    """
    K = params.K
    q = np.asarray(q, dtype=float)
    if q.shape != (K,) or not np.all(np.isfinite(q)):
        raise ValueError(f"overlap vector must be finite with shape ({K},)")
    if np.any(q <= 0.0) or np.any(q > 1.0):
        raise ValueError("overlap entries must lie in (0, 1]")
    theta_sq = _theta_sq_from_aux(a, params)
    if K == 1:
        related = True
    else:
        a = np.asarray(a, dtype=float)
        lam = np.asarray(params.lam, dtype=float)
        related = bool(np.max(np.abs(_matching_defect(a, lam, q))) <= _RELATED_TOL)
    surrogate = _functional_value(theta_sq, q, params, rule)
    gap = rs_solver.rs_pressure(q, params, rule=rule) - surrogate
    return related, float(gap)
