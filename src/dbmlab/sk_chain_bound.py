"""Auxiliary-split lower bound for the layered-model pressure.

Every vector of positive auxiliary weights ``a = (a_1, ..., a_{K-1})``
splits the inter-layer interaction into independent one-layer models with
effective squared temperatures ``theta_p^2`` (see
:func:`theta_map`).  Evaluating each layer's one-layer replica-symmetric
pressure at its own surrogate overlap and re-adding the exchanged
quadratic terms yields a lower bound for the pressure of the full model,
valid for every admissible ``a``; maximizing over ``a`` gives the best
bound of this family.

The surrogate for layer ``p`` couples to the rest of the chain only
through ``theta_p``; with centred Gaussian (or zero) external fields the
surrogate overlap is the largest solution of the scalar consistency
equation ``x = E tanh^2(z sqrt(2 x theta_p^2) + h_p)``.  The K scalar
solves run in lockstep (:func:`rs_solver._scalar_overlap`), one layered
kernel call per step, and the bound value and its certificate take one
layered call each.

An overlap vector ``q`` and auxiliary weights ``a`` are *related* when
``lam_p q_p a_p = lam_{p+1} q_{p+1}`` for every bond; for related pairs
the bound evaluated with the given overlaps collapses onto the
replica-symmetric functional of the full model (see :func:`bridge_check`),
and weights related to a consistency solution maximize the bound (see
:func:`maximize_bound`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ghquad, machine, rs_solver
from .ghquad import INV_COSH4, LOG_COSH
from .machine import ModelParams
from .rs_solver import _TALAGRAND_LINE, _scalar_overlap, _theta_sq_from_aux

_LOG2 = math.log(2.0)

# Relatedness tolerance for (overlap, auxiliary) pairs.
_RELATED_TOL = 1e-10
# Scalar consistency solves stop at this defect.
_SCALAR_TOL = 1e-13
# Maximizers with some |log a_p| above this are flagged boundary-suspect.
_SUSPECT_WIDTH = 12.0


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
# bound functional
# ---------------------------------------------------------------------------


def _functional_value(theta_sq: np.ndarray, overlaps: np.ndarray,
                      params: ModelParams) -> float:
    """Value of the split bound at given temperatures and overlaps."""
    lam = np.asarray(params.lam, dtype=float)
    layers = _LOG2 + ghquad.expect(LOG_COSH, 2.0 * overlaps * theta_sq,
                                   params.fields)
    layers += 0.5 * theta_sq * (1.0 - overlaps) ** 2
    value = float(np.dot(lam, layers))
    value -= 0.5 * float(np.dot(lam, theta_sq))
    value += machine.interaction_half_quadratic(params, np.ones(params.K))
    return float(value)


def _certified(theta_sq: np.ndarray, overlaps: np.ndarray, converged: bool,
               params: ModelParams) -> bool:
    """Whether the replica-symmetric surrogate is valid on every layer.

    Needs every scalar overlap solve to have converged.  A layer then
    passes when its temperature sits strictly below the high-temperature
    line ``theta^2 < 1/8`` or when the scalar Almeida-Thouless criterion
    holds at its surrogate overlap.
    """
    if not converged:
        return False
    m = 2.0 * overlaps * theta_sq
    stable = m * ghquad.expect(INV_COSH4, m, params.fields) <= overlaps
    return bool(np.all((theta_sq < _TALAGRAND_LINE) | stable))


def p_dbm_functional(a, params: ModelParams) -> tuple[float, bool]:
    """Evaluate the split bound at auxiliary weights ``a``.

    Returns ``(value, certified)`` where ``value`` bounds the pressure of
    the full model from below and ``certified`` records whether every
    decoupled layer passed its replica-symmetric validity check, so that
    the one-layer pressures entering the bound are exact rather than
    merely bounds themselves; a layer whose overlap solve did not
    converge leaves the value uncertified.  Fields must be zero or
    centred Gaussian.
    """
    params.require_fields("the split bound", gaussian=False)
    value, overlaps, theta_sq, converged = _evaluate(a, params)
    return value, _certified(theta_sq, overlaps, converged, params)


def _evaluate(a, params: ModelParams, start=None
              ) -> tuple[float, np.ndarray, np.ndarray, bool]:
    """Bound value at ``a`` and the layer state behind it: surrogate
    overlaps, squared temperatures, and whether every overlap solve
    converged.  The overlap solves start at ``start`` when given (see
    :func:`rs_solver._scalar_overlap`), else at ``1/2``."""
    theta_sq = _theta_sq_from_aux(a, params)
    overlaps, converged = _scalar_overlap(theta_sq, params.fields,
                                          _SCALAR_TOL, start)
    value = _functional_value(theta_sq, overlaps, params)
    return value, overlaps, theta_sq, bool(np.all(converged))


# ---------------------------------------------------------------------------
# maximization over auxiliary weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Outcome of maximizing the split bound over auxiliary weights.

    ``a`` is the maximizer, ``value`` the bound there, ``certified``
    whether every layer passed its validity check, ``boundary_suspect``
    whether some ``|log a_p|`` exceeds ``12``, ``theta`` and ``overlaps``
    the induced temperatures and surrogate overlaps, and ``stationarity``
    the largest violation of the bond-wise matching conditions at the
    reported point.
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


def _matching_defect(a: np.ndarray, lam: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """Bond-wise residuals of the relatedness equations."""
    lam_q = lam * overlaps
    return lam_q[:-1] * a - lam_q[1:]


def maximize_bound(params: ModelParams, tol: float = 1e-10, *,
                   nested_q: np.ndarray | None = None) -> BoundResult:
    """Maximize the split bound over positive auxiliary weights.

    The maximizer is read off the consistency equations, with one
    evaluation of the bound and no search.  If ``q`` solves them and
    ``a = related_aux(q)``, then ``2 theta_p^2 q_p = (M q)_p``, so every
    layer's surrogate overlap equals ``q_p``, the bond-matching conditions
    hold, and the bound's gradient in ``a`` vanishes by the envelope
    identity.  The point evaluated is

    * the annealed-region witness when every field is zero and the model
      lies strictly inside the annealed region, where ``q = 0`` is the only
      consistency solution, and for a single layer, where the witness is
      the empty vector, the only weights there are;
    * otherwise ``related_aux(q)`` for the largest consistency solution
      ``q``: ``nested_q`` when given, else :func:`rs_solver.solve_nested`
      at tolerance ``tol``, which raises :class:`rs_solver.SolverError`
      when it fails.  There ``q_p`` is each layer's surrogate root, so the
      scalar solves start at ``q`` (clipped into ``(0, 1)``) and need few
      steps; at the witness they start at ``1/2``.

    Needs strictly positive layer weights and zero or centred Gaussian
    fields.  For a single layer the bound is the layer's own pressure and
    ``stationarity`` is 0.  ``boundary_suspect`` flags ``|log a_p| > 12``.
    """
    params.require_fields("the split bound", gaussian=False)
    if min(params.lam) <= 0.0:
        raise ValueError("the split bound requires strictly positive layer "
                         "weights; prune zero-weight layers from the model")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    witness = (machine.classify_annealed(params).feasible_a
               if params.zero_fields or params.K == 1 else None)
    if witness is not None:
        a = np.asarray(witness, dtype=float)
    else:
        if nested_q is None:
            nested_q = rs_solver.solve_nested(params, tol).q
        a = related_aux(nested_q, params)
    value, overlaps, theta_sq, converged = _evaluate(
        a, params, None if witness is not None else nested_q)
    lam = np.asarray(params.lam, dtype=float)
    return BoundResult(
        a=a,
        value=value,
        certified=_certified(theta_sq, overlaps, converged, params),
        boundary_suspect=bool(np.any(np.abs(np.log(a)) > _SUSPECT_WIDTH)),
        theta=np.sqrt(theta_sq),
        overlaps=overlaps,
        stationarity=float(np.max(np.abs(_matching_defect(a, lam, overlaps)),
                                  initial=0.0)),
    )


# ---------------------------------------------------------------------------
# bridge to the replica-symmetric functional
# ---------------------------------------------------------------------------


def bridge_check(q, a, params: ModelParams) -> tuple[bool, float]:
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
    surrogate = _functional_value(theta_sq, q, params)
    gap = rs_solver.rs_pressure(q, params) - surrogate
    return related, float(gap)
