"""Auxiliary-split lower bound for the layered-model pressure.

Every vector of positive auxiliary weights ``a = (a_1, ..., a_{K-1})``
splits the inter-layer interaction into independent one-layer models with
effective squared temperatures ``theta_p^2 = lam_p (beta_{p-1}^2 / a_{p-1}
+ a_p beta_p^2)``, with one term at either end of the chain.  Evaluating
each layer's one-layer replica-symmetric pressure at its own surrogate
overlap and re-adding the exchanged quadratic terms yields a lower bound
for the pressure of the full model, valid for every admissible ``a``;
maximizing over ``a`` gives the best bound of this family.

The surrogate for layer ``p`` couples to the rest of the chain only
through ``theta_p``; with centred Gaussian (or zero) external fields the
surrogate overlap is the largest solution of the scalar consistency
equation ``x = E tanh^2(z sqrt(2 x theta_p^2) + h_p)``.  The K scalar
solves run in lockstep (:func:`rs_solver._scalar_overlap`), one layered
kernel call per step, and the bound value and its certificate take one
layered call each.  :func:`maximize_stack` does the same for a stack of
same-K models, the points of a scan grid, with the layers of all points
in lockstep and each point's bits those of its own
:func:`maximize_bound` call, which is the stack of one.

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
from .rs_solver import _expect_rows, _row_dot, _scalar_overlap, _Stack

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


def related_aux(q, params: ModelParams) -> np.ndarray:
    """Auxiliary weights related to a strictly positive overlap vector.

    Solves ``lam_p q_p a_p = lam_{p+1} q_{p+1}`` bond by bond, which is the
    stationarity condition of the bound in ``a`` and the matching condition
    used by :func:`bridge_check`.  Raises ``ValueError`` when a weight
    overflows or underflows, as it can when a layer weight or an overlap
    is near the smallest float.
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
    with np.errstate(all="ignore"):
        a = lam[1:] * q[1:] / (lam[:-1] * q[:-1])
    if not np.all((a > 0.0) & (a < math.inf)):
        raise ValueError("related auxiliary weights leave the positive floats; "
                         "some layer weight or overlap is too small")
    return a


# ---------------------------------------------------------------------------
# bound functional
# ---------------------------------------------------------------------------


def _evaluate(stack: _Stack, theta_sq: np.ndarray, start=None
              ) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Bound values of the points of ``stack`` at squared temperatures
    ``theta_sq`` (one ``(K,)`` row each), with the surrogate overlaps behind
    them and whether every overlap solve of a point converged.

    The overlap solves of all layers of all points run in lockstep
    (:func:`rs_solver._scalar_overlap`) from ``start`` (one row per point)
    when given, else from ``1/2``, and the bound values take one kernel
    call."""
    overlaps, converged = _scalar_overlap(
        theta_sq.ravel(), stack.table, _SCALAR_TOL,
        None if start is None else start.ravel())
    overlaps = overlaps.reshape(theta_sq.shape)
    values = _functional_values(stack, theta_sq, overlaps)
    return values, overlaps, converged.reshape(theta_sq.shape).all(axis=1)


def _functional_values(stack: _Stack, theta_sq: np.ndarray,
                       overlaps: np.ndarray) -> list[float]:
    """Value of the split bound of every point of ``stack`` at given
    temperatures and overlaps (one row each)."""
    layers = _LOG2 + _expect_rows(LOG_COSH, 2.0 * overlaps * theta_sq,
                                  stack.table)
    layers += 0.5 * theta_sq * (1.0 - overlaps) ** 2
    values = _row_dot(stack.lam, layers) - 0.5 * _row_dot(stack.lam, theta_sq)
    return [float(value)
            + machine.interaction_half_quadratic(params, np.ones(params.K))
            for value, params in zip(values, stack.models)]


def _certified(stack: _Stack, theta_sq: np.ndarray, overlaps: np.ndarray,
               converged: np.ndarray) -> list[bool]:
    """Whether the replica-symmetric surrogate is valid on every layer, for
    every point of ``stack``.

    Needs every scalar overlap solve of the point to have converged.  A
    layer then passes when the scalar Almeida-Thouless criterion
    ``m E cosh^-4 <= x`` holds at its surrogate overlap ``x``, with
    ``m = 2 theta^2 x``; one kernel call serves every converged point.
    Below the high-temperature line ``theta^2 < 1/8`` no separate test is
    needed: there ``m <= x / 4`` and ``E cosh^-4 <= 1``, so the criterion
    holds.
    """
    certified = [False] * len(converged)
    rows = np.flatnonzero(converged)
    if rows.size:
        m = 2.0 * overlaps[rows] * theta_sq[rows]
        stable = (m * _expect_rows(INV_COSH4, m, stack.fields(rows))
                  <= overlaps[rows])
        for i, ok in zip(rows, np.all(stable, axis=1)):
            certified[i] = bool(ok)
    return certified


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
    stack = _Stack([params])
    theta_sq = _theta_sq_from_aux(a, params)[None]
    values, overlaps, converged = _evaluate(stack, theta_sq)
    return values[0], _certified(stack, theta_sq, overlaps, converged)[0]


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


def maximize_stack(models, tol: float = 1e-10, *, nested_q=None) -> list:
    """:func:`maximize_bound` on every model of a stack of same-K models.

    ``nested_q`` holds per model its consistency solution or ``None``.  The
    models without a witness (:func:`machine.classify_annealed`) that need
    a consistency solution and have none get it from one stacked Newton
    solve (:func:`rs_solver._newton`); then the overlap solves of every
    layer of every point run in lockstep, and the bound values and the
    certificates take one kernel call each.  Every point gets the bits of
    its own :func:`maximize_bound` call.  Returns per model its
    :class:`BoundResult`, or the :class:`rs_solver.SolverError` or
    ``ValueError`` that :func:`maximize_bound` raises for it, while the
    other points go on.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    models = tuple(models)
    results: list = [None] * len(models)
    nested_q = [None] * len(models) if nested_q is None else list(nested_q)
    witness: list = [None] * len(models)
    for i, params in enumerate(models):
        try:
            params.require_fields("the split bound", gaussian=False)
            if min(params.lam) <= 0.0:
                raise ValueError("the split bound requires strictly positive "
                                 "layer weights; prune zero-weight layers "
                                 "from the model")
        except ValueError as exc:
            results[i] = exc
            continue
        if params.zero_fields or params.K == 1:
            witness[i] = machine.classify_annealed(params).feasible_a
    unsolved = [i for i, result in enumerate(results) if result is None
                and witness[i] is None and nested_q[i] is None]
    if unsolved:
        roots = rs_solver._newton(_Stack(models[i] for i in unsolved), tol)
        for i, root in zip(unsolved, roots):
            if isinstance(root, Exception):
                results[i] = root
            else:
                nested_q[i] = root[0]
    rows, aux, theta_sq, start = [], [], [], []
    for i, params in enumerate(models):
        if results[i] is not None:
            continue
        try:
            if witness[i] is not None:
                a = np.asarray(witness[i], dtype=float)
            else:
                a = related_aux(nested_q[i], params)
            theta_sq.append(_theta_sq_from_aux(a, params))
        except ValueError as exc:
            results[i] = exc
            continue
        rows.append(i)
        aux.append(a)
        # At related weights each layer's surrogate root is q_p, so the
        # overlap solves start there; at the witness they start at 1/2.
        start.append(np.full(params.K, 0.5) if witness[i] is not None
                     else nested_q[i])
    if not rows:
        return results
    stack = _Stack(models[i] for i in rows)
    theta_sq = np.array(theta_sq)
    warm = any(witness[i] is None for i in rows)
    values, overlaps, converged = _evaluate(
        stack, theta_sq, np.array(start) if warm else None)
    certified = _certified(stack, theta_sq, overlaps, converged)
    for j, i in enumerate(rows):
        a = aux[j]
        results[i] = BoundResult(
            a=a,
            value=values[j],
            certified=certified[j],
            boundary_suspect=bool(np.any(np.abs(np.log(a)) > _SUSPECT_WIDTH)),
            theta=np.sqrt(theta_sq[j]),
            overlaps=overlaps[j],
            stationarity=float(np.max(np.abs(_matching_defect(
                a, stack.lam[j], overlaps[j])), initial=0.0)),
        )
    return results


def maximize_bound(params: ModelParams, tol: float = 1e-10) -> BoundResult:
    """Maximize the split bound over positive auxiliary weights.

    The one-model stack of :func:`maximize_stack`; raises what that
    returns for the model.  The maximizer is read off the consistency
    equations, with one evaluation of the bound and no search.  If ``q``
    solves them and ``a = related_aux(q)``, then ``2 theta_p^2 q_p = (M
    q)_p``, so every layer's surrogate overlap equals ``q_p``, the
    bond-matching conditions hold, and the bound's gradient in ``a``
    vanishes by the envelope identity.  The point evaluated is

    * the annealed-region witness when every field is zero and the model
      lies strictly inside the annealed region, where ``q = 0`` is the only
      consistency solution, and for a single layer, where the witness is
      the empty vector, the only weights there are;
    * otherwise ``related_aux(q)`` for the largest consistency solution
      ``q``, that of :func:`rs_solver.solve_nested` at tolerance ``tol``,
      with its :class:`rs_solver.SolverError` when it fails.  There
      ``q_p`` is each layer's surrogate root, so the scalar solves start
      at ``q`` (clipped into ``(0, 1)``) and need few steps; at the
      witness they start at ``1/2``.

    Needs strictly positive layer weights and zero or centred Gaussian
    fields, and raises ``ValueError`` otherwise or when the related
    weights are not positive floats.  For a single layer the bound is the
    layer's own pressure and ``stationarity`` is 0.  ``boundary_suspect``
    flags ``|log a_p| > 12``.
    """
    return rs_solver._one(maximize_stack([params], tol)[0])


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
    surrogate = _functional_values(_Stack([params]), theta_sq[None], q[None])[0]
    gap = rs_solver.rs_pressure(q, params) - surrogate
    return related, float(gap)
