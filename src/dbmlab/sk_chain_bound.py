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
equation ``x = E tanh^2(z sqrt(2 x theta_p^2) + h_p)``.  At free weights
the K scalar equations are ``1 x 1`` rows of the one Newton body,
:func:`rs_solver._newton`, solved together, and each row returns its
layer's validity test at the root, as the body's ``stable`` column.  At
the maximizer nothing is solved here: the bound is a read of the
consistency solution of :func:`rs_solver._solved`, whose entries ``q``
are the surrogate overlaps, at the weights related to ``q``, or at the
annealed-region witness where the solver puts a zero-field model at
``q = 0``.  Either way the bound is the solution's pressure and each layer's
validity test is the solution's de Almeida--Thouless test at ``(Mq)_p``,
with no kernel call.  :func:`_bound_columns` solves a stack of same-K
models, the points of a scan grid, and reads each point's bound off its
own solution as columns, with the bits of its own :func:`maximize_bound`
call, which builds its record from row 0 of its stack of one.

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
from typing import NamedTuple

import numpy as np

from . import ghquad, machine, rs_solver
from .ghquad import LOG_COSH
from .machine import ModelParams
from .rs_solver import _expect_rows, _row_dot, _Stack

_LOG2 = math.log(2.0)

# Relatedness tolerance for (overlap, auxiliary) pairs.
_RELATED_TOL = 1e-10
# Tolerance of the scalar consistency solves at free weights.
_SCALAR_TOL = 1e-13


# ---------------------------------------------------------------------------
# auxiliary geometry
# ---------------------------------------------------------------------------


def _theta_sq_from_aux(a, params: ModelParams) -> np.ndarray:
    """Effective squared layer temperatures induced by auxiliary variables.

    theta_1^2 = lam_1 a_1 beta_1^2, interior
    theta_p^2 = lam_p (beta_{p-1}^2 / a_{p-1} + a_p beta_p^2), and
    theta_K^2 = lam_K beta_{K-1}^2 / a_{K-1}.  A single layer has no
    interaction, so theta = (0,).  For a stack, ``a`` has one row per
    point and so has the result.
    """
    lam = np.asarray(params.lam, dtype=float)
    K = lam.shape[-1]
    a = np.asarray(a, dtype=float)
    if a.shape != lam.shape[:-1] + (K - 1,):
        raise ValueError(f"auxiliary vector must have shape ({K - 1},)")
    if K == 1:
        return np.zeros(lam.shape)
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("auxiliary entries must be positive and finite")
    beta_sq = np.asarray(params.beta, dtype=float) ** 2
    theta_sq = np.empty(lam.shape)
    theta_sq[..., 0] = lam[..., 0] * a[..., 0] * beta_sq[..., 0]
    theta_sq[..., 1:-1] = lam[..., 1:-1] * (beta_sq[..., :-1] / a[..., :-1]
                                            + a[..., 1:] * beta_sq[..., 1:])
    theta_sq[..., -1] = lam[..., -1] * beta_sq[..., -1] / a[..., -1]
    return theta_sq


def _related_rows(q: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, list]:
    """:func:`related_aux` of every row of the overlaps ``q`` with the
    layer weights ``lam``: the weights, one row each, and per row ``None``
    or the ``ValueError`` that :func:`related_aux` raises for it."""
    with np.errstate(all="ignore"):
        a = lam[:, 1:] * q[:, 1:] / (lam[:, :-1] * q[:, :-1])
    every = np.logical_and.reduce
    checks = ((every(q > 0.0, axis=1),
               "related auxiliary weights need strictly positive overlaps"),
              (every(lam > 0.0, axis=1),
               "related auxiliary weights need positive layer weights"),
              (every((a > 0.0) & (a < math.inf), axis=1),
               "related auxiliary weights leave the positive floats; "
               "some layer weight or overlap is too small"))
    errors: list = [None] * len(q)
    for ok, message in checks:
        for i in np.flatnonzero(~ok).tolist():
            errors[i] = errors[i] or ValueError(message)
    return a, errors


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
    a, errors = _related_rows(q[None], np.asarray(params.lam, dtype=float)[None])
    if errors[0] is not None:
        raise errors[0]
    return a[0]


# ---------------------------------------------------------------------------
# bound functional
# ---------------------------------------------------------------------------


def _evaluate(stack: _Stack, theta_sq: np.ndarray
              ) -> tuple[list[float], np.ndarray, np.ndarray, np.ndarray]:
    """Bound values of the points of ``stack`` at squared temperatures
    ``theta_sq`` (one ``(K,)`` row each), with the surrogate overlaps behind
    them, whether every overlap solve of a point converged, and whether
    every layer of a point passed its validity test.

    Each layer's overlap is the largest root of ``x = E tanh^2(z sqrt(2
    theta^2 x) + h)``, a ``1 x 1`` row of :func:`rs_solver._newton` with
    self-coupling ``2 theta^2``, all layers of all points in one call.  A
    zero-field layer with ``2 theta^2 <= 1`` has no root but 0, and no
    solve.  A layer passes the scalar de Almeida--Thouless test ``m E
    cosh^-4 <= x`` at ``m = 2 theta^2 x``, which its row returns at the
    root as the ``stable`` column; a layer left at 0 passes and one whose
    solve failed does not, and its overlap is its failure's last iterate.
    The bound values take one kernel call."""
    two_t = 2.0 * theta_sq.ravel()
    overlaps = np.zeros(two_t.size)
    converged = np.ones(two_t.size, dtype=bool)
    stable = np.ones(two_t.size, dtype=bool)
    rows = np.flatnonzero((stack.table.v > 0.0) | (two_t > 1.0))
    if rows.size:
        q, _, _, stable[rows], failure = rs_solver._newton(
            two_t[rows, None, None], stack.table.take(rows), _SCALAR_TOL)
        overlaps[rows] = q[:, 0]
        converged[rows] = [error is None for error in failure]
    overlaps = overlaps.reshape(theta_sq.shape)
    values = _functional_values(stack, theta_sq, overlaps)
    return (values, overlaps, converged.reshape(theta_sq.shape).all(axis=1),
            (converged & stable).reshape(theta_sq.shape).all(axis=1))


def _functional_values(stack: _Stack, theta_sq: np.ndarray,
                       overlaps: np.ndarray) -> list[float]:
    """Value of the split bound of every point of ``stack`` at given
    temperatures and overlaps (one row each)."""
    layers = _LOG2 + _expect_rows(LOG_COSH, 2.0 * overlaps * theta_sq,
                                  stack.table)
    layers += 0.5 * theta_sq * (1.0 - overlaps) ** 2
    values = _row_dot(stack.lam, layers) - 0.5 * _row_dot(stack.lam, theta_sq)
    return (values + machine.interaction_half_quadratic(
        stack, np.ones(stack.lam.shape))).tolist()


def p_dbm_functional(a, params: ModelParams) -> tuple[float, bool]:
    """Evaluate the split bound at auxiliary weights ``a``.

    Returns ``(value, certified)`` where ``value`` bounds the pressure of
    the full model from below and ``certified`` records whether every
    decoupled layer passed its replica-symmetric validity check, so that
    the one-layer pressures entering the bound are exact rather than
    merely bounds themselves; a layer whose overlap solve did not
    converge leaves the value uncertified.  Each surrogate overlap is the
    largest root of its layer's scalar consistency equation, a ``1 x 1``
    row of the nested Newton iteration started at 1, which also returns
    the layer's de Almeida--Thouless test at the root as a column of its
    own, so the check takes no kernel call of its own.  Fields must be
    zero or centred Gaussian.
    """
    params.require_fields("the split bound")
    theta_sq = _theta_sq_from_aux(a, params)[None]
    values, _, converged, stable = _evaluate(_Stack([params]), theta_sq)
    return values[0], bool(converged[0] and stable[0])


# ---------------------------------------------------------------------------
# maximization over auxiliary weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Outcome of maximizing the split bound over auxiliary weights.

    ``a`` is the maximizer, ``value`` the bound there, ``certified``
    whether every layer passed its validity check, and ``theta`` and
    ``overlaps`` the induced temperatures and surrogate overlaps.
    """

    a: np.ndarray
    value: float
    certified: bool
    theta: np.ndarray
    overlaps: np.ndarray

    to_dict = machine.json_form


class _BoundColumns(NamedTuple):
    """The split bound at every point of a solved stack as columns, a
    point per entry of ``failure``, ``value`` and ``certified`` (``None``
    for a point whose bound failed); with ``rows``, the points that have a
    bound, and ``aux``, their weights, a row each."""

    failure: list
    value: list
    certified: list
    rows: list
    aux: np.ndarray


def _bound_columns(stack: _Stack, tol: float) -> _BoundColumns:
    """The :class:`_BoundColumns` of ``stack``, read off its own solve at
    tolerance ``tol`` (:func:`rs_solver._solved`, which the stack keeps),
    with no kernel call.

    A point's bound fails with its solution's failure, or the
    ``ValueError`` of fields that are not zero or centred Gaussian (worded
    as :meth:`ModelParams.require_fields` words it, and read off the
    stack's field table), or of related weights that are not positive
    floats.  A point that the solver put at ``q = 0`` takes its
    ``witness`` as its weights; the others take the weights related to
    ``q``.  By the bridge identity the bound at weights related to ``q``
    is the pressure at ``q``, and each layer's test at ``m = 2 theta_p^2
    q_p = (Mq)_p`` is that of the consistency solution: the value is the
    point's ``pressure`` and the certificate its de Almeida--Thouless test
    ``stable``.
    """
    K = stack.lam.shape[1]
    solved = rs_solver._solved(stack, tol)
    failures = list(solved.failure)
    refused = np.flatnonzero(~stack.centred)
    if refused.size:
        # Each refused point's first layer that is not centred.
        layers = (~stack.table.centred.reshape(-1, K)[refused]).argmax(axis=1)
        for i, p in zip(refused.tolist(), layers.tolist()):
            failures[i] = machine._fields_refused(
                "the split bound", p, stack.table.field(i * K + p))
    rows = [i for i, failure in enumerate(failures) if failure is None]
    # At weights related to q, 2 theta_p^2 q_p = (Mq)_p: each layer's
    # surrogate root is q_p.  The witness puts every zero-field layer at
    # 2 theta_p^2 <= 1 up to rounding, where the largest root is 0.
    aux, errors = _related_rows(solved.q[rows], stack.lam[rows])
    for j, i in enumerate(rows):
        if solved.witness[i] is not None:
            aux[j] = solved.witness[i]
        elif K > 1:
            # A single layer has no bond to relate.
            failures[i] = errors[j]
    kept = [j for j, i in enumerate(rows) if failures[i] is None]
    value = [None if failure is not None else pressure
             for failure, pressure in zip(failures, solved.pressure)]
    certified = [None if failure is not None else stable
                 for failure, stable in zip(failures, solved.stable)]
    return _BoundColumns(failures, value, certified,
                         [rows[j] for j in kept], aux[kept])


def maximize_bound(params: ModelParams, tol: float = 1e-10) -> BoundResult:
    """Maximize the split bound over positive auxiliary weights.

    The record of the one point of its stack's :func:`_bound_columns`
    after the field check, which solves the stack of one at tolerance
    ``tol``; raises the point's failure.  The maximizer is read off the
    consistency equations, with no search.  If ``q`` solves them and ``a =
    related_aux(q)``, then ``2 theta_p^2 q_p = (M q)_p``, so every layer's
    surrogate overlap equals ``q_p``, the bond-matching conditions hold,
    and the bound's gradient in ``a`` vanishes by the envelope identity.
    ``q`` is the largest consistency solution, that of
    :func:`rs_solver.solve_nested`, with its :class:`rs_solver.SolverError`
    when it fails, and the point evaluated is ``related_aux(q)``.  With
    zero fields strictly inside the annealed region the solver puts the
    model at ``q = 0``, its only solution, and the point evaluated is the
    region's witness, where every layer has ``2 theta_p^2 <= 1`` up to
    rounding.  A single layer has no bond, and its weights are the empty
    vector.

    The surrogate overlaps, the value and the certificate are read off the
    solution with no scalar solve and no kernel call: every layer's
    surrogate overlap is ``q_p``, by the bridge identity
    (:func:`bridge_check`) the bound is the replica-symmetric pressure at
    ``q``, the ``pressure`` of :func:`rs_solver.solve_nested` bit for bit,
    and each layer's validity test at ``m = 2 theta_p^2 q_p = (Mq)_p`` is
    the solution's de Almeida--Thouless test, which ``solve_nested``
    reports as ``at_ok`` when every layer has Gaussian variance.  So the
    bound costs that solve, its certificates included, and no more; at the
    witness the value is ``machine.annealed_pressure`` and the test reads
    ``0 <= 0``, so the bound is certified.

    Needs zero or centred Gaussian fields (checked before the solve) and
    strictly positive layer weights (the solver's check), and raises
    ``ValueError`` otherwise or when the related weights are not positive
    floats.  For a single layer the bound is the layer's own pressure.
    """
    params.require_fields("the split bound")
    stack = _Stack([params])
    bound = _bound_columns(stack, tol)
    if bound.failure[0] is not None:
        raise bound.failure[0]
    return BoundResult(
        a=bound.aux[0], value=bound.value[0], certified=bound.certified[0],
        theta=np.sqrt(_theta_sq_from_aux(bound.aux, stack))[0],
        overlaps=rs_solver._solved(stack, tol).q[0].copy())


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
    # A single layer has no bond, and so no matching equation to break.
    lam_q = np.asarray(params.lam, dtype=float) * q
    defect = lam_q[:-1] * np.asarray(a, dtype=float) - lam_q[1:]
    related = bool(np.max(np.abs(defect), initial=0.0) <= _RELATED_TOL)
    surrogate = _functional_values(_Stack([params]), theta_sq[None], q[None])[0]
    gap = rs_solver.rs_pressure(q, params) - surrogate
    return related, float(gap)
