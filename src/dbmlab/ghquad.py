"""Deterministic expectations ``E f(z sqrt(s) + h)`` for standard Gaussian z.

This is the scalar kernel under every replica-symmetric formula: ``f`` is one
of the smooth bounded (or log-growth) kernels ``tanh^2``, ``log cosh``,
``cosh^-4``, ``s >= 0`` is the Gaussian variance entering through ``z``, and
``h`` is an external field drawn from a :class:`~dbmlab.machine.FieldSpec`.
For centered Gaussian fields the exact reduction
``z sqrt(s) + h ~ z' sqrt(s + v)`` folds the field into the variance; for
point-mass/discrete fields the outer expectation is a finite sum over atoms.

Quadrature
----------
Every rule is a truncated-Gaussian trapezoid rule
(:func:`normal_trapezoid_rule`) on ``[-9.3, 9.3]``.  The kernels above have
poles/branch points at ``Im y = pi/2``, i.e. at distance ``pi / (2 sqrt(s))``
from the real axis in the integration variable, which defeats polynomial
(Gauss--Hermite) quadrature long before ``s = 25``; the trapezoid rule
converges geometrically in the analyticity strip once its node spacing in
``y = z sqrt(s + v)`` is held fixed (Trefethen and Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56, 2014).  So
:func:`expect` picks the rule from the total variance ``s + v``: the
361-node :func:`default_rule` through ``s + v <= 25``, and past that
``360 * 2^k + 1`` nodes with ``k = ceil(log2((s + v) / 25) / 2)``, which
keeps the spacing in ``y`` at most the default's at ``s + v = 25``.  ``k``
is capped at 6 (23041 nodes), so the kernels stay at machine accuracy
through ``s + v <= ACCURATE_VARIANCE = 102400``; beyond it the largest rule
is used.  Every rule satisfies the :class:`QuadratureRule` contract
(positive weights summing to one, symmetric nodes).

Derivatives in the variance
---------------------------
:func:`expect` is the only expectation entry point.  Derivatives in ``s``
come from it by Gaussian integration by parts,
``d/ds E f(z sqrt(s) + h) = (1/2) E f''(z sqrt(s) + h)``, for every field
kind and at ``s = 0``; with ``(tanh^2)'' = 6 cosh^-4 - 4 cosh^-2`` that
gives ``d/ds E tanh^2 = 3 E cosh^-4 - 2 (1 - E tanh^2)``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .machine import FieldSpec

__all__ = [
    "ACCURATE_VARIANCE",
    "DEFAULT_ORDER",
    "QuadratureRule",
    "TANH_SQ",
    "LOG_COSH",
    "INV_COSH4",
    "logcosh",
    "normal_trapezoid_rule",
    "default_rule",
    "expect",
]

DEFAULT_ORDER = 361
_HALF_WIDTH = 9.3
# Total variance through which the default rule is accurate.
_DEFAULT_VARIANCE = 25.0
# Most halvings of the default rule's node spacing, and the total variance
# through which the rule so refined is accurate.
_MAX_DOUBLINGS = 6
ACCURATE_VARIANCE = _DEFAULT_VARIANCE * 4.0 ** _MAX_DOUBLINGS
_LOG2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights normalized against the standard Gaussian measure."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def logcosh(y):
    """Overflow-safe ``log cosh y = |y| + log1p(e^(-2|y|)) - log 2``."""
    a = np.abs(y)
    return a + np.log1p(np.exp(-2.0 * a)) - _LOG2


def _tanh_sq(y):
    t = np.tanh(y)
    return t * t


def _inv_cosh4(y):
    # sech^2 = 1 - tanh^2 avoids overflowing cosh at large |y|
    u = 1.0 - np.tanh(y) ** 2
    return u * u


TANH_SQ = _tanh_sq
LOG_COSH = logcosh
INV_COSH4 = _inv_cosh4


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


def normal_trapezoid_rule(order: int = DEFAULT_ORDER) -> QuadratureRule:
    """Truncated-Gaussian trapezoid rule with ``order`` equispaced nodes.

    Geometrically convergent inside the integrand's analyticity strip, which
    makes it the accurate choice for ``tanh^2`` / ``log cosh`` / ``cosh^-4``
    kernels up to large variance; the default ``order`` keeps those kernels
    at ~1e-13 absolute accuracy through total variance 25.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return QuadratureRule(nodes=np.zeros(1), weights=np.ones(1), order=1)
    nodes = np.linspace(-_HALF_WIDTH, _HALF_WIDTH, order)
    weights = np.exp(-0.5 * nodes * nodes)
    weights = weights / weights.sum()
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


@functools.cache
def default_rule() -> QuadratureRule:
    """The module-wide default rule (cached)."""
    return normal_trapezoid_rule(DEFAULT_ORDER)


@functools.cache
def _refined_rule(doublings: int) -> QuadratureRule:
    """The default rule with its node spacing halved ``doublings`` times."""
    return normal_trapezoid_rule((DEFAULT_ORDER - 1) * 2 ** doublings + 1)


def _rule_for(variance: float) -> QuadratureRule:
    """The cheapest rule accurate at total variance ``variance``, or the
    finest one past ``ACCURATE_VARIANCE``."""
    if variance <= _DEFAULT_VARIANCE:
        return default_rule()
    capped = min(variance, ACCURATE_VARIANCE)
    return _refined_rule(math.ceil(0.5 * math.log2(capped / _DEFAULT_VARIANCE)))


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


# The single atom of zero and centred-Gaussian fields, shared read-only.
_ORIGIN = np.zeros(1)
_ORIGIN.setflags(write=False)
_CERTAIN = np.ones(1)
_CERTAIN.setflags(write=False)


def _field_atoms(field: FieldSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """Atoms (shifts, probabilities) and extra Gaussian variance of a field."""
    if not isinstance(field, FieldSpec):
        raise TypeError("field must be a FieldSpec")
    if field.kind == "zero":
        return _ORIGIN, _CERTAIN, 0.0
    if field.kind == "gaussian_centered":
        return _ORIGIN, _CERTAIN, float(field.v)
    return np.asarray(field.values, dtype=float), np.asarray(field.probs, dtype=float), 0.0


def expect(f, s: float, field: FieldSpec) -> float:
    """``E f(z sqrt(s) + h)`` for standard Gaussian ``z`` and field ``h``.

    The rule is picked from the total variance ``s + v`` (see the module
    docstring).
    """
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError("variance s must be finite and >= 0")
    shifts, probs, extra = _field_atoms(field)
    total = s + extra
    rule = _rule_for(total)
    std = math.sqrt(total)
    y = std * rule.nodes[None, :] + shifts[:, None]
    vals = np.asarray(f(y), dtype=float)
    return float(probs @ (vals @ rule.weights))
