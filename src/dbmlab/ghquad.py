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
The default rule is a truncated-Gaussian trapezoid rule
(:func:`normal_trapezoid_rule`, 361 nodes on ``[-9.3, 9.3]``).  The kernels
above have poles/branch points at ``Im y = pi/2``, i.e. at distance
``pi / (2 sqrt(s))`` from the real axis in the integration variable, which
defeats polynomial (Gauss--Hermite) quadrature long before ``s = 25`` — while
the trapezoid rule's geometric convergence in the analyticity strip keeps the
default rule at machine accuracy (~1e-13) through ``s + v <= 25``.  A classic
normalized Gauss--Hermite constructor is provided for comparison and for
low-variance work; both satisfy the :class:`QuadratureRule` contract
(positive weights summing to one, symmetric nodes).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .machine import FieldSpec

__all__ = [
    "DEFAULT_ORDER",
    "QuadratureRule",
    "Kernel",
    "TANH_SQ",
    "LOG_COSH",
    "INV_COSH4",
    "logcosh",
    "gauss_hermite_rule",
    "normal_trapezoid_rule",
    "default_rule",
    "expect",
    "expect_derivative_in_s",
]

DEFAULT_ORDER = 361
_DEFAULT_HALF_WIDTH = 9.3
_LOG2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights normalized against the standard Gaussian measure."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@dataclass(frozen=True, eq=False)
class Kernel:
    """A scalar kernel with (optional) first and second derivatives."""

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray] | None = None
    deriv2: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""


def logcosh(y):
    """Overflow-safe ``log cosh y = |y| + log1p(e^(-2|y|)) - log 2``."""
    a = np.abs(y)
    return a + np.log1p(np.exp(-2.0 * a)) - _LOG2


def _tanh_sq(y):
    t = np.tanh(y)
    return t * t


def _tanh_sq_deriv(y):
    t = np.tanh(y)
    return 2.0 * t * (1.0 - t * t)


def _tanh_sq_deriv2(y):
    t_sq = np.tanh(y) ** 2
    return 2.0 * (1.0 - t_sq) * (1.0 - 3.0 * t_sq)


def _inv_cosh4(y):
    # sech^2 = 1 - tanh^2 avoids overflowing cosh at large |y|
    u = 1.0 - np.tanh(y) ** 2
    return u * u


def _inv_cosh4_deriv(y):
    t = np.tanh(y)
    u = 1.0 - t * t
    return -4.0 * t * u * u


TANH_SQ = Kernel(_tanh_sq, _tanh_sq_deriv, _tanh_sq_deriv2, name="tanh_sq")
LOG_COSH = Kernel(logcosh, np.tanh, lambda y: 1.0 - np.tanh(y) ** 2, name="log_cosh")
INV_COSH4 = Kernel(_inv_cosh4, _inv_cosh4_deriv, name="inv_cosh4")


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Normalized probabilists' Gauss--Hermite rule with ``order`` nodes.

    Exact for polynomials of degree ``< 2 * order``; accuracy for the bounded
    hyperbolic kernels degrades at large variance (see the module docstring).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    nodes, weights = hermegauss(order)
    weights = weights / weights.sum()
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def normal_trapezoid_rule(order: int = DEFAULT_ORDER,
                          half_width: float = _DEFAULT_HALF_WIDTH) -> QuadratureRule:
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
    nodes = np.linspace(-half_width, half_width, order)
    weights = np.exp(-0.5 * nodes * nodes)
    weights = weights / weights.sum()
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


_default_rule_cache: QuadratureRule | None = None


def default_rule() -> QuadratureRule:
    """The module-wide default rule (cached)."""
    global _default_rule_cache
    if _default_rule_cache is None:
        _default_rule_cache = normal_trapezoid_rule(DEFAULT_ORDER)
    return _default_rule_cache


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


def _kernel_value(f) -> Callable:
    return f.value if isinstance(f, Kernel) else f


def expect(f, s: float, field: FieldSpec, rule: QuadratureRule | None = None) -> float:
    """``E f(z sqrt(s) + h)`` for standard Gaussian ``z`` and field ``h``."""
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError("variance s must be finite and >= 0")
    fn = _kernel_value(f)
    if rule is None:
        rule = default_rule()
    shifts, probs, extra = _field_atoms(field)
    std = math.sqrt(s + extra)
    y = std * rule.nodes[None, :] + shifts[:, None]
    vals = np.asarray(fn(y), dtype=float)
    return float(probs @ (vals @ rule.weights))


def expect_derivative_in_s(f, s: float, field: FieldSpec,
                           rule: QuadratureRule | None = None) -> float:
    """``d/ds E f(z sqrt(s) + h)``, differentiated under the integral sign.

    Equals ``E[f'(z sqrt(u) + h) z] / (2 sqrt(u))`` with ``u`` the total
    Gaussian variance (``s`` plus any centered-Gaussian field variance).
    Requires ``u > 0``; at ``u = 0`` the map ``s -> sqrt(s)`` is not
    differentiable, so a one-sided finite difference of :func:`expect` is the
    caller's fallback there.
    """
    if not isinstance(f, Kernel) or f.deriv is None:
        raise TypeError("expect_derivative_in_s needs a Kernel with a derivative")
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError("variance s must be finite and >= 0")
    if rule is None:
        rule = default_rule()
    shifts, probs, extra = _field_atoms(field)
    total = s + extra
    if total <= 0.0:
        raise ValueError("total variance must be positive to differentiate in s")
    std = math.sqrt(total)
    y = std * rule.nodes[None, :] + shifts[:, None]
    vals = np.asarray(f.deriv(y), dtype=float) * rule.nodes[None, :]
    return float(probs @ (vals @ rule.weights)) / (2.0 * std)
