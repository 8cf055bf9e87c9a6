"""Deterministic expectations ``E f(z sqrt(s) + h)`` for standard Gaussian z.

This is the scalar kernel under every replica-symmetric formula: ``f`` is one
of the smooth bounded (or log-growth) kernels ``tanh^2``, ``log cosh``,
``cosh^-4``, ``s >= 0`` is the Gaussian variance entering through ``z``, and
``h`` is an external field drawn from a :class:`~dbmlab.machine.FieldSpec`.
A field is its law ``h = sqrt(v) z'' + X`` with ``X`` discrete: the exact
reduction ``z sqrt(s) + sqrt(v) z'' ~ z' sqrt(s + v)`` folds its Gaussian
part into the variance, and the outer expectation is a finite sum over the
atoms of ``X`` (:attr:`~dbmlab.machine.FieldSpec.atoms`).  So the kernel
reads ``v`` and the atoms of every field alike, whatever its kind.

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

Layered calls
-------------
The replica-symmetric pressure, its consistency map and the split bound
are sums of one such integral per layer, so :func:`expect` takes a vector
of variances and one field per layer and evaluates every layer in one
call: the atoms of all fields go into one ``(atoms, nodes)`` array per
rule, layers grouped by the rule their total variance picks, in blocks of
at most ``MAX_FIELD_ATOMS`` atoms so that no array outgrows the one-layer
call with the largest field.  Each atom's node sum is its own dot product,
so a layer's value is bit for bit that of the one-layer call, whatever
else shares the call.  A float ``s`` with one field is the one-layer case
of the same body.

Derivatives in the variance
---------------------------
:func:`expect` is the only expectation entry point.  Derivatives in ``s``
come from it by Gaussian integration by parts,
``d/ds E f(z sqrt(s) + h) = (1/2) E f''(z sqrt(s) + h)``, for every field
kind and at ``s = 0``; with ``(tanh^2)'' = 6 cosh^-4 - 4 cosh^-2`` that
gives ``d/ds E tanh^2 = 3 E cosh^-4 - 2 (1 - E tanh^2)``.  The fused kernel
:data:`TANH_MOMENTS` returns ``tanh^2`` and ``cosh^-4`` from one ``tanh``
pass, so the consistency map and its slope cost one call.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .machine import MAX_FIELD_ATOMS, FieldSpec

__all__ = [
    "ACCURATE_VARIANCE",
    "DEFAULT_ORDER",
    "QuadratureRule",
    "TANH_SQ",
    "LOG_COSH",
    "INV_COSH4",
    "TANH_MOMENTS",
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


def _tanh_moments(y):
    """``(tanh^2 y, cosh^-4 y)`` stacked, from one ``tanh`` pass.

    Bit for bit the values of :data:`TANH_SQ` and :data:`INV_COSH4`.
    """
    out = np.empty((2,) + np.shape(y))
    tanh_sq, inv_cosh4 = out
    np.tanh(y, out=tanh_sq)
    np.square(tanh_sq, out=tanh_sq)
    np.subtract(1.0, tanh_sq, out=inv_cosh4)
    np.square(inv_cosh4, out=inv_cosh4)
    return out


TANH_SQ = _tanh_sq
LOG_COSH = logcosh
INV_COSH4 = _inv_cosh4
TANH_MOMENTS = _tanh_moments


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


def expect(f, s, fields):
    """``E f(z sqrt(s_p) + h_p)`` for standard Gaussian ``z``, per layer.

    ``s`` is a ``(K,)`` array of variances and ``fields`` a sequence of
    ``K`` :class:`FieldSpec`; the result is a ``(K,)`` array.  A float ``s``
    with one :class:`FieldSpec` is the one-layer case and gives a float.  A
    kernel that returns several arrays stacked along a leading axis, such
    as :data:`TANH_MOMENTS`, gives one row per array: ``(m, K)``, or
    ``(m,)`` for one layer.

    The atoms of all layers go into one ``(atoms, nodes)`` evaluation per
    rule, split into blocks of at most ``MAX_FIELD_ATOMS`` atoms; the rule
    is picked from each layer's total variance ``s_p + v_p`` (see the
    module docstring).  Each atom's node sum is its own dot product, so a
    layer's value does not depend on the other layers in the call: it is
    bit for bit the value of the one-layer call.
    """
    single = isinstance(fields, FieldSpec)
    if single:
        fields = (fields,)
    variances = np.asarray(s, dtype=float).ravel().tolist()
    if len(variances) != len(fields):
        raise ValueError(f"need one variance per field, got {len(variances)} "
                         f"for {len(fields)}")
    # Per atom its shift, probability and standard deviation, and per layer
    # the index of its first atom.  Layers are evaluated in blocks that
    # share a rule and hold at most MAX_FIELD_ATOMS atoms, so no array is
    # larger than a one-layer call with the largest field needs.
    shifts, probs, std, starts = [], [], [], []
    blocks = []  # (rule, layers)
    open_blocks = {}  # rule -> [layers, atom count] of its last block
    for p, (variance, field) in enumerate(zip(variances, fields)):
        if not 0.0 <= variance < math.inf:
            raise ValueError("variance s must be finite and >= 0")
        if not isinstance(field, FieldSpec):
            raise TypeError("field must be a FieldSpec")
        atom_shifts, atom_probs = field.atoms
        total = variance + field.v
        rule = _rule_for(total)
        block = open_blocks.get(rule)
        if block is None or block[1] + atom_shifts.size > MAX_FIELD_ATOMS:
            block = open_blocks[rule] = [[], 0]
            blocks.append((rule, block[0]))
        block[0].append(p)
        block[1] += atom_shifts.size
        starts.append(len(std))
        std += [math.sqrt(total)] * atom_shifts.size
        shifts.append(atom_shifts)
        probs.append(atom_probs)
    ends = starts[1:] + [len(std)]
    std = np.array(std)
    shifts = np.concatenate(shifts)
    sums = None
    for rule, layers in blocks:
        rows = (slice(None) if len(blocks) == 1 else np.concatenate(
            [np.arange(starts[p], ends[p]) for p in layers]))
        y = std[rows, None] * rule.nodes + shifts[rows, None]
        vals = np.asarray(f(y), dtype=float)
        # One dot product per atom: (..., A, 1, N) @ (N, 1).
        atom_sums = np.matmul(vals[..., None, :],
                              rule.weights[:, None])[..., 0, 0]
        if len(blocks) == 1:
            sums = atom_sums
        else:
            if sums is None:
                sums = np.empty(atom_sums.shape[:-1] + shifts.shape)
            sums[..., rows] = atom_sums
        del y, vals  # free this block's arrays before the next one's
    if len(std) > len(fields):
        # Some layer has several atoms: weigh them and sum per layer.
        sums = np.add.reduceat(np.concatenate(probs) * sums, starts, axis=-1)
    if not single:
        return sums
    return float(sums[0]) if sums.ndim == 1 else sums[..., 0]
