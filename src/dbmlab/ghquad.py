"""Deterministic expectations ``E f(z sqrt(s) + h)`` for standard Gaussian z.

This is the scalar kernel under every replica-symmetric formula: ``f`` is one
of the smooth bounded (or log-growth) kernels ``tanh^2``, ``log cosh``,
``cosh^-4``, ``s >= 0`` is the Gaussian variance entering through ``z``, and
``h`` is an external field drawn from a :class:`~dbmlab.machine.FieldSpec`.
A field is its law ``h = sqrt(v) z'' + X`` with ``X`` discrete: the exact
reduction ``z sqrt(s) + sqrt(v) z'' ~ z' sqrt(s + v)`` folds its Gaussian
part into the variance, and the outer expectation is a finite sum over the
atoms of ``X`` (the field's ``values`` and ``probs``).  So the kernel reads
``v`` and the atoms of every field alike, whatever its kind.

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
call: the atoms of all fields go into ``(atoms, nodes)`` arrays, atoms
grouped by the rule their layer's total variance picks, in blocks bounded
by entries: at most ``_BLOCK_ENTRIES`` (8192) atom-node entries per
kernel row, or one atom when its rule alone has more nodes.  Arrays of that
size (64 KiB per row) stay on the C allocator's heap, which the next block
and the next call reuse, where larger ones are mapped from the operating
system and faulted in afresh every time.  Each atom's node sum is its own
dot product, so a layer's value is bit for bit that of the one-layer call,
whatever else shares the call or however the atoms are blocked.  A float
``s`` with one field is the one-layer case of the same body.  The fields'
atoms are laid out as arrays in a :class:`FieldTable`; a solver that
evaluates the same layers at every step builds it once and passes it in
place of the fields.

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
import itertools
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
    "TANH_MOMENTS",
    "logcosh",
    "normal_trapezoid_rule",
    "default_rule",
    "expect",
    "FieldTable",
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
# Most atom-node entries per kernel row of an expect block: 64 KiB of
# float64, under glibc's 128 KiB threshold for serving an allocation by mmap.
_BLOCK_ENTRIES = 1 << 13


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


class FieldTable(tuple):
    """A tuple of :class:`FieldSpec`, one per layer, with their laws laid
    out as arrays for :func:`expect`.

    This is the one array layout of the fields' laws: ``v`` holds each
    layer's Gaussian variance, ``shifts`` and ``probs`` the atoms of all
    layers in layer order, filled from each field's ``values`` and
    ``probs``, and ``starts`` the index of each layer's first atom.
    :func:`expect` builds one from the fields of every call; a caller that
    evaluates the same layers many times (a solver's steps) builds it once
    and passes it as ``fields``.
    """

    def __new__(cls, fields):
        table = super().__new__(cls, fields)
        if not all(isinstance(field, FieldSpec) for field in table):
            raise TypeError("field must be a FieldSpec")
        counts = [len(field.values) for field in table]
        size = sum(counts)
        table.v = np.array([field.v for field in table])
        table.shifts = np.fromiter(itertools.chain.from_iterable(
            field.values for field in table), float, size)
        table.probs = np.fromiter(itertools.chain.from_iterable(
            field.probs for field in table), float, size)
        table.starts = np.array(list(itertools.accumulate(counts[:-1], initial=0)))
        table.counts = np.array(counts)
        return table


def _rule_blocks(total: np.ndarray, largest: float, table: FieldTable):
    """``(rule, atoms)`` blocks of atoms that share the rule their layer's
    total variance picks (:func:`_rule_for`), as many atoms as fit in
    ``_BLOCK_ENTRIES`` entries and at least one; ``atoms`` is a slice or an
    index array into the table's atoms, and ``largest`` is the largest
    total variance."""
    size = table.shifts.size
    if largest <= _DEFAULT_VARIANCE:
        rule = default_rule()
        step = _BLOCK_ENTRIES // rule.order
        for lo in range(0, size, step):
            yield rule, slice(lo, lo + step)
        return
    rules = [_rule_for(variance) for variance in total.tolist()]
    orders = np.repeat([rule.order for rule in rules], table.counts)
    for rule in dict.fromkeys(rules):
        atoms = np.flatnonzero(orders == rule.order)
        step = max(1, _BLOCK_ENTRIES // rule.order)
        for lo in range(0, atoms.size, step):
            yield rule, atoms[lo:lo + step]


def expect(f, s, fields):
    """``E f(z sqrt(s_p) + h_p)`` for standard Gaussian ``z``, per layer.

    ``s`` is a ``(K,)`` array of variances and ``fields`` a sequence of
    ``K`` :class:`FieldSpec`, or a :class:`FieldTable` of them; the result
    is a ``(K,)`` array.  A float ``s`` with one :class:`FieldSpec` is the
    one-layer case and gives a float.  A kernel that returns several
    arrays stacked along a leading axis, such as :data:`TANH_MOMENTS`,
    gives one row per array: ``(m, K)``, or ``(m,)`` for one layer.

    The atoms of all layers are evaluated in blocks of atoms that share a
    rule, bounded by entries; the rule is picked from each layer's total
    variance ``s_p + v_p`` (see the module docstring).
    Each atom's node sum is its own dot product, so a layer's value does
    not depend on the other layers in the call: it is bit for bit the
    value of the one-layer call.
    """
    single = isinstance(fields, FieldSpec)
    table = (fields if isinstance(fields, FieldTable)
             else FieldTable((fields,) if single else fields))
    variances = np.asarray(s, dtype=float).ravel()
    if variances.size != len(table):
        raise ValueError(f"need one variance per field, got {variances.size} "
                         f"for {len(table)}")
    total = variances + table.v
    # With v finite and >= 0, s + v is finite exactly when s is, short of
    # overflow; a NaN fails both tests.
    largest = np.maximum.reduce(total)
    if not (np.minimum.reduce(variances) >= 0.0 and largest < math.inf):
        raise ValueError("variance s must be finite and >= 0, and s + v "
                         "finite")
    std = np.sqrt(total)
    several = table.shifts.size > len(table)
    if several:
        std = np.repeat(std, table.counts)
    sums = None
    for rule, atoms in _rule_blocks(total, largest, table):
        y = std[atoms, None] * rule.nodes + table.shifts[atoms, None]
        vals = np.asarray(f(y), dtype=float)
        # One dot product per atom: (..., A, 1, N) @ (N, 1).
        atom_sums = np.matmul(vals[..., None, :],
                              rule.weights[:, None])[..., 0, 0]
        del y, vals  # free this block's arrays before the next one's
        if sums is None and atom_sums.shape[-1] == table.shifts.size:
            sums = atom_sums
            continue
        if sums is None:
            sums = np.empty(atom_sums.shape[:-1] + table.shifts.shape)
        sums[..., atoms] = atom_sums
    if several:
        # Some layer has several atoms: weigh them and sum per layer.
        sums = np.add.reduceat(table.probs * sums, table.starts, axis=-1)
    if not single:
        return sums
    return float(sums[0]) if sums.ndim == 1 else sums[..., 0]
