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
is capped at 6 (23041 nodes) at ``s + v = ACCURATE_VARIANCE = 102400``;
beyond it the largest rule is used.  A shifted atom (any atom but 0) takes
the 181-node rule, the default's spacing doubled, through ``s + v <=
3.125``: its kernel values cost 181 there, as a folded atom's do (below).
That rule's spacing alone would carry it to 6.25, but ``E cosh^-4`` on
it is off by up to 8.5e-14 there.

The kernels are at machine accuracy, errors of a few units in the last
place, well inside each rung: against 30-digit references on the kernels'
inputs of the benchmark's ``scan-bound`` and ``query-mix`` streams (``s +
v`` up to 4.3), the mean absolute error is 2.1e-17 to 4.3e-17 for each
kernel and the largest is 2.2e-16.  Each rung's top is where its spacing
in ``y`` is widest, and there ``E cosh^-4`` is not at machine accuracy:
it is off by 6.4e-14 at ``s + v = 25`` with a zero field and by 1.85e-14
with ``h = 0.7``, against 1.1e-15 at 20 and 1.1e-16 at 12.5, and by
3.1e-14 at the next rung's top, 100.  ``E tanh^2`` and ``E log cosh``
stay within 1.8e-15 at every top measured through 400.

Every rule satisfies the :class:`QuadratureRule` contract: positive
weights whose exact sum is at most one, short of it by at most an ulp or
two of the middle weight (7e-18 or less), and nodes and weights that are
exactly symmetric, ``nodes == -nodes[::-1]`` and ``weights ==
weights[::-1]``, with a node at exactly 0 for odd orders.  So a rule
carries its half on the non-negative nodes, :attr:`QuadratureRule.folded`,
which gives the same integral of an even function from half the nodes.
A sum at most one keeps the exact sum of an atom at the largest float
within the floats; where a dot product's rounding still carries it past,
the atom's sum is taken again on halved weights.

Layered calls
-------------
The replica-symmetric pressure, its consistency map and the split bound
are sums of one such integral per layer, so :func:`expect` takes a vector
of variances and one field per layer and evaluates every layer in one
call: the atoms of all fields go into ``(atoms, nodes)`` arrays, atoms
grouped by the rule that their layer's total variance and whether they
fold pick, in blocks bounded
by entries: at most ``_BLOCK_ENTRIES`` (8192) atom-node entries per
kernel row, or one atom when its nodes alone are more.  Arrays of that
size (64 KiB per row) stay on the C allocator's heap, which the next block
and the next call reuse, where larger ones are mapped from the operating
system and faulted in afresh every time.  Each atom's node sum is its own
dot product, so a layer's value is bit for bit that of the one-layer call,
whatever else shares the call or however the atoms are blocked.

Every kernel is even, so an atom at exactly 0 (every atom of a zero or
centred Gaussian field) has an even integrand in ``z``.  Such an atom is
evaluated on its rule's folded half only: the weight of node 0 kept and
every other weight doubled, which is exact in floats.  So it costs half
the entries, half the kernel pass and half the dot product of a shifted
atom, and a block holds twice as many of them; nothing is added to its
nodes.  Through ``s + v <= 3.125`` a shifted atom's 181-node rule costs
the same as a folded atom's half of the 361-node one.  Whether an atom
folds, and so its rule, depends on that atom and its layer alone, so the
bits of a layer still do not depend on the other layers.  The fields'
atoms are laid out as arrays in a :class:`FieldTable`, which also holds
the indices of its folded atoms and of its shifted ones, each in table
order (:attr:`FieldTable.atoms_by_fold`); a solver that evaluates the same
layers at every step builds it once and passes it in place of the fields.
Each block is an index array into the table's atoms: the call gathers
that block's variances and shifts and writes its sums back in place, so
no call reorders its atoms.  A float ``s`` with one field is the
one-layer case of the same body.

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
import sys
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
# Total variance through which a shifted atom takes the coarse rule, the
# default's spacing doubled.  Its spacing alone would carry it to 6.25, but
# it is off by up to 8.5e-14 there; 3.125 keeps it at machine accuracy.
_COARSE_VARIANCE = _DEFAULT_VARIANCE / 8.0
# Most atom-node entries per kernel row of an expect block: 64 KiB of
# float64, under glibc's 128 KiB threshold for serving an allocation by mmap.
_BLOCK_ENTRIES = 1 << 13
_HALF_MAX = 0.5 * sys.float_info.max


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights normalized against the standard Gaussian measure."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    @functools.cached_property
    def folded(self) -> tuple[np.ndarray, np.ndarray]:
        """``(nodes, weights)`` of the rule folded onto its non-negative
        nodes for even integrands: the weight of node 0 kept and each
        other weight doubled.  The sum is the rule's own when its nodes
        and weights are exactly symmetric."""
        half = self.order // 2
        weights = 2.0 * self.weights[half:]
        if self.order % 2:
            weights[0] = self.weights[half]
        return self.nodes[half:], weights


def logcosh(y):
    """Overflow-safe ``log cosh y = |y| + log1p(expm1(-2|y|) / 2)``.

    Exact at 0 and even, with no rounded ``log 2`` subtracted: that form
    read high by up to 2.3e-17 near 0.  ``expm1(-2|y|)`` is -1 in floats
    from ``|y| = 19``; taking it at ``min(|y|, 400)`` keeps every bit and
    keeps ``-2|y|`` from overflowing near the largest float."""
    a = np.abs(y)
    tail = np.minimum(a, 400.0)
    out = tail if isinstance(tail, np.ndarray) else None
    tail = np.multiply(tail, -2.0, out=out)
    tail = np.expm1(tail, out=out)
    tail = np.multiply(tail, 0.5, out=out)
    tail = np.log1p(tail, out=out)
    return np.add(tail, a, out=out)


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
    kernels up to large variance (see the module docstring).  The nodes
    and weights are exactly symmetric, and the weights' exact sum is at
    most one and within an ulp or two of the middle weight of it.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    # Mirrored equispaced nodes: each moves by at most an ulp of the
    # half-width, and nodes == -nodes[::-1] holds exactly, with the centre
    # node 0 for odd orders.
    ends = np.linspace(-_HALF_WIDTH, _HALF_WIDTH, order)
    nodes = 0.5 * (ends - ends[::-1])
    weights = _normalised(np.exp(-0.5 * nodes * nodes))
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def _normalised(weights: np.ndarray) -> np.ndarray:
    """Symmetric positive ``weights`` scaled so that their exact sum is at
    most one, and short of it by at most an ulp of the middle weight (two
    for the middle pair of an even order).

    Divided by their correctly rounded sum, each weight then takes its
    share of the exact sum's error, and the rounding of each mirrored pair,
    from the tails inward, is carried into the next pair, so the roundings
    do not add up: rounding each weight on its own left the 361-node rule's
    exact sum at 1 - 4.3e-17.  The middle weight (or pair) then steps down
    an ulp while the exact sum is above one."""
    weights = weights / math.fsum(weights)
    excess = math.fsum(np.append(weights, -1.0))
    values = weights.tolist()
    half, odd = divmod(len(values), 2)
    carry = 0.0
    for i in range(half):
        # The pair's exact target is 2 w (1 - excess) + carry; Fast2Sum
        # gives the rounding error of each half.
        shift = 0.5 * carry - values[i] * excess
        rounded = values[i] + shift
        carry = 2.0 * ((values[i] - rounded) + shift)
        values[i] = values[-1 - i] = rounded
    if odd:
        values[half] += carry - values[half] * excess
    weights = np.array(values)
    middle = slice(half - 1 + odd, half + 1)
    while math.fsum(np.append(weights, -1.0)) > 0.0:
        weights[middle] = np.nextafter(weights[middle], 0.0)
    return weights


@functools.cache
def default_rule() -> QuadratureRule:
    """The module-wide default rule (cached)."""
    return normal_trapezoid_rule(DEFAULT_ORDER)


@functools.cache
def _coarse_rule() -> QuadratureRule:
    """The default rule's node spacing doubled: 181 nodes (cached)."""
    return normal_trapezoid_rule((DEFAULT_ORDER + 1) // 2)


@functools.cache
def _refined_rule(doublings: int) -> QuadratureRule:
    """The default rule with its node spacing halved ``doublings`` times."""
    return normal_trapezoid_rule((DEFAULT_ORDER - 1) * 2 ** doublings + 1)


def _rule_for(variance: float, shifted: bool = False) -> QuadratureRule:
    """The cheapest rule accurate at total variance ``variance`` for an
    atom at 0 (folded) or, with ``shifted``, any other atom; the finest
    one past ``ACCURATE_VARIANCE``."""
    if variance <= _COARSE_VARIANCE and shifted:
        return _coarse_rule()
    if variance <= _DEFAULT_VARIANCE:
        return default_rule()
    capped = min(variance, ACCURATE_VARIANCE)
    return _refined_rule(math.ceil(0.5 * math.log2(capped / _DEFAULT_VARIANCE)))


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


class FieldTable:
    """The laws of a sequence of :class:`FieldSpec`, one per layer, laid
    out as arrays for :func:`expect`.

    This is the one array layout of the fields' laws: ``v`` holds each
    layer's Gaussian variance, ``shifts`` and ``probs`` the atoms of all
    layers in layer order, filled from each field's ``values`` and
    ``probs``, ``starts`` the index of each layer's first atom and
    ``counts`` the number of its atoms.  :func:`expect` builds one from the
    fields of every call; a caller that evaluates the same layers many
    times (a solver's steps) builds it once and passes it as ``fields``,
    and takes the table of some of its layers with :meth:`take`.  What
    :func:`expect` reads of the atoms beyond their arrays, whether some
    atom is huge (:attr:`huge`) and which fold (:attr:`atoms_by_fold`), is
    computed once per table.
    """

    def __init__(self, fields):
        fields = tuple(fields)
        if not all(isinstance(field, FieldSpec) for field in fields):
            raise TypeError("field must be a FieldSpec")
        counts = [len(field.values) for field in fields]
        size = sum(counts)
        self.v = np.array([field.v for field in fields])
        self.shifts = np.fromiter(itertools.chain.from_iterable(
            field.values for field in fields), float, size)
        self.probs = np.fromiter(itertools.chain.from_iterable(
            field.probs for field in fields), float, size)
        self.starts = np.array(list(itertools.accumulate(counts[:-1], initial=0)))
        self.counts = np.array(counts)

    def __len__(self) -> int:
        return self.v.size

    def __iter__(self):
        return map(self.field, range(len(self)))

    @property
    def centred(self) -> np.ndarray:
        """Per layer, whether every atom is 0 (:attr:`FieldSpec.is_centred`)."""
        return np.logical_and.reduceat(self.shifts == 0.0, self.starts)

    @functools.cached_property
    def huge(self) -> bool:
        """Whether some atom is at half the largest float or more in size,
        where its node sum can round past the largest float (see
        :func:`_huge_atom_sums`)."""
        return bool(np.maximum.reduce(np.fabs(self.shifts)) >= _HALF_MAX)

    @functools.cached_property
    def atoms_by_fold(self) -> tuple[np.ndarray, np.ndarray]:
        """The indices of the atoms at exactly 0, whose integrands
        :func:`expect` folds, and of the shifted atoms, each in table
        order."""
        zero = self.shifts == 0.0
        return np.flatnonzero(zero), np.flatnonzero(~zero)

    def field(self, layer: int) -> FieldSpec:
        """The field of one layer."""
        lo = int(self.starts[layer])
        hi = lo + int(self.counts[layer])
        return FieldSpec(v=float(self.v[layer]),
                         values=tuple(self.shifts[lo:hi].tolist()),
                         probs=tuple(self.probs[lo:hi].tolist()))

    def take(self, layers, v=None) -> "FieldTable":
        """The table of the fields of ``layers`` (an index array, repeats
        allowed), in that order, with the variances ``v`` in place of
        theirs when given."""
        layers = np.asarray(layers, dtype=np.intp)
        table = object.__new__(FieldTable)
        table.v = self.v[layers] if v is None else np.asarray(v, dtype=float)
        table.counts = self.counts[layers]
        table.starts = np.concatenate(([0], np.cumsum(table.counts[:-1])))
        atoms = (np.repeat(self.starts[layers] - table.starts, table.counts)
                 + np.arange(table.counts.sum()))
        table.shifts = self.shifts[atoms]
        table.probs = self.probs[atoms]
        return table


def _rule_blocks(total: np.ndarray, largest: float, table: FieldTable):
    """``(nodes, weights, atoms, fold)`` blocks of atoms that share the rule
    their layer's total variance and their fold pick (:func:`_rule_for`),
    as many atoms as fit in ``_BLOCK_ENTRIES`` node entries and at least
    one: the folded atoms first, then the shifted ones.  ``atoms`` is an
    index array into the table's atoms, in table order, and ``largest`` is
    the largest total variance."""
    for fold, part in zip((True, False), table.atoms_by_fold):
        if not part.size:
            continue
        # Rules grow with the variance, so when the largest variance picks
        # the rule that 0 picks, every layer's does.
        top = _rule_for(largest, not fold)
        rules = ([top] if top is _rule_for(0.0, not fold) else
                 [_rule_for(variance, not fold) for variance in total.tolist()])
        groups = {top: part}
        if len(set(rules)) > 1:
            orders = np.repeat([rule.order for rule in rules],
                               table.counts)[part]
            groups = {rule: part[orders == rule.order]
                      for rule in dict.fromkeys(rules)}
        for rule, atoms in groups.items():
            nodes, weights = rule.folded if fold else (rule.nodes, rule.weights)
            step = max(1, _BLOCK_ENTRIES // nodes.size)
            for lo in range(0, atoms.size, step):
                yield nodes, weights, atoms[lo:lo + step], fold


def _huge_atom_sums(vals: np.ndarray, weights: np.ndarray):
    """The atom sums of :func:`expect` where some atom is at half the
    largest float or more in size: a sum that the dot product's rounding
    carries past the largest float, from finite values, is taken on halved
    weights and doubled, at most the largest float in size.  Every other
    sum keeps its bits."""
    with np.errstate(over="ignore"):
        sums = np.matmul(vals[..., None, :], weights[:, None])[..., 0, 0]
    over = np.isinf(sums) & np.isfinite(vals).all(axis=-1)
    if over.any():
        halved = np.matmul(vals[..., None, :],
                           0.5 * weights[:, None])[..., 0, 0][over]
        sums[over] = 2.0 * np.clip(halved, -_HALF_MAX, _HALF_MAX)
    return sums


def expect(f, s, fields):
    """``E f(z sqrt(s_p) + h_p)`` for standard Gaussian ``z``, per layer.

    ``s`` is a ``(K,)`` array of variances and ``fields`` a sequence of
    ``K`` :class:`FieldSpec`, or a :class:`FieldTable` of them; the result
    is a ``(K,)`` array.  A float ``s`` with one :class:`FieldSpec` is the
    one-layer case and gives a float.  A kernel that returns several
    arrays stacked along a leading axis, such as :data:`TANH_MOMENTS`,
    gives one row per array: ``(m, K)``, or ``(m,)`` for one layer.

    ``f`` must be even, ``f(-y) == f(y)`` bit for bit, as every kernel of
    this module is: an atom at exactly 0 is evaluated on its rule's
    non-negative nodes only (:attr:`QuadratureRule.folded`).

    The atoms of all layers are evaluated in blocks of atoms that share a
    rule and whether it is folded, bounded by entries; the rule is picked
    from each layer's total variance ``s_p + v_p`` and whether the atom is
    at 0 (see the module docstring), and only the nonzero atoms are added
    to the scaled nodes.  Each atom's node sum is its own dot product, so
    a layer's value does not depend on the other layers in the call: it
    is bit for bit the value of the one-layer call.
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
    huge = table.huge
    for nodes, weights, atoms, fold in _rule_blocks(total, largest, table):
        y = std[atoms, None] * nodes
        if not fold:
            y += table.shifts[atoms, None]
        vals = np.asarray(f(y), dtype=float)
        if huge:
            atom_sums = _huge_atom_sums(vals, weights)
        else:
            # One dot product per atom: (..., A, 1, N) @ (N, 1).
            atom_sums = np.matmul(vals[..., None, :],
                                  weights[:, None])[..., 0, 0]
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
