"""Matching polynomials of weighted chains.

The polynomial family ``Delta_p(x; t)`` attached to nonnegative edge
activities ``t = (t_1, ..., t_{K-1})`` is defined by the three-term recursion

    Delta_0 = 1,  Delta_1 = x,  Delta_{p+1} = x * Delta_p - t_p * Delta_{p-1}.

``Delta_K`` is the matching polynomial of the K-vertex path with edge weights
``t_p``: writing ``f_d`` for the sum over d-edge matchings of the product of
their activities,

    Delta_K(x) = sum_d (-1)^d f_d x^(K - 2d).

Its zeros are the eigenvalues of the symmetric tridiagonal matrix with zero
diagonal and off-diagonal entries ``sqrt(t_p)``; they are therefore real, are
simple whenever every ``t_p > 0``, and the zero sets of consecutive
polynomials interlace.  :func:`interlacing_check` tests the computed zeros
against the eigensolver's error bound, so it holds for every valid chain.
The largest zero of ``Delta_K`` is the spectral radius of that matrix, and
localisation of all zeros inside ``(-r, r)`` is equivalent to positivity of
every ``Delta_p(r)``.

:func:`zeros` hands the dense symmetric matrix to
``numpy.linalg.eigvalsh`` (LAPACK ``dsyevd``) at every length up to
``MAX_LAYERS``.  That routine scales an out-of-range matrix by the same
factor as ``dstevd`` (behind ``scipy.linalg.eigh_tridiagonal``) does.  Its
reduction to tridiagonal form then changes nothing: every column below the
first sub-diagonal entry is already zero, so every Householder factor
``tau`` is 0.  Both end in ``dsterf`` on the same diagonal and
off-diagonal, so the zeros agree bit for bit with the tridiagonal solver's,
with NumPy alone.  The dense solve costs ``O(K^3)`` where the tridiagonal
one costs ``O(K^2)``: one solve at ``MAX_LAYERS`` takes milliseconds, but
:func:`zeros_sequence`, and so :func:`interlacing_check`, makes one per
leading sub-chain, seconds in all.

Chains are capped at ``MAX_LAYERS`` vertices; values are plain float64, which
can overflow for deep chains at large ``|x|``.  At ``x = 1``, where the
annealed-region test evaluates the chain, ``Delta_{p+1} = Delta_p - t_p
Delta_{p-1} <= Delta_p`` while both are positive: the values fall from
``Delta_1 = 1``, and the first non-positive one, which decides the test,
comes before any overflow.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "MAX_LAYERS",
    "eval_sequence",
    "matching_sums",
    "coefficients",
    "zeros",
    "zeros_sequence",
    "largest_zero",
    "interlacing_check",
    "zeros_in_interval",
]

MAX_LAYERS = 512


def _check_activities(t: Sequence[float], stack: bool = False) -> np.ndarray:
    """``t`` as a float array: one chain, or with ``stack`` also a
    ``(P, K - 1)`` array of ``P`` chains of one length."""
    t = np.asarray(t, dtype=float)
    if not (t.ndim == 1 or stack and t.ndim == 2):
        raise ValueError("activities must be a one-dimensional sequence"
                         + (" or a stack of them" if stack else ""))
    if t.shape[-1] + 1 > MAX_LAYERS:
        raise ValueError(f"chain length {t.shape[-1] + 1} exceeds MAX_LAYERS = {MAX_LAYERS}")
    if not np.isfinite(t).all():
        raise ValueError("activities must be finite")
    if (t < 0.0).any():
        raise ValueError("activities must be nonnegative")
    return t


def eval_sequence(x: float, t: Sequence[float]) -> np.ndarray:
    """Values ``(Delta_0(x), ..., Delta_K(x))`` with ``K = len(t) + 1``;
    for a ``(P, K - 1)`` stack of chains, one row of values per chain.

    Plain float64 recursion; deep chains at large ``|x|`` overflow to ``inf``
    and ``nan``, but not at ``x = 1`` (see the module docstring).
    """
    t = _check_activities(t, stack=True).T
    K = t.shape[0] + 1
    vals = np.empty((K + 1,) + t.shape[1:])
    vals[0] = 1.0
    vals[1] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(1, K):
            vals[p + 1] = x * vals[p] - t[p - 1] * vals[p - 1]
    return vals.T


def matching_sums(t: Sequence[float]) -> np.ndarray:
    """Matching sums ``f_d`` of the chain, for ``d = 0 .. K // 2``.

    ``f_d`` is the sum over d-edge matchings of the product of activities,
    computed vertex by vertex, one array step over ``d`` each, by the
    recursion ``f_{d,p} = f_{d,p-1} + t_{p-1} * f_{d-1,p-2}``.  An edge of
    zero activity lies in no matching of nonzero weight, so it adds
    nothing, and it is skipped: a sum past the floats is ``inf``, never
    ``nan`` (``0 * inf``), and raises no warning.
    """
    t = _check_activities(t)
    # f_d of the leading chain so far, and of the one a vertex shorter.
    f = shorter = np.zeros((t.size + 1) // 2 + 1)
    f[0] = 1.0
    with np.errstate(over="ignore"):
        for tp in t.tolist():
            grown = f.copy()
            if tp != 0.0:
                grown[1:] += tp * shorter[:-1]
            f, shorter = grown, f
    return f


def coefficients(t: Sequence[float]) -> np.ndarray:
    """Ascending coefficient vector of ``Delta_K`` (length ``K + 1``); a
    coefficient past the floats is ``inf`` in size."""
    t = _check_activities(t)
    f = matching_sums(t)
    f[1::2] = -f[1::2]
    coeffs = np.zeros(t.size + 2)
    coeffs[::-2] = f
    return coeffs


def zeros(t: Sequence[float]) -> np.ndarray:
    """Sorted real zeros of ``Delta_K``; for a ``(P, K - 1)`` stack of
    chains, one sorted row per chain.

    Computed as the eigenvalues of the symmetric tridiagonal matrix with zero
    diagonal and off-diagonals ``sqrt(t_p)``, through the dense matrix and
    ``numpy.linalg.eigvalsh``; they equal ``scipy.linalg.eigh_tridiagonal``'s
    bit for bit (see the module docstring).  A stack takes one batched
    ``eigvalsh`` call, which hands each matrix to LAPACK alone, so each row
    has the bits of its own chain's call.
    """
    t = _check_activities(t, stack=True)
    K = t.shape[-1] + 1
    # The off-diagonals, (p, p + 1) and (p + 1, p), as strides of the
    # flattened matrix.
    dense = np.zeros(t.shape[:-1] + (K * K,))
    dense[..., 1::K + 1] = dense[..., K::K + 1] = np.sqrt(t)
    return np.linalg.eigvalsh(dense.reshape(t.shape[:-1] + (K, K)))


def zeros_sequence(t: Sequence[float]) -> list[np.ndarray]:
    """Zero sets of ``Delta_1, ..., Delta_K`` (leading sub-chains)."""
    t = _check_activities(t)
    return [zeros(t[: p - 1]) for p in range(1, t.size + 2)]


def largest_zero(t: Sequence[float]):
    """Largest zero of ``Delta_K`` (= max ``|zero|`` by sign symmetry); for a
    stack of chains, an array of one per chain."""
    top = zeros(t)[..., -1]
    return float(top) if top.ndim == 0 else top


def interlacing_check(t: Sequence[float], strict: bool = False) -> bool:
    """Whether the computed zero sets of consecutive leading sub-chains
    interlace along the whole chain.

    Weak interlacing (``strict=False``) allows a zero past its neighbour by
    up to ``4 K eps max |zero of Delta_K|``, the eigensolver's error bound:
    ``eigvalsh`` errs by about ``K eps ||T||_2``, and the largest zero is
    ``||T||_2``, which bounds every sub-chain's zeros.  So it holds for
    every valid chain, at any scale, as the exact zeros do (coincident
    zeros occur when some activities vanish).  With every ``t_p > 0`` the
    interlacing is strict, and ``strict=True`` tests it with no tolerance.
    """
    zs = zeros_sequence(t)
    tol = 4 * len(zs) * np.finfo(float).eps * np.abs(zs[-1]).max()
    for prev, cur in zip(zs, zs[1:]):
        lo, hi = cur[:-1], cur[1:]
        if strict:
            if not (np.all(lo < prev) and np.all(prev < hi)):
                return False
        else:
            if not (np.all(lo <= prev + tol) and np.all(prev <= hi + tol)):
                return False
    return True


def zeros_in_interval(t: Sequence[float], radius: float, method: str = "signs") -> bool:
    """Whether every zero of ``Delta_K`` lies strictly inside ``(-radius, radius)``.

    ``method="signs"`` checks positivity of every ``Delta_p(radius)`` along the
    chain (no eigensolve) through the ratios ``Delta_p / Delta_{p-1}``, which
    lie in ``(0, radius]`` until the first non-positive one and so cannot
    overflow; ``method="eigen"`` compares ``radius`` with the largest zero.
    The two agree away from the boundary case ``radius = max |zero|``.
    """
    t = _check_activities(t)
    if method == "signs":
        radius = ratio = float(radius)
        for tp in t.tolist():
            if not ratio > 0.0:
                return False
            ratio = radius - tp / ratio
        return ratio > 0.0
    if method == "eigen":
        z = zeros(t)
        return bool(np.abs(z).max() < radius)
    raise ValueError(f"unknown method {method!r} (expected 'signs' or 'eigen')")
