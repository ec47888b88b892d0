"""Exact arithmetic on continuous piecewise-linear functions of one variable.

A function is stored as its sorted breakpoints, the slope on every segment
(including the two unbounded end segments) and a single anchor point fixing
the additive constant.  All operations are pure; values are immutable after
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._value import Value, frozen

# Two breakpoints closer than this (relative) are considered coincident.
BREAKPOINT_MERGE_TOL = 1e-12
# Slope jumps below 1e-12 * (1 + total variation) are dropped.
SLOPE_JUMP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PwlFunction(Value):
    """Continuous piecewise-linear function on the real line.

    ``slopes[j]`` is the slope on the j-th segment: ``slopes[0]`` on
    ``(-inf, breakpoints[0])`` and ``slopes[-1]`` on ``(breakpoints[-1], inf)``.
    ``anchor = (x_ref, y_ref)`` pins the function value at one abscissa.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    anchor: tuple[float, float]

    def __post_init__(self):
        bp, sl = frozen(self.breakpoints), frozen(self.slopes)
        anchor = (float(self.anchor[0]), float(self.anchor[1]))
        if bp.ndim != 1 or sl.ndim != 1:
            raise ValueError("breakpoints and slopes must be flat sequences")
        if sl.size != bp.size + 1:
            raise ValueError("need exactly one more slope than breakpoints")
        if np.any(bp[1:] < bp[:-1]):
            raise ValueError("breakpoints must be sorted")
        if not np.isfinite(np.concatenate((bp, sl, anchor))).all():
            raise ValueError("non-finite breakpoint, slope or anchor")
        vars(self).update(breakpoints=bp, slopes=sl, anchor=anchor)

    @classmethod
    def _through(cls, xs, slopes, anchor):
        """The function on a Dataset's xs, which it shares, with ``slopes``, a
        fresh array it takes over; only they and the anchor's y are checked."""
        f, anchor = object.__new__(cls), (float(anchor[0]), float(anchor[1]))
        if not (np.isfinite(slopes).all() and math.isfinite(anchor[1])):
            raise ValueError("non-finite breakpoint, slope or anchor")
        slopes.flags.writeable = False
        vars(f).update(breakpoints=xs, slopes=slopes, anchor=anchor)
        return f


@dataclass(frozen=True, eq=False)
class AtomList1D(Value):
    """Purely atomic distribution: point masses at strictly increasing
    locations, one (location, mass) row of ``atoms`` each."""

    atoms: np.ndarray

    def __post_init__(self):
        a = frozen(self.atoms).reshape(len(self.atoms), 2)
        if not np.isfinite(a).all():
            raise ValueError("non-finite atom location or mass")
        if np.any(a[1:, 0] <= a[:-1, 0]):
            raise ValueError("atom locations must be strictly increasing")
        if np.any(a[:, 1] == 0.0):
            raise ValueError("atom masses must be nonzero")
        object.__setattr__(self, "atoms", a)

    def total_mass(self) -> float:
        return float(self.atoms[:, 1].sum())


def _raw_values(f: PwlFunction, x: np.ndarray) -> np.ndarray:
    """Antiderivative of the slope profile, zero at the first breakpoint."""
    bp, sl = f.breakpoints, f.slopes
    if bp.size == 0:
        return sl[0] * x
    # value at each breakpoint relative to bp[0], which also anchors seg 0
    cum = np.concatenate(([0.0], np.cumsum(sl[1:-1] * np.diff(bp))))
    seg = np.searchsorted(bp, x, side="right")
    left = np.maximum(seg - 1, 0)
    return cum[left] + sl[seg] * (x - bp[left])


def pwl_eval(f: PwlFunction, x):
    """Evaluate f at a scalar or array of points."""
    xs = np.asarray(x, dtype=float)
    # the anchor's raw value comes from the same pass, as the last entry
    raw = _raw_values(f, np.append(xs, f.anchor[0]))
    vals = raw[:-1] - raw[-1] + f.anchor[1]
    return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)


def _jumps(f: PwlFunction) -> tuple[np.ndarray, np.ndarray]:
    """Locations and sizes of the nonzero slope jumps, as arrays."""
    jumps = np.diff(f.slopes)
    return f.breakpoints[jumps != 0.0], jumps[jumps != 0.0]


def second_derivative_measure(f: PwlFunction) -> AtomList1D:
    """Distributional second derivative: one atom per slope jump."""
    return AtomList1D(np.column_stack(_jumps(f)))


def tv_fprime(f: PwlFunction) -> float:
    """Total variation of the derivative: sum of absolute slope jumps."""
    return float(np.abs(np.diff(f.slopes)).sum())


def end_slope_sum(f: PwlFunction) -> float:
    """Sum of the two limiting slopes."""
    return float(f.slopes[0] + f.slopes[-1])


def add_constant(f: PwlFunction, c: float) -> PwlFunction:
    return PwlFunction(f.breakpoints, f.slopes, (f.anchor[0], f.anchor[1] + c))


def scale(f: PwlFunction, c: float) -> PwlFunction:
    """Scale function values by c."""
    return PwlFunction(f.breakpoints, c * f.slopes,
                       (f.anchor[0], c * f.anchor[1]))


def translate(f: PwlFunction, dx: float) -> PwlFunction:
    """Shift the graph right by dx."""
    return PwlFunction(f.breakpoints + dx, f.slopes,
                       (f.anchor[0] + dx, f.anchor[1]))


def reflect(f: PwlFunction) -> PwlFunction:
    """Mirror the graph about the y axis: g(x) = f(-x)."""
    bp, sl = f.breakpoints, f.slopes
    return PwlFunction(-bp[::-1], -sl[::-1], (-f.anchor[0], f.anchor[1]))


def _merge_runs(points, jumps, joins):
    """Merge each point that ``joins`` the one before; jumps add in order."""
    if not joins.any():
        return points, jumps + 0.0  # as the sums below: -0.0 becomes 0.0
    new = np.concatenate(([True], ~joins))[:points.size]
    sums = np.zeros(np.count_nonzero(new))
    np.add.at(sums, np.cumsum(new) - 1, jumps)
    return points[new], sums


def _sum_jumps(left_slope, locs, jumps, anchor) -> PwlFunction:
    """The function with these jumps, summed in input order at exactly
    equal locations (the sort is stable); no jump is dropped."""
    order = np.argsort(locs, kind="stable")
    locs = locs[order]
    locs, sums = _merge_runs(locs, jumps[order], locs[1:] == locs[:-1])
    slopes = np.cumsum(np.concatenate(([float(left_slope)], sums)))
    return PwlFunction(locs, slopes, anchor)


def from_jumps(left_slope: float, atoms, anchor) -> PwlFunction:
    """Build a PwlFunction from its leftmost slope and slope-jump atoms:
    (location, jump) pairs in any order, or an (n, 2) array.  Coincident
    locations have their jumps summed."""
    a = np.asarray(atoms if isinstance(atoms, np.ndarray) else list(atoms),
                   dtype=float)
    a = a.reshape(len(a), 2)
    return canonicalize(_sum_jumps(left_slope, a[:, 0], a[:, 1], anchor))


def canonicalize(f: PwlFunction) -> PwlFunction:
    """Merge near-coincident breakpoints and drop negligible slope jumps.

    Breakpoint b joins the one before it when their gap is at most
    BREAKPOINT_MERGE_TOL * (1 + |b|): single linkage, so a chain of small
    gaps merges into its first point however long the chain.  Evaluation is
    preserved up to the moved and dropped jumps; applying canonicalize
    twice gives the same object as applying it once.
    """
    bp, sl = f.breakpoints, f.slopes
    joins = np.diff(bp) <= BREAKPOINT_MERGE_TOL * (1.0 + np.abs(bp[1:]))
    bp, jumps = _merge_runs(bp, np.diff(sl), joins)
    keep = np.abs(jumps) >= SLOPE_JUMP_TOL * (1.0 + np.abs(jumps).sum())
    if keep.all() and not joins.any():
        return f  # already canonical; rebuilding would only re-round slopes
    slopes = np.cumsum(np.concatenate((sl[:1], jumps[keep])))
    return PwlFunction(bp[keep], slopes, f.anchor)


def relu() -> PwlFunction:
    return PwlFunction((0.0,), (0.0, 1.0), (0.0, 0.0))


def absval() -> PwlFunction:
    return PwlFunction((0.0,), (-1.0, 1.0), (0.0, 0.0))


def linear(slope: float, intercept: float = 0.0) -> PwlFunction:
    return PwlFunction((), (float(slope),), (0.0, float(intercept)))
