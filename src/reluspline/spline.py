"""Minimum-cost spline interpolation and regularized fitting.

Among all functions interpolating a dataset, the one of least representation
cost is the linear spline through the points, with the two unbounded end
slopes chosen to minimize max(total slope variation, |l0 + lN|).  The
regularized variant trades data fit against that same cost.  It is a convex
program in the fitted values, solved exactly by an active-set method on its
dual in one C call (``_kernel``), which also returns the spline's slopes and
the residuals; Python adds the end slopes, the loss and the duality gap.  It
needs a C compiler, which interpolation does not.  Both build their splines
on the dataset's own, already checked abscissas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import _kernel
from ._value import Value
from .pwl import PwlFunction

# Grid points per axis and number of zooms of grid_oracle_end_slopes.
_ORACLE_GRID = 41
_ORACLE_ZOOMS = 14


@dataclass(frozen=True, init=False, repr=False, eq=False)
class Dataset(Value):
    """Finite sample of (x, y) pairs with distinct x, sorted by x; immutable.

    The read-only arrays ``xs`` and ``ys`` are the storage; ``points`` is the
    same sample as a tuple of (x, y) float pairs, built on first use.  Two
    datasets are equal, and hash alike, when their points are.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __init__(self, points):
        """Sort the pairs by (x, y) and merge repeated x.

        The first sorted pair at an x is kept; any other pair there must
        agree with its y to 1e-12 (1 + max |y|).  The gaps between
        consecutive x, the secants between consecutive points and the
        jumps between consecutive secants must be finite.
        """
        points = tuple(points)
        if not points:
            raise ValueError("dataset needs at least one point")
        if list(map(len, points)).count(2) != len(points):
            raise ValueError("dataset points must be (x, y) pairs")
        flat = np.fromiter(chain.from_iterable(points), float, 2 * len(points))
        if not np.isfinite(flat).all():
            raise ValueError("dataset points must be finite")
        # numpy orders complex numbers by (real, imag), so a stable sort of
        # the pairs viewed as x + iy sorts by (x, y) as sorted() does
        order = np.argsort(flat.view(complex), kind="stable")
        xs, ys = flat[0::2][order], flat[1::2][order]
        with np.errstate(over="ignore", invalid="ignore"):
            dx = xs[1:] - xs[:-1]
            if (dx == 0.0).any():
                first = np.concatenate(([True], dx != 0.0))
                kept = ys[first][np.cumsum(first) - 1]
                bad = np.abs(ys - kept) > 1e-12 * (1.0 + np.abs(ys).max())
                if bad.any():
                    raise ValueError(f"conflicting y values at x = "
                                     f"{float(xs[bad.argmax()])}")
                xs, ys = xs[first], ys[first]
                dx = xs[1:] - xs[:-1]
            secants = (ys[1:] - ys[:-1]) / dx
            ok = np.isfinite(dx) & np.isfinite(secants)
            jumps = np.isfinite(secants[1:] - secants[:-1])
        if not ok.all():
            i = int(ok.argmin())
            raise ValueError(
                f"dataset x difference or secant overflows between "
                f"x = {float(xs[i])} and x = {float(xs[i + 1])}")
        if not jumps.all():
            raise ValueError(f"dataset slope jump overflows at "
                             f"x = {float(xs[jumps.argmin() + 1])}")
        xs.flags.writeable = ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @cached_property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.xs.tolist(), self.ys.tolist()))

    def __repr__(self):
        return f"Dataset(points={self.points!r})"

    @property
    def n(self) -> int:
        return self.xs.size

    def to_dict(self) -> dict:
        return {"points": np.column_stack((self.xs, self.ys)).tolist()}


@dataclass(frozen=True)
class InterpolationResult:
    spline: PwlFunction
    cost: float
    # relative duality gap of a regularized fit; interpolation is exact
    gap: float = 0.0
    # active-set passes of a regularized fit, each a step or a test of the
    # multipliers; interpolation takes none
    iterations: int = 0

    @property
    def end_slopes(self) -> tuple[float, float]:
        """The spline's slopes on its two unbounded end segments."""
        return float(self.spline.slopes[0]), float(self.spline.slopes[-1])


def interior_slopes(d: Dataset) -> np.ndarray:
    """Secant slopes between consecutive data points."""
    if d.n < 2:
        raise ValueError("need at least two data points")
    return (d.ys[1:] - d.ys[:-1]) / (d.xs[1:] - d.xs[:-1])


def optimal_end_slopes(interior) -> tuple[float, float, float]:
    """Minimize g(l0, lN) = max(sum of |slope jumps|, |l0 + lN|).

    Returns (l0, lN, optimal value).  Among minimizers the pair deviating
    least from the adjacent secant slopes is chosen, then the
    lexicographically smallest.
    """
    l = np.asarray(interior, dtype=float)
    if not l.size:
        raise ValueError("interior slopes must be nonempty")
    t_int = float(np.abs(l[1:] - l[:-1]).sum())
    first, last = float(l[0]), float(l[-1])
    sigma = first + last
    if abs(sigma) <= t_int:
        return first, last, t_int
    # bend the end slopes toward each other by a total of s_star; the value
    # halves each term first, or it overflows where its half does not
    s_star = 0.5 * (abs(sigma) - t_int)
    value = 0.5 * t_int + 0.5 * abs(sigma)
    if sigma > 0:
        return first - s_star, last, value
    return first, last + s_star, value


def end_slope_objective(interior, l0: float, ln: float) -> float:
    """g(l0, lN) = max(total slope variation, |l0 + lN|) for given end slopes."""
    l = np.concatenate(([l0], np.asarray(interior, dtype=float), [ln]))
    return max(float(np.abs(np.diff(l)).sum()), abs(l0 + ln))


def grid_oracle_end_slopes(interior) -> tuple[float, float, float]:
    """Brute-force minimizer of the end-slope objective by iterative grid zoom.

    Slow but assumption-free; accurate to well below 1e-9 in the optimal
    value.  Returns (l0, lN, value); ties resolve to a grid point, so only
    the value is canonical.
    """
    l = np.asarray(interior, dtype=float)
    t_int = float(np.abs(np.diff(l)).sum())
    cx, cy = float(l[0]), float(l[-1])
    w = 4.0 * (1.0 + abs(cx) + abs(cy) + t_int)
    best = (cx, cy, end_slope_objective(interior, cx, cy))
    for _ in range(_ORACLE_ZOOMS):
        xs = cx + np.linspace(-w, w, _ORACLE_GRID)
        ys = cy + np.linspace(-w, w, _ORACLE_GRID)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        jump0 = np.abs(gx - l[0])
        jumpn = np.abs(gy - l[-1])
        vals = np.maximum(t_int + jump0 + jumpn, np.abs(gx + gy))
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[i, j] < best[2]:
            best = (float(xs[i]), float(ys[j]), float(vals[i, j]))
        cx, cy = float(xs[i]), float(ys[j])
        w *= 2.0 / (_ORACLE_GRID - 1) * 2.0
    return best


def min_norm_interpolant(d: Dataset) -> InterpolationResult:
    """Least representation cost among all functions through the data."""
    if d.n == 1:
        x0, y0 = d.points[0]
        return InterpolationResult(PwlFunction((), (0.0,), (x0, y0)), 0.0)
    slopes = np.empty(d.n + 1)
    slopes[1:-1] = interior_slopes(d)
    slopes[0], slopes[-1], value = optimal_end_slopes(slopes[1:-1])
    return InterpolationResult(
        PwlFunction._through(d.xs, slopes, (d.xs[0], d.ys[0])), value)


def regularized_fit(d: Dataset, loss: str, lam: float) -> InterpolationResult:
    """Minimize data loss plus lam times the representation cost, exactly.

    The minimizer is piecewise linear with breakpoints only at the data
    abscissas, so the problem is convex in the fitted values: an LP for
    ``loss="absolute"`` and a QP for ``loss="squared"``, both solved exactly
    through their duals in finitely many active-set passes, in one call of
    the C kernel's ``fit`` (see ``_kernel.c``).  The result's ``gap`` is the
    relative duality gap (objective - dual bound) / objective, with the
    bound the dual value at a feasible point, and ``iterations`` counts the
    passes.  An objective or bound that overflows raises ValueError.

    Both are computed with y measured from the middle of its range, a shift
    the kernel makes.  The problem is invariant under that shift, but
    rounding is not: it scales with max |y|, so data of offset c and spread
    s would see the gap drowned by noise of about eps*c.  Shifted, constant
    data fit exactly with objective 0 and gap 0, and the noise scales with
    s.  What remains is rounding in the cost term, multiplied by lam.
    """
    if not (0.0 < lam < math.inf):
        raise ValueError("lam must be positive and finite")
    if loss not in ("squared", "absolute"):
        raise ValueError(f"unknown loss {loss!r}")
    n = d.n
    if n == 1:
        return min_norm_interpolant(d)
    out, iterations = _kernel.fit(d.xs, d.ys, lam, loss == "squared")
    r, bound = out[2 * n:3 * n], out[3 * n]
    with np.errstate(over="ignore", invalid="ignore"):
        l0, ln, value = optimal_end_slopes(out[n + 1:2 * n])
        objective = r @ r if loss == "squared" else np.abs(r).sum()
        objective += lam * value
        gap = max(objective - bound, 0.0) / objective if objective > 0 else 0.0
    if not (math.isfinite(objective) and math.isfinite(bound)
            and math.isfinite(gap)):
        raise ValueError(f"regularized fit overflows: objective {objective}, "
                         f"dual bound {bound}")
    out[0], out[n] = l0, ln
    spline = PwlFunction._through(d.xs, out[:n + 1].copy(),
                                  (d.xs[0], out[3 * n + 1]))
    return InterpolationResult(spline, value, float(gap), iterations)
