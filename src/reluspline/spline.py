"""Minimum-cost spline interpolation and regularized fitting.

Among all functions interpolating a dataset, the one of least representation
cost is the linear spline through the points, with the two unbounded end
slopes chosen to minimize max(total slope variation, |l0 + lN|).  The
regularized variant trades data fit against that same cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import repcost
from .pwl import PwlFunction


@dataclass(frozen=True)
class Dataset:
    """Finite sample of (x, y) pairs with distinct x, sorted by x."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = sorted((float(x), float(y)) for x, y in self.points)
        if not np.isfinite(pts).all():
            raise ValueError("dataset points must be finite")
        yscale = 1.0 + max((abs(y) for _, y in pts), default=0.0)
        merged: list[tuple[float, float]] = []
        for x, y in pts:
            if merged and x == merged[-1][0]:
                if abs(y - merged[-1][1]) > 1e-12 * yscale:
                    raise ValueError(f"conflicting y values at x = {x}")
            else:
                merged.append((x, y))
        object.__setattr__(self, "points", tuple(merged))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def xs(self) -> np.ndarray:
        return np.array([x for x, _ in self.points])

    @property
    def ys(self) -> np.ndarray:
        return np.array([y for _, y in self.points])

    def to_dict(self) -> dict:
        return {"points": [[x, y] for x, y in self.points]}

    @classmethod
    def from_dict(cls, d: dict) -> "Dataset":
        return cls(tuple((x, y) for x, y in d["points"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "Dataset":
        return cls.from_dict(json.loads(s))


@dataclass(frozen=True)
class InterpolationResult:
    spline: PwlFunction
    cost: float
    end_slopes: tuple[float, float]


def interior_slopes(d: Dataset) -> list[float]:
    """Secant slopes between consecutive data points."""
    if d.n < 2:
        raise ValueError("need at least two data points")
    xs, ys = d.xs, d.ys
    return [float(v) for v in np.diff(ys) / np.diff(xs)]


def _end_slope_value(interior) -> float:
    """Optimal max(slope variation, |l0 + lN|) over the two end slopes."""
    l = np.asarray(interior, dtype=float)
    t_int = float(np.abs(np.diff(l)).sum())
    sigma = float(l[0] + l[-1])
    return max(t_int, 0.5 * (t_int + abs(sigma)))


def optimal_end_slopes(interior) -> tuple[float, float, float]:
    """Minimize g(l0, lN) = max(sum of |slope jumps|, |l0 + lN|).

    Returns (l0, lN, optimal value).  Among minimizers the pair deviating
    least from the adjacent secant slopes is chosen, then the
    lexicographically smallest.
    """
    l = list(map(float, interior))
    if not l:
        raise ValueError("interior slopes must be nonempty")
    t_int = float(np.abs(np.diff(l)).sum()) if len(l) > 1 else 0.0
    sigma = l[0] + l[-1]
    if abs(sigma) <= t_int:
        return l[0], l[-1], t_int
    # bend the end slopes toward each other by a total of s_star
    s_star = 0.5 * (abs(sigma) - t_int)
    value = 0.5 * (t_int + abs(sigma))
    if sigma > 0:
        return l[0] - s_star, l[-1], value
    return l[0], l[-1] + s_star, value


def end_slope_objective(interior, l0: float, ln: float) -> float:
    """g(l0, lN) = max(total slope variation, |l0 + lN|) for given end slopes."""
    l = np.concatenate(([l0], np.asarray(interior, dtype=float), [ln]))
    return max(float(np.abs(np.diff(l)).sum()), abs(l0 + ln))


def grid_oracle_end_slopes(interior, grid: int = 41,
                           rounds: int = 14) -> tuple[float, float, float]:
    """Brute-force minimizer of the end-slope objective by iterative grid zoom.

    Slow but assumption-free; accurate to well below 1e-9 in the optimal
    value.  Returns (l0, lN, value); ties resolve to a grid point, so only
    the value is canonical.
    """
    l = np.asarray(interior, dtype=float)
    t_int = float(np.abs(np.diff(l)).sum()) if l.size > 1 else 0.0
    cx, cy = float(l[0]), float(l[-1])
    w = 4.0 * (1.0 + abs(cx) + abs(cy) + t_int)
    best = (cx, cy, end_slope_objective(interior, cx, cy))
    for _ in range(rounds):
        xs = cx + np.linspace(-w, w, grid)
        ys = cy + np.linspace(-w, w, grid)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        jump0 = np.abs(gx - l[0])
        jumpn = np.abs(gy - l[-1])
        vals = np.maximum(t_int + jump0 + jumpn, np.abs(gx + gy))
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[i, j] < best[2]:
            best = (float(xs[i]), float(ys[j]), float(vals[i, j]))
        cx, cy = float(xs[i]), float(ys[j])
        w *= 2.0 / (grid - 1) * 2.0
    return best


def _build_spline(xs, yhat, l0, ln) -> PwlFunction:
    inner = np.diff(yhat) / np.diff(xs)
    slopes = (float(l0),) + tuple(inner) + (float(ln),)
    return PwlFunction(tuple(xs), slopes, (float(xs[0]), float(yhat[0])))


def min_norm_interpolant(d: Dataset) -> InterpolationResult:
    """Least representation cost among all functions through the data."""
    if d.n == 1:
        x0, y0 = d.points[0]
        return InterpolationResult(PwlFunction((), (0.0,), (x0, y0)),
                                   0.0, (0.0, 0.0))
    l0, ln, value = optimal_end_slopes(interior_slopes(d))
    spline = _build_spline(d.xs, d.ys, l0, ln)
    return InterpolationResult(spline, value, (l0, ln))


def _solve_subgrad(fg, x0, max_iter=10_000):
    """Subgradient descent with a Polyak step toward an adaptive target.

    The target sits delta below the best value seen; delta halves whenever
    progress stalls.  Returns (best point, best value, best-value history).
    """
    x = np.array(x0, dtype=float)
    f, g = fg(x)
    f_best, x_best = f, x.copy()
    delta = 0.5 * (1.0 + abs(f))
    stall = 0
    history = [f_best]
    for _ in range(max_iter):
        gn2 = float(g @ g)
        if gn2 <= 1e-28:
            break
        step = (f - (f_best - delta)) / gn2
        x = x - step * g
        f, g = fg(x)
        if f < f_best - 0.1 * delta:
            stall = 0
        else:
            stall += 1
        if f < f_best:
            f_best, x_best = f, x.copy()
        history.append(f_best)
        if stall >= 50:
            delta *= 0.5
            stall = 0
            if delta <= 1e-14 * (1.0 + abs(f_best)):
                break
    return x_best, f_best, np.array(history)


def _cost_and_subgrad(xs, yhat):
    """Optimal-end-slope cost as a function of fitted values, with a subgradient."""
    dx = np.diff(xs)
    l = np.diff(yhat) / dx
    m = l.size
    t_int = float(np.abs(np.diff(l)).sum()) if m > 1 else 0.0
    sigma = float(l[0] + l[-1])
    # d t_int / d l
    gl = np.zeros(m)
    if m > 1:
        sj = np.sign(np.diff(l))
        gl[1:] += sj
        gl[:-1] -= sj
    if t_int >= abs(sigma):
        value = t_int
    else:
        value = 0.5 * (t_int + abs(sigma))
        gl *= 0.5
        gl[0] += 0.5 * np.sign(sigma)
        gl[-1] += 0.5 * np.sign(sigma)
    # chain rule through l_n = (yhat_{n+1} - yhat_n) / dx_n
    gy = np.zeros(yhat.size)
    gy[1:] += gl / dx
    gy[:-1] -= gl / dx
    return value, gy


def regularized_fit(d: Dataset, loss: str, lam: float,
                    full_output: bool = False):
    """Minimize data loss plus lam times the representation cost.

    The minimizer is piecewise linear with breakpoints only at the data
    abscissas, so the problem is convex in the fitted values; ``loss`` is
    "squared" or "absolute".
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if loss not in ("squared", "absolute"):
        raise ValueError(f"unknown loss {loss!r}")
    if d.n == 1:
        res = min_norm_interpolant(d)
        return (res, np.zeros(1)) if full_output else res
    xs, ys = d.xs, d.ys

    def fg(yhat):
        r = yhat - ys
        if loss == "squared":
            lval, lg = float(r @ r), 2.0 * r
        else:
            lval, lg = float(np.abs(r).sum()), np.sign(r)
        cval, cg = _cost_and_subgrad(xs, yhat)
        return lval + lam * cval, lg + lam * cg

    # two starts: exact interpolation and the least-squares affine fit
    a = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    starts = [ys.copy(), a @ coef]
    best = None
    for y0 in starts:
        x_best, f_best, hist = _solve_subgrad(fg, y0)
        if best is None or f_best < best[1]:
            best = (x_best, f_best, hist)
    yhat = best[0]
    if d.n == 2:
        inner = [float((yhat[1] - yhat[0]) / (xs[1] - xs[0]))]
    else:
        inner = list(np.diff(yhat) / np.diff(xs))
    l0, ln, value = optimal_end_slopes(inner)
    res = InterpolationResult(_build_spline(xs, yhat, l0, ln), value, (l0, ln))
    return (res, best[2]) if full_output else res
