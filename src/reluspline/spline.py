"""Minimum-cost spline interpolation and regularized fitting.

Among all functions interpolating a dataset, the one of least representation
cost is the linear spline through the points, with the two unbounded end
slopes chosen to minimize max(total slope variation, |l0 + lN|).  The
regularized variant trades data fit against that same cost.  It is a convex
program in the fitted values, solved exactly by a numpy active-set method on
its dual, and it returns its duality gap and iteration count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

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
        consecutive x and the secants between consecutive points must be
        finite.
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
            ok = np.isfinite(dx) & np.isfinite((ys[1:] - ys[:-1]) / dx)
        if not ok.all():
            i = int(ok.argmin())
            raise ValueError(
                f"dataset x difference or secant overflows between "
                f"x = {float(xs[i])} and x = {float(xs[i + 1])}")
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
    return np.diff(d.ys) / np.diff(d.xs)


def optimal_end_slopes(interior) -> tuple[float, float, float]:
    """Minimize g(l0, lN) = max(sum of |slope jumps|, |l0 + lN|).

    Returns (l0, lN, optimal value).  Among minimizers the pair deviating
    least from the adjacent secant slopes is chosen, then the
    lexicographically smallest.
    """
    l = np.asarray(interior, dtype=float)
    if not l.size:
        raise ValueError("interior slopes must be nonempty")
    t_int = float(np.abs(np.diff(l)).sum())
    first, last = float(l[0]), float(l[-1])
    sigma = first + last
    if abs(sigma) <= t_int:
        return first, last, t_int
    # bend the end slopes toward each other by a total of s_star
    s_star = 0.5 * (abs(sigma) - t_int)
    value = 0.5 * (t_int + abs(sigma))
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


def _build_spline(xs, yhat, l0, ln) -> PwlFunction:
    slopes = np.concatenate(([l0], np.diff(yhat) / np.diff(xs), [ln]))
    return PwlFunction(xs, slopes, (xs[0], yhat[0]))


def min_norm_interpolant(d: Dataset) -> InterpolationResult:
    """Least representation cost among all functions through the data."""
    if d.n == 1:
        x0, y0 = d.points[0]
        return InterpolationResult(PwlFunction((), (0.0,), (x0, y0)), 0.0)
    l0, ln, value = optimal_end_slopes(interior_slopes(d))
    return InterpolationResult(_build_spline(d.xs, d.ys, l0, ln), value)


def _slope_operators(xs):
    """(n-2) x n slope-jump matrix D and row c of the fitted values yhat.

    T = |D yhat|_1 is the variation of the interior secant slopes and
    sigma = c . yhat is the first plus the last secant slope.
    """
    inv = 1.0 / np.diff(xs)
    i = np.arange(inv.size)
    secant = np.zeros((inv.size, inv.size + 1))
    secant[i, i], secant[i, i + 1] = -inv, inv
    return np.diff(secant, axis=0), secant[0] + secant[-1]


def _fit(xs, ys, lam, squared):
    """Exact regularized fit; returns yhat, a dual lower bound, iterations.

    With A = [D; c], cost(yhat) is the largest v . A yhat over the polytope
    P: |v_j| + |v_c| <= 1, |v_c| <= 1/2.  So with u = (lam/2) v the squared
    loss has the dual min |y - A^T u|^2 over u in (lam/2) P, with yhat =
    y - A^T u, and the absolute loss the LP max 2 y . A^T u over the same u
    with |2 A^T u| <= 1, whose multipliers on those rows are y - yhat.  With
    A^T = QR and z = R u, the first is the projection of z0 = Q^T y onto a
    polytope in z and the second an LP over it; z is well scaled where u is
    not, since A differences the secant slopes.  One primal active-set method
    solves both.  Its working set keeps an orthonormal basis of its rows and
    the inverse of their triangle, each LP pass puts z back on those rows,
    and a drop follows Bland's rule.  A solve fixes the sign of v_c, which
    makes the polytope simple; when the multipliers show that the other sign
    does better, it continues there once.
    """
    a = np.vstack(_slope_operators(xs))
    m, n = a.shape
    k = m - 1
    q, r = np.linalg.qr(a.T)
    rit = np.linalg.inv(r).T
    z0 = q.T @ ys

    def rows(sign):
        """Unit columns in z, bounds and norms of the rows v_c +- v_j <= 1,
        v_c <= 1/2 and -v_c <= 0, v_c read as sign v_c; then +-2 A^T u <= 1."""
        rc = sign * rit[:, k:]
        t = np.hstack([rit[:, :k] + rc, rc - rit[:, :k], rc, -rc]
                      + ([] if squared else [2.0 * q.T, -2.0 * q.T]))
        h = np.concatenate([np.full(2 * k, 0.5 * lam), [0.25 * lam, 0.0],
                            np.ones(0 if squared else 2 * n)])
        norm = np.linalg.norm(t, axis=0)
        return t / norm, h / norm, norm

    def factor():
        """Basis and inverse triangle of the working rows, from scratch."""
        w = len(work)
        basis[:, :w], tri = np.linalg.qr(t[:, work])
        rinv[:w, :w] = np.linalg.inv(tri)
        return basis[:, :w], rinv[:w, :w]

    t, h, norm = rows(1.0)
    z, work, free = np.zeros(m), [], np.ones(h.size, bool)
    basis, rinv = np.zeros((m, m)), np.zeros((m, m))
    stationary = flipped = False
    for iterations in range(1, 10 * h.size):
        w = len(work)
        b, ri = basis[:, :w], rinv[:w, :w]
        if not squared:  # long LP steps drift off the working rows
            z += b @ (ri.T @ (h[work] - z @ t[:, work]))
        grad = z - z0 if squared else -2.0 * z0
        proj = b.T @ grad
        step = b @ proj - grad
        # a step or a rate at rounding level is zero
        size = math.sqrt(step @ step)
        if not stationary and w < m and size > 1e-12 * math.sqrt(grad @ grad):
            rate = step @ t
            hit = free & (rate > 1e-9 * size)
            ratio = np.full(h.size, np.inf)
            ratio[hit] = np.maximum(h - z @ t, 0.0)[hit] / rate[hit]
            i = int(ratio.argmin())
            if ratio[i] < (1.0 if squared else np.inf):
                z += ratio[i] * step
                # Gram-Schmidt, twice, onto the working basis
                s = b.T @ t[:, i]
                s += b.T @ (t[:, i] - b @ s)
                col = t[:, i] - b @ s
                rho = math.sqrt(col @ col)
                basis[:, w] = col / rho
                rinv[:w, w], rinv[w, :w] = -(ri @ s) / rho, 0.0
                rinv[w, w] = 1.0 / rho
                work.append(i)
                free[i] = False
                continue
            if squared:
                z, stationary = z + step, True
                continue
        stationary = False
        mult = -ri @ proj
        if mult.size and mult.min() < 0.0:
            # Bland's rule: of the negative multipliers, the least row
            drop = np.where(mult < 0.0, work, h.size).argmin()
            free[work.pop(int(drop))] = True
            factor()
            continue
        # optimal with v_c of one sign; at v_c = 0 the other sign is better
        # unless the bound's multiplier is at most twice the slope rows'
        mu, rows_in = mult / norm[work], np.array(work)
        if (not flipped and 2 * k + 1 in work and
                mu[rows_in == 2 * k + 1][0] > 2 * mu[rows_in < 2 * k].sum()):
            flipped = True
            t, h, norm = rows(-1.0)
            factor()
            continue
        break
    else:
        raise RuntimeError("regularized fit did not converge")
    # z exactly on the working rows, plus the part of z0 (squared loss) or
    # of z (LP) off them; a full working set leaves no such part, so a z of
    # order lam stays accurate however large y is
    b, ri = factor()
    rest = (z0 if squared else z) if len(work) < m else np.zeros(m)
    z = b @ (ri.T @ h[work]) + rest - b @ (b.T @ rest)
    if squared:
        yhat = ys.mean() + q @ (z0 - z)
    else:
        mu = 2.0 * (ri @ (b.T @ z0)) / norm[work]
        box = np.array(work, int) - 2 * k - 2
        yhat = ys.copy()
        yhat[box[box >= 0] % n] += np.where(box < n, -mu, mu)[box >= 0]
        if box.min(initial=0) >= 0:
            # no slope row: A yhat = 0, so yhat is the y of a point off the box
            yhat[:] = ys[(free[-2 * n:-n] & free[-n:]).argmax()]
    # the dual value at u scaled into P (and the LP's box): a lower bound
    u = rit.T @ z
    au = a.T @ u
    au /= max(1.0, (np.abs(u[:k]) + abs(u[k])).max(initial=0.0) / (0.5 * lam),
              abs(u[k]) / (0.25 * lam),
              0.0 if squared else 2.0 * np.abs(au).max())
    dual = au @ (2.0 * ys - au) if squared else 2.0 * (ys @ au)
    return yhat, float(dual), iterations


def regularized_fit(d: Dataset, loss: str, lam: float) -> InterpolationResult:
    """Minimize data loss plus lam times the representation cost, exactly.

    The minimizer is piecewise linear with breakpoints only at the data
    abscissas, so the problem is convex in the fitted values: an LP for
    ``loss="absolute"`` and a QP for ``loss="squared"``, both solved exactly
    through their duals in finitely many active-set passes.  The result's
    ``gap`` is the relative duality gap (objective - dual bound) / objective,
    with the bound the dual value at a feasible point, and ``iterations``
    counts the passes.

    Both are computed with y measured from the middle of its range.  The
    problem is invariant under that shift, but rounding is not: it scales
    with max |y|, so data of offset c and spread s would see the gap drowned
    by noise of about eps*c.  Shifted, constant data fit exactly with
    objective 0 and gap 0, and the noise scales with s.  What remains is
    rounding in the cost term, multiplied by lam.
    """
    if not (0.0 < lam < math.inf):
        raise ValueError("lam must be positive and finite")
    if loss not in ("squared", "absolute"):
        raise ValueError(f"unknown loss {loss!r}")
    if d.n == 1:
        return min_norm_interpolant(d)
    xs, ys = d.xs, d.ys
    shift = 0.5 * (ys.max() + ys.min())
    ys = ys - shift
    yhat, dual, iterations = _fit(xs, ys, lam, loss == "squared")
    l0, ln, value = optimal_end_slopes(np.diff(yhat) / np.diff(xs))
    r = yhat - ys
    objective = (r @ r if loss == "squared" else np.abs(r).sum()) + lam * value
    gap = max(objective - dual, 0.0) / objective if objective > 0 else 0.0
    return InterpolationResult(_build_spline(xs, yhat + shift, l0, ln), value,
                               float(gap), iterations)
