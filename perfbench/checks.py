"""Independent checks of reluspline outputs.

Nothing here imports reluspline.  Every reference value is recomputed from
plain numbers (weights, breakpoints, slopes, data) with numpy, a HiGHS
linear program or adaptive quadrature, so a wrong output cannot pass by
agreeing with the code that produced it.  Each check raises CheckFailed.  scipy's solvers are imported on first use,
so a benchmark process does not pay for them before its timed rounds.
"""

from __future__ import annotations

import math

import numpy as np

# points evaluated per block, so no check allocates more than a few MB
_CHUNK = 256


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def require_close(got: float, want: float, rtol: float, what: str) -> None:
    """|got - want| <= rtol * (1 + max(|got|, |want|)), and both finite."""
    got, want = float(got), float(want)
    ok = (math.isfinite(got) and math.isfinite(want)
          and abs(got - want) <= rtol * (1.0 + max(abs(got), abs(want))))
    require(ok, f"{what}: got {got!r}, expected {want!r} (rtol {rtol:g})")


def require_values(got, want, rtol: float, what: str) -> None:
    """Sup-norm agreement of two arrays, relative to 1 + the largest value."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    require(got.shape == want.shape, f"{what}: shape {got.shape} vs {want.shape}")
    scale = 1.0 + float(np.max(np.abs(want), initial=0.0))
    err = float(np.max(np.abs(got - want), initial=0.0))
    require(np.all(np.isfinite(got)) and err <= rtol * scale,
            f"{what}: max deviation {err:.3e} exceeds {rtol:g} x {scale:.3g}")


def _blocks(x: np.ndarray):
    for start in range(0, x.size, _CHUNK):
        yield slice(start, start + _CHUNK)


# -- functions of one variable -------------------------------------------

def pwl_values(breakpoints, slopes, anchor, x) -> np.ndarray:
    """f(x) = y_ref + s_0 (x - x_ref) + sum_j jump_j ([x - b_j]_+ - [x_ref - b_j]_+).

    The ReLU-sum form, unlike reluspline's segment search.
    """
    bp = np.asarray(breakpoints, float)
    sl = np.asarray(slopes, float)
    x = np.atleast_1d(np.asarray(x, float))
    jumps = np.diff(sl)
    xr, yr = float(anchor[0]), float(anchor[1])
    out = yr + sl[0] * (x - xr) - float(jumps @ np.maximum(xr - bp, 0.0))
    for blk in _blocks(x):
        out[blk] += np.maximum(x[blk, None] - bp[None, :], 0.0) @ jumps
    return out


def pwl_knot_values(breakpoints, slopes, anchor) -> np.ndarray:
    """f at its breakpoints, walking the segment slopes out from the first one."""
    bp = np.asarray(breakpoints, float)
    sl = np.asarray(slopes, float)
    start = pwl_values(bp, sl, anchor, bp[:1])[0] if bp.size else 0.0
    return start + np.concatenate(([0.0], np.cumsum(sl[1:-1] * np.diff(bp))))


def pwl_cost(slopes) -> float:
    """max(total variation of f', |f'(-inf) + f'(+inf)|) from the slope list."""
    sl = np.asarray(slopes, float)
    return max(float(np.abs(np.diff(sl)).sum()), abs(float(sl[0] + sl[-1])))


def net_values(w1, b1, w2, b2, x) -> np.ndarray:
    w1, b1, w2 = (np.asarray(a, float) for a in (w1, b1, w2))
    x = np.atleast_1d(np.asarray(x, float))
    out = np.full(x.shape, float(b2))
    for blk in _blocks(x):
        out[blk] += np.maximum(np.outer(x[blk], w1) + b1, 0.0) @ w2
    return out


def net_cost(w1, w2) -> float:
    """C(theta) = (|w1|^2 + |w2|^2) / 2, biases excluded."""
    w1, w2 = np.asarray(w1, float), np.asarray(w2, float)
    return 0.5 * float(w1 @ w1 + w2 @ w2)


def net_function_cost(w1, w2) -> float:
    """Cost of the function a net computes, read off its weights.

    Unit i puts a slope jump w2_i |w1_i| at -b1_i / w1_i; the end slopes are
    the sums of w1_i w2_i over units with w1_i < 0 (left) and w1_i > 0
    (right).  Exact when no two breakpoints coincide.
    """
    w1, w2 = np.asarray(w1, float), np.asarray(w2, float)
    prod = w1 * w2
    ends = float(prod[w1 < 0].sum() + prod[w1 > 0].sum())
    return max(float(np.abs(prod).sum()), abs(ends))


def squared_objective(w1, b1, w2, b2, xs, ys, lam) -> float:
    """sum_n (h(x_n) - y_n)^2 + lam * C(theta)."""
    r = net_values(w1, b1, w2, b2, xs) - np.asarray(ys, float)
    return float(r @ r) + lam * net_cost(w1, w2)


def secants(xs, ys) -> np.ndarray:
    return np.diff(np.asarray(ys, float)) / np.diff(np.asarray(xs, float))


def end_slope_optimum(interior) -> float:
    """min over l0, lN of max(T + |l0 - s_1| + |lN - s_m|, |l0 + lN|) by HiGHS.

    T is the variation of the interior slopes s; variables l0, lN, u0, uN, t.
    """
    from scipy.optimize import linprog

    s = np.asarray(interior, float)
    t_int = float(np.abs(np.diff(s)).sum())
    a_ub = [[1, 0, -1, 0, 0], [-1, 0, -1, 0, 0],
            [0, 1, 0, -1, 0], [0, -1, 0, -1, 0],
            [0, 0, 1, 1, -1],
            [1, 1, 0, 0, -1], [-1, -1, 0, 0, -1]]
    b_ub = [s[0], -s[0], s[-1], -s[-1], -t_int, 0.0, 0.0]
    bounds = [(None, None), (None, None), (0, None), (0, None), (0, None)]
    res = linprog([0, 0, 0, 0, 1], A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                  method="highs")
    require(res.status == 0, f"end-slope LP failed: {res.message}")
    return float(res.fun)


def absolute_fit_optimum(xs, ys, lam) -> float:
    """min over fitted values of sum |yhat - y| + lam * cost, by HiGHS.

    Variables: yhat (n), end slopes l0 and lN, residual bounds e (n), slope
    jump bounds a (n) and the cost bound t.  The slopes are
    (l0, secants of yhat, lN); t bounds both their variation and |l0 + lN|.
    """
    from scipy.optimize import linprog

    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    n = xs.size
    iy, il0, ilN = 0, n, n + 1
    ie, ia, it = n + 2, 2 * n + 2, 3 * n + 2
    nv = 3 * n + 3
    slopes = np.zeros((n + 1, nv))
    slopes[0, il0] = 1.0
    slopes[n, ilN] = 1.0
    dx = np.diff(xs)
    for i in range(n - 1):
        slopes[i + 1, iy + i + 1] = 1.0 / dx[i]
        slopes[i + 1, iy + i] = -1.0 / dx[i]
    jumps = np.diff(slopes, axis=0)
    eye_n = np.eye(n)
    rows, rhs = [], []

    def le(block, value):
        rows.append(block)
        rhs.append(value)

    for j in range(n):
        up = jumps[j].copy()
        up[ia + j] = -1.0
        le(up, 0.0)
        down = -jumps[j]
        down[ia + j] = -1.0
        le(down, 0.0)
    for i in range(n):
        row = np.zeros(nv)
        row[iy:iy + n] = eye_n[i]
        row[ie + i] = -1.0
        le(row, ys[i])
        row = np.zeros(nv)
        row[iy:iy + n] = -eye_n[i]
        row[ie + i] = -1.0
        le(row, -ys[i])
    row = np.zeros(nv)
    row[ia:ia + n] = 1.0
    row[it] = -1.0
    le(row, 0.0)
    for sign in (1.0, -1.0):
        row = np.zeros(nv)
        row[il0] = row[ilN] = sign
        row[it] = -1.0
        le(row, 0.0)
    c = np.zeros(nv)
    c[ie:ie + n] = 1.0
    c[it] = lam
    bounds = [(None, None)] * (n + 2) + [(0, None)] * (2 * n + 1)
    res = linprog(c, A_ub=np.array(rows), b_ub=rhs, bounds=bounds,
                  method="highs")
    require(res.status == 0, f"regularized-fit LP failed: {res.message}")
    return float(res.fun)


def fit_objective(xs, ys, loss, lam, yhat, cost) -> float:
    r = np.asarray(yhat, float) - np.asarray(ys, float)
    data = float(r @ r) if loss == "squared" else float(np.abs(r).sum())
    return data + lam * cost


# -- training --------------------------------------------------------------

def check_training(xs, ys, lam, init, final, first_objective) -> None:
    """trace[0] is the objective at the initial weights; training lowered it.

    ``init`` and ``final`` are (w1, b1, w2, b2).
    """
    obj0 = squared_objective(*init, xs, ys, lam)
    require_close(first_objective, obj0, 1e-12, "trace[0] objective")
    obj1 = squared_objective(*final, xs, ys, lam)
    require(obj1 < obj0, f"objective rose from {obj0!r} to {obj1!r}")


def check_function_cost(w1, w2, function_cost, reported_net_cost=None) -> None:
    """Reported function cost matches the weights and is <= C(theta)."""
    require_close(function_cost, net_function_cost(w1, w2), 1e-9,
                  "function cost")
    c = net_cost(w1, w2)
    require(function_cost <= c * (1.0 + 1e-12) + 1e-12,
            f"function cost {function_cost!r} exceeds net cost {c!r}")
    if reported_net_cost is not None:
        require_close(reported_net_cost, c, 1e-12, "net cost")


def check_pwl_matches_net(pwl, w1, b1, w2, b2, grid) -> None:
    """A piecewise-linear (breakpoints, slopes, anchor) evaluates like the net."""
    require_values(pwl_values(*pwl, grid), net_values(w1, b1, w2, b2, grid),
                   1e-9, "piecewise-linear form vs net")


def check_figure_criterion(function_cost, net_cost_value, optimum) -> None:
    """The paper's 5% criterion for a trained net."""
    require(abs(function_cost - optimum) <= 0.05 * optimum,
            f"function cost {function_cost!r} not within 5% of optimum "
            f"{optimum!r}")
    require(abs(net_cost_value - function_cost) <= 0.05 * function_cost,
            f"net cost {net_cost_value!r} not within 5% of function cost "
            f"{function_cost!r}")


# -- regularized fitting ---------------------------------------------------

def check_fit(xs, ys, loss, lam, pwl, cost):
    """Checks of one regularized fit; returns (objective, LP optimum or None).

    ``pwl`` is (breakpoints, slopes, anchor) of the fitted spline.
    """
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    bp, slopes, anchor = pwl
    require(np.array_equal(np.asarray(bp, float), xs),
            "fit breakpoints differ from the data abscissas")
    require_close(cost, pwl_cost(slopes), 1e-9, "fit cost vs its slopes")
    obj = fit_objective(xs, ys, loss, lam, pwl_values(bp, slopes, anchor, xs),
                        cost)
    interp = fit_objective(xs, ys, loss, lam, ys,
                           end_slope_optimum(secants(xs, ys)))
    coef = np.polyfit(xs, ys, 1)
    affine = np.polyval(coef, xs)
    line = fit_objective(xs, ys, loss, lam, affine,
                         end_slope_optimum(secants(xs, affine)))
    start = min(interp, line)
    require(obj <= start + 1e-7 * (1.0 + abs(start)),
            f"fit objective {obj!r} above the better start {start!r} "
            f"(interpolant {interp!r}, affine {line!r})")
    if loss != "absolute":
        return obj, None
    lp = absolute_fit_optimum(xs, ys, lam)
    require(obj >= lp - 1e-6 * (1.0 + abs(lp)),
            f"fit objective {obj!r} below the LP optimum {lp!r}")
    return obj, lp


def check_interpolant(xs, ys, pwl, cost) -> None:
    """Through the data, cost matches its slopes and the end-slope LP."""
    bp, slopes, anchor = pwl
    require(np.array_equal(np.asarray(bp, float), np.asarray(xs, float)),
            "interpolant breakpoints differ from the data abscissas")
    require_values(pwl_knot_values(bp, slopes, anchor), ys, 1e-9,
                   "interpolant at the data")
    require_close(cost, pwl_cost(slopes), 1e-9, "interpolant cost vs slopes")
    require_close(cost, end_slope_optimum(secants(xs, ys)), 1e-7,
                  "interpolant cost vs LP optimum")


# -- exact conversions -----------------------------------------------------

def measure_values(atoms, c, x) -> np.ndarray:
    """h(x) = c + sum mass [w (x - b)]_+ over atoms (w, b, mass)."""
    a = np.asarray(atoms, float).reshape(-1, 3)
    w, b, m = a[:, 0], a[:, 1], a[:, 2]
    x = np.atleast_1d(np.asarray(x, float))
    out = np.full(x.shape, float(c))
    for blk in _blocks(x):
        out[blk] += np.maximum(w * (x[blk, None] - b), 0.0) @ m
    return out


def check_conversions(net, f, canon, canon_values, cost, alpha,
                      measure_eval_values, f_from_alpha, net_from_alpha,
                      grid) -> None:
    """The exact identities between a net, its function and its measure.

    ``net`` and ``net_from_alpha`` are (w1, b1, w2, b2); ``f``, ``canon``
    and ``f_from_alpha`` are (breakpoints, slopes, anchor); ``alpha`` is
    (atoms, c) with atoms (w, b, mass); ``canon_values`` and
    ``measure_eval_values`` are reluspline's own evaluations on the grid.
    """
    want = net_values(*net, grid)
    require_values(pwl_values(*f, grid), want, 1e-9, "to_pwl vs net")
    require_values(pwl_values(*canon, grid), want, 1e-9,
                   "canonicalize vs net")
    require_values(canon_values, want, 1e-9, "pwl_eval vs net")
    require_close(cost, pwl_cost(canon[1]), 1e-12, "cost vs slopes")
    c = net_cost(net[0], net[2])
    require(cost <= c * (1.0 + 1e-12) + 1e-12,
            f"function cost {cost!r} exceeds net cost {c!r}")
    atoms, offset = alpha
    norm = float(np.abs(np.asarray(atoms, float).reshape(-1, 3)[:, 2]).sum())
    require_close(norm, cost, 1e-10, "measure norm vs cost")
    require_values(measure_values(atoms, offset, grid), want, 1e-9,
                   "measure vs net")
    require_values(measure_eval_values, want, 1e-9, "measure_eval vs net")
    require_values(pwl_values(*f_from_alpha, grid), want, 1e-9,
                   "measure_to_pwl vs net")
    require_values(net_values(*net_from_alpha, grid), want, 1e-9,
                   "measure_to_net vs net")
    require_close(net_cost(net_from_alpha[0], net_from_alpha[2]), cost, 1e-10,
                  "net cost of measure_to_net vs cost")


# -- depth-L parallel nets -------------------------------------------------

def parallel_values(subnets, top, X) -> np.ndarray:
    """sum_i top_i * chain_i(x) for every row x of X."""
    X = np.atleast_2d(np.asarray(X, float))
    out = np.zeros(X.shape[0])
    for t, mats in zip(top, subnets):
        z = X.T
        for w in mats:
            z = np.maximum(np.asarray(w, float) @ z, 0.0)
        out += float(t) * z[0]
    return out


def cost_cl(subnets, top, depth) -> float:
    total = float(np.dot(top, top))
    total += sum(float(np.sum(np.square(w))) for s in subnets for w in s)
    return total / depth


def bridge(alpha, depth) -> float:
    return float(np.sum(np.abs(np.asarray(alpha, float)) ** (2.0 / depth)))


def check_sphere_factoring(net, sphere, realigned, depth, lib_cost, lib_penalty,
                           X) -> None:
    """Unit-norm factors, same function, cost_CL(from_alpha(s)) = bridge penalty.

    ``net``, ``sphere`` and ``realigned`` are (subnets, top or alpha).
    """
    for mats in sphere[0]:
        for w in mats:
            require_close(np.linalg.norm(w), 1.0, 1e-12, "factor norm")
    want = parallel_values(*net, X)
    require_values(parallel_values(*sphere, X), want, 1e-9,
                   "align_to_sphere vs net")
    require_values(parallel_values(*realigned, X), want, 1e-9,
                   "from_alpha vs net")
    penalty = bridge(sphere[1], depth)
    require_close(cost_cl(*realigned, depth), penalty, 1e-10,
                  "cost_CL(from_alpha(s)) vs bridge penalty")
    require_close(lib_cost, penalty, 1e-10, "reported cost_CL")
    require_close(lib_penalty, penalty, 1e-10, "reported bridge penalty")


def check_sparsify(subnets, alpha_in, alpha_out, X) -> None:
    """Predictions kept, at most N active coefficients, l1 norm not raised."""
    X = np.atleast_2d(np.asarray(X, float))
    require_values(parallel_values(subnets, alpha_out, X),
                   parallel_values(subnets, alpha_in, X), 1e-9,
                   "sparsified predictions")
    active = int(np.count_nonzero(alpha_out))
    require(active <= X.shape[0],
            f"{active} active coefficients for {X.shape[0]} points")
    l1_in = float(np.abs(alpha_in).sum())
    l1_out = float(np.abs(alpha_out).sum())
    require(l1_out <= l1_in + 1e-10 * (1.0 + l1_in),
            f"l1 norm rose from {l1_in!r} to {l1_out!r}")


def check_parallel_eval(values, subnets, top, X) -> None:
    require_values(values, parallel_values(subnets, top, X), 1e-12,
                   "parallel_eval")


# -- d dimensions ----------------------------------------------------------

def sphere_area(d: int) -> float:
    """Area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


def ball_volume(m: int) -> float:
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


def bump_reference(r: float, d: int) -> float:
    """area(S^{d-2}) * int_0^pi tent(r cos t) sin(t)^(d-2) dt by adaptive quadrature."""
    from scipy.integrate import quad

    kinks = [math.pi / 2]
    if r > 1.0:
        kinks += [math.acos(1.0 / r), math.acos(-1.0 / r)]

    def integrand(t):
        return max(0.0, 1.0 - abs(r * math.cos(t))) * math.sin(t) ** (d - 2)

    value, _ = quad(integrand, 0.0, math.pi, points=sorted(kinks),
                    epsabs=1e-14, epsrel=1e-13, limit=200)
    return sphere_area(d - 1) * value


def check_bump(value, r, d) -> None:
    ref = bump_reference(r, d)
    require(abs(value - ref) <= 1e-9,
            f"bump({r!r}, d={d}) = {value!r}, quadrature gives {ref!r}")


def check_flux(value, std_error, total_mass, d, n_samples) -> None:
    """Within 5 standard errors of the total mass, with an honest error.

    Each sample is at most (A_d / V_{d-1}) * total mass in size, so the
    standard error cannot exceed that over sqrt(n).
    """
    cap = sphere_area(d) / ball_volume(d - 1) * total_mass / math.sqrt(n_samples)
    require(0.0 < std_error <= cap,
            f"standard error {std_error!r} outside (0, {cap!r}]")
    require(abs(value - total_mass) <= 5.0 * std_error,
            f"flux {value!r} is more than 5 standard errors "
            f"({std_error!r}) from the total mass {total_mass!r}")


def check_control(value, d, r) -> None:
    """rho^2/2 has Hessian I, so the estimate is ball_volume(d) r sqrt(d)."""
    require_close(value, ball_volume(d) * r * math.sqrt(d), 1e-6,
                  f"rho^2/2 control at d={d}, r={r}")


def check_decay(at_r, at_2r, d) -> None:
    require(math.isfinite(at_r) and math.isfinite(at_2r) and 0.0 < at_2r < at_r,
            f"normalized Hessian mass at d={d} did not fall: "
            f"{at_r!r} at r, {at_2r!r} at 2r")
