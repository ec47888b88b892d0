import itertools
import warnings

import numpy as np
import pytest

from reluspline import _kernel, pwl, repcost, spline
from reluspline.pwl import pwl_eval
from reluspline.spline import Dataset


def random_dataset(rng, n_min=2, n_max=8):
    n = int(rng.integers(n_min, n_max + 1))
    xs = np.sort(rng.uniform(-5, 5, n))
    while np.min(np.diff(xs), initial=1.0) < 1e-3:
        xs = np.sort(rng.uniform(-5, 5, n))
    ys = rng.uniform(-5, 5, n)
    return Dataset(tuple(zip(xs, ys)))


class TestDataset:
    def test_sorts_points(self):
        d = Dataset(((2.0, 1.0), (0.0, 3.0)))
        assert d.points == ((0.0, 3.0), (2.0, 1.0))

    def test_collapses_duplicates(self):
        d = Dataset(((1.0, 2.0), (1.0, 2.0), (0.0, 0.0)))
        assert d.n == 2

    def test_rejects_conflicting_y(self):
        with pytest.raises(ValueError):
            Dataset(((1.0, 2.0), (1.0, 3.0)))

    @pytest.mark.parametrize("point", [(np.nan, 1.0), (1.0, np.nan),
                                       (np.inf, 1.0), (1.0, -np.inf)])
    def test_rejects_non_finite(self, point):
        with pytest.raises(ValueError):
            Dataset(((0.0, 0.0), point))

    def test_rejects_overflowing_x_difference(self):
        # 1e308 - (-1e308) is inf: the interpolant was a constant of cost 0
        # whose value at 1e308 was nan
        with pytest.raises(ValueError, match=(
                r"x difference or secant overflows between x = -1e\+308 "
                r"and x = 1e\+308")):
            Dataset([(-1e308, 1), (1e308, 0)])

    @pytest.mark.parametrize("points", [[(0, -1e308), (1e-300, 1e308)],
                                        [(0, 1e300), (1e-300, -1e300)]])
    def test_rejects_overflowing_secant(self, points):
        # the y difference, or its ratio to the x difference, overflows:
        # PwlFunction failed later on a non-finite breakpoint
        with pytest.raises(ValueError, match=(
                r"x difference or secant overflows between x = 0\.0 "
                r"and x = 1e-300")):
            Dataset(points)

    # secants 1e308 and -1e308, finite; the jump between them is not
    JUMP_OVERFLOW = [(0, -1e308), (1, 0), (2, -1e308)]

    def test_rejects_overflowing_slope_jump(self):
        # the interpolant's jump at x = 1 was -inf: the fits returned a gap
        # of nan (squared) or a constant with gap 1 (absolute), with
        # numpy's overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    r"^dataset slope jump overflows at x = 1\.0$")):
                Dataset(self.JUMP_OVERFLOW)

    def test_overflowing_jump_never_reaches_the_fit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spline, "_fit", lambda *args: calls.append(args))
        for loss in ("squared", "absolute"):
            with pytest.raises(ValueError, match="slope jump overflows"):
                spline.regularized_fit(Dataset(self.JUMP_OVERFLOW), loss, 1.0)
        assert calls == []

    def test_keeps_steep_finite_secants(self):
        d = Dataset([(0.0, 0.0), (5e-324, 1e-300), (1.0, -1e300)])
        assert np.isfinite(spline.interior_slopes(d)).all()

    def test_json_round_trip(self):
        d = Dataset(((0.0, 1.0), (2.0, -1.0)))
        assert Dataset.from_json(d.to_json()).points == d.points

    def test_arrays_follow_points(self):
        d = Dataset(((2.0, 1.0), (0.0, 3.0), (2.0, 1.0)))
        assert d.xs.tolist() == [0.0, 2.0] and d.ys.tolist() == [3.0, 1.0]
        with pytest.raises(ValueError):
            d.xs[0] = 5.0
        assert d.to_dict() == {"points": [[0.0, 3.0], [2.0, 1.0]]}
        assert d == Dataset(((0.0, 3.0), (2.0, 1.0)))
        with pytest.raises(ValueError, match="at least one point"):
            Dataset(())

    @pytest.mark.parametrize("points", [((1.0, 2.0, 3.0),), ((1.0,),),
                                        ((0.0, 1.0), (1.0, 2.0, 3.0), (2.0,))])
    def test_rejects_non_pairs(self, points):
        with pytest.raises(ValueError, match="must be"):
            Dataset(points)

    def test_ties_keep_first_in_input_order(self):
        # (0.0, y) and (-0.0, y) sort as equal, so which one is kept depends
        # on a stable sort; 64 points take numpy past its insertion sort
        pool = [(0.0, 1.0), (-0.0, 1.0), (2.0, 0.0), (2.0, -0.0), (1.0, 5.0)]
        rng = np.random.default_rng(0)
        for _ in range(20):
            points = [pool[i] for i in rng.integers(0, len(pool), 64)]
            kept = {}
            for x, y in points:
                kept.setdefault(x, (x, y))
            want = tuple(kept[x] for x in sorted(kept))
            assert repr(Dataset(points).points) == repr(want)

    def test_equality_and_hash_follow_points(self):
        d = Dataset([[1, 2], [0, 1]])
        e = Dataset(((-0.0, 1.0), (1.0, 2.0)))
        assert d == e and hash(d) == hash(e) and len({d, e}) == 1
        assert d != Dataset(((0.0, 1.0), (1.0, 2.5))) and d != d.points
        assert repr(d) == "Dataset(points=((0.0, 1.0), (1.0, 2.0)))"


class TestInteriorSlopes:
    def test_two_points(self):
        assert spline.interior_slopes(
            Dataset(((0, 0), (1, 1)))).tolist() == [1.0]

    def test_tent(self):
        assert spline.interior_slopes(
            Dataset(((0, 0), (1, 1), (2, 0)))).tolist() == [1.0, -1.0]

    def test_uneven_spacing(self):
        assert spline.interior_slopes(
            Dataset(((0, 0), (2, 4), (3, 4)))).tolist() == [2.0, 0.0]

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            spline.interior_slopes(Dataset(((0, 0),)))


class TestOptimalEndSlopes:
    def test_tent_slopes(self):
        assert spline.optimal_end_slopes([1.0, -1.0]) == (1.0, -1.0, 2.0)

    def test_single_positive_slope(self):
        l0, ln, value = spline.optimal_end_slopes([1.0])
        assert value == pytest.approx(1.0)
        assert (l0, ln) == (0.0, 1.0)

    def test_all_zero(self):
        assert spline.optimal_end_slopes([0.0, 0.0, 0.0]) == (0.0, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spline.optimal_end_slopes([])

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            interior = list(rng.uniform(-5, 5, int(rng.integers(1, 7))))
            _, _, value = spline.optimal_end_slopes(interior)
            _, _, oracle = spline.grid_oracle_end_slopes(interior)
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_returned_pair_attains_value(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            interior = list(rng.uniform(-5, 5, int(rng.integers(1, 7))))
            l0, ln, value = spline.optimal_end_slopes(interior)
            assert spline.end_slope_objective(interior, l0, ln) == \
                pytest.approx(value, abs=1e-12)


class TestMinNormInterpolant:
    def test_single_point(self):
        res = spline.min_norm_interpolant(Dataset(((3.0, 5.0),)))
        assert res.cost == 0.0
        assert pwl_eval(res.spline, 100.0) == 5.0

    def test_tent(self):
        res = spline.min_norm_interpolant(Dataset(((0, 0), (1, 1), (2, 0))))
        assert res.cost == pytest.approx(2.0)
        assert res.end_slopes == (1.0, -1.0)
        assert res.gap == 0.0
        xs = np.linspace(-2, 4, 61)
        assert np.allclose(pwl_eval(res.spline, xs), 1 - np.abs(xs - 1))

    def test_two_points_beats_line(self):
        res = spline.min_norm_interpolant(Dataset(((0, 0), (1, 1))))
        assert res.cost == pytest.approx(1.0)

    def test_interpolates_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = random_dataset(rng)
            res = spline.min_norm_interpolant(d)
            for x, y in d.points:
                assert abs(pwl_eval(res.spline, x) - y) < 1e-12

    def test_cost_is_representation_cost(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            d = random_dataset(rng)
            res = spline.min_norm_interpolant(d)
            assert res.cost == pytest.approx(
                repcost.representation_cost(res.spline).cost, abs=1e-10)

    def test_random_challengers_never_beat_it(self):
        rng = np.random.default_rng(25)
        d = random_dataset(rng, 4, 6)
        best = spline.min_norm_interpolant(d).cost
        xs, ys = d.xs, d.ys
        for _ in range(100):
            # interpolating PWL with extra random breakpoints between knots
            knots = [xs[0]]
            vals = [ys[0]]
            for a, b, ya, yb in zip(xs, xs[1:], ys, ys[1:]):
                if rng.random() < 0.7:
                    t = rng.uniform(a + 1e-3, b - 1e-3)
                    knots.append(t)
                    vals.append(yb + rng.normal(0, 2))
                knots.append(b)
                vals.append(yb)
            slopes = list(np.diff(vals) / np.diff(knots))
            slopes = [slopes[0] + rng.normal(0, 1)] + slopes + \
                     [slopes[-1] + rng.normal(0, 1)]
            challenger = pwl.PwlFunction(tuple(knots), tuple(slopes),
                                         (float(xs[0]), float(ys[0])))
            cost = repcost.representation_cost(challenger).cost
            assert cost >= best - 1e-9

    def test_value_formula_cross_check(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            d = random_dataset(rng, 3, 8)
            interior = np.array(spline.interior_slopes(d))
            t_int = float(np.abs(np.diff(interior)).sum())
            sigma = interior[0] + interior[-1]
            formula = max(t_int, 0.5 * (t_int + abs(sigma)))
            res = spline.min_norm_interpolant(d)
            assert res.cost == pytest.approx(formula, abs=1e-10)

    def test_equivariance(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            d = random_dataset(rng)
            base = spline.min_norm_interpolant(d).cost
            c = float(rng.uniform(0.5, 3.0))
            scaled = Dataset(tuple((x, c * y) for x, y in d.points))
            shifted = Dataset(tuple((x + 7.5, y) for x, y in d.points))
            assert spline.min_norm_interpolant(scaled).cost == \
                pytest.approx(c * base)
            assert spline.min_norm_interpolant(shifted).cost == \
                pytest.approx(base)


def brute_force_regularized(d, loss, lam):
    """Nested coordinate descent plus grid refinement over fitted values."""
    ys = d.ys
    xs = d.xs

    def objective(yhat):
        r = yhat - ys
        lval = float(r @ r) if loss == "squared" else float(np.abs(r).sum())
        if d.n == 1:
            return lval
        inner = list(np.diff(yhat) / np.diff(xs))
        _, _, value = spline.optimal_end_slopes(inner)
        return lval + lam * value

    best = np.array(ys, dtype=float)
    fbest = objective(best)
    # also try the affine least-squares start
    a = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(a, ys, rcond=None)
    if objective(a @ coef) < fbest:
        best, fbest = a @ coef, objective(a @ coef)
    width = 2.0 * (1.0 + np.abs(ys).max())
    for _ in range(60):
        improved = True
        while improved:
            improved = False
            for i in range(d.n):
                grid = best[i] + np.linspace(-width, width, 41)
                for g in grid:
                    cand = best.copy()
                    cand[i] = g
                    fc = objective(cand)
                    if fc < fbest - 1e-15:
                        best, fbest = cand, fc
                        improved = True
        width *= 0.45
    return fbest


def fit_objective(d, loss, lam, res):
    """Data loss of the fitted spline at the data plus lam times its cost."""
    r = pwl_eval(res.spline, d.xs) - d.ys
    return (float(r @ r) if loss == "squared" else float(np.abs(r).sum())) \
        + lam * res.cost


def free_end_slope_jumps(xs):
    """Slope jumps as rows over z = (yhat, l0, lN): the slopes are l0, the
    secants of yhat and lN, so their variation is |J z|_1 and the cost of
    yhat is the least max(|J z|_1, |l0 + lN|) over the two end slopes."""
    n = xs.size
    slopes = np.zeros((n + 1, n + 2))
    slopes[0, n], slopes[n, n + 1] = 1.0, 1.0
    for i, dx in enumerate(np.diff(xs)):
        slopes[i + 1, i], slopes[i + 1, i + 1] = -1.0 / dx, 1.0 / dx
    return np.diff(slopes, axis=0)


def epigraph_constraints(xs):
    """Rows g with g @ (yhat, l0, lN, a, t) <= 0 for a >= |J z|,
    sum a <= t and |l0 + lN| <= t."""
    n = xs.size
    jumps = free_end_slope_jumps(xs)
    pad = np.zeros((n, 1))
    rows = [np.hstack([jumps, -np.eye(n), pad]),
            np.hstack([-jumps, -np.eye(n), pad])]
    tail = np.zeros((3, 2 * n + 3))
    tail[0, n + 2:2 * n + 2], tail[0, -1] = 1.0, -1.0
    tail[1, [n, n + 1]], tail[2, [n, n + 1]] = 1.0, -1.0
    tail[1:, -1] = -1.0
    return np.vstack(rows + [tail])


def absolute_lp_optimum(d, lam):
    """min sum |yhat - y| + lam * cost by HiGHS, end slopes free."""
    from scipy.optimize import linprog

    n = d.n
    g = epigraph_constraints(d.xs)
    # then the residual bounds e: +-(yhat - y) <= e
    eye = np.eye(n)
    fit = np.zeros((2 * n, 2 * n + 3))
    fit[:n, :n], fit[n:, :n] = eye, -eye
    a_ub = np.block([[g, np.zeros((g.shape[0], n))],
                     [fit, np.vstack([-eye, -eye])]])
    b_ub = np.concatenate([np.zeros(g.shape[0]), d.ys, -d.ys])
    c = np.zeros(3 * n + 3)
    c[2 * n + 2], c[2 * n + 3:] = lam, 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(None, None),
                  method="highs")
    assert res.status == 0, res.message
    return res.fun


def squared_slsqp_value(d, lam):
    """Squared-loss objective at an SLSQP solution of the epigraph QP, with
    the cost taken at its end slopes, so an upper bound on the optimum."""
    from scipy.optimize import minimize

    n, ys = d.n, d.ys
    g = epigraph_constraints(d.xs)
    jumps = free_end_slope_jumps(d.xs)

    def value(z):
        r = z[:n] - ys
        return float(r @ r) + lam * z[-1]

    def grad(z):
        out = np.zeros_like(z)
        out[:n], out[-1] = 2.0 * (z[:n] - ys), lam
        return out

    start = np.concatenate([ys, [0.0, 0.0]])
    a0 = np.abs(jumps @ start)
    z0 = np.concatenate([start, a0, [a0.sum() + 1.0]])
    res = minimize(value, z0, jac=grad, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda z: -g @ z,
                                 "jac": lambda z: -g}],
                   options={"ftol": 1e-15, "maxiter": 1000})
    z = res.x[:n + 2]
    r = z[:n] - ys
    cost = max(np.abs(jumps @ z).sum(), abs(z[n] + z[n + 1]))
    return float(r @ r) + lam * cost


def squared_pattern_optimum(d, lam):
    """Least squared-loss objective by enumerating patterns (n <= 8 or so).

    The cost of yhat is max(T, (T + |sigma|) / 2), with T the sum of |slope
    jumps| and sigma the first plus the last secant slope.  A pattern fixes
    the sign of each slope jump (0 where fused) and the regime: T alone,
    (T + sigma) / 2 or (T - sigma) / 2, the kinks T = sigma and T = -sigma,
    or sigma = 0.  On a pattern the cost is a linear form that never exceeds
    the true cost, so every pattern's least-squares candidate has a true
    objective at or above the optimum, and the optimum's own pattern gives
    the optimum.
    """
    n, ys = d.n, d.ys
    secants = np.zeros((n - 1, n))
    i = np.arange(n - 1)
    secants[i, i] = -1.0 / np.diff(d.xs)
    secants[i, i + 1] = 1.0 / np.diff(d.xs)
    jumps, sigma = np.diff(secants, axis=0), secants[0] + secants[-1]

    def objective(yhat):
        t = np.abs(jumps @ yhat).sum()
        r = yhat - ys
        return r @ r + lam * max(t, 0.5 * (t + abs(sigma @ yhat)))

    best = np.inf
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=n - 2):
        signs = np.array(signs)
        t = signs @ jumps
        fused = jumps[signs == 0.0]
        for form, kink in ((t, None), (0.5 * (t + sigma), None),
                           (0.5 * (t - sigma), None), (t, sigma - t),
                           (t, sigma + t), (t, sigma)):
            eq = fused if kink is None else np.vstack([fused, kink])
            yhat = ys - 0.5 * lam * form
            if eq.size:
                yhat = yhat - eq.T @ np.linalg.lstsq(eq.T, yhat, rcond=None)[0]
            best = min(best, objective(yhat))
    return best


class TestRegularizedFit:
    def test_rejects_bad_lambda(self):
        d = Dataset(((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            spline.regularized_fit(d, "squared", 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_rejects_non_finite_lambda(self, lam):
        d = Dataset(((0, 0), (1, 1), (2, 0)))
        with pytest.raises(ValueError):
            spline.regularized_fit(d, "squared", lam)

    def test_rejects_unknown_loss(self):
        d = Dataset(((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            spline.regularized_fit(d, "huber", 1.0)

    @pytest.mark.parametrize("loss", ["squared", "absolute"])
    def test_single_point_gives_constant(self, loss):
        res = spline.regularized_fit(Dataset(((2.0, 3.0),)), loss, 1.0)
        assert np.array_equal(res.spline.slopes, [0.0])
        assert pwl_eval(res.spline, -5.0) == 3.0
        assert res.cost == 0.0 and res.gap == 0.0

    def test_tiny_lambda_recovers_interpolation(self):
        d = Dataset(((0, 0), (1, 1), (2, 0)))
        res = spline.regularized_fit(d, "squared", 1e-8)
        for x, y in d.points:
            assert abs(pwl_eval(res.spline, x) - y) < 1e-3

    def test_huge_lambda_flattens(self):
        d = Dataset(((0, 0), (1, 1), (2, 0)))
        res = spline.regularized_fit(d, "squared", 1e6)
        assert res.cost < 1e-5

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(28)
        for loss, lam in itertools.product(("squared", "absolute"),
                                           (0.05, 0.5)):
            for _ in range(3):
                d = random_dataset(rng, 2, 4)
                res = spline.regularized_fit(d, loss, lam)
                oracle = brute_force_regularized(d, loss, lam)
                assert fit_objective(d, loss, lam, res) <= oracle + 1e-6

    def test_gap_bounds_every_challenger(self):
        # objective * (1 - gap) is a dual lower bound: no fit may beat it
        rng = np.random.default_rng(29)
        for loss in ("squared", "absolute"):
            d = random_dataset(rng, 3, 6)
            res = spline.regularized_fit(d, loss, 0.3)
            obj = fit_objective(d, loss, 0.3, res)
            assert 0.0 <= res.gap <= 1e-9
            bound = obj * (1.0 - res.gap)
            fitted = pwl_eval(res.spline, d.xs)
            for scale in (1e-6, 1e-3, 1e-1, 1.0):
                for _ in range(50):
                    yhat = fitted + rng.normal(0, scale, d.n)
                    r = yhat - d.ys
                    loss_val = float(r @ r) if loss == "squared" \
                        else float(np.abs(r).sum())
                    _, _, cost = spline.optimal_end_slopes(
                        np.diff(yhat) / np.diff(d.xs))
                    assert loss_val + 0.3 * cost >= bound - 1e-12 * obj

    @pytest.mark.parametrize("loss", ["squared", "absolute"])
    def test_certificate_matches_recomputed_objective(self, loss):
        # the objective recomputed here, data loss plus lam times the
        # representation cost of the returned spline, is the one that the
        # reported cost and gap describe, and the solver's dual bound stays
        # below it; the solver sees y measured from the middle of its range.
        # Every gap here is rounding.  The last set is flat at both lam, and
        # at lam = 1e6 a last-bit difference between fused fitted values
        # would cost about 1e-10 of an objective of order 1, which the shift
        # back by the middle of y rounds differently: the gaps agree only
        # because the flat fit comes back exactly flat
        rng = np.random.default_rng(34)
        cases = [(random_dataset(rng, 4, 12), float(rng.uniform(0.05, 3.0)))
                 for _ in range(20)]
        tilted = Dataset(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.5)))
        cases += [(tilted, 1e4), (tilted, 1e6)]
        for d, lam in cases:
            res = spline.regularized_fit(d, loss, lam)
            cost = repcost.representation_cost(res.spline).cost
            assert res.cost == pytest.approx(cost, rel=1e-12, abs=1e-15)
            r = pwl_eval(res.spline, d.xs) - d.ys
            objective = (float(r @ r) if loss == "squared"
                         else float(np.abs(r).sum())) + lam * cost
            mid = 0.5 * (d.ys.max() + d.ys.min())
            bound = spline._fit(d.xs, d.ys - mid, lam, loss == "squared")[1]
            assert bound <= objective * (1.0 + 1e-12)
            assert res.gap == pytest.approx((objective - bound) / objective,
                                            rel=1e-3, abs=1e-12)

    @pytest.mark.parametrize("loss", ["squared", "absolute"])
    def test_constant_data_has_no_gap(self, loss):
        # the optimum is the constant itself, with objective 0: rounding in
        # the fitted values must not read as a duality gap
        rng = np.random.default_rng(32)
        sets = [Dataset(((0, 1), (1, 1), (3, 1)))]
        for c, n in ((-5.0, 4), (1e3, 7), (0.1, 5)):
            xs = np.sort(rng.uniform(-3, 3, n))
            sets.append(Dataset(tuple((x, c) for x in xs)))
        for d, lam in itertools.product(sets, (1e-3, 0.1, 10.0, 1e6)):
            res = spline.regularized_fit(d, loss, lam)
            assert res.gap <= 1e-9
            assert np.allclose(pwl_eval(res.spline, d.xs), d.ys,
                               rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("loss", ["squared", "absolute"])
    def test_gap_invariant_under_shifting_y(self, loss):
        # the problem is invariant under y -> y + c; rounding in the fitted
        # values must not make the certificate depend on c
        base = ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.5))
        for lam in (1e-6, 1e-3, 0.3):
            ref = spline.regularized_fit(Dataset(base), loss, lam)
            for c in (100.0, -1e4):
                d = Dataset(tuple((x, y + c) for x, y in base))
                res = spline.regularized_fit(d, loss, lam)
                assert res.gap <= 1e-9
                assert res.cost == pytest.approx(ref.cost, rel=1e-9,
                                                 abs=1e-12)

    def test_known_two_point_instance(self):
        # yhat = (delta, 1 - delta) costs 1 - 2 delta; the optimum is
        # delta = lam / 2 with value 2 (lam/2)^2 + lam (1 - lam)
        d = Dataset(((0, 0), (1, 1)))
        res = spline.regularized_fit(d, "squared", 0.1)
        assert fit_objective(d, "squared", 0.1, res) == \
            pytest.approx(0.095, abs=1e-12)
        assert res.cost == pytest.approx(0.9, abs=1e-12)
        assert res.gap <= 1e-12
        oracle = brute_force_regularized(d, "squared", 0.1)
        assert fit_objective(d, "squared", 0.1, res) == \
            pytest.approx(oracle, abs=1e-6)

    def test_absolute_matches_lp_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            d = random_dataset(rng, 4, 11)
            lam = float(rng.uniform(0.05, 3.0))
            res = spline.regularized_fit(d, "absolute", lam)
            lp = absolute_lp_optimum(d, lam)
            assert fit_objective(d, "absolute", lam, res) == \
                pytest.approx(lp, rel=1e-9)
            assert res.gap <= 1e-9

    def test_squared_not_above_slsqp(self):
        rng = np.random.default_rng(31)
        cases = [(random_dataset(rng, 2, 12), float(rng.uniform(0.01, 3.0)))
                 for _ in range(30)]
        # the box-constrained dual of this set needs more BVLS passes than
        # it has variables
        xs = (-2.482709066592157, 0.46388126990018375, 2.9968150294393325,
              3.7030576765847556, 4.77187940808199)
        ys = (1.4545841800551687, -2.061624491170023, -1.9179763426800989,
              -1.432803581188371, -4.863106956270369)
        cases.append((Dataset(tuple(zip(xs, ys))), 3.0))
        for d, lam in cases:
            res = spline.regularized_fit(d, "squared", lam)
            obj = fit_objective(d, "squared", lam, res)
            assert obj <= squared_slsqp_value(d, lam) + 1e-9 * (1.0 + obj)
            assert res.gap <= 1e-9

    def test_found_set_is_exact_at_large_lambda(self):
        # the optimum here is the flat fit at the mean, objective 0.6875; a
        # BVLS dual with a search over theta stopped 9.1e-7 above it at
        # lam = 1e4
        d = Dataset(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.5)))
        for lam in (1e4, 1e6):
            res = spline.regularized_fit(d, "squared", lam)
            assert fit_objective(d, "squared", lam, res) == \
                pytest.approx(0.6875, rel=1e-10)
            assert res.gap <= 1e-9

    @pytest.mark.parametrize("loss", ["squared", "absolute"])
    @pytest.mark.parametrize("n, lam",
                             [(100, 100.0), (200, 0.3), (200, 100.0)])
    def test_large_sets_certified(self, loss, n, lam):
        # n - 1 dual variables; a BVLS dual reported a squared-loss gap of
        # 2.8e-8 at n = 100 and of 2.6e-7 at n = 200, lam = 100
        rng = np.random.default_rng(n)
        xs = np.sort(rng.uniform(-5, 5, n))
        d = Dataset(tuple(zip(xs, rng.uniform(-5, 5, n))))
        res = spline.regularized_fit(d, loss, lam)
        assert 0.0 <= res.gap <= 1e-9
        assert res.iterations >= 1

    def test_end_slope_multiplier_changes_sign(self):
        # gaps spanning four decades; on three of the squared fits, a solve
        # on rows +-v_j +- v_c <= 1 and |v_c| <= 1/2, which does not fix the
        # sign of v_c and so meets degenerate vertices, does not converge or
        # stops above gap 1e-9
        for s in range(20):
            rng = np.random.default_rng([28, s])
            xs = np.cumsum(10 ** rng.uniform(-3, 1, 30))
            d = Dataset(tuple(zip(xs, rng.uniform(-5, 5, 30))))
            for loss in ("squared", "absolute"):
                for lam in (1e-3, 1e-2, 0.1, 1.0):
                    assert spline.regularized_fit(d, loss, lam).gap <= 1e-9

    def test_iterations_are_reported(self):
        d = Dataset(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.5)))
        assert spline.min_norm_interpolant(d).iterations == 0
        # one step to the flat fit, whose working set is empty, and one pass
        # that finds no multiplier to test
        assert spline.regularized_fit(d, "squared", 1e4).iterations == 2
        assert spline.regularized_fit(d, "absolute", 0.1).iterations >= 3

    def test_absolute_matches_highs_on_many_sets(self):
        # n up to 40, lam log-uniform on [1e-3, 1e3]; then sets on a line,
        # with repeated y and constant
        rng = np.random.default_rng(40)
        cases = [(random_dataset(rng, 2, 40), float(10 ** rng.uniform(-3, 3)))
                 for _ in range(200)]
        xs = np.sort(rng.uniform(-5, 5, 15))
        special = [Dataset(tuple(zip(xs, 0.7 * xs - 2.0))),
                   Dataset(tuple(zip(xs, np.round(rng.uniform(-3, 3, 15))))),
                   Dataset(tuple(zip(xs, np.full(15, 2.5))))]
        cases += [(d, lam) for d in special for lam in (1e-3, 0.1, 10.0, 1e3)]
        for d, lam in cases:
            res = spline.regularized_fit(d, "absolute", lam)
            obj = fit_objective(d, "absolute", lam, res)
            lp = absolute_lp_optimum(d, lam)
            if np.ptp(d.ys) == 0.0:
                # the optimum is 0, which HiGHS reaches up to its rounding
                assert obj == 0.0 and abs(lp) <= 1e-12
            else:
                assert obj == pytest.approx(lp, rel=1e-10)
            assert 0.0 <= res.gap <= 1e-9

    @pytest.mark.parametrize("loss", ["squared", "absolute"])
    def test_reads_no_point_past_n(self, loss):
        # the kernel reads only the first n points: a NaN tail changes no bit
        # of the fitted values, the bound or the pass count
        from test_net2 import raw_fit

        rng = np.random.default_rng(12)
        xs, ys = np.sort(rng.uniform(-5, 5, 12)), rng.uniform(-5, 5, 12)
        lib, tail = _kernel.load(), np.full(7, np.nan)
        padded = raw_fit(lib, np.append(xs, tail), np.append(ys, tail), 0.3,
                         loss == "squared", n=12)
        assert padded == raw_fit(lib, xs, ys, 0.3, loss == "squared")

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
    def test_certificate_never_understates_at_spread_gaps(self, eps):
        # gaps of 1 and eps between the x: the fit loses accuracy as eps
        # shrinks, but the reported gap still bounds its objective's excess
        # over HiGHS's optimum, relative to the objective as the gap is, up
        # to rounding
        d = Dataset(((0.0, 0.0), (1.0, 1.0), (1.0 + eps, 0.0), (2.0, 1.0)))
        res = spline.regularized_fit(d, "absolute", 1.0)
        obj = fit_objective(d, "absolute", 1.0, res)
        excess = (obj - absolute_lp_optimum(d, 1.0)) / obj
        assert res.gap >= excess - 4 * np.finfo(float).eps
        if eps == 1e-6:
            assert excess <= 1e-9

    def test_squared_matches_pattern_oracle(self):
        # the solver is at most 1e-12 relative above the enumerated optimum,
        # plus the rounding of lam * cost: each fitted value carries an
        # error of about eps * max|y|, which moves each of the n - 1 secant
        # slopes by up to 2 eps max|y| / min dx
        rng = np.random.default_rng(41)
        sets = [random_dataset(rng, 2, 7) for _ in range(12)]
        sets.append(Dataset(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.5))))
        eps = np.finfo(float).eps
        for d, lam in itertools.product(sets, (1e-2, 1.0, 1e2, 1e4)):
            res = spline.regularized_fit(d, "squared", lam)
            obj = fit_objective(d, "squared", lam, res)
            best = squared_pattern_optimum(d, lam)
            slack = lam * 4.0 * d.n * eps * np.abs(d.ys).max() \
                / np.diff(d.xs).min()
            assert obj <= best * (1.0 + 1e-12) + slack
            assert 0.0 <= res.gap <= 1e-9
