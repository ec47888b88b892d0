import itertools

import numpy as np
import pytest

from reluspline import pwl, repcost, spline
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

    def test_json_round_trip(self):
        d = Dataset(((0.0, 1.0), (2.0, -1.0)))
        assert Dataset.from_json(d.to_json()).points == d.points


class TestInteriorSlopes:
    def test_two_points(self):
        assert spline.interior_slopes(Dataset(((0, 0), (1, 1)))) == [1.0]

    def test_tent(self):
        assert spline.interior_slopes(
            Dataset(((0, 0), (1, 1), (2, 0)))) == [1.0, -1.0]

    def test_uneven_spacing(self):
        assert spline.interior_slopes(
            Dataset(((0, 0), (2, 4), (3, 4)))) == [2.0, 0.0]

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


class TestRegularizedFit:
    def test_rejects_bad_lambda(self):
        d = Dataset(((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            spline.regularized_fit(d, "squared", 0.0)

    def test_rejects_unknown_loss(self):
        d = Dataset(((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            spline.regularized_fit(d, "huber", 1.0)

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
                res, hist = spline.regularized_fit(d, loss, lam,
                                                   full_output=True)
                oracle = brute_force_regularized(d, loss, lam)
                assert hist[-1] <= oracle + 1e-6

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(29)
        d = random_dataset(rng, 3, 6)
        _, hist = spline.regularized_fit(d, "squared", 0.3, full_output=True)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_known_two_point_instance(self):
        d = Dataset(((0, 0), (1, 1)))
        res, hist = spline.regularized_fit(d, "squared", 0.1, full_output=True)
        oracle = brute_force_regularized(d, "squared", 0.1)
        assert hist[-1] == pytest.approx(oracle, abs=1e-6)
