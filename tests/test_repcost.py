import numpy as np
import pytest
from scipy.optimize import linprog

from reluspline import pwl, repcost
from reluspline.net2 import net_cost, net_eval
from reluspline.pwl import PwlFunction
from reluspline.repcost import LagrangeCase, ThresholdMeasure1D


def random_pwl(rng, max_bp=6, scale=4.0):
    n = int(rng.integers(0, max_bp + 1))
    bp = np.sort(rng.choice(np.arange(-8, 9), size=n, replace=False)).astype(float)
    slopes = rng.integers(-4, 5, n + 1).astype(float)
    anchor = (0.0, float(rng.integers(-3, 4)))
    return PwlFunction(tuple(bp), tuple(slopes), anchor)


def lp_min_norm(f):
    """Minimum l1 mass of a breakpoint-supported measure representing f.

    Per breakpoint two signed atom masses (forward and backward ReLU), each
    split into positive parts; the slope jumps and the left end slope pin
    the measure linearly.
    """
    jumps = np.diff(f.slopes)
    m = len(jumps)
    if m == 0:
        return abs(pwl.end_slope_sum(f))
    # vars per bp: aplus+, aplus-, aminus+, aminus-
    c = np.ones(4 * m)
    a_eq = np.zeros((m + 1, 4 * m))
    b_eq = np.zeros(m + 1)
    for j in range(m):
        a_eq[j, 4 * j:4 * j + 4] = (1, -1, 1, -1)
        b_eq[j] = jumps[j]
        a_eq[m, 4 * j + 2] = 1
        a_eq[m, 4 * j + 3] = -1
    b_eq[m] = -f.slopes[0]
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, method="highs")
    assert res.success
    return res.fun


class TestCostReport:
    def test_relu(self):
        rep = repcost.representation_cost(pwl.relu())
        assert rep.cost == 1.0
        assert rep.tv == 1.0
        assert rep.end_sum == 1.0
        assert rep.lagrange_case is LagrangeCase.ZERO
        assert rep.upper_bound == 1.0

    def test_absval(self):
        rep = repcost.representation_cost(pwl.absval())
        assert rep.cost == 2.0
        assert rep.lagrange_case is LagrangeCase.ZERO

    def test_steep_line(self):
        rep = repcost.representation_cost(pwl.linear(3.0))
        assert rep.cost == 6.0
        assert rep.lagrange_case is LagrangeCase.NEGATIVE

    def test_descending_line(self):
        rep = repcost.representation_cost(pwl.linear(-3.0))
        assert rep.cost == 6.0
        assert rep.lagrange_case is LagrangeCase.POSITIVE

    def test_flat_shelf_upper_bound(self):
        # slopes (0, 1): tv 1, a zero slope makes the naive bound tight
        rep = repcost.representation_cost(pwl.relu())
        assert rep.upper_bound >= rep.cost

    def test_lp_oracle_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            f = random_pwl(rng)
            rep = repcost.representation_cost(f)
            assert rep.cost == pytest.approx(lp_min_norm(f), abs=1e-8)

    def test_homogeneity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            f = random_pwl(rng)
            c = float(rng.uniform(0.2, 4.0))
            assert repcost.representation_cost(pwl.scale(f, c)).cost == \
                pytest.approx(c * repcost.representation_cost(f).cost)

    def test_translate_reflect_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = random_pwl(rng)
            base = repcost.representation_cost(f).cost
            assert repcost.representation_cost(pwl.translate(f, 2.5)).cost == \
                pytest.approx(base)
            assert repcost.representation_cost(pwl.reflect(f)).cost == \
                pytest.approx(base)


class TestThresholdMeasure:
    def test_bad_sign(self):
        with pytest.raises(ValueError):
            ThresholdMeasure1D(((2, 0.0, 1.0),))

    def test_duplicate_atom(self):
        with pytest.raises(ValueError):
            ThresholdMeasure1D(((1, 0.0, 1.0), (1, 0.0, 2.0)))

    def test_json_round_trip(self):
        a = ThresholdMeasure1D(((1, 0.5, 2.0), (-1, 1.0, -1.0)), 3.0)
        b = ThresholdMeasure1D.from_json(a.to_json())
        assert np.array_equal(b.atoms, a.atoms) and b.c == a.c

    def test_eval_single_atom(self):
        a = ThresholdMeasure1D(((-1, 1.0, 2.0),), 1.0)
        assert repcost.measure_eval(a, 0.0) == pytest.approx(3.0)
        assert repcost.measure_eval(a, 2.0) == pytest.approx(1.0)


class TestOptimalAlpha:
    def test_relu_atoms(self):
        a = repcost.optimal_alpha(pwl.relu())
        assert a.atoms.tolist() == [[1, 0.0, 1.0]]
        assert a.c == 0.0

    def test_line_atoms(self):
        a = repcost.optimal_alpha(pwl.linear(3.0))
        assert a.atoms.tolist() == [[-1, 0.0, -3.0], [1, 0.0, 3.0]]
        assert repcost.measure_norm(a) == pytest.approx(6.0)

    def test_absval_atoms(self):
        a = repcost.optimal_alpha(pwl.absval())
        assert a.atoms.tolist() == [[-1, 0.0, 1.0], [1, 0.0, 1.0]]
        assert repcost.measure_norm(a) == pytest.approx(2.0)

    def test_norm_attains_cost(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            f = random_pwl(rng)
            cost = repcost.representation_cost(f).cost
            norm = repcost.measure_norm(repcost.optimal_alpha(f))
            assert abs(norm - cost) <= 1e-12 * (1.0 + cost)

    def test_round_trip_to_pwl(self):
        rng = np.random.default_rng(15)
        xs = np.linspace(-10, 10, 500)
        for _ in range(40):
            f = random_pwl(rng)
            g = repcost.measure_to_pwl(repcost.optimal_alpha(f))
            assert np.abs(pwl.pwl_eval(f, xs) - pwl.pwl_eval(g, xs)).max() < 1e-10

    def test_alpha_plus_matches_second_derivative(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            f = random_pwl(rng)
            a = repcost.optimal_alpha(f)
            forward = {b: m for w, b, m in a.atoms if w == 1}
            backward = {b: m for w, b, m in a.atoms if w == -1}
            expected = dict(pwl.second_derivative_measure(f).atoms)
            locs = set(forward) | set(backward) | set(expected)
            for b in locs:
                total = forward.get(b, 0.0) + backward.get(b, 0.0)
                assert total == pytest.approx(expected.get(b, 0.0), abs=1e-10)


class TestMeasureToNet:
    def test_cost_equals_norm_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            f = random_pwl(rng)
            a = repcost.optimal_alpha(f)
            net = repcost.measure_to_net(a)
            norm = repcost.measure_norm(a)
            assert abs(net_cost(net) - norm) <= 1e-12 * (1.0 + norm)

    def test_net_reproduces_function(self):
        rng = np.random.default_rng(18)
        xs = np.linspace(-10, 10, 300)
        for _ in range(20):
            f = random_pwl(rng)
            net = repcost.measure_to_net(repcost.optimal_alpha(f))
            assert np.abs(net_eval(net, xs) - pwl.pwl_eval(f, xs)).max() < 1e-9


class TestDiscretizeSmooth:
    def test_invalid_support(self):
        with pytest.raises(ValueError):
            repcost.discretize_smooth(lambda x: 1.0, (1.0, 0.0), 10, 0.0, (0, 0))

    @pytest.mark.parametrize("support", [(np.nan, 1.0), (0.0, np.nan),
                                         (-np.inf, 1.0), (0.0, np.inf)])
    def test_rejects_non_finite_support(self, support):
        with pytest.raises(ValueError, match="support bounds must be finite"):
            repcost.discretize_smooth(lambda x: 1.0, support, 10, 0.0, (0, 0))

    @pytest.mark.parametrize("n_atoms", [2.5, 10.0, np.nan])
    def test_rejects_non_integer_atom_count(self, n_atoms):
        with pytest.raises(ValueError, match="n_atoms must be an integer"):
            repcost.discretize_smooth(lambda x: 1.0, (0.0, 1.0), n_atoms,
                                      0.0, (0, 0))

    def test_rejects_single_atom(self):
        with pytest.raises(ValueError, match="n_atoms must be at least 2"):
            repcost.discretize_smooth(lambda x: 1.0, (0.0, 1.0), 1, 0.0,
                                      (0, 0))

    def test_numpy_integer_atom_count(self):
        alpha = repcost.discretize_smooth(lambda x: 1.0, (0.0, 1.0),
                                          np.int64(4), 0.0, (0, 0))
        assert repcost.measure_norm(alpha) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_density(self, bad):
        with pytest.raises(ValueError, match="fpp must be finite"):
            repcost.discretize_smooth(lambda x: bad if x > 0.5 else 1.0,
                                      (0.0, 1.0), 10, 0.0, (0, 0))

    def test_indicator_second_derivative(self):
        alpha = repcost.discretize_smooth(
            lambda x: 1.0, (0.0, 1.0), 1000, 0.0, (0.0, 0.0))
        assert 0.999 <= repcost.measure_norm(alpha) <= 1.001
        xs = np.linspace(-2, 3, 400)
        exact = np.where(xs <= 0, 0.0,
                         np.where(xs <= 1, xs ** 2 / 2, xs - 0.5))
        assert np.abs(repcost.measure_eval(alpha, xs) - exact).max() < 1e-3

    def test_gaussian_bump_norm(self):
        # f'' = standard normal density (mass ~1), zero end slope on the left
        fpp = lambda x: np.exp(-x * x / 2) / np.sqrt(2 * np.pi)
        alpha = repcost.discretize_smooth(fpp, (-6.0, 6.0), 2000, 0.0, (0.0, 1.0))
        assert repcost.measure_norm(alpha) == pytest.approx(1.0, abs=1e-3)
        assert repcost.measure_eval(alpha, 0.0) == pytest.approx(1.0)

    def test_negative_density(self):
        alpha = repcost.discretize_smooth(
            lambda x: -1.0, (0.0, 1.0), 500, 0.5, (0.0, 0.0))
        # tv 1, end sum 2*0.5 - 1 = 0: zero multiplier case
        assert repcost.measure_norm(alpha) == pytest.approx(1.0, abs=1e-9)
