import tracemalloc

import numpy as np
import pytest

from reluspline import net2, pwl, repcost, spline
from reluspline.net2 import (DivergenceError, TrainConfig, TwoLayerNet,
                             balance, extract_u, net_cost, net_eval,
                             normalize_first_layer, objective_and_grad,
                             to_pwl, train)
from reluspline.spline import Dataset


def random_net(rng, k=None):
    k = int(rng.integers(1, 8)) if k is None else k
    return TwoLayerNet(rng.normal(0, 2, k), rng.normal(0, 2, k),
                       rng.normal(0, 2, k), float(rng.normal()))


def random_dataset(rng, n=5):
    xs = np.sort(rng.uniform(-3, 3, n))
    return Dataset(tuple(zip(xs, rng.uniform(-2, 2, n))))


class TestEvalAndCost:
    def test_single_unit(self):
        net = TwoLayerNet([2.0], [-2.0], [1.0], 0.0)
        assert net_eval(net, 2.0) == pytest.approx(2.0)
        assert net_eval(net, 0.0) == 0.0

    def test_cancelling_units(self):
        net = TwoLayerNet([1.0, 1.0], [0.0, 0.0], [1.0, -1.0], 0.0)
        xs = np.linspace(-5, 5, 50)
        assert np.all(net_eval(net, xs) == 0.0)

    def test_empty_net(self):
        net = TwoLayerNet([], [], [], 7.0)
        assert net_eval(net, 3.0) == 7.0
        assert net_cost(net) == 0.0

    def test_cost_values(self):
        assert net_cost(TwoLayerNet([2.0], [1.0], [0.5], 0.0)) == \
            pytest.approx(2.125)
        assert net_cost(TwoLayerNet([1.0], [3.0], [1.0], 0.0)) == 1.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            TwoLayerNet([1.0], [1.0, 2.0], [1.0], 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TwoLayerNet([np.nan], [0.0], [1.0], 0.0)

    def test_json_round_trip(self):
        net = TwoLayerNet([1.0, -2.0], [0.5, 0.0], [3.0, 1.0], -1.0)
        back = TwoLayerNet.from_json(net.to_json())
        assert np.array_equal(back.w1, net.w1)
        assert back.b2 == net.b2


class TestBalance:
    def test_am_gm_equality_case(self):
        net = balance(TwoLayerNet([2.0], [0.0], [0.5], 0.0))
        assert net.w1[0] == pytest.approx(1.0)
        assert net.w2[0] == pytest.approx(1.0)
        assert net_cost(net) == pytest.approx(1.0)

    def test_idempotent_on_balanced(self):
        net = TwoLayerNet([1.0], [3.0], [1.0], 0.0)
        out = balance(net)
        assert np.allclose(out.w1, net.w1) and np.allclose(out.b1, net.b1)

    def test_zeroes_degenerate_unit(self):
        net = balance(TwoLayerNet([0.0], [5.0], [0.7], 0.0))
        assert net.w1[0] == 0.0 and net.w2[0] == 0.0
        # the constant contribution 0.7*[5]_+ moves into the output bias
        assert net.b2 == pytest.approx(3.5)

    def test_preserves_function(self):
        rng = np.random.default_rng(31)
        xs = np.linspace(-10, 10, 1000)
        for _ in range(30):
            net = random_net(rng)
            for op in (balance, normalize_first_layer):
                out = op(net)
                assert np.abs(net_eval(out, xs) - net_eval(net, xs)).max() < 1e-10

    def test_cost_never_increases(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            net = random_net(rng)
            assert net_cost(balance(net)) <= net_cost(net) + 1e-12
            assert net_cost(balance(net)) == pytest.approx(
                float(np.abs(net.w1 * net.w2).sum()))

    def test_normalize_unit_first_layer(self):
        rng = np.random.default_rng(33)
        net = normalize_first_layer(random_net(rng))
        live = net.w1 != 0.0
        assert np.allclose(np.abs(net.w1[live]), 1.0)


class TestToPwl:
    def test_single_unit(self):
        f = to_pwl(TwoLayerNet([2.0], [-2.0], [1.0], 0.0))
        assert f.breakpoints.tolist() == [1.0]
        assert f.slopes.tolist() == [0.0, 2.0]

    def test_cancelling_pair_is_zero(self):
        f = to_pwl(TwoLayerNet([1.0, 1.0], [0.0, 0.0], [1.0, -1.0], 0.0))
        assert f.breakpoints.tolist() == []
        assert f.slopes.tolist() == [0.0]

    def test_matches_eval_on_grid(self):
        rng = np.random.default_rng(34)
        xs = np.linspace(-8, 8, 100)
        for _ in range(30):
            net = random_net(rng)
            f = to_pwl(net)
            assert np.abs(pwl.pwl_eval(f, xs) - net_eval(net, xs)).max() < 1e-10

    def test_constant_unit_folds_into_anchor(self):
        net = TwoLayerNet([0.0], [2.0], [3.0], 1.0)
        f = to_pwl(net)
        assert f.breakpoints.tolist() == []
        assert pwl.pwl_eval(f, 0.0) == pytest.approx(7.0)


class TestExtractU:
    def test_single_unit(self):
        atoms = extract_u(TwoLayerNet([2.0], [-2.0], [1.0], 0.0))
        assert atoms.atoms.tolist() == [[1.0, 2.0]]

    def test_zero_net(self):
        assert extract_u(TwoLayerNet([], [], [], 0.0)).atoms.tolist() == []

    def test_equals_second_derivative_of_pwl(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            net = random_net(rng)
            a = extract_u(net)
            b = pwl.second_derivative_measure(to_pwl(net))
            assert len(a.atoms) == len(b.atoms)
            for (xa, ma), (xb, mb) in zip(a.atoms, b.atoms):
                assert abs(xa - xb) < 1e-10 and abs(ma - mb) < 1e-10


class TestGradient:
    def test_bias_only_gradient(self):
        net = TwoLayerNet([], [], [], 2.0)
        d = Dataset(((0.0, 1.0), (1.0, 3.0)))
        _, grad = objective_and_grad(net, d, 0.0)
        assert grad.b2 == pytest.approx(2 * ((2 - 1) + (2 - 3)))

    def test_zero_residual_zero_loss_gradient(self):
        net = TwoLayerNet([1.0], [0.0], [1.0], 0.0)
        d = Dataset(((1.0, 1.0), (2.0, 2.0)))
        value, grad = objective_and_grad(net, d, 0.0)
        assert value == pytest.approx(0.0)
        for part in (grad.w1, grad.b1, grad.w2, [grad.b2]):
            assert np.abs(part).max() == pytest.approx(0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(36)
        step = 1e-4
        for _ in range(20):
            net = random_net(rng)
            d = random_dataset(rng)
            lam = float(rng.uniform(0, 0.5))
            value, grad = objective_and_grad(net, d, lam)
            params = np.concatenate([net.w1, net.b1, net.w2, [net.b2]])
            analytic = np.concatenate([grad.w1, grad.b1, grad.w2, [grad.b2]])
            fd = np.empty_like(params)
            k = net.k
            def value_at(p):
                pert = TwoLayerNet(p[:k], p[k:2 * k], p[2 * k:3 * k], p[-1])
                return objective_and_grad(pert, d, lam)[0]

            for i in range(params.size):
                p_hi, p_lo = params.copy(), params.copy()
                p_hi[i] += step
                p_lo[i] -= step
                fd[i] = (value_at(p_hi) - value_at(p_lo)) / (2 * step)
            denom = np.maximum(np.abs(analytic), 1.0)
            assert np.abs(fd - analytic).max() / denom.max() < 1e-5


class TestResultValues:
    def test_gradients_compare_and_hash_by_value(self):
        net = TwoLayerNet([1.0, -0.5], [0.2, 0.3], [0.7, 1.1], 0.4)
        d = Dataset(((0.0, 1.0), (1.0, 3.0), (2.0, 0.5)))
        _, g1 = objective_and_grad(net, d, 0.1)
        _, g2 = objective_and_grad(net, d, 0.1)
        assert isinstance(g1, TwoLayerNet)
        assert g1 == g2 and hash(g1) == hash(g2)

    def test_train_results_compare_by_identity(self):
        d = Dataset(((0.0, 1.0), (1.0, 3.0)))
        cfg = TrainConfig(max_steps=20, seed=0)
        r1 = train(net2.init(2, cfg), d, cfg)
        r2 = train(net2.init(2, cfg), d, cfg)
        assert r1 == r1 and r1 != r2
        assert hash(r1) != hash(r2) and len({r1, r2}) == 2
        assert r1.net == r2.net


class TestLowerBound:
    def test_cost_dominates_function_cost(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            net = random_net(rng)
            c = net_cost(net)
            rbar = repcost.representation_cost(to_pwl(net)).cost
            assert rbar <= c + 1e-9 * (1.0 + c)

    def test_optimal_measure_attains_bound(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            n = int(rng.integers(0, 5))
            bp = np.sort(rng.uniform(-4, 4, n))
            f = pwl.PwlFunction(tuple(bp), tuple(rng.uniform(-3, 3, n + 1)),
                                (0.0, float(rng.normal())))
            net = repcost.measure_to_net(repcost.optimal_alpha(f))
            assert abs(net_cost(net)
                       - repcost.representation_cost(f).cost) < 1e-10


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["lam", "learning_rate", "init_scale",
                                       "stop_grad_norm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_hyperparameter(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("steps", [np.nan, 2.5, 10.0, -1, "10"])
    def test_max_steps_must_be_nonnegative_integer(self, steps):
        with pytest.raises(ValueError, match="nonnegative integer"):
            TrainConfig(max_steps=steps)

    @pytest.mark.parametrize("seed", [1.5, -1, np.nan, "3"])
    def test_seed_must_be_nonnegative_integer(self, seed):
        with pytest.raises(ValueError,
                           match="seed must be a nonnegative integer"):
            TrainConfig(seed=seed)

    def test_numpy_integer_max_steps(self):
        cfg = TrainConfig(max_steps=np.int64(5))
        d = Dataset(((0.0, 1.0), (1.0, 3.0)))
        assert train(net2.init(2, cfg), d, cfg).steps == 5


class TestInit:
    def test_deterministic(self):
        cfg = TrainConfig(seed=5)
        a, b = net2.init(4, cfg), net2.init(4, cfg)
        assert np.array_equal(a.w1, b.w1) and a.b2 == b.b2

    def test_seeds_differ(self):
        a = net2.init(4, TrainConfig(seed=1))
        b = net2.init(4, TrainConfig(seed=2))
        assert not np.array_equal(a.w1, b.w1)

    def test_bias_only(self):
        net = net2.init(0, TrainConfig(seed=0))
        assert net.k == 0

    @pytest.mark.parametrize("k", [2.5, -1])
    def test_width_must_be_nonnegative_integer(self, k):
        with pytest.raises(ValueError, match="k must be a nonnegative integer"):
            net2.init(k, TrainConfig())

    def test_scale_bound(self):
        net = net2.init(50, TrainConfig(seed=3, init_scale=0.1))
        assert np.abs(net.w1).max() <= 0.1


class TestTrain:
    def test_fits_small_dataset(self):
        rng = np.random.default_rng(39)
        d = random_dataset(rng, 5)
        cfg = TrainConfig(lam=0.0, learning_rate=1e-2, max_steps=50_000, seed=1)
        res = train(net2.init(10, cfg), d, cfg)
        assert res.trace[-1, 1] < 1e-4

    def test_huge_lambda_goes_to_mean(self):
        # decay stability needs lam * lr <= 1; the weights die immediately
        # and only the output bias crawls to the mean of y
        ys = np.array([1.0, 3.0, 2.0, 4.0, 0.0, 2.0, 3.0, 1.0, 2.0, 2.0])
        d = Dataset(tuple(zip(np.arange(10.0), ys)))
        cfg = TrainConfig(lam=1e6, learning_rate=1e-6, max_steps=300_000,
                          seed=0, init_scale=0.01)
        res = train(net2.init(5, cfg), d, cfg)
        xs = np.linspace(-1, 10, 30)
        assert np.abs(net_eval(res.net, xs) - ys.mean()).max() < 1e-2

    def test_dead_relu_degenerate_init(self):
        d = Dataset(((0.0, 1.0), (1.0, 3.0)))
        cfg = TrainConfig(learning_rate=1e-2, max_steps=5_000, seed=0,
                          init_scale=0.0)
        res = train(net2.init(3, cfg), d, cfg)
        assert np.all(res.net.w1 == 0.0)
        assert res.net.b2 == pytest.approx(2.0, abs=1e-6)

    def test_divergence_raises(self):
        d = Dataset(((0.0, 1.0), (1.0, 3.0)))
        cfg = TrainConfig(learning_rate=10.0, max_steps=1_000, seed=0,
                          init_scale=2.0)
        with pytest.raises(DivergenceError):
            train(net2.init(10, cfg), d, cfg)

    def test_trace_shape_and_determinism(self):
        rng = np.random.default_rng(40)
        d = random_dataset(rng, 4)
        cfg = TrainConfig(learning_rate=1e-2, max_steps=100, seed=7)
        r1 = train(net2.init(6, cfg), d, cfg)
        r2 = train(net2.init(6, cfg), d, cfg)
        assert r1.trace.shape == (100, 3)
        assert np.array_equal(r1.trace, r2.trace)
        assert np.array_equal(r1.net.w1, r2.net.w1)

    def test_grad_norm_stop(self):
        d = Dataset(((0.0, 0.0), (1.0, 0.0)))
        cfg = TrainConfig(learning_rate=1e-2, max_steps=10_000, seed=0,
                          init_scale=0.01, stop_grad_norm=1e-8)
        res = train(net2.init(2, cfg), d, cfg)
        assert res.steps < 10_000
        assert res.stop_reason == "grad_norm"
        # a copy, not a view holding the whole max_steps buffer
        assert res.trace.base is None and res.trace.shape == (res.steps, 3)

    def test_stop_reason(self):
        d = Dataset(((0.0, 1.0), (1.0, 3.0)))
        for steps, reason in ((0, "zero_steps"), (10, "max_steps")):
            cfg = TrainConfig(max_steps=steps, seed=0)
            res = train(net2.init(3, cfg), d, cfg)
            assert (res.steps, res.stop_reason) == (steps, reason)
            assert res.trace.shape == (steps, 3)


def reference_descent(net0, d, lam, lr, steps, stop=0.0):
    """Plain gradient descent with the gradient written out, one net at a time.

    Returns the trace rows (objective, loss, cost), the final weights and
    the gradient norm at each step.
    """
    w1, b1, w2, b2 = (np.array(net0.w1), np.array(net0.b1),
                      np.array(net0.w2), net0.b2)
    xs, ys = np.array(d.xs), np.array(d.ys)
    trace, norms = [], []
    for _ in range(steps):
        pre = np.outer(xs, w1) + b1
        act = np.maximum(pre, 0.0)
        r = act @ w2 + b2 - ys
        loss, cost = r @ r, 0.5 * (w1 @ w1 + w2 @ w2)
        trace.append((loss + lam * cost, loss, cost))
        back = (pre > 0.0) * r[:, None] * w2
        g1 = 2.0 * (back.T @ xs) + lam * w1
        gb1 = 2.0 * back.sum(axis=0)
        g2 = 2.0 * (act.T @ r) + lam * w2
        gb2 = 2.0 * r.sum()
        norm = np.sqrt(g1 @ g1 + gb1 @ gb1 + g2 @ g2 + gb2 * gb2)
        norms.append(norm)
        if stop > 0.0 and norm <= stop:
            break
        w1, b1, w2, b2 = w1 - lr * g1, b1 - lr * gb1, w2 - lr * g2, b2 - lr * gb2
    return np.array(trace), (w1, b1, w2, np.array([b2])), np.array(norms)


class TestTrainMatchesReference:
    """train's packed kernel against reference_descent, to rounding."""

    DATA = random_dataset(np.random.default_rng(41), 6)

    @staticmethod
    def rel(a, b):
        return np.abs(np.asarray(a) - b).max() / np.abs(b).max()

    def check(self, res, trace, weights, _norms):
        assert res.trace.shape == trace.shape
        assert self.rel(res.trace, trace) < 1e-10
        got = (res.net.w1, res.net.b1, res.net.w2, [res.net.b2])
        for a, b in zip(got, weights):
            assert self.rel(a, b) < 1e-10

    @pytest.mark.parametrize("k", [20, 100])
    def test_trace_and_weights(self, k):
        cfg = TrainConfig(lam=0.05, learning_rate=1e-2, max_steps=2000, seed=k)
        net0 = net2.init(k, cfg)
        res = train(net0, self.DATA, cfg)
        self.check(res, *reference_descent(net0, self.DATA, 0.05, 1e-2, 2000))

    def test_grad_norm_stop_step(self):
        # the gradient norm oscillates down; 0.3 is first met at step 668,
        # where it reads 0.9996 of the threshold and the step before 1.0076
        cfg = TrainConfig(lam=0.05, learning_rate=1e-2, max_steps=20_000,
                          seed=3, stop_grad_norm=0.3)
        net0 = net2.init(5, cfg)
        res = train(net0, self.DATA, cfg)
        trace, weights, _ = reference_descent(net0, self.DATA, 0.05, 1e-2,
                                              20_000, stop=0.3)
        assert (res.steps, res.stop_reason) == (len(trace), "grad_norm")
        assert res.steps < 20_000
        assert self.rel(res.trace, trace) < 1e-10
        assert self.rel(res.net.w1, weights[0]) < 1e-10


    @pytest.mark.parametrize("steps", [1, 127, 128, 129, 300])
    def test_block_edges(self, steps):
        # the kernel runs blocks of min(128, max_steps) steps here
        cfg = TrainConfig(lam=0.05, learning_rate=1e-2, max_steps=steps, seed=1)
        net0 = net2.init(20, cfg)
        self.check(train(net0, self.DATA, cfg),
                   *reference_descent(net0, self.DATA, 0.05, 1e-2, steps))

    @pytest.mark.parametrize("at", [0, 127, 128])
    def test_grad_norm_stop_at_block_edge(self, at):
        # the gradient norm is a running minimum at step 127, the last of
        # the first block, and at 128, the first of the second; a threshold
        # above the first norm stops at step 0
        cfg = TrainConfig(lam=0.05, learning_rate=1e-2, max_steps=300, seed=4)
        net0 = net2.init(5, cfg)
        norms = reference_descent(net0, self.DATA, 0.05, 1e-2, 300)[2]
        above = norms[:at].min() if at else 2.0 * norms[0]
        assert norms[at] < above
        stop = float(np.sqrt(norms[at] * above))
        cfg = TrainConfig(lam=0.05, learning_rate=1e-2, max_steps=300, seed=4,
                          stop_grad_norm=stop)
        res = train(net0, self.DATA, cfg)
        assert (res.steps, res.stop_reason) == (at + 1, "grad_norm")
        self.check(res, *reference_descent(net0, self.DATA, 0.05, 1e-2, 300,
                                           stop=stop))

    @pytest.mark.parametrize("lr", [10.0, 4.0, 1.0])
    def test_divergence_step(self, lr):
        # the objective overflows at steps 96, 130 and 321: in the first
        # block of 128 steps, early in the second and in the third
        d = Dataset(((0.0, 1.0), (1.0, 3.0)))
        cfg = TrainConfig(learning_rate=lr, max_steps=600, seed=0,
                          init_scale=0.5)
        net0 = net2.init(10, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = reference_descent(net0, d, 0.0, lr, 600)[0]
        step = int(np.flatnonzero(~np.isfinite(trace[:, 0]))[0])
        with pytest.raises(DivergenceError, match=f"at step {step} "):
            train(net0, d, cfg)

    def test_kernel_memory(self):
        # beyond the trace and the two k x n buffers, the kernel holds six
        # rows of n: the two constant rows of feats, the two of inputs and
        # the residual buffer, which at n = 20 000 is a block of one step;
        # 40 KB more covers the Python objects (about 8 KB of them)
        n, k, steps = 20_000, 5, 4
        xs = np.linspace(-1.0, 1.0, n)
        d = Dataset(tuple(zip(xs.tolist(), np.sin(3.0 * xs).tolist())))
        cfg = TrainConfig(max_steps=steps, seed=0)
        net0 = net2.init(k, cfg)
        tracemalloc.start()
        try:
            train(net0, d, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * (3 * steps + 2 * k * n) <= 6 * 8 * n + 40_000


class TestExactOptimumBound:
    @pytest.mark.parametrize("lam", [1e-3, 0.1])
    def test_trained_objective_not_below_optimum(self, lam):
        # net_cost(net) >= cost(to_pwl(net)), so no net's objective can beat
        # the exact function-space optimum P*, at any width or step count
        rng = np.random.default_rng(42)
        for seed in range(3):
            d = random_dataset(rng, 8)
            fit = spline.regularized_fit(d, "squared", lam)
            r = pwl.pwl_eval(fit.spline, d.xs) - d.ys
            p_star = float(r @ r) + lam * fit.cost
            cfg = TrainConfig(lam=lam, max_steps=3000, seed=seed)
            res = train(net2.init(20, cfg), d, cfg)
            objective, _ = objective_and_grad(res.net, d, lam)
            assert objective >= p_star - 1e-12 * p_star
