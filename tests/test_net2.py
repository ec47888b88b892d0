import ctypes
import os
import re
import subprocess
import sys
import sysconfig
import tempfile
import tracemalloc

import numpy as np
import pytest

from reluspline import cli, net2, pwl, repcost, spline
from reluspline.net2 import (DivergenceError, TrainConfig, TwoLayerNet,
                             balance, extract_u, net_cost, net_eval,
                             normalize_first_layer, objective_and_grad,
                             to_pwl, train)
from reluspline.spline import Dataset

from numpy_descent import reference_descent, scalar_descend


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


def figure_set():
    """The 10-point set of test_04 and of the benchmark's figure runs."""
    rng = np.random.default_rng(7)
    xs = np.linspace(-2, 2, 10) + rng.uniform(-0.1, 0.1, 10)
    return Dataset(tuple(zip(xs, rng.uniform(-1, 1, 10))))


class TestTrainMatchesReference:
    """train's C kernel against reference_descent, the plain numpy descent.

    The C loops and numpy sum in different orders, and the difference grows
    over a run: every trace entry agrees to 1e-11 relative and theta to
    1e-12 absolute, after 20 000 steps on the figure set at lam = 1e-5 too.
    Stop reasons, stop steps and divergence steps agree exactly.
    """

    FIGURES = figure_set()
    DATA = random_dataset(np.random.default_rng(41), 6)

    def check(self, d, k, **kw):
        """Train from ``net2.init(k, cfg)`` and compare with the oracle.

        Returns the trace rows written and the stop reason, or the rows up
        to the oracle's first non-finite objective and "diverged", once
        train has raised DivergenceError at that step.
        """
        cfg = TrainConfig(**kw)
        net0 = net2.init(k, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            trace, (w1, b1, w2, b2), _ = reference_descent(
                net0, d, cfg.lam, cfg.learning_rate, cfg.max_steps,
                cfg.stop_grad_norm)
        bad = np.flatnonzero(~np.isfinite(trace[:, 0]))
        if bad.size:
            with pytest.raises(DivergenceError, match=f"at step {bad[0]} "):
                train(net0, d, cfg)
            return bad[0] + 1, "diverged"
        res = train(net0, d, cfg)
        assert res.trace.shape == trace.shape
        assert np.all(np.abs(res.trace - trace) <= 1e-11 * np.abs(trace))
        theta = np.concatenate([b1, w1, w2, b2])
        assert np.abs(net2._pack(res.net) - theta).max() <= 1e-12
        return res.steps, res.stop_reason

    def figures(self, k, **kw):
        return self.check(self.FIGURES, k, **{
            "lam": 1e-5, "learning_rate": 1e-2, "max_steps": 20_000, **kw})

    @pytest.mark.parametrize("k,seed,init_scale", [
        (0, 0, 0.5), (1, 1, 0.5), (20, 5, 0.5), (100, 0, 0.2)])
    def test_trace_and_theta(self, k, seed, init_scale):
        assert (self.figures(k, seed=seed, init_scale=init_scale)
                == (20_000, "max_steps"))

    def test_grad_norm_stop(self):
        # the norm first reads <= 0.45 at step 1296, at 0.948 of it, and
        # stays >= 1.0076 times it before
        assert (self.figures(20, seed=5, stop_grad_norm=0.45)
                == (1297, "grad_norm"))

    def test_zero_steps(self):
        assert self.figures(20, seed=5, max_steps=0) == (0, "zero_steps")

    def test_figure_set_divergence_step(self):
        # at lr = 10 the objective overflows at step 5, the sixth row
        assert self.figures(20, seed=5, learning_rate=10.0) == (6, "diverged")

    @pytest.mark.parametrize("k", [20, 100])
    def test_trace_and_weights(self, k):
        assert (self.check(self.DATA, k, lam=0.05, max_steps=2000, seed=k)
                == (2000, "max_steps"))

    def test_grad_norm_stop_step(self):
        # the gradient norm oscillates down; 0.3 is first met at step 667,
        # where it reads 0.9996 of the threshold and the step before 1.0076
        assert self.check(self.DATA, 5, lam=0.05, max_steps=20_000, seed=3,
                          stop_grad_norm=0.3) == (668, "grad_norm")

    @pytest.mark.parametrize("steps", [1, 127, 128, 129, 300])
    def test_block_edges(self, steps):
        # short runs of either parity, on both sides of 128: the trace has
        # exactly max_steps rows and agrees from the first step
        assert (self.check(self.DATA, 20, lam=0.05, max_steps=steps, seed=1)
                == (steps, "max_steps"))

    @pytest.mark.parametrize("at", [0, 127, 128])
    def test_grad_norm_stop_at_block_edge(self, at):
        # the gradient norm is a running minimum at steps 127 and 128, so a
        # threshold between it and every earlier norm stops there; one above
        # the first norm stops at step 0
        net0 = net2.init(5, TrainConfig(seed=4))
        norms = reference_descent(net0, self.DATA, 0.05, 1e-2, 300)[2]
        above = norms[:at].min() if at else 2.0 * norms[0]
        assert norms[at] < above
        stop = float(np.sqrt(norms[at] * above))
        assert self.check(self.DATA, 5, lam=0.05, max_steps=300, seed=4,
                          stop_grad_norm=stop) == (at + 1, "grad_norm")

    @pytest.mark.parametrize("lr", [10.0, 4.0, 1.0])
    def test_divergence_step(self, lr):
        # the objective overflows at steps 96, 130 and 321 of 600
        step = {10.0: 96, 4.0: 130, 1.0: 321}[lr]
        d = Dataset(((0.0, 1.0), (1.0, 3.0)))
        assert self.check(d, 10, learning_rate=lr, max_steps=600, seed=0,
                          init_scale=0.5) == (step + 1, "diverged")

    def test_kernel_memory(self):
        # beyond the trace the kernel holds theta and its gradient, and no
        # buffer over samples; 40 KB covers the Python objects.  Loading
        # the kernel, once per process, is not counted.
        n, k, steps = 20_000, 5, 4
        xs = np.linspace(-1.0, 1.0, n)
        d = Dataset(tuple(zip(xs.tolist(), np.sin(3.0 * xs).tolist())))
        cfg = TrainConfig(max_steps=steps, seed=0)
        net0 = net2.init(k, cfg)
        net2._kernel()
        tracemalloc.start()
        try:
            train(net0, d, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * 3 * steps <= 40_000


def raw_descend(lib, theta, k, xs, ys, lam, lr, max_steps, stop=0.0):
    """One ``descend`` call of a kernel library, returned as
    ``scalar_descend`` returns it: status, trace rows, theta and gradient."""
    theta = np.array(theta, dtype=float)
    grad, trace = np.empty(theta.size), np.empty((max_steps, 3))
    done = np.zeros(1, np.int64)
    status = lib.descend(k, len(xs), np.asarray(xs, float),
                         np.asarray(ys, float), lam, lr, max_steps, stop,
                         theta, grad, trace, done)
    return status, trace[:done[0]], theta, grad


def bits(run):
    """A run's status and the bytes of its arrays, for exact comparison."""
    return (run[0],) + tuple(np.asarray(a, float).tobytes() for a in run[1:])


KERNEL_SOURCE = os.path.join(os.path.dirname(net2.__file__), "_kernel.c")
with open(KERNEL_SOURCE) as fh:
    # the kernel's block of data points
    BLOCK = int(re.search(r"enum \{ B = (\d+) \}", fh.read()).group(1))


class TestKernelMatchesScalarOrder:
    """The C kernel against its scalar loops in Python floats, bit for bit.

    The kernel sums the residuals of a block of points side by side, in
    vector lanes where the CPU has them; each still adds its units in order
    0..k-1, so every bit matches.  Data sizes sit at the ends of blocks and
    lanes.
    """

    def run_both(self, n, k, lr, stop=0.0, steps=100):
        rng = np.random.default_rng([n, k])
        xs, ys = rng.uniform(-2, 2, n), rng.uniform(-1, 1, n)
        theta = rng.uniform(-0.5, 0.5, 3 * k + 1)
        args = (k, xs, ys, 1e-3, lr, steps, stop)
        c = raw_descend(net2._kernel(), theta, *args)
        assert bits(c) == bits(scalar_descend(theta, *args))
        return c

    @pytest.mark.parametrize("k", [0, 1, 3, 20, 37])
    @pytest.mark.parametrize("n", [1, 3, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 5])
    def test_trace_theta_and_gradient(self, n, k):
        status, trace, _, _ = self.run_both(n, k, 0.1 / max(n, 10))
        assert (status, len(trace)) == (0, 100)

    def test_grad_norm_stop(self):
        status, trace, _, _ = self.run_both(BLOCK + 1, 20, 3e-3, stop=2.0)
        assert (status, len(trace)) == (1, 17)

    def test_divergence(self):
        status, trace, _, _ = self.run_both(BLOCK + 1, 20, 10.0)
        assert (status, len(trace)) == (2, 5)


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """An empty $XDG_CACHE_HOME and a kernel loaded anew from it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    net2._kernel.cache_clear()
    yield tmp_path
    net2._kernel.cache_clear()


def train_briefly():
    d = Dataset(((0.0, 1.0), (1.0, 3.0)))
    cfg = TrainConfig(max_steps=3)
    return train(net2.init(2, cfg), d, cfg)


class TestKernelBuild:
    def libraries(self, path):
        return [f for f in os.listdir(path) if not f.startswith(".")]

    def test_compiled_into_xdg_cache(self, fresh_kernel):
        src = os.path.dirname(net2.__file__)
        before = sorted(os.listdir(src))
        assert train_briefly().steps == 3
        cache = fresh_kernel / "cache" / "reluspline"
        (lib,) = self.libraries(cache)
        assert lib.startswith("_kernel-") and lib.endswith(".so")
        assert sorted(os.listdir(src)) == before

    @pytest.mark.parametrize("blocked", ["file", "group_writable"])
    def test_falls_back_to_private_temp_dir(self, fresh_kernel, monkeypatch,
                                            blocked):
        if blocked == "file":
            (fresh_kernel / "cache").write_text("")
        else:
            (fresh_kernel / "cache" / "reluspline").mkdir(parents=True)
            os.chmod(fresh_kernel / "cache" / "reluspline", 0o777)
        monkeypatch.setattr(tempfile, "tempdir", str(fresh_kernel))
        assert train_briefly().steps == 3
        private = fresh_kernel / f"reluspline-{os.getuid()}"
        assert os.stat(private).st_mode & 0o077 == 0
        assert len(self.libraries(private)) == 1

    def test_missing_compiler_is_one_error(self, fresh_kernel, monkeypatch):
        real = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var", lambda name: (
            "no-such-cc -pipe" if name == "CC" else real(name)))
        cache = str(fresh_kernel / "cache" / "reluspline")
        # training, and the CSV writer of train2 and highdim, build the library
        for build in (train_briefly, lambda: cli._write_csv(
                str(fresh_kernel / "t.csv"), ["a", "b", "c"], np.zeros((1, 3)))):
            with pytest.raises(RuntimeError, match=(
                    "training and the train2/highdim CSVs need a C compiler: "
                    "no-such-cc -pipe")) as err:
                build()
            assert cache in str(err.value)
            assert self.libraries(cache) == []
        assert not (fresh_kernel / "t.csv").exists()

    def test_plain_build_matches_loaded(self, tmp_path):
        # the source without its AVX2 clone, built alone, gives the bits of
        # the library the loader chose
        attr = '__attribute__((target_clones("avx2", "default")))'
        with open(KERNEL_SOURCE) as fh:
            source = fh.read()
        assert source.count(attr) == 1
        (tmp_path / "plain.c").write_text(source.replace(attr, ""))
        cc = (sysconfig.get_config_var("CC") or "cc").split()
        subprocess.run([*cc, *net2._CFLAGS, str(tmp_path / "plain.c"), "-o",
                        str(tmp_path / "plain.so")], check=True)
        loaded = net2._kernel()
        plain = ctypes.CDLL(str(tmp_path / "plain.so"))
        plain.descend.argtypes = loaded.descend.argtypes
        d = figure_set()
        for k, seed, scale, lr, stop, status, steps in [
                (20, 5, 0.5, 1e-2, 0.0, 0, 20_000),
                (100, 0, 0.2, 1e-2, 0.0, 0, 20_000),
                (20, 5, 0.5, 1e-2, 0.45, 1, 1297),
                (20, 5, 0.5, 10.0, 0.0, 2, 6)]:
            cfg = TrainConfig(seed=seed, init_scale=scale)
            args = (net2._pack(net2.init(k, cfg)), k, d.xs, d.ys, 1e-5, lr,
                    20_000, stop)
            run = raw_descend(loaded, *args)
            assert (run[0], len(run[1])) == (status, steps)
            assert bits(raw_descend(plain, *args)) == bits(run)

    def test_processes_racing_on_a_cold_cache(self, fresh_kernel):
        env = dict(os.environ, XDG_CACHE_HOME=str(fresh_kernel / "cache"),
                   PYTHONPATH=os.pathsep.join(sys.path))
        code = ("import reluspline as rs; print(rs.objective_and_grad("
                "rs.TwoLayerNet([1.0], [0.0], [1.0], 0.0), "
                "rs.Dataset(((1.0, 2.0),)), 0.0)[0])")
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(3)]
        outs = [p.communicate(timeout=120)[0] for p in procs]
        assert [p.returncode for p in procs] == [0, 0, 0]
        assert outs == ["1.0\n"] * 3
        assert len(self.libraries(fresh_kernel / "cache" / "reluspline")) == 1


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
