"""The four workloads: their inputs, the calls they time and their checks.

A workload hands out rounds.  Round i is a fixed list of operations whose
inputs come from numpy's default_rng([seed, i]), so the same seed gives the
same inputs and every round does the same kind and amount of work.  An
operation is a call into reluspline, timed by the runner, and a check of
what it returned, run after the timer stops.
"""

from __future__ import annotations

import json
import os
from typing import Callable, NamedTuple

import numpy as np

import checks as ck


class Op(NamedTuple):
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


def _round_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _weights(net):
    return (np.asarray(net.w1), np.asarray(net.b1), np.asarray(net.w2),
            float(net.b2))


def _pwl(f):
    return f.breakpoints, f.slopes, f.anchor


def _grid(breakpoints, half_width=10.0, n=1000):
    """A uniform grid plus one point beyond each extreme breakpoint."""
    bp = np.asarray(breakpoints, float)
    ends = [bp.min() - 1.0, bp.max() + 1.0] if bp.size else []
    return np.concatenate((np.linspace(-half_width, half_width, n), ends))


class Workload:
    name = ""

    def __init__(self, rs, seed: int, workdir: str):
        self.rs, self.seed, self.workdir = rs, seed, workdir
        # bytes of the files reluspline wrote, summed over checked calls
        self.bytes_written = 0

    def ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One small call of each kind, so lazy set-up is not timed."""


# -- train -------------------------------------------------------------------

FIGURE_LAMBDA = 1e-5
FIGURE_LR = 1e-2
# Both figure runs meet the 5% criterion from about 15k steps on; at 20k
# the worst ratio, k=20 function cost over optimum, reads 0.969.
FIGURE_STEPS = 20_000
FIGURE_RUNS = ((20, 5, 0.5), (100, 0, 0.2))  # (k, seed, init scale)
SWEEP_STEPS = 4_000
SWEEP_RUNS_PER_WIDTH = 3
SWEEP_INIT_SCALE = {20: 0.5, 100: 0.2}


def figure_dataset_points():
    """The 10-point set of the paper's figure experiment."""
    rng = np.random.default_rng(7)
    xs = np.linspace(-2, 2, 10) + rng.uniform(-0.1, 0.1, 10)
    ys = rng.uniform(-1, 1, 10)
    return [[float(x), float(y)] for x, y in zip(xs, ys)]


class Train(Workload):
    """`reluspline train2` on the figure set, then a seed sweep of net2.train."""

    name = "train"

    def __init__(self, rs, seed, workdir):
        super().__init__(rs, seed, workdir)
        points = figure_dataset_points()
        self.data_path = os.path.join(workdir, "figure.json")
        with open(self.data_path, "w") as fh:
            json.dump({"points": points}, fh)
        self.dataset = rs.Dataset(tuple(map(tuple, points)))
        self.xs = np.array([p[0] for p in points])
        self.ys = np.array([p[1] for p in points])
        self.optimum = None

    def _train2_args(self, k, seed, init_scale, steps, prefix):
        return ["train2", self.data_path, "--k", str(k), "--seed", str(seed),
                "--init-scale", repr(init_scale), "--lambda", repr(FIGURE_LAMBDA),
                "--lr", repr(FIGURE_LR), "--steps", str(steps),
                "--prefix", prefix, "--output", prefix + "_summary.json"]

    def warm_up(self):
        rs = self.rs
        prefix = os.path.join(self.workdir, "warm")
        rs.cli.main(self._train2_args(20, 0, 0.5, 10, prefix))
        cfg = rs.TrainConfig(lam=FIGURE_LAMBDA, learning_rate=FIGURE_LR,
                             max_steps=10)
        res = rs.train(rs.net_init(100, cfg), self.dataset, cfg)
        rs.representation_cost(rs.to_pwl(res.net))

    def ops(self, index):
        rng = _round_rng(self.seed, index)
        out = [self._figure_op(k, seed, scale) for k, seed, scale in FIGURE_RUNS]
        for k in (20, 100):
            for j in range(SWEEP_RUNS_PER_WIDTH):
                out.append(self._sweep_op(k, j, rng))
        return out

    def _figure_op(self, k, seed, init_scale):
        rs = self.rs
        prefix = os.path.join(self.workdir, f"train2_k{k}")
        args = self._train2_args(k, seed, init_scale, FIGURE_STEPS, prefix)
        files = [prefix + s for s in ("_net.json", "_trace.csv", "_grid.csv",
                                      "_summary.json")]

        def call():
            return rs.cli.main(args)

        def check(code):
            ck.require(code == 0, f"train2 exited with {code}")
            self.bytes_written += sum(
                os.path.getsize(p) for p in files)
            with open(files[3]) as fh:
                summary = json.load(fh)
            with open(files[0]) as fh:
                net = json.load(fh)
            final = (net["w1"], net["b1"], net["w2"], net["b2"])
            with open(files[1]) as fh:
                fh.readline()
                first = float(fh.readline().split(",")[1])
                rows = 1 + sum(1 for _ in fh)
            ck.require(summary["steps"] == FIGURE_STEPS == rows,
                       f"{summary['steps']} steps, {rows} trace rows")
            cfg = rs.TrainConfig(lam=FIGURE_LAMBDA, learning_rate=FIGURE_LR,
                                 max_steps=FIGURE_STEPS, seed=seed,
                                 init_scale=init_scale)
            init = _weights(rs.net_init(k, cfg))
            ck.check_training(self.xs, self.ys, FIGURE_LAMBDA, init, final,
                              first)
            ck.check_function_cost(net["w1"], net["w2"],
                                   summary["function_cost"], summary["net_cost"])
            if self.optimum is None:
                self.optimum = ck.end_slope_optimum(ck.secants(self.xs, self.ys))
            ck.require_close(summary["interpolation_optimum"], self.optimum,
                             1e-7, "interpolation optimum")
            ck.check_figure_criterion(summary["function_cost"],
                                      summary["net_cost"], self.optimum)
            grid = np.loadtxt(files[2], delimiter=",", skiprows=1, ndmin=2)
            ck.require_values(grid[:, 1], ck.net_values(*final, grid[:, 0]),
                              1e-9, "grid file net column")
            inside = (grid[:, 0] >= self.xs[0]) & (grid[:, 0] <= self.xs[-1])
            ck.require_values(grid[inside, 2],
                              np.interp(grid[inside, 0], self.xs, self.ys),
                              1e-9, "grid file spline column")

        return Op(f"train2_k{k}", call, check)

    def _sweep_op(self, k, j, rng):
        rs = self.rs
        s = SWEEP_INIT_SCALE[k]
        init = (rng.uniform(-s, s, k), rng.uniform(-s, s, k),
                rng.uniform(-s, s, k), float(rng.uniform(-s, s)))
        net0 = rs.TwoLayerNet(*init)
        cfg = rs.TrainConfig(lam=FIGURE_LAMBDA, learning_rate=FIGURE_LR,
                             max_steps=SWEEP_STEPS)

        def call():
            res = rs.train(net0, self.dataset, cfg)
            f = rs.to_pwl(res.net)
            return res, f, rs.representation_cost(f).cost

        def check(out):
            res, f, cost = out
            final = _weights(res.net)
            ck.require(res.steps == SWEEP_STEPS and len(res.trace) == SWEEP_STEPS,
                       f"{res.steps} steps")
            ck.check_training(self.xs, self.ys, FIGURE_LAMBDA, init, final,
                              res.trace[0, 0])
            ck.check_function_cost(final[0], final[2], cost)
            ck.check_pwl_matches_net(_pwl(f), *final,
                                     _grid(f.breakpoints, 4.0, 801))

        return Op(f"sweep_k{k}_{j}", call, check)


# -- fit ---------------------------------------------------------------------

FIT_SIZES = range(4, 13)
FIT_LAMBDAS = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0)


def fit_dataset(rng, n):
    while True:
        xs = np.sort(rng.uniform(-5.0, 5.0, n))
        if np.min(np.diff(xs)) >= 1e-2:
            return xs, rng.uniform(-5.0, 5.0, n)


class Fit(Workload):
    """spline.regularized_fit, squared and absolute loss, n = 4..12."""

    name = "fit"

    def warm_up(self):
        rs = self.rs
        d = rs.Dataset(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)))
        rs.regularized_fit(d, "absolute", 0.5)

    def ops(self, index):
        rng = _round_rng(self.seed, index)
        out = []
        for n in FIT_SIZES:
            xs, ys = fit_dataset(rng, n)
            for j, loss in enumerate(("squared", "absolute")):
                # each loss meets every lambda of the grid across the sizes
                lam = FIT_LAMBDAS[(n + 3 * j) % len(FIT_LAMBDAS)]
                out.append(self._op(xs, ys, loss, lam))
        return out

    def _op(self, xs, ys, loss, lam):
        rs = self.rs
        d = rs.Dataset(tuple(zip(xs.tolist(), ys.tolist())))

        def call():
            return rs.regularized_fit(d, loss, lam)

        def check(res):
            ck.check_fit(xs, ys, loss, lam, _pwl(res.spline), res.cost)

        return Op(f"fit_{loss}_n{xs.size}", call, check)


# -- highdim -----------------------------------------------------------------

FLUX_SAMPLES = 1_000_000
FLUX_RADIUS = 1000.0
HESSIAN_SAMPLES = {3: 120, 5: 30}
CONTROL_SAMPLES = 40
BUMP_CALLS = 8


def _half_rho_squared(radii):
    return radii ** 2 / 2


class HighDim(Workload):
    """Bulk flux and Hessian-decay estimators, and scalar bump_eval calls."""

    name = "highdim"

    def warm_up(self):
        rs = self.rs
        measure = rs.AtomMeasureDD((((1.0, 0.0), 0.0, 1.0),), 0.0, 2)
        rs.laplacian_flux_estimate(measure, 10.0, 1000, seed=0)
        rs.hessian_decay_estimate(3, 4.0, 2, seed=0)
        rs.bump_eval(0.5, 3)

    def ops(self, index):
        rng = _round_rng(self.seed, index)
        out = [self._flux_op(rng)]
        for d in (3, 5):
            out.append(self._decay_op(rng, d))
            out.append(self._control_op(rng, d))
        below = rng.uniform(0.05, 0.95, BUMP_CALLS // 2)
        above = rng.uniform(1.05, 6.0, BUMP_CALLS // 2)
        for i, r in enumerate(np.concatenate((below, above))):
            out.append(self._bump_op(float(r), 3 + 2 * (i % 2)))
        return out

    def _flux_op(self, rng):
        rs = self.rs
        masses = rng.uniform(0.1, 1.0, 5)
        atoms = []
        for m in masses:
            w = rng.standard_normal(2)
            w /= np.linalg.norm(w)
            atoms.append((tuple(w.tolist()), float(rng.uniform(-1, 1)), float(m)))
        measure = rs.AtomMeasureDD(tuple(atoms), 0.0, 2)
        seed = int(rng.integers(2 ** 31))

        def call():
            return rs.laplacian_flux_estimate(measure, FLUX_RADIUS, FLUX_SAMPLES,
                                              seed=seed)

        def check(est):
            ck.check_flux(est.value, est.std_error, float(masses.sum()), 2,
                          FLUX_SAMPLES)

        return Op("flux_d2", call, check)

    def _decay_op(self, rng, d):
        rs = self.rs
        r = float(rng.uniform(6.0, 10.0))
        seed = int(rng.integers(2 ** 31))
        n = HESSIAN_SAMPLES[d]

        def call():
            return (rs.hessian_decay_estimate(d, r, n, seed=seed),
                    rs.hessian_decay_estimate(d, 2 * r, n, seed=seed))

        def check(out):
            ck.check_decay(out[0], out[1], d)

        return Op(f"hessian_d{d}", call, check)

    def _control_op(self, rng, d):
        rs = self.rs
        r = float(rng.uniform(6.0, 10.0))
        seed = int(rng.integers(2 ** 31))

        def call():
            return rs.hessian_decay_estimate(d, r, CONTROL_SAMPLES, seed=seed,
                                             radial_fn=_half_rho_squared)

        def check(value):
            ck.check_control(value, d, r)

        return Op(f"control_d{d}", call, check)

    def _bump_op(self, r, d):
        rs = self.rs

        def call():
            return rs.bump_eval(r, d)

        def check(value):
            ck.check_bump(value, r, d)

        return Op(f"bump_d{d}", call, check)


# -- algebra -----------------------------------------------------------------

NET_WIDTHS = (100, 200, 300, 400, 500)
NETS_PER_WIDTH = 4
INTERPOLANT_SIZES = (2000, 5000, 10000)
SPARSIFY_SHAPES = ((20, 60), (30, 120))  # (points N, subnets k)
SPARSIFY_DIM = 3
DEEP_NETS = ((3, 400, 8, 2), (4, 200, 6, 2))  # (L, subnets k, width m, d)
PARALLEL_EVAL_POINTS = 100


def random_deep_net(rng, L, k, m, d):
    subnets = []
    for _ in range(k):
        mats = [rng.standard_normal((m, d))]
        mats += [rng.standard_normal((m, m)) for _ in range(L - 3)]
        mats.append(rng.standard_normal((1, m)))
        subnets.append(tuple(mats))
    return subnets, rng.standard_normal(k)


class Algebra(Workload):
    """Exact conversions at scale: pwl, repcost, min-norm interpolants, deep."""

    name = "algebra"

    def warm_up(self):
        rng = np.random.default_rng(0)
        for op in (self._net_op(rng, 5), self._interpolant_op(rng, 10),
                   self._sparsify_op(rng, 3, 6, 2),
                   self._factor_op(rng, 3, 3, 2, 2),
                   self._parallel_eval_op(rng, 3, 3, 2, 2)):
            op.call()

    def ops(self, index):
        rng = _round_rng(self.seed, index)
        out = [self._net_op(rng, k) for k in NET_WIDTHS
               for _ in range(NETS_PER_WIDTH)]
        out += [self._interpolant_op(rng, n) for n in INTERPOLANT_SIZES]
        out += [self._sparsify_op(rng, n, k, SPARSIFY_DIM)
                for n, k in SPARSIFY_SHAPES]
        out += [self._factor_op(rng, *shape) for shape in DEEP_NETS]
        out.append(self._parallel_eval_op(rng, *DEEP_NETS[0]))
        return out

    def _net_op(self, rng, k):
        rs = self.rs
        weights = (rng.standard_normal(k), rng.standard_normal(k),
                   rng.standard_normal(k), float(rng.standard_normal()))
        net = rs.TwoLayerNet(*weights)
        grid = _grid(-weights[1] / weights[0])

        def call():
            f = rs.to_pwl(net)
            g = rs.canonicalize(f)
            cost = rs.representation_cost(g).cost
            alpha = rs.optimal_alpha(g)
            return (f, g, rs.pwl_eval(g, grid), cost, alpha,
                    rs.measure_eval(alpha, grid), rs.measure_to_pwl(alpha),
                    rs.measure_to_net(alpha))

        def check(out):
            f, g, g_values, cost, alpha, values, h, net3 = out
            ck.check_conversions(weights, _pwl(f), _pwl(g), g_values, cost,
                                 (alpha.atoms, alpha.c), values, _pwl(h),
                                 _weights(net3), grid)

        return Op(f"net_k{k}", call, check)

    def _interpolant_op(self, rng, n):
        rs = self.rs
        while True:
            xs = np.sort(rng.uniform(-10.0, 10.0, n))
            if np.min(np.diff(xs)) > 1e-9:
                break
        ys = np.cumsum(rng.standard_normal(n)) * 0.1
        d = rs.Dataset(tuple(zip(xs.tolist(), ys.tolist())))

        def call():
            return rs.min_norm_interpolant(d)

        def check(res):
            ck.check_interpolant(xs, ys, _pwl(res.spline), res.cost)

        return Op(f"interpolant_n{n}", call, check)

    def _sparsify_op(self, rng, n, k, dim):
        rs = self.rs
        rows = rng.standard_normal((k, dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        subnets = tuple((row[None, :],) for row in rows)
        alpha = rng.standard_normal(k)
        sphere = rs.SphereFactoredNet(subnets, alpha)
        X = rng.standard_normal((n, dim))

        def call():
            return rs.sparsify_support(sphere, X)

        def check(out):
            ck.check_sparsify(subnets, alpha, np.asarray(out.alpha), X)

        return Op(f"sparsify_n{n}_k{k}", call, check)

    def _factor_op(self, rng, L, k, m, d):
        rs = self.rs
        subnets, top = random_deep_net(rng, L, k, m, d)
        net = rs.ParallelDeepNet(tuple(subnets), top)
        X = rng.standard_normal((8, d))

        def call():
            s = rs.align_to_sphere(net)
            p = rs.from_alpha(s)
            return s, p, rs.cost_CL(p), rs.bridge_penalty(s.alpha, L)

        def check(out):
            s, p, cost, penalty = out
            ck.check_sphere_factoring((subnets, top), (s.subnets, s.alpha),
                                      (p.subnets, p.top), L, cost, penalty, X)

        return Op(f"factor_L{L}_k{k}", call, check)

    def _parallel_eval_op(self, rng, L, k, m, d):
        rs = self.rs
        subnets, top = random_deep_net(rng, L, k, m, d)
        net = rs.ParallelDeepNet(tuple(subnets), top)
        X = rng.standard_normal((PARALLEL_EVAL_POINTS, d))

        def call():
            return [rs.parallel_eval(net, x) for x in X]

        def check(values):
            ck.check_parallel_eval(values, subnets, top, X)

        return Op(f"parallel_eval_L{L}_k{k}", call, check)


WORKLOADS = {w.name: w for w in (Train, Fit, HighDim, Algebra)}
