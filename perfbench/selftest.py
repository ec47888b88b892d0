"""Tests of the benchmark's own checks and tracer.

Each check must pass on a real reluspline output and reject a deliberately
wrong one, so that no check passes vacuously.  Run from the repository root:

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), HERE]

import reluspline as rs  # noqa: E402

import checks as ck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def rejects(fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except ck.CheckFailed:
        return
    raise AssertionError(f"{fn.__name__} accepted a wrong output")


def _pwl(f):
    return f.breakpoints, f.slopes, f.anchor


def _weights(net):
    return net.w1, net.b1, net.w2, net.b2


def _figure():
    pts = workloads.figure_dataset_points()
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return rs.Dataset(tuple(map(tuple, pts))), xs, ys


def _trained(k=8, steps=300):
    d, xs, ys = _figure()
    cfg = rs.TrainConfig(lam=1e-3, learning_rate=1e-2, max_steps=steps, seed=3)
    net0 = rs.net_init(k, cfg)
    return d, xs, ys, net0, rs.train(net0, d, cfg)


def test_training_check():
    _, xs, ys, net0, res = _trained()
    first = res.trace[0, 0]
    ck.check_training(xs, ys, 1e-3, _weights(net0), _weights(res.net), first)
    rejects(ck.check_training, xs, ys, 1e-3, _weights(net0), _weights(res.net),
            first * (1 + 1e-9))
    rejects(ck.check_training, xs, ys, 1e-3, _weights(res.net),
            _weights(net0), res.trace[-1, 0])


def test_function_cost_check():
    _, _, _, _, res = _trained()
    net = res.net
    cost = rs.representation_cost(rs.to_pwl(net)).cost
    ck.check_function_cost(net.w1, net.w2, cost, rs.net_cost(net))
    rejects(ck.check_function_cost, net.w1, net.w2, cost * 1.001)
    rejects(ck.check_function_cost, net.w1, net.w2, cost,
            rs.net_cost(net) * 1.001)
    # a cost above C(theta): w1 = w2 = 1 gives C = 1 and function cost 1
    rejects(ck.check_function_cost, [1.0], [1.0], 1.5)


def test_pwl_matches_net_check():
    _, _, _, _, res = _trained()
    f = rs.to_pwl(res.net)
    grid = np.linspace(-4, 4, 401)
    ck.check_pwl_matches_net(_pwl(f), *_weights(res.net), grid)
    slopes = list(f.slopes)
    slopes[1] += 1e-6
    rejects(ck.check_pwl_matches_net, (f.breakpoints, slopes, f.anchor),
            *_weights(res.net), grid)


def test_figure_criterion_check():
    ck.check_figure_criterion(1.04, 1.08, 1.0)
    rejects(ck.check_figure_criterion, 1.06, 1.06, 1.0)
    rejects(ck.check_figure_criterion, 1.0, 1.06, 1.0)


def test_end_slope_optimum_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.normal(size=int(rng.integers(1, 8)))
        t = float(np.abs(np.diff(s)).sum())
        want = max(t, 0.5 * (t + abs(s[0] + s[-1])))
        assert abs(ck.end_slope_optimum(s) - want) <= 1e-9 * (1 + want)


def _fit_case(loss="absolute", lam=0.5, n=6, seed=4):
    xs, ys = workloads.fit_dataset(np.random.default_rng(seed), n)
    d = rs.Dataset(tuple(zip(xs, ys)))
    return xs, ys, d, rs.regularized_fit(d, loss, lam)


def test_fit_check_accepts_real_fits():
    for loss in ("squared", "absolute"):
        xs, ys, _, res = _fit_case(loss)
        obj, lp = ck.check_fit(xs, ys, loss, 0.5, _pwl(res.spline), res.cost)
        if loss == "absolute":
            assert obj >= lp - 1e-6 * (1 + lp)


def test_fit_check_rejects_fit_above_interpolant():
    xs, ys, d, _ = _fit_case()
    interp = rs.min_norm_interpolant(d)
    bp, slopes, (x0, y0) = _pwl(interp.spline)
    # the interpolant shifted up by 1: same cost, worse data fit
    rejects(ck.check_fit, xs, ys, "absolute", 0.5, (bp, slopes, (x0, y0 + 1)),
            interp.cost)


def test_fit_check_rejects_wrong_cost_and_breakpoints():
    xs, ys, _, res = _fit_case()
    rejects(ck.check_fit, xs, ys, "absolute", 0.5, _pwl(res.spline),
            res.cost * 1.01)
    bp = np.array(res.spline.breakpoints)
    bp[2] += 1e-3
    rejects(ck.check_fit, xs, ys, "absolute", 0.5,
            (bp, res.spline.slopes, res.spline.anchor), res.cost)


def test_fit_check_rejects_objective_below_lp():
    xs, ys, _, res = _fit_case()
    lp = ck.absolute_fit_optimum(xs, ys, 0.5)
    original = ck.absolute_fit_optimum
    ck.absolute_fit_optimum = lambda *a: lp + 1.0
    try:
        rejects(ck.check_fit, xs, ys, "absolute", 0.5, _pwl(res.spline),
                res.cost)
    finally:
        ck.absolute_fit_optimum = original


def test_absolute_fit_lp_is_a_minimum():
    xs, ys, d, res = _fit_case()
    lp = ck.absolute_fit_optimum(xs, ys, 0.5)
    rng = np.random.default_rng(1)
    for _ in range(50):
        yhat = ys + rng.normal(scale=0.5, size=ys.size)
        obj = ck.fit_objective(xs, ys, "absolute", 0.5, yhat,
                               ck.end_slope_optimum(ck.secants(xs, yhat)))
        assert obj >= lp - 1e-9
    obj = ck.fit_objective(xs, ys, "absolute", 0.5,
                           ck.pwl_values(*_pwl(res.spline), xs), res.cost)
    assert obj >= lp - 1e-9


def test_interpolant_check():
    rng = np.random.default_rng(2)
    xs = np.sort(rng.uniform(-10, 10, 300))
    ys = np.cumsum(rng.normal(size=300)) * 0.1
    res = rs.min_norm_interpolant(rs.Dataset(tuple(zip(xs, ys))))
    ck.check_interpolant(xs, ys, _pwl(res.spline), res.cost)
    rejects(ck.check_interpolant, xs, ys, _pwl(res.spline), res.cost * 1.001)
    moved = ys.copy()
    moved[100] += 1e-6
    rejects(ck.check_interpolant, xs, moved, _pwl(res.spline), res.cost)
    slopes = list(res.spline.slopes)
    slopes[0] -= 1.0  # a worse left end slope, cost reported consistently
    rejects(ck.check_interpolant, xs, ys, (res.spline.breakpoints, slopes,
                                           res.spline.anchor),
            ck.pwl_cost(slopes))


def _conversion_case(k=40, seed=5):
    rng = np.random.default_rng(seed)
    weights = (rng.normal(size=k), rng.normal(size=k), rng.normal(size=k), 0.3)
    net = rs.TwoLayerNet(*weights)
    f = rs.to_pwl(net)
    g = rs.canonicalize(f)
    cost = rs.representation_cost(g).cost
    alpha = rs.optimal_alpha(g)
    grid = np.linspace(-10, 10, 500)
    return [weights, _pwl(f), _pwl(g), rs.pwl_eval(g, grid), cost,
            (alpha.atoms, alpha.c), rs.measure_eval(alpha, grid),
            _pwl(rs.measure_to_pwl(alpha)), _weights(rs.measure_to_net(alpha)),
            grid]


def test_conversion_check():
    case = _conversion_case()
    ck.check_conversions(*case)
    atoms, c = case[5]
    heavier = [(w, b, m * 1.01) for w, b, m in atoms]
    for index, wrong in (
            (3, case[3] + 1e-6 * (1 + np.abs(case[3]).max())),
            (4, case[4] * 1.001),
            (5, (heavier, c)),
            (6, case[6] + 1e-6 * (1 + np.abs(case[6]).max())),
            (7, (case[7][0], case[7][1], (case[7][2][0], case[7][2][1] + 1e-3))),
            (8, (case[8][0], case[8][1], np.asarray(case[8][2]) * 1.001,
                 case[8][3]))):
        bad = list(case)
        bad[index] = wrong
        rejects(ck.check_conversions, *bad)


def _deep_case(L=3, k=12, m=4, d=2, seed=6):
    rng = np.random.default_rng(seed)
    subnets, top = workloads.random_deep_net(rng, L, k, m, d)
    net = rs.ParallelDeepNet(tuple(subnets), top)
    s = rs.align_to_sphere(net)
    p = rs.from_alpha(s)
    X = rng.normal(size=(6, d))
    return net, s, p, X


def test_sphere_factoring_check():
    net, s, p, X = _deep_case()
    args = [(net.subnets, net.top), (s.subnets, s.alpha), (p.subnets, p.top),
            3, rs.cost_CL(p), rs.bridge_penalty(s.alpha, 3), X]
    ck.check_sphere_factoring(*args)
    for index, wrong in ((1, (s.subnets, s.alpha * 1.01)),
                         (2, (p.subnets, p.top * 1.01)),
                         (4, args[4] * 1.001),
                         (5, args[5] * 1.001)):
        bad = list(args)
        bad[index] = wrong
        rejects(ck.check_sphere_factoring, *bad)


def test_sparsify_check():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(15, 3))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    subnets = tuple((r[None, :],) for r in rows)
    alpha = rng.normal(size=15)
    X = rng.normal(size=(5, 3))
    out = np.asarray(rs.sparsify_support(rs.SphereFactoredNet(subnets, alpha),
                                         X).alpha)
    ck.check_sparsify(subnets, alpha, out, X)
    rejects(ck.check_sparsify, subnets, alpha, alpha, X)  # too many active
    moved = out.copy()
    moved[np.flatnonzero(moved)[0]] *= 1.01
    rejects(ck.check_sparsify, subnets, alpha, moved, X)
    # same predictions and support size, but a larger l1 norm
    rejects(ck.check_sparsify, subnets, out, out * 3.0, X * 0.0)


def test_parallel_eval_check():
    net, _, _, X = _deep_case()
    values = [rs.parallel_eval(net, x) for x in X]
    ck.check_parallel_eval(values, net.subnets, net.top, X)
    rejects(ck.check_parallel_eval, np.array(values) + 1e-6, net.subnets,
            net.top, X)


def test_bump_reference_and_check():
    for d in (2, 3, 5):
        for r in (0.3, 0.9):
            # for r <= 1, tent(r cos t) = 1 - r|cos t|: a closed form
            want = ck.sphere_area(d) - 2 * r * ck.sphere_area(d - 1) / (d - 1)
            assert abs(ck.bump_reference(r, d) - want) <= 1e-12 * want
    for r, d in ((0.4, 3), (2.5, 5)):
        value = rs.bump_eval(r, d)
        ck.check_bump(value, r, d)
        rejects(ck.check_bump, value + 1e-6, r, d)


def test_flux_check():
    rng = np.random.default_rng(8)
    atoms = []
    for m in (0.4, 0.6, 1.0):
        w = rng.normal(size=2)
        w /= np.linalg.norm(w)
        atoms.append((tuple(w), float(rng.uniform(-1, 1)), m))
    measure = rs.AtomMeasureDD(tuple(atoms), 0.0, 2)
    n = 200_000
    est = rs.laplacian_flux_estimate(measure, 1000.0, n, seed=3)
    ck.check_flux(est.value, est.std_error, 2.0, 2, n)
    rejects(ck.check_flux, est.value * 1.1, est.std_error, 2.0, 2, n)
    rejects(ck.check_flux, est.value * 1.1, est.std_error * 100, 2.0, 2, n)
    rejects(ck.check_flux, est.value, 0.0, 2.0, 2, n)


def test_control_and_decay_checks():
    for d in (3, 5):
        value = rs.hessian_decay_estimate(d, 7.0, 10, seed=1,
                                          radial_fn=lambda r: r ** 2 / 2)
        ck.check_control(value, d, 7.0)
        rejects(ck.check_control, value * (1 + 1e-5), d, 7.0)
    a = rs.hessian_decay_estimate(3, 6.0, 20, seed=2)
    b = rs.hessian_decay_estimate(3, 12.0, 20, seed=2)
    ck.check_decay(a, b, 3)
    rejects(ck.check_decay, b, a, 3)
    rejects(ck.check_decay, a, a, 3)
    rejects(ck.check_decay, a, math.nan, 3)


def test_tracer_records_nested_spans_and_restores():
    import reluspline.cli  # noqa: F401

    original = rs.net2.to_pwl
    tracer = tracing.Tracer(rs)
    tracer.install()
    try:
        assert rs.to_pwl is rs.net2.to_pwl is not original
        net = rs.TwoLayerNet([1.0, -2.0], [0.5, 0.1], [1.0, 3.0], 0.0)
        rs.to_pwl(net)  # outside any benchmark span: not recorded
        assert tracer.spans == []
        with tracer.span("bench.op"):
            rs.to_pwl(net)
    finally:
        tracer.uninstall()
    assert rs.to_pwl is rs.net2.to_pwl is original
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["bench.op", "net2.to_pwl"]
    assert "pwl.from_jumps" in names and "pwl.canonicalize" in names
    from_jumps = names.index("pwl.from_jumps")
    assert tracer.spans[from_jumps].counts == {"n": 2}
    assert tracer.spans[names.index("pwl.canonicalize")].parent == from_jumps
    own = tracing.self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    assert abs(sum(own) - tracer.spans[0].duration) < 1e-9
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["net2.calls"][0] >= 2 and metrics["pwl.calls"][0] >= 2
    assert metrics["deep.calls"][0] == 0


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every failing test, then exit 1
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
