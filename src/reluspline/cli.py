"""Command-line drivers: cost reports, interpolation, training runs, sweeps.

Exit codes: 0 success, 1 usage error, 2 validation or oracle failure or
a result that is not a finite number, 3 numerical divergence.  ``train2``
and ``highdim`` need a C compiler: they train, estimate the flux or write
CSVs in C (see ``_kernel``).  ``interp`` interpolates in numpy and, like the
other commands, needs none; ``spline.regularized_fit``, which no command
calls, needs one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import _kernel, deep, highdim, net2, repcost, spline
from ._value import check_integer
from .net2 import DivergenceError
from .pwl import PwlFunction, pwl_eval

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load(cls, path: str, what: str):
    """``cls.from_dict`` of the JSON file at ``path``; ``what`` names the
    file kind in the error message."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return cls.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid {what} file: {exc}") from exc


def _emit(payload, path: str | None):
    """Write ``payload`` as strict JSON; NaN or inf raises before any write."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"a result is not a finite number ({exc})") from None
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_repcost(args):
    f = _load(PwlFunction, args.pwl, "piecewise-linear")
    _emit(repcost.representation_cost(f).to_dict(), args.output)
    return 0


def _cmd_interp(args):
    d = _load(spline.Dataset, args.dataset, "dataset")
    res = spline.min_norm_interpolant(d)
    payload = {
        "spline": res.spline.to_dict(),
        "cost": res.cost,
        "end_slopes": list(res.end_slopes),
    }
    if args.grid_oracle and d.n >= 2:
        oracle = spline.grid_oracle_end_slopes(spline.interior_slopes(d))
        payload["oracle_value"] = oracle[2]
        if abs(oracle[2] - res.cost) > 1e-9:
            _emit(payload, args.output)
            raise ValueError(
                f"solver value {res.cost} disagrees with oracle {oracle[2]}")
    if args.trace_grid:
        xs = np.linspace(d.xs.min() - 1.0, d.xs.max() + 1.0, args.trace_grid)
        payload["trace"] = np.column_stack((xs, pwl_eval(res.spline, xs))).tolist()
    _emit(payload, args.output)
    return 0


def _cmd_train2(args):
    d = _load(spline.Dataset, args.dataset, "dataset")
    cfg = net2.TrainConfig(lam=args.lam, learning_rate=args.lr,
                           max_steps=args.steps, seed=args.seed,
                           init_scale=args.init_scale)
    net0 = net2.init(args.k, cfg)
    result = net2.train(net0, d, cfg)
    net = result.net
    f = net2.to_pwl(net)
    cost = net2.net_cost(net)
    rbar = repcost.representation_cost(f).cost
    interp = spline.min_norm_interpolant(d)
    optimum = interp.cost
    prefix = args.prefix or "train2"
    with open(f"{prefix}_net.json", "w") as fh:
        fh.write(net.to_json() + "\n")
    _kernel.write_csv(f"{prefix}_trace.csv", ["step", "objective", "loss", "cost"],
                      result.trace, numbered=True)
    xs = np.linspace(d.xs.min() - 1.0, d.xs.max() + 1.0, 512)
    _kernel.write_csv(f"{prefix}_grid.csv", ["x", "net", "spline"],
                      np.column_stack((xs, net2.net_eval(net, xs),
                                       pwl_eval(interp.spline, xs))))
    summary = {
        "steps": result.steps,
        "stop_reason": result.stop_reason,
        "final_loss": float(result.trace[-1, 1]) if result.steps else None,
        "net_cost": cost,
        "function_cost": rbar,
        "interpolation_optimum": optimum,
        "cost_over_function_cost": cost / rbar if rbar else None,
        "function_cost_over_optimum": rbar / optimum if optimum else None,
        "files": [f"{prefix}_net.json", f"{prefix}_trace.csv",
                  f"{prefix}_grid.csv"],
    }
    _emit(summary, args.output)
    return 0


def _cmd_extract(args):
    net = _load(net2.TwoLayerNet, args.net, "net")
    _emit(net2.extract_u(net).to_dict(), args.output)
    return 0


def _random_deep_net(L, m, k, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    # at L = 2 an (m, 1) draw is dropped, so seeded nets stay as they were
    shapes = [(m, 1)] + [(m, m)] * (L - 3) + [(1, m) if L >= 3 else (1, 1)]
    subnets = tuple(tuple([rng.standard_normal(s) for s in shapes][1 - L:])
                    for _ in range(k))
    return deep.ParallelDeepNet(subnets, rng.standard_normal(k))


def _cmd_depth(args):
    if args.net:
        net = _load(deep.ParallelDeepNet, args.net, "deep-net")
    elif args.random:
        net = _random_deep_net(*map(check_integer, args.random, (
            "depth", "width", "subnet count", "seed"), (2, 1, 1, 0)))
    else:
        raise ValueError("provide a net file or --random L m k seed")
    s = deep.align_to_sphere(net)
    report = deep.check_alignment(net)
    realigned = deep.from_alpha(s)
    _emit({
        "depth": net.depth,
        "subnets": net.k,
        "cost_CL": deep.cost_CL(net),
        "bridge_penalty": deep.bridge_penalty(s.alpha, net.depth),
        "cost_CL_realigned": deep.cost_CL(realigned),
        "max_alignment_deviation": report.max_deviation,
        "aligned": report.aligned,
        "alpha": s.alpha.tolist(),
    }, args.output)
    return 0


def _cmd_highdim(args):
    radii = [float(r) for r in args.r_sweep.split(",")]
    seeds = np.random.SeedSequence(check_integer(args.seed, "seed", 0)).spawn(
        len(radii))
    rows = []
    if args.claim == "laplacian":
        e1 = tuple([1.0] + [0.0] * (args.d - 1))
        ne1 = tuple([-1.0] + [0.0] * (args.d - 1))
        measure = highdim.AtomMeasureDD(
            ((e1, 0.0, 1.0), (ne1, 0.0, 1.0)), 0.0, args.d)
        for r, ss in zip(radii, seeds):
            est = highdim.laplacian_flux_estimate(
                measure, r, args.samples, seed=ss.generate_state(1)[0])
            rows.append([r, est.value, est.std_error])
    else:
        for r, ss in zip(radii, seeds):
            est = highdim.hessian_decay_estimate(
                args.d, r, args.samples, seed=ss.generate_state(1)[0])
            rows.append([r, est, 0.0])
    out = args.output or f"highdim_{args.claim}.csv"
    _kernel.write_csv(out, ["r", "estimate", "std_error"], rows)
    print(out)
    return 0


@functools.cache  # once per process: building costs about 20 parses
def build_parser() -> _Parser:
    p = _Parser(prog="reluspline",
                description="Representation cost, spline interpolation and "
                            "training experiments for ReLU networks")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("repcost", help="cost report for a piecewise-linear file")
    sp.add_argument("pwl")
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_repcost)

    sp = sub.add_parser("interp", help="minimum-cost interpolation of a dataset")
    sp.add_argument("dataset")
    sp.add_argument("--grid-oracle", action="store_true",
                    help="cross-check the end slopes against a grid search")
    sp.add_argument("--trace-grid", type=int, default=0,
                    help="also sample the spline on this many grid points")
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_interp)

    sp = sub.add_parser("train2", help="train a 2-layer net and compare costs")
    sp.add_argument("dataset")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=1e-5)
    sp.add_argument("--steps", type=int, default=10_000)
    sp.add_argument("--lr", type=float, default=1e-2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--init-scale", type=float, default=0.5)
    sp.add_argument("--prefix", help="basename for emitted net/trace/grid files")
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_train2)

    sp = sub.add_parser("extract", help="atomic second derivative of a net")
    sp.add_argument("net")
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_extract)

    sp = sub.add_parser("depth", help="alignment and bridge-penalty report")
    sp.add_argument("net", nargs="?")
    sp.add_argument("--random", nargs=4, type=int, metavar=("L", "M", "K", "SEED"))
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_depth)

    sp = sub.add_parser("highdim", help="Monte-Carlo sweeps in d dimensions")
    sp.add_argument("--claim", choices=("laplacian", "bump-decay"),
                    required=True)
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--r-sweep", default="5,10,20")
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_highdim)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
