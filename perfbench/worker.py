"""One benchmark process: set up a workload, then run timed rounds of it.

Started by run.py from the root of a checkout, with the checkout's ``src``
on PYTHONPATH and the BLAS thread count pinned.  Prints ``READY`` once
reluspline is imported, round 0's inputs are made and every call has been
warmed up, then (unless --setup-only) ``RESULT <json>`` after the rounds.

Rounds run back to back, each call starting when the previous one returns
(a closed loop with one client), until the next round would end past
--seconds.  With --trace 1, untraced and traced rounds alternate: the
traced ones give the per-layer metrics, the difference of the two medians
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from probe import PROBE_REF_S, probe

# least stretch of calls, in seconds, between two probes of machine speed
PROBE_EVERY_S = 0.3


def _os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def run_round(ops, tracer=None):
    """Time each call, then check its output; returns the round's record.

    Call times are scaled to the probe's reference speed.  A probe runs
    before the first call and after every stretch of calls of at least
    PROBE_EVERY_S.  A stretch's calls are divided by the median of the two
    probes around it and the probe on each side of those, which damps a
    single probe slowed by an interrupt.
    """
    raw_wall, raw_cpu = [], []
    failed, wrong = 0, []
    probes = [probe()]
    stretches, stretch, pending = [], 0.0, []
    for i, op in enumerate(ops):
        t0, c0 = time.perf_counter(), time.process_time()
        out, ok = None, True
        try:
            if tracer is None:
                out = op.call()
            else:
                with tracer.span("bench." + op.name):
                    out = op.call()
        except Exception:  # a failed operation is counted, not fatal
            failed += 1
            ok = False
            traceback.print_exc()
        raw_wall.append(time.perf_counter() - t0)
        raw_cpu.append(time.process_time() - c0)
        pending.append(i)
        stretch += raw_wall[-1]
        if stretch >= PROBE_EVERY_S or i == len(ops) - 1:
            probes.append(probe())
            stretches.append(pending)
            stretch, pending = 0.0, []
        if not ok:
            continue
        try:
            op.check(out)
        except Exception as exc:  # any fault in the output fails the check
            wrong.append(f"{op.name}: {type(exc).__name__}: {exc}")
    for line in wrong:
        print(f"check failed: {line}", file=sys.stderr)
    wall, cpu = [0.0] * len(ops), [0.0] * len(ops)
    for k, calls in enumerate(stretches):
        near = probes[max(k - 1, 0):k + 3]
        ref_wall = PROBE_REF_S / statistics.median(p[0] for p in near)
        ref_cpu = PROBE_REF_S / statistics.median(p[1] for p in near)
        for j in calls:
            wall[j] = raw_wall[j] * ref_wall
            cpu[j] = raw_cpu[j] * ref_cpu
    return {"wall": wall, "cpu": cpu, "raw_wall": raw_wall, "failed": failed,
            "wrong": len(wrong)}


def round_time(records, key) -> float:
    """Sum over a round's calls of each call's median time across the rounds.

    Call i does the same amount of work in every round, on inputs drawn
    afresh for each round.
    """
    return sum(statistics.median(times)
               for times in zip(*(r[key] for r in records)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", required=True, help="directory for run output")
    args = p.parse_args(argv)

    import reluspline as rs
    import reluspline.cli  # noqa: F401  (the train workload calls the CLI)

    import workloads

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(rs.__file__).startswith(src + os.sep):
        print(f"reluspline imported from {rs.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(args.out, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, rs, workloads.WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, rs, workload_class, workdir) -> int:
    workload = workload_class(rs, args.seed, workdir)
    ops = workload.ops(0)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(rs)
    rounds = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            record = run_round(ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        rounds.append(record)
        index += 1
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - t0
        if elapsed + last > args.seconds and index >= (2 if tracer else 1):
            break
        ops = workload.ops(index)

    plain = [r for r in rounds if not r["traced"]]
    result = {
        "rounds": len(rounds),
        "attempted": sum(len(r["wall"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "correct": all(r["wrong"] == 0 for r in rounds),
        "run_s": round_time(plain, "wall"),
        "cpu_s": round_time(plain, "cpu"),
        "raw_run_s": round_time(plain, "raw_wall"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "os_threads": _os_threads(),
    }
    if tracer is not None:
        traced = [r for r in rounds if r["traced"]]
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        metrics["cli.bytes_written"] = (
            workload.bytes_written / len(rounds), "bytes")
        metrics["bench.trace_overhead_s"] = (
            round_time(traced, "wall") - result["run_s"], "s")
        result["per_layer"] = metrics
        spans_path = os.path.join(
            args.out, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "blas_threads": result["blas_threads"],
                       "spans": [s.to_list() for s in tracer.spans]}, fh)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
