"""Benchmark entry point: one run of one workload, result as JSON on the last line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads in turn, prints each one's
result line, and ends with one line holding all their metrics.

Run it from the root of a checkout; the program is imported from its
``src``.  Each run starts fresh worker processes (perfbench/worker.py) with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1.

--trace 0 prints the end-to-end metrics: setup_s is the median over
several processes of the time from process start to READY (reluspline
imported, inputs made, calls warmed up); run_s and cpu_s are the wall and
CPU time of one round of the workload's calls, each call's median over the
rounds; peak_rss_mb is the measuring process's peak resident memory.  All
times are scaled to the reference speed of probe.py.  --trace 1 prints the per-layer
metrics of a traced run instead and writes its spans under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from probe import PROBE_REF_S, probe

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train", "fit", "highdim", "algebra")
BLAS_THREADS = "1"
# processes that only set up, on top of the measuring one
SETUP_PROBES = 4
# a run must finish within 180 s; leave room to report
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"


class RunFailed(Exception):
    pass


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(workload, args, extra, env, root, deadline):
    """Start a worker; return its setup time and the RESULT it printed, if any."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(root, OUT_DIR)] + extra
    before = probe()[0]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root,
                            text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - start
                # scaled to the probe's reference speed, as the rounds are
                setup_s *= PROBE_REF_S / (0.5 * (before + probe()[0]))
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None or (result is None and not extra):
        raise RunFailed(f"worker exited with code {code}")
    return setup_s, result


def run_workload(workload, args, env, root) -> dict:
    """One run of one workload; returns the result object to print."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker(workload, args, ["--setup-only"], env, root,
                                  deadline)[0])
    setup_s, result = _worker(workload, args, [], env, root, deadline)
    setups.append(setup_s)
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "run_s": (result["run_s"], "s"),
                   "cpu_s": (result["cpu_s"], "s"),
                   "peak_rss_mb": (result["peak_rss_mb"], "MB")}
    print(f"# workload={workload} seed={args.seed} "
          f"rounds={result['rounds']} blas_threads={result['blas_threads']} "
          f"os_threads={result['os_threads']} "
          f"raw_run_s={result['raw_run_s']:.4f} setups="
          + ",".join(f"{s:.3f}" for s in setups))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all four in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reluspline", "__init__.py")):
        print("no src/reluspline here: run from the root of a reluspline "
              "checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    env = _env(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, env, root)
            print(json.dumps(results[name]), flush=True)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        # every workload's metrics, named <workload>.<metric>
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
