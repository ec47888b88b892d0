"""Spans around the public functions of reluspline's modules.

The tracer replaces every public function of each layer module, wherever
the package holds a reference to it (its own module, other modules that
imported it, the package's re-exports), with a wrapper that records a span:
name, start, end, parent and a few counts.  Nothing inside the program is
changed; uninstall() puts the original functions back.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

import numpy as np

LAYERS = ("pwl", "repcost", "spline", "net2", "deep", "highdim", "cli")


def _size(x) -> int:
    return int(np.size(x))


# Counts recorded with a span: fn(arguments, result) -> dict.  ``arguments``
# maps parameter names to the values passed (defaults not filled in).
_COUNTS = {
    "net2.train": lambda a, r: {"k": a["net0"].k, "steps": r.steps},
    "pwl.canonicalize": lambda a, r: {"n": len(a["f"].breakpoints)},
    "pwl.from_jumps": lambda a, r: {"n": len(a["atoms"])},
    "pwl.pwl_eval": lambda a, r: {"n": _size(a["x"])},
    "repcost.optimal_alpha": lambda a, r: {"n": len(r.atoms)},
    "repcost.measure_to_pwl": lambda a, r: {"n": len(a["alpha"].atoms)},
    "repcost.measure_eval": lambda a, r: {
        "n": _size(a["x"]) * len(a["alpha"].atoms)},
    "deep.align_to_sphere": lambda a, r: {"n": a["net"].k},
    "spline.regularized_fit": lambda a, r: {"loss": a["loss"]},
    "highdim.laplacian_flux_estimate": lambda a, r: {"n": a["n_samples"]},
    "highdim.hessian_decay_estimate": lambda a, r: {
        "n": a["n_samples"], "control": a.get("radial_fn") is not None},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, end, parent, counts):
        self.name, self.start, self.end = name, start, end
        self.parent, self.counts = parent, counts

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.counts]


class Tracer:
    """Records nested spans of reluspline calls made inside a benchmark span."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        namespaces = [self.package] + [getattr(self.package, l) for l in LAYERS]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, None))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counts = _COUNTS.get(name)
        signature = inspect.signature(fn)

        if counts is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not self._stack:
                    return fn(*args, **kwargs)
                idx = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
            return traced

        @functools.wraps(fn)
        def traced_counted(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            if name == "pwl.from_jumps":
                # an iterator can be read once; count it before the call
                bound.arguments["atoms"] = list(bound.arguments["atoms"])
            idx = self._open(name)
            result = None
            try:
                result = fn(*bound.args, **bound.kwargs)
                return result
            finally:
                self._close(idx)
                if result is not None:
                    self.spans[idx].counts = counts(bound.arguments, result)
        return traced_counted


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per round of the workload, from the recorded spans.

    A metric whose function was not called in the run reads 0.
    """
    own = self_times(spans)
    lib = [(s, t) for s, t in zip(spans, own) if s.layer in LAYERS]
    out: dict[str, tuple[float, str]] = {}

    def per(name, scale, unit, count="n", where=lambda c: True):
        total_t, total_n = 0.0, 0
        for s, _ in lib:
            if s.name == name and s.counts is not None and where(s.counts):
                total_t += s.duration
                total_n += s.counts[count] if count else 1
        return (total_t / total_n * scale if total_n else 0.0), unit

    def calls_of(name, scale, unit):
        spans_of = [s for s, _ in lib if s.name == name]
        total = sum(s.duration for s in spans_of)
        return (total / len(spans_of) * scale if spans_of else 0.0), unit

    out["net2.train.step_us.k20"] = per("net2.train", 1e6, "us", "steps",
                                        lambda c: c["k"] == 20)
    out["net2.train.step_us.k100"] = per("net2.train", 1e6, "us", "steps",
                                         lambda c: c["k"] == 100)
    steps = sum(s.counts["steps"] for s, _ in lib
                if s.name == "net2.train" and s.counts)
    out["net2.train.steps"] = (steps / rounds, "count")
    out["net2.to_pwl.call_us"] = calls_of("net2.to_pwl", 1e6, "us")
    for loss in ("squared", "absolute"):
        out[f"spline.regularized_fit.fit_ms.{loss}"] = per(
            "spline.regularized_fit", 1e3, "ms", None,
            lambda c, loss=loss: c["loss"] == loss)
    fits = sum(1 for s, _ in lib if s.name == "spline.regularized_fit")
    out["spline.regularized_fit.fits"] = (fits / rounds, "count")
    out["spline.min_norm_interpolant.call_us"] = calls_of(
        "spline.min_norm_interpolant", 1e6, "us")
    out["highdim.laplacian_flux_estimate.sample_ns"] = per(
        "highdim.laplacian_flux_estimate", 1e9, "ns")
    out["highdim.hessian_decay_estimate.point_us"] = per(
        "highdim.hessian_decay_estimate", 1e6, "us", "n",
        lambda c: not c["control"])
    out["highdim.bump_eval.call_ms"] = calls_of("highdim.bump_eval", 1e3, "ms")
    out["pwl.canonicalize.breakpoint_us"] = per("pwl.canonicalize", 1e6, "us")
    out["pwl.from_jumps.atom_us"] = per("pwl.from_jumps", 1e6, "us")
    out["pwl.pwl_eval.point_ns"] = per("pwl.pwl_eval", 1e9, "ns")
    out["repcost.optimal_alpha.atom_us"] = per("repcost.optimal_alpha", 1e6,
                                               "us")
    out["repcost.measure_to_pwl.atom_us"] = per("repcost.measure_to_pwl", 1e6,
                                                "us")
    out["repcost.measure_eval.point_atom_ns"] = per("repcost.measure_eval",
                                                    1e9, "ns")
    out["deep.sparsify_support.call_ms"] = calls_of("deep.sparsify_support",
                                                    1e3, "ms")
    out["deep.align_to_sphere.subnet_us"] = per("deep.align_to_sphere", 1e6,
                                                "us")
    out["deep.parallel_eval.call_us"] = calls_of("deep.parallel_eval", 1e6,
                                                 "us")
    for layer in LAYERS:
        mine = [(s, t) for s, t in lib if s.layer == layer]
        out[f"{layer}.self_s"] = (sum(t for _, t in mine) / rounds, "s")
        out[f"{layer}.calls"] = (len(mine) / rounds, "count")
    return out
