"""Finite 2-layer ReLU networks on the real line.

Evaluation, weight cost, per-unit rebalancing, conversion to the exact
piecewise-linear function a net implements, extraction of the atomic second
derivative, and deterministic full-batch gradient-descent training, whose
step is C (see ``_kernel``), so that training needs a C compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernel, pwl
from ._value import Value, check_integer, frozen
from .pwl import AtomList1D, PwlFunction


class DivergenceError(RuntimeError):
    """Raised when the training objective becomes non-finite."""


@dataclass(frozen=True, eq=False)
class TwoLayerNet(Value):
    """theta = (k, w1, b1, w2, b2) with scalar input and output."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float

    def __post_init__(self):
        for name in ("w1", "b1", "w2"):
            object.__setattr__(self, name, frozen(getattr(self, name)))
        object.__setattr__(self, "b2", float(self.b2))
        if not (self.w1.shape == self.b1.shape == self.w2.shape) or self.w1.ndim != 1:
            raise ValueError("w1, b1, w2 must be equal-length vectors")
        if not np.isfinite(np.concatenate((self.w1, self.b1, self.w2,
                                           [self.b2]))).all():
            raise ValueError("non-finite network weight")

    @property
    def k(self) -> int:
        return self.w1.size


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.0
    learning_rate: float = 1e-2
    max_steps: int = 10_000
    seed: int = 0
    init_scale: float = 0.5
    stop_grad_norm: float = 0.0

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be nonnegative and finite")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        check_integer(self.max_steps, "max_steps", 0)
        check_integer(self.seed, "seed", 0)
        if not 0 <= self.init_scale < np.inf:
            raise ValueError("init_scale must be nonnegative and finite")
        if not 0 <= self.stop_grad_norm < np.inf:
            raise ValueError("stop_grad_norm must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class TrainResult:
    """A training run; it holds a writable array, so ``==`` is identity."""

    net: TwoLayerNet
    # columns: objective, loss, cost; one row per completed step
    trace: np.ndarray = field(repr=False)
    # "max_steps", "grad_norm" (stop_grad_norm reached) or "zero_steps"
    stop_reason: str = "max_steps"

    @property
    def steps(self) -> int:
        return len(self.trace)


def net_eval(net: TwoLayerNet, x):
    """sum_i w2_i [w1_i x + b1_i]_+ + b2 at a scalar or array of points."""
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    pre = np.outer(xs, net.w1) + net.b1
    vals = np.maximum(pre, 0.0) @ net.w2 + net.b2
    return float(vals[0]) if scalar else vals


def net_cost(net: TwoLayerNet) -> float:
    """Half the squared Euclidean norm of the non-bias weights."""
    return 0.5 * float(np.sum(net.w2 ** 2) + np.sum(net.w1 ** 2))


def balance(net: TwoLayerNet) -> TwoLayerNet:
    """Rescale each unit so |w1_i| = |w2_i| without changing the function.

    Units with exactly one zero weight compute a constant absorbed nowhere,
    and are zeroed entirely.  The result has net_cost = sum_i |w1_i w2_i|
    of the input, which is never larger than the input cost.
    """
    w1, b1, w2 = np.array((net.w1, net.b1, net.w2))
    b2 = net.b2
    dead = (w1 == 0.0) != (w2 == 0.0)
    # a unit with w1 = 0 but w2 != 0 contributes the constant w2*[b1]_+
    b2 += float(np.sum(w2[w1 == 0.0] * np.maximum(b1[w1 == 0.0], 0.0)))
    w1[dead] = 0.0
    b1[dead] = 0.0
    w2[dead] = 0.0
    live = (w1 != 0.0) & (w2 != 0.0)
    c = np.sqrt(np.abs(w2[live]) / np.abs(w1[live]))
    w1[live] *= c
    b1[live] *= c
    w2[live] /= c
    return TwoLayerNet(w1, b1, w2, b2)


def normalize_first_layer(net: TwoLayerNet) -> TwoLayerNet:
    """Rescale each surviving unit so |w1_i| = 1; function unchanged."""
    bal = balance(net)
    w1, b1, w2 = np.array((bal.w1, bal.b1, bal.w2))
    live = w1 != 0.0
    a = np.abs(w1[live])
    w2[live] *= a
    b1[live] /= a
    w1[live] /= a
    return TwoLayerNet(w1, b1, w2, bal.b2)


def to_pwl(net: TwoLayerNet) -> PwlFunction:
    """Exact piecewise-linear function implemented by the net."""
    active = net.w1 != 0.0
    locs = -net.b1[active] / net.w1[active]
    jumps = net.w2[active] * np.abs(net.w1[active])
    anchor = (0.0, net_eval(net, 0.0))
    left_slope = float(np.sum(net.w2[net.w1 < 0.0] * net.w1[net.w1 < 0.0]))
    return pwl.from_jumps(left_slope, np.column_stack((locs, jumps)), anchor)


def extract_u(net: TwoLayerNet) -> AtomList1D:
    """Atomic second derivative read off the weights: mass w2_i |w1_i| at -b1_i/w1_i."""
    return pwl.second_derivative_measure(to_pwl(net))


def objective_and_grad(net: TwoLayerNet, dataset, lam: float):
    """Squared-loss objective sum_n (h(x_n)-y_n)^2 + lam*C(theta) and its gradient.

    The ReLU derivative at the kink is taken to be 0.  The lam term excludes
    the biases.  Both come from one training step at learning rate 1; the
    gradient is returned as a TwoLayerNet of the same shape.
    """
    trace, _, g, _ = _descend(_pack(net), dataset.xs, dataset.ys, lam, 1.0, 1,
                              0.0)
    return float(trace[0, 0]), _unpack(g, net.k)


def init(k: int, cfg: TrainConfig) -> TwoLayerNet:
    """Seeded uniform init in [-init_scale, init_scale] for all parameters."""
    rng = np.random.default_rng(cfg.seed)
    s = cfg.init_scale
    w1, b1, w2 = rng.uniform(-s, s, size=(3, check_integer(k, "k", 0)))
    return TwoLayerNet(w1, b1, w2, float(rng.uniform(-s, s)))


def _pack(net: TwoLayerNet) -> np.ndarray:
    return np.concatenate([net.b1, net.w1, net.w2, [net.b2]])


def _unpack(theta, k: int) -> TwoLayerNet:
    return TwoLayerNet(theta[k:2 * k], theta[:k], theta[2 * k:3 * k],
                       theta[3 * k])


def train(net0: TwoLayerNet, dataset, cfg: TrainConfig) -> TrainResult:
    """Plain full-batch gradient descent with constant step size.

    Deterministic given the config.  Stops at max_steps or once the gradient
    norm drops below stop_grad_norm, and says which in ``stop_reason``.
    Raises DivergenceError if the objective becomes non-finite.
    """
    k, theta = net0.k, _pack(net0)
    trace, done, _, reason = _descend(
        theta, dataset.xs, dataset.ys, cfg.lam, cfg.learning_rate,
        cfg.max_steps, cfg.stop_grad_norm)
    if done < cfg.max_steps:
        # a copy, so an early stop does not keep the max_steps buffer alive
        trace = trace[:done].copy()
    return TrainResult(_unpack(theta, k), trace, reason)


def _descend(theta, xs, ys, lam, lr, max_steps, stop):
    """``_kernel.descend``, decoded: the trace, the steps done, the gradient at
    the last iterate and the stop reason, or a DivergenceError."""
    status, trace, done, grad = _kernel.descend(theta, xs, ys, lam, lr,
                                                max_steps, stop)
    if status == 2:
        _, loss, cost = trace[done - 1]
        raise DivergenceError(
            f"objective became non-finite at step {done - 1} "
            f"(loss={float(loss)!r}, cost={float(cost)!r}); "
            "reduce the learning rate")
    reason = ("max_steps", "grad_norm")[status] if max_steps else "zero_steps"
    return trace, done, grad, reason
