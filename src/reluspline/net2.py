"""Finite 2-layer ReLU networks on the real line.

Evaluation, weight cost, per-unit rebalancing, conversion to the exact
piecewise-linear function a net implements, extraction of the atomic second
derivative, and deterministic full-batch gradient-descent training.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import pwl
from .pwl import AtomList1D, PwlFunction


class DivergenceError(RuntimeError):
    """Raised when the training objective becomes non-finite."""


def _frozen_array(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TwoLayerNet:
    """theta = (k, w1, b1, w2, b2) with scalar input and output."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float

    def __post_init__(self):
        object.__setattr__(self, "w1", _frozen_array(self.w1))
        object.__setattr__(self, "b1", _frozen_array(self.b1))
        object.__setattr__(self, "w2", _frozen_array(self.w2))
        object.__setattr__(self, "b2", float(self.b2))
        if not (self.w1.shape == self.b1.shape == self.w2.shape) or self.w1.ndim != 1:
            raise ValueError("w1, b1, w2 must be equal-length vectors")
        if not (np.all(np.isfinite(self.w1)) and np.all(np.isfinite(self.b1))
                and np.all(np.isfinite(self.w2)) and np.isfinite(self.b2)):
            raise ValueError("non-finite network weight")

    @property
    def k(self) -> int:
        return self.w1.size

    def to_dict(self) -> dict:
        return {"w1": self.w1.tolist(), "b1": self.b1.tolist(),
                "w2": self.w2.tolist(), "b2": self.b2}

    @classmethod
    def from_dict(cls, d: dict) -> "TwoLayerNet":
        return cls(d["w1"], d["b1"], d["w2"], d["b2"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "TwoLayerNet":
        return cls.from_dict(json.loads(s))


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
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        if not 0 <= self.init_scale < np.inf:
            raise ValueError("init_scale must be nonnegative and finite")
        if not 0 <= self.stop_grad_norm < np.inf:
            raise ValueError("stop_grad_norm must be nonnegative and finite")


@dataclass(frozen=True)
class NetGrad:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.w1 ** 2) + np.sum(self.b1 ** 2)
                             + np.sum(self.w2 ** 2) + self.b2 ** 2))


@dataclass(frozen=True)
class TrainResult:
    net: TwoLayerNet
    # columns: objective, loss, cost; one row per completed step
    trace: np.ndarray = field(repr=False)
    steps: int = 0


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
    w1 = np.array(net.w1)
    b1 = np.array(net.b1)
    w2 = np.array(net.w2)
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
    w1 = np.array(bal.w1)
    b1 = np.array(bal.b1)
    w2 = np.array(bal.w2)
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
    the biases.
    """
    xs = np.array([p[0] for p in dataset.points])
    ys = np.array([p[1] for p in dataset.points])
    pre = np.outer(xs, net.w1) + net.b1
    act = np.maximum(pre, 0.0)
    resid = act @ net.w2 + net.b2 - ys
    loss = float(resid @ resid)
    value = loss + lam * net_cost(net)
    heavy = (pre > 0.0).astype(float)
    gw2 = 2.0 * (act.T @ resid) + lam * net.w2
    gb2 = 2.0 * float(resid.sum())
    back = heavy * resid[:, None] * net.w2
    gw1 = 2.0 * (back.T @ xs) + lam * net.w1
    gb1 = 2.0 * back.sum(axis=0)
    return value, NetGrad(gw1, gb1, gw2, gb2)


def init(k: int, cfg: TrainConfig) -> TwoLayerNet:
    """Seeded uniform init in [-init_scale, init_scale] for all parameters."""
    rng = np.random.default_rng(cfg.seed)
    s = cfg.init_scale
    def draw(n):
        return rng.uniform(-s, s, size=n)

    return TwoLayerNet(draw(k), draw(k), draw(k), float(rng.uniform(-s, s)))


def train(net0: TwoLayerNet, dataset, cfg: TrainConfig) -> TrainResult:
    """Plain full-batch gradient descent with constant step size.

    Deterministic given the config.  Stops at max_steps or once the gradient
    norm drops below stop_grad_norm.  Raises DivergenceError if the objective
    becomes non-finite.

    The step costs a dozen numpy calls on preallocated buffers, because call
    overhead, not arithmetic, is what a step of a small net spends.  All
    parameters live in one vector theta = [b1 | w1 | w2 | b2 | -1]:
    [b1; w1] is a 2 x k view, so the pre-activations are [1, x] @ [b1; w1];
    [w2 | b2 | -1] is contiguous, so the residuals are [act, 1, y] @ it; and
    [w1 | w2] is contiguous, so the weight cost is one dot product.  The
    trailing -1 has zero gradient and never changes.
    """
    xs = np.array([p[0] for p in dataset.points])
    ys = np.array([p[1] for p in dataset.points])
    n, k = xs.size, net0.k
    lam, lr, stop = cfg.lam, cfg.learning_rate, cfg.stop_grad_norm
    theta = np.concatenate([net0.b1, net0.w1, net0.w2, [net0.b2, -1.0]])
    first = theta[:2 * k].reshape(2, k)
    weights = theta[k:3 * k]
    w2 = theta[2 * k:3 * k]
    second = theta[2 * k:]
    inputs = np.stack([np.ones(n), xs], axis=1)
    feats = np.empty((n, k + 2))
    feats[:, k] = 1.0
    feats[:, k + 1] = ys
    act = feats[:, :k]
    inputs_t, second_feats_t = inputs.T, feats[:, :k + 1].T
    # half the gradient of the loss; the last entry stays 0
    half = np.zeros_like(theta)
    half_first = half[:2 * k].reshape(2, k)
    half_second = half[2 * k:-1]
    decay = np.zeros_like(theta)
    decay[k:3 * k] = lam
    # gradient descent with the lam term folded in:
    # theta - lr * (2 * half + decay * theta) = keep * theta - 2 lr * half
    keep = 1.0 - lr * decay
    pre = np.empty((n, k))
    live = np.empty((n, k), dtype=bool)
    masked = np.empty((n, k))
    resid = np.empty(n)
    resid_col = resid[:, None]
    tmp = np.empty_like(theta)
    trace = np.empty((cfg.max_steps, 3))
    done = 0
    # overflow is the divergence signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.max_steps):
            np.matmul(inputs, first, out=pre)
            np.maximum(pre, 0.0, out=act)
            np.matmul(feats, second, out=resid)
            loss = resid @ resid
            cost = 0.5 * (weights @ weights)
            obj = loss + lam * cost
            if not math.isfinite(obj):
                raise DivergenceError(
                    f"objective became non-finite at step {step} "
                    f"(loss={loss!r}, cost={cost!r}); reduce the learning rate")
            trace[step] = (obj, loss, cost)
            done = step + 1
            # d loss / d pre = 2 * resid * w2 where pre > 0; w2 scales
            # columns, so it is applied after the reduction over samples
            np.greater(pre, 0.0, out=live)
            np.multiply(live, resid_col, out=masked)
            np.matmul(inputs_t, masked, out=half_first)
            half_first *= w2
            np.matmul(second_feats_t, resid, out=half_second)
            if stop > 0.0:
                np.multiply(decay, theta, out=tmp)
                tmp += 2.0 * half
                if tmp @ tmp <= stop * stop:
                    break
            theta *= keep
            np.multiply(half, 2.0 * lr, out=tmp)
            theta -= tmp
    return TrainResult(TwoLayerNet(theta[k:2 * k], theta[:k], w2,
                                   theta[3 * k]), trace[:done], done)
