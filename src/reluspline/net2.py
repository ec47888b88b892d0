"""Finite 2-layer ReLU networks on the real line.

Evaluation, weight cost, per-unit rebalancing, conversion to the exact
piecewise-linear function a net implements, extraction of the atomic second
derivative, and deterministic full-batch gradient-descent training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import pwl
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
    k = net.k
    trace, _, g, _ = _descend(_pack(net), k, dataset.xs, dataset.ys, lam,
                              1.0, 1, 0.0)
    g[k:3 * k] += lam * np.concatenate([net.w1, net.w2])
    return float(trace[0, 0]), _unpack(g, k)


def init(k: int, cfg: TrainConfig) -> TwoLayerNet:
    """Seeded uniform init in [-init_scale, init_scale] for all parameters."""
    rng = np.random.default_rng(cfg.seed)
    s = cfg.init_scale
    w1, b1, w2 = rng.uniform(-s, s, size=(3, check_integer(k, "k", 0)))
    return TwoLayerNet(w1, b1, w2, float(rng.uniform(-s, s)))


def _pack(net: TwoLayerNet) -> np.ndarray:
    return np.concatenate([net.b1, net.w1, net.w2, [net.b2, -1.0]])


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
        theta, k, dataset.xs, dataset.ys, cfg.lam, cfg.learning_rate,
        cfg.max_steps, cfg.stop_grad_norm)
    if done < cfg.max_steps:
        # a copy, so an early stop does not keep the max_steps buffer alive
        trace = trace[:done].copy()
    return TrainResult(_unpack(theta, k), trace, reason)


def _descend(theta, k, xs, ys, lam, lr, max_steps, stop):
    """Gradient descent on theta = [b1 | w1 | w2 | b2 | -1], written back in place.

    Returns the trace, the steps done, lr times the loss gradient at the
    last iterate and the stop reason.  A step is ten numpy calls on
    preallocated buffers and no Python-float work, since call overhead,
    not arithmetic, is what a small net spends.  Arrays over units and
    samples are k x n, so elementwise calls run on contiguous rows.

    Scaling: the loop runs on phi = c theta with c = sqrt(2 lr).  Weight
    decay is linear and ReLU is positive-homogeneous, so once the constant
    rows of ``feats`` (ones and y) are scaled by c too, the residual dot
    gives 2 lr r directly, the first-layer step needs only the 1-D product
    x * 2 lr r, and phi <- keep * phi - c * step is the exact update.  The
    trailing entry of phi is -c.  The squared gradient-norm threshold is
    scaled by 2 lr; the residuals and weights are unscaled before the
    trace squares them, and phi and the step on return, with theta's
    trailing -1 left as it was.

    Blocks: bookkeeping is one reduction per block of B steps.  Step j of
    a block reads row j of ``hist`` and writes row j + 1.  Its residual
    goes to row j of ``res`` and x times it to row j + 1, which the next
    step overwrites, so rows j and j + 1 are the 2 x n factor of the
    first-layer step.  At the end of a block ``_fill_trace`` fills its
    trace rows and raises DivergenceError at the first non-finite
    objective, before a grad_norm stop inside the block is reported; the
    gradient-norm test itself is per step.  B = 2**15 // max(n, 3k + 2),
    clipped to [1, 128] and to max_steps, so B rows of ``hist`` or of
    ``res`` fill at most 256 KB unless a single row is larger.
    """
    n, size, c = xs.size, theta.size, math.sqrt(2.0 * lr)
    block = min(max(2 ** 15 // max(n, size), 1), 128, max_steps)
    hist = np.empty((block + 1, size))
    np.multiply(theta, c, out=hist[0])
    res = np.empty((block + 1, n))
    inputs = np.empty((2, n))
    inputs[0], inputs[1] = 1.0, xs
    feats = np.empty((k + 2, n))
    feats[k] = c
    np.multiply(ys, c, out=feats[k + 1])
    act, second_feats = feats[:k], feats[:k + 1]
    live = np.empty_like(act)
    live_t = live.T
    # c times lr times the loss gradient; the last entry stays 0
    step = np.zeros(size)
    step_first, step_second = step[:2 * k].reshape(2, k), step[2 * k:-1]
    # theta - lr * (grad loss + lam * w) = keep * theta - step
    shrink = np.zeros(size)
    shrink[k:3 * k] = lr * lam
    keep = 1.0 - shrink
    g = np.empty(size)
    limit = 2.0 * lr * (lr * stop) ** 2
    rows = [(j, hist[j, :2 * k].reshape(2, k).T, hist[j, 2 * k:],
             hist[j, 2 * k:3 * k], hist[j], hist[j + 1], res[j], res[j + 1],
             res[j:j + 2]) for j in range(block)]
    trace = np.empty((max_steps, 3))
    done, last = 0, hist[0]
    reason = "max_steps" if max_steps else "zero_steps"
    # locals and a 0-d zero: name lookups and scalar conversions cost a step
    maximum, sign, multiply, subtract = (np.maximum, np.sign, np.multiply,
                                         np.subtract)
    zero = np.zeros(())
    # overflow is the divergence signal, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        while done < max_steps:
            for (j, first_t, second, w2, th, th_next, r, xr,
                 rx) in rows[:max_steps - done]:
                first_t.dot(inputs, out=act)
                maximum(act, zero, out=act)
                second.dot(feats, out=r)
                multiply(xs, r, out=xr)
                sign(act, out=live)  # act >= 0: its sign is the ReLU derivative
                rx.dot(live_t, out=step_first)
                multiply(step_first, w2, out=step_first)
                second_feats.dot(r, out=step_second)
                if stop:
                    multiply(shrink, th, out=g)
                    g += step
                    if g.dot(g) <= limit:
                        reason = "grad_norm"
                        break
                multiply(th, keep, out=th_next)
                subtract(th_next, step, out=th_next)
            _fill_trace(trace[done:done + j + 1], res[:j + 1],
                        hist[:j + 1, k:3 * k], lam, lr, done)
            done += j + 1
            if reason == "grad_norm":
                last = th
                break
            hist[0] = th_next
    if done:
        np.divide(last[:-1], c, out=theta[:-1])
    return trace, done, step / c, reason


def _fill_trace(rows, res, weights, lam, lr, first):
    """Objective, loss and cost of a block's trace rows.

    ``res`` and ``weights`` hold the block's residuals and weights as the
    scaled loop keeps them.  Each is unscaled before it is squared, so a
    row overflows only where the unscaled one would.  Raises
    DivergenceError at the first row whose objective is not finite;
    ``first`` is the step of the block's first row.
    """
    obj, loss, cost = rows.T
    res /= 2.0 * lr
    np.einsum("ij,ij->i", res, res, out=loss)
    weights = weights / math.sqrt(2.0 * lr)
    np.einsum("ij,ij->i", weights, weights, out=cost)
    cost *= 0.5
    np.multiply(cost, lam, out=obj)
    obj += loss
    bad = np.flatnonzero(~np.isfinite(obj))
    if bad.size:
        i = bad[0]
        raise DivergenceError(
            f"objective became non-finite at step {first + i} "
            f"(loss={float(loss[i])!r}, cost={float(cost[i])!r}); "
            "reduce the learning rate")
