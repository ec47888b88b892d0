"""Two oracles for ``net2``'s C training kernel, ``_kernel.c``.

``_descend`` takes the same steps as the C kernel in numpy calls, which sum
in another order.  It runs on theta = [b1 | w1 | w2 | b2 | -1];
``descend`` packs a net that way and calls it.  ``scalar_descend`` takes
them in the scalar loops' own order, in Python floats.
"""

import math

import numpy as np

from reluspline.net2 import DivergenceError


def descend(net, xs, ys, lam, lr, max_steps, stop=0.0):
    """Run the oracle from ``net``; returns its theta = [b1 | w1 | w2 | b2],
    trace, step count and stop reason."""
    theta = np.concatenate([net.b1, net.w1, net.w2, [net.b2, -1.0]])
    trace, done, _, reason = _descend(theta, net.k, np.asarray(xs),
                                      np.asarray(ys), lam, lr, max_steps, stop)
    return theta[:-1], trace[:done], done, reason


def scalar_descend(theta, k, xs, ys, lam, lr, max_steps, stop=0.0):
    """The C kernel's loops transcribed in Python floats, which round as C
    doubles do without fused multiply-add: the residual of each point adds
    its units in order 0..k-1, and every other sum runs in index order too.

    Returns the C kernel's status (0 max_steps, 1 stop, 2 non-finite
    objective), the trace rows written, theta and the last gradient, both
    laid out as theta = [b1 | w1 | w2 | b2].
    """
    theta = [float(v) for v in theta]
    xs, ys = [float(v) for v in xs], [float(v) for v in ys]
    size, trace = 3 * k + 1, []
    grad = [0.0] * size
    for _ in range(max_steps):
        b1, w1, w2, b2 = (theta[:k], theta[k:2 * k], theta[2 * k:3 * k],
                          theta[3 * k])
        grad = [0.0] * size
        loss = cost = 0.0
        for x, y in zip(xs, ys):
            r = b2 - y
            for i in range(k):
                a = w1[i] * x + b1[i]
                r += w2[i] * (a if a > 0.0 else 0.0)
            r2 = 2.0 * r
            for i in range(k):
                a = w1[i] * x + b1[i]
                live_r2 = r2 if a > 0.0 else 0.0
                grad[i] += live_r2
                grad[k + i] += live_r2 * x
                grad[2 * k + i] += live_r2 * a
            grad[3 * k] += r2
            loss += r * r
        for v in theta[k:3 * k]:
            cost += v * v
        trace.append((loss + lam * (0.5 * cost), loss, 0.5 * cost))
        if not math.isfinite(trace[-1][0]):
            return 2, trace, theta, grad
        for i in range(k):
            grad[i] *= w2[i]
            grad[k + i] = w2[i] * grad[k + i] + lam * w1[i]
            grad[2 * k + i] += lam * w2[i]
        norm2 = 0.0
        for g in grad:
            norm2 += g * g
        if stop > 0.0 and math.sqrt(norm2) <= stop:
            return 1, trace, theta, grad
        theta = [v - lr * g for v, g in zip(theta, grad)]
    return 0, trace, theta, grad


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
