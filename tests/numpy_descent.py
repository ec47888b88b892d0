"""Oracles for the C kernel, ``_kernel.c``.

``reference_descent`` is the plain statement of the math: gradient descent
with the gradient written out, in numpy calls that sum in another order
than the kernel.  ``scalar_descend`` transcribes the kernel's training
loops in Python floats, which sum in the kernel's exact order, and
``ordered_flux`` does the same for the flux estimator's per-sample pass in
elementwise numpy, without BLAS.  ``philox_words`` lays a numpy Philox's
state out as the kernel's ``flux_draws`` reads it.
"""

import math

import numpy as np

from reluspline.highdim import _FLUX_BATCH, ball_volume, sphere_area


def reference_descent(net0, d, lam, lr, steps, stop=0.0):
    """Plain gradient descent with the gradient written out, one net at a time.

    Returns the trace rows (objective, loss, cost), the final weights and
    the gradient norm at each step.
    """
    w1, b1, w2, b2 = (np.array(net0.w1), np.array(net0.b1),
                      np.array(net0.w2), net0.b2)
    xs, ys = np.array(d.xs), np.array(d.ys)
    trace, norms = [], []
    for _ in range(steps):
        pre = np.outer(xs, w1) + b1
        act = np.maximum(pre, 0.0)
        r = act @ w2 + b2 - ys
        loss, cost = r @ r, 0.5 * (w1 @ w1 + w2 @ w2)
        trace.append((loss + lam * cost, loss, cost))
        back = (pre > 0.0) * r[:, None] * w2
        g1 = 2.0 * (back.T @ xs) + lam * w1
        gb1 = 2.0 * back.sum(axis=0)
        g2 = 2.0 * (act.T @ r) + lam * w2
        gb2 = 2.0 * r.sum()
        norm = np.sqrt(g1 @ g1 + gb1 @ gb1 + g2 @ g2 + gb2 * gb2)
        norms.append(norm)
        if stop > 0.0 and norm <= stop:
            break
        w1, b1, w2, b2 = w1 - lr * g1, b1 - lr * gb1, w2 - lr * g2, b2 - lr * gb2
    return (np.array(trace).reshape(-1, 3), (w1, b1, w2, np.array([b2])),
            np.array(norms))


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


def ordered_flux(source, r, n_samples, seed):
    """``laplacian_flux_estimate`` with the per-sample pass summed as the C
    kernel sums it: |g|^2 over coordinates in order, each projection over
    coordinates in order and the value over atoms in order from 0, all in
    elementwise numpy ops, which round each step as C does without fused
    multiply-add.  The draws and the batch sums are the estimator's.

    Returns the estimate's value and standard error.
    """
    d, w = source.d, source.directions()
    t = -source.biases() / r
    sm = sphere_area(d) / ball_volume(d - 1) * source.masses()
    rng = np.random.Generator(np.random.Philox(seed))
    total = total_sq = 0.0
    for done in range(0, n_samples, _FLUX_BATCH):
        g = rng.standard_normal((min(_FLUX_BATCH, n_samples - done), d))
        s = g[:, 0] * g[:, 0]
        for i in range(1, d):
            s = s + g[:, i] * g[:, i]
        u = g / np.sqrt(s)[:, None]
        vals = np.zeros(len(g))
        for a in range(len(w)):
            p = u[:, 0] * w[a, 0]
            for i in range(1, d):
                p = p + u[:, i] * w[a, i]
            vals = vals + np.where(p > t[a], p, 0.0) * sm[a]
        total += float(vals.sum())
        total_sq += float(vals @ vals)
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


def philox_words(philox):
    """A numpy Philox's state as ``flux_draws`` reads and advances it: the
    counter, key, buffer and buffer position in 11 uint64 words."""
    st = philox.state
    return np.array([*st["state"]["counter"], *st["state"]["key"],
                     *st["buffer"], st["buffer_pos"]], np.uint64)
