"""d-dimensional infinite-network functions from discrete measures.

Contains the atom-measure evaluator and gradient, a Monte-Carlo estimator
of the normalized Laplacian surface flux, the radial "bump" induced by the
uniform second-difference measure on the sphere (elementary for every
integer d, by a recurrence on the integral of (1-t^2)^m), and a Monte-Carlo
finite-difference estimator showing its normalized Hessian mass vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ._value import Value, frozen

_UNIT_TOL = 1e-12
# Flux samples per batch.  Each batch's temporaries (about 160 kB at d=2 with
# 5 atoms) stay small enough to be reused from the heap; batches many times
# larger are mapped afresh and page-fault on every batch.
_FLUX_BATCH = 4096
# Finite-difference step of the Hessian estimate.  Float cancellation in the
# second difference grows like eps / h^2, so it must not be much smaller.
_FD_STEP = 1e-2


def _check_dim(d) -> None:
    if not isinstance(d, Integral):
        raise ValueError("dimension must be an integer")
    if d < 2:
        raise ValueError("dimension must be at least 2")


def ball_volume(m: int) -> float:
    """Volume of the unit ball in m dimensions."""
    return float(np.pi ** (m / 2) / math.gamma(m / 2 + 1))


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere bounding the d-dimensional ball."""
    return float(2 * np.pi ** (d / 2) / math.gamma(d / 2))


@dataclass(frozen=True, eq=False)
class AtomMeasureDD(Value):
    """Discrete measure of ReLU atoms mass * [<w,x> + b]_+ with unit w.

    ``atoms`` holds one row (w_1, ..., w_d, b, mass) per atom; each atom may
    also be given as a triple (w, b, mass) with w a d-sequence.
    """

    atoms: np.ndarray
    c: float = 0.0
    d: int = 2

    def __post_init__(self):
        _check_dim(self.d)
        rows = [np.hstack(atom) for atom in self.atoms]
        if any(row.size != self.d + 2 for row in rows):
            raise ValueError("atom direction has wrong dimension")
        a = frozen(rows).reshape(len(rows), self.d + 2)
        c = float(self.c)
        if not (np.isfinite(a).all() and np.isfinite(c)):
            raise ValueError("non-finite atom direction, bias, mass or offset")
        if np.any(np.abs(np.linalg.norm(a[:, :-2], axis=1) - 1.0) > _UNIT_TOL):
            raise ValueError("atom directions must be unit vectors")
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", int(self.d))

    def directions(self) -> np.ndarray:
        return self.atoms[:, :-2]

    def biases(self) -> np.ndarray:
        return self.atoms[:, -2]

    def masses(self) -> np.ndarray:
        return self.atoms[:, -1]


def eval_dd(alpha: AtomMeasureDD, x) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (alpha.d,):
        raise ValueError("input dimension mismatch")
    pre = alpha.directions() @ x + alpha.biases()
    return float(alpha.masses() @ np.maximum(pre, 0.0) + alpha.c)


def grad_dd(alpha: AtomMeasureDD, x) -> np.ndarray:
    """Sum of mass * w over active atoms; exactly at a kink the atom contributes 0."""
    x = np.asarray(x, dtype=float)
    if x.shape != (alpha.d,):
        raise ValueError("input dimension mismatch")
    pre = alpha.directions() @ x + alpha.biases()
    act = (pre > 0.0).astype(float)
    return (alpha.masses() * act) @ alpha.directions()


@dataclass(frozen=True)
class FluxEstimate:
    value: float
    std_error: float


def _sphere_samples(rng, n: int, d: int) -> np.ndarray:
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def laplacian_flux_estimate(source: AtomMeasureDD, r: float, n_samples: int,
                            seed: int = 0) -> FluxEstimate:
    """Monte-Carlo surface flux (A_d / V_{d-1}) * E_u <grad f(r u), u> of the
    function f of the measure ``source``.  For a nonnegative measure the
    estimate converges to the total mass as r grows.
    """
    if not 0 < r < np.inf:
        raise ValueError("radius must be positive and finite")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    d = source.d
    w, b, m = source.directions(), source.biases(), source.masses()
    rng = np.random.Generator(np.random.Philox(seed))
    scale = sphere_area(d) / ball_volume(d - 1)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        batch = min(_FLUX_BATCH, n_samples - done)
        proj = _sphere_samples(rng, batch, d) @ w.T
        pre = r * proj + b
        vals = scale * np.einsum("nk,nk->n", (pre > 0.0) * m, proj)
        total += float(vals.sum())
        total_sq += float(vals @ vals)
        done += batch
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return FluxEstimate(mean, float(np.sqrt(var / n_samples)))


def _bump_radial(radii, d: int) -> np.ndarray:
    """Exact bump values h(r) at nonnegative radii, elementwise, numpy only.

    With a = 1/max(r, 1), q = 1 - a^2 and b = (d-1)/2,
    h(r) = area(S^{d-2}) * [ J_{b-1} - (2/(d-1)) * (r a) * a * G_b ],
    where J_m = int_{-a}^{a} (1-t^2)^m dt and G_c = (1 - q^c)/a^2.  Both
    climb from J_{-1/2} = 2 arcsin(a), G_{1/2} = 1/(1 + sqrt(q)) for even d,
    or J_0 = 2a, G_1 = 1 for odd d, by the integration by parts
    (2m+1) J_m = 2a q^m + 2m J_{m-1} and the geometric step
    G_{m+1} = G_m + q^m.  Their terms are all nonnegative, so neither loses
    precision near a = 1 or a = 0, and r^2, which overflows, is never formed.
    """
    r = np.asarray(radii, dtype=float)
    a = 1.0 / np.maximum(r, 1.0)
    q = (1.0 - a) * (1.0 + a)  # 1 - a^2 to full relative precision
    if d % 2:
        m, J, G, p = 0.0, 2.0 * a, 1.0, q
    else:
        p = np.sqrt(q)
        m, J, G = -0.5, 2.0 * np.arcsin(a), 1.0 / (1.0 + p)
    while m < (d - 3) / 2:  # here p = q^(m+1)
        m += 1.0
        J = (2.0 * a * p + 2.0 * m * J) / (2.0 * m + 1.0)
        G = G + p
        p = p * q
    return sphere_area(d - 1) * (J - (2.0 / (d - 1)) * (r * a) * a * G)


def bump_eval(x, d: int | None = None) -> float:
    """The radial bump h(x) = integral over unit directions w of tent(<w,x>),
    tent(z) = [z+1]_+ - 2[z]_+ + [z-1]_+ = max(0, 1 - |z|).

    ``x`` is a d-vector, or a radius when ``d`` is given.  The value is
    exact: with r = |x|, h(r) = A_d - 2r * area(S^{d-2}) / (d-1) for r <= 1,
    and for r > 1 the recurrence of ``_bump_radial`` in integer steps of
    the exponent m of (1-t^2)^m; it decays like area(S^{d-2}) / r.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        if d is None:
            raise ValueError("d is required for a radius argument")
        r = abs(float(x))
    else:
        d = x.size if d is None else d
        r = float(np.hypot.reduce(x.ravel()))  # no overflow at huge |x|
    _check_dim(d)
    if not np.isfinite(r):
        raise ValueError("bump argument must be finite")
    return float(_bump_radial(r, d))


def _fd_hessian_norms(radial, points: np.ndarray, h: float) -> np.ndarray:
    """Frobenius norms of central-difference Hessians of a radial function.

    One call to ``radial`` on the stacked stencil radii evaluates every
    sample point at once.  Stencil order: the centre, then +-h e_i for each
    axis i, then (+e_i+e_j, +e_i-e_j, -e_i+e_j, -e_i-e_j) for each pair i < j.
    """
    n, d = points.shape
    e = h * np.eye(d)
    i, j = np.triu_indices(d, 1)
    offsets = np.vstack([
        np.zeros((1, d)),
        np.stack([e, -e], axis=1).reshape(-1, d),
        np.stack([e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j]],
                 axis=1).reshape(-1, d)])
    radii = np.linalg.norm(points[:, None, :] + offsets[None, :, :], axis=2)
    vals = radial(radii)
    centre = vals[:, :1]
    diag = (vals[:, 1:1 + 2 * d:2] - 2.0 * centre
            + vals[:, 2:2 + 2 * d:2]) / (h * h)
    q = vals[:, 1 + 2 * d:].reshape(n, -1, 4)
    cross = (q[..., 0] - q[..., 1] - q[..., 2] + q[..., 3]) / (4.0 * h * h)
    # each off-diagonal entry appears twice in the symmetric Hessian
    return np.sqrt((diag ** 2).sum(axis=1) + 2.0 * (cross ** 2).sum(axis=1))


def hessian_decay_estimate(d: int, r: float, n_samples: int, seed: int = 0,
                           radial_fn=None) -> float:
    """Monte-Carlo estimate of (1/r^(d-1)) * integral of |Hessian|_F over the r-ball.

    Defaults to the radial bump; ``radial_fn`` (vectorized radius -> value)
    substitutes any other radial function, e.g. rho**2/2 as a non-decaying
    control whose exact value is ball_volume(d) * r * sqrt(d).

    Directions are uniform on the sphere.  Radii are stratified uniformly
    on [0, r], one per stratum of width r/n, and each point is weighted by
    rho^(d-1), its share of the ball's volume; the weights are normalized,
    so a constant |Hessian| is reproduced exactly.  Sampling the ball
    uniformly instead leaves the thin shells near the origin and the unit
    sphere, where the bump's Hessian is largest, to rare draws.
    """
    _check_dim(d)
    if not 2 < r < np.inf:
        raise ValueError("radius must exceed 2 and be finite")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if radial_fn is None:
        def radial_fn(radii):
            return _bump_radial(radii, d)
    rng = np.random.Generator(np.random.Philox(seed))
    u = _sphere_samples(rng, n_samples, d)
    radii = r * (np.arange(n_samples) + rng.random(n_samples)) / n_samples
    points = u * radii[:, None]
    norms = _fd_hessian_norms(radial_fn, points, _FD_STEP)
    # (1/r^(d-1)) * V_d r^d * weighted mean = V_d * r * weighted mean
    return float(ball_volume(d) * r
                 * np.average(norms, weights=radii ** (d - 1)))
