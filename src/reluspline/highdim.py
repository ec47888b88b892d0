"""d-dimensional infinite-network functions from discrete measures.

Contains the atom-measure evaluator and gradient, a Monte-Carlo estimator
of the normalized Laplacian surface flux, the radial "bump" induced by the
uniform second-difference measure on the sphere (elementary for every
integer d, by a recurrence on the integral of (1-t^2)^m), and a Monte-Carlo
estimator, on the radial identity |H|_F = sqrt(h''^2 + (d-1) (h'/rho)^2),
showing its normalized Hessian mass vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._value import Value, check_integer, frozen

_UNIT_TOL = 1e-12
# Flux samples per batch.  Its temporaries (a 480 kB peak at d=2, 5 atoms)
# are reused from the heap; much larger batches are mapped afresh and
# page-fault on every batch.
_FLUX_BATCH = 4096
# Finite-difference step of the Hessian estimate.  Float cancellation in the
# second difference grows like eps / h^2, so it must not be much smaller.
_FD_STEP = 1e-2


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
        object.__setattr__(self, "d", check_integer(self.d, "dimension", 2))
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


def laplacian_flux_estimate(source: AtomMeasureDD, r: float, n_samples: int,
                            seed: int = 0) -> FluxEstimate:
    """Monte-Carlo surface flux (A_d / V_{d-1}) E_u <grad f(r u), u> of the
    function f of ``source``, u uniform on the unit sphere: the mean of
    (A_d / V_{d-1}) sum_k m_k 1[<u,w_k> > -b_k/r] <u,w_k>.  It estimates
    sum_k m_k (1 - t_k^2)^((d-1)/2), t_k = clip(-b_k/r, -1, 1), which for a
    nonnegative measure tends to its total mass as r grows."""
    if not 0 < r < np.inf:
        raise ValueError("radius must be positive and finite")
    check_integer(n_samples, "sample count", 2)
    check_integer(seed, "seed", 0)
    d = source.d
    w, b, m = source.directions(), source.biases(), source.masses()
    rng = np.random.Generator(np.random.Philox(seed))
    t, sm = -b / r, sphere_area(d) / ball_volume(d - 1) * m
    total = total_sq = 0.0
    done = 0
    while done < n_samples:
        batch = min(_FLUX_BATCH, n_samples - done)
        g = rng.standard_normal((batch, d))
        g /= np.sqrt(np.einsum("nd,nd->n", g, g))[:, None]
        proj = g @ w.T
        vals = (proj * (proj > t)) @ sm
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
        if x.ndim != 1 or x.size != d:
            raise ValueError("input dimension mismatch")
        r = float(np.hypot.reduce(x))  # no overflow at huge |x|
    check_integer(d, "dimension", 2)
    if not np.isfinite(r):
        raise ValueError("bump argument must be finite")
    return float(_bump_radial(r, d))


def hessian_decay_estimate(d: int, r: float, n_samples: int, seed: int = 0,
                           radial_fn=None) -> float:
    """Monte-Carlo estimate of (1/r^(d-1)) * integral of |Hessian|_F over the r-ball.

    Defaults to the radial bump; ``radial_fn`` (vectorized radius -> value)
    substitutes any other radial function, e.g. rho**2/2 as a non-decaying
    control whose exact value is ball_volume(d) * r * sqrt(d).

    A radial h(rho) has |Hessian|_F = sqrt(h''^2 + (d-1) (h'/rho)^2): h''
    along x and h'/rho across it.  One call of ``radial_fn`` on |rho-h|, rho
    and rho+h (the profile is even) gives both as central differences with
    step _FD_STEP.  Radii are stratified uniformly on [0, r], one per
    stratum of width r/n, and each is weighted by rho^(d-1), its share of
    the ball's volume; the weights are normalized, so a constant |Hessian|
    is reproduced exactly.  Sampling the ball uniformly instead leaves the
    thin shells near the origin and the unit sphere, where the bump's
    Hessian is largest, to rare draws.
    """
    check_integer(d, "dimension", 2)
    if not 2 < r < np.inf:
        raise ValueError("radius must exceed 2 and be finite")
    check_integer(n_samples, "sample count", 2)
    check_integer(seed, "seed", 0)
    if radial_fn is None:
        def radial_fn(radii):
            return _bump_radial(radii, d)
    rng = np.random.Generator(np.random.Philox(seed))
    rho = r * (np.arange(n_samples) + rng.random(n_samples)) / n_samples
    h = _FD_STEP
    lo, mid, hi = radial_fn(np.abs(rho + np.array([[-h], [0.0], [h]])))
    norms = np.hypot((lo - 2.0 * mid + hi) / (h * h),
                     np.sqrt(d - 1) * (hi - lo) / (2.0 * h * rho))
    # (1/r^(d-1)) * V_d r^d * weighted mean = V_d * r * weighted mean
    return float(ball_volume(d) * r
                 * np.average(norms, weights=rho ** (d - 1)))
