"""Depth-L parallel ReLU architectures and the bridge-penalty equivalence.

A parallel net sums k independent bias-free ReLU chains, each scaled by a
top coefficient.  By positive homogeneity each chain factors into unit-norm
matrices times a single coefficient alpha_i, the averaged squared-weight
cost of the best realization of alpha is sum |alpha_i|^(2/L), and any
coefficient vector with more than N active entries admits a perturbation
that preserves all N predictions without increasing that penalty.

Chains are evaluated batched: matrix j of every chain is stacked into one
(k, rows, cols) array, so all k chains at N points cost one matmul per layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._value import Value, check_integer, frozen

_UNIT_TOL = 1e-12


def _norms(w) -> np.ndarray:
    """Frobenius norm of each matrix in a stack, one dot product each.

    Each matrix is first divided by 2^e, e the exponent of its largest
    |entry|, so its sum of squares neither overflows nor vanishes; the
    scaling is exact.
    """
    v = w.reshape(len(w), -1)
    e = np.frexp(np.abs(v).max(axis=1, initial=0.0))[1]
    v = np.ldexp(v, -e[:, None])
    return np.ldexp(np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0]), e)


def _chain_values(layers, X) -> np.ndarray:
    """Every chain's value at every row of X, (N, k): one matmul per layer."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not layers:
        return np.zeros((X.shape[0], 0))
    k, m, d = layers[0].shape
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError("input dimension mismatch")
    z = np.maximum(layers[0].reshape(k * m, d) @ X.T, 0.0).reshape(k, m, -1)
    for w in layers[1:]:
        z = np.maximum(w @ z, 0.0)
    return z[:, 0, :].T


@dataclass(frozen=True, eq=False)
class ParallelDeepNet(Value):
    """k parallel chains of L-1 bias-free matrices plus top coefficients.

    ``subnets[i][j]`` is a read-only view of the stacked ``layers[j][i]``.
    """

    subnets: tuple[tuple[np.ndarray, ...], ...]
    top: np.ndarray
    layers: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        depths = {len(s) for s in self.subnets}
        if len(depths) > 1 or 0 in depths:
            raise ValueError("all subnets must have the same nonzero depth")
        self._init(zip(*self.subnets), self.top)

    @classmethod
    def _from_layers(cls, layers, top):
        """The net with chain i = (layers[0][i], layers[1][i], ...)."""
        net = object.__new__(cls)
        net._init(layers, top)
        return net

    def _init(self, layers, top):
        """Check and keep read-only copies of the stacks and the top."""
        top = frozen(top)
        layers = tuple(np.array(w, dtype=float) for w in layers)
        if any(w.ndim != 3 for w in layers):
            raise ValueError("subnet matrices must be 2-D")
        shapes = [w.shape for w in layers]
        k, m = shapes[0][:2] if shapes else (0, 1)
        # rows m, ..., m, 1, each matrix taking the m outputs of the one before
        if shapes and shapes[-1][1] != 1 or len(shapes) > 1 and shapes[1:] != (
                [(k, m, m)] * (len(shapes) - 2) + [(k, 1, m)]):
            raise ValueError("subnet shapes must be m x d, m x m, ..., 1 x m")
        for w in layers:
            if not np.all(np.isfinite(w)):
                raise ValueError("non-finite weight matrix")
            w.setflags(write=False)
        if top.ndim != 1 or top.size != k:
            raise ValueError("need one top coefficient per subnet")
        if not np.all(np.isfinite(top)):
            raise ValueError("non-finite top coefficient")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "subnets", tuple(zip(*layers)))
        object.__setattr__(self, "top", top)

    @property
    def k(self) -> int:
        return len(self.subnets)

    @property
    def depth(self) -> int:
        """Number of weight layers L, counting the top coefficients."""
        return len(self.layers) + 1 if self.layers else 2

    @property
    def input_dim(self) -> int:
        return self.layers[0].shape[2] if self.layers else 0


@dataclass(frozen=True, eq=False)
class SphereFactoredNet(ParallelDeepNet):
    """Parallel net with every matrix on the Frobenius unit sphere; its top
    coefficients are the alpha of the bridge penalty."""

    def _init(self, layers, top):
        super()._init(layers, top)
        for w in self.layers:
            if np.any(abs(_norms(w) - 1.0) > _UNIT_TOL):
                raise ValueError("subnet matrices must have unit Frobenius norm")

    alpha = property(lambda self: self.top, doc="Alias of top.")


def parallel_eval(net, x) -> float:
    """Sum over subnets of the top coefficient times the ReLU chain value."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("input dimension mismatch")
    return float(net.top @ _chain_values(net.layers, x)[0])


def cost_CL(net: ParallelDeepNet) -> float:
    """Squared weight norm averaged over the L layers; inf if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (float(net.top @ net.top)
                + sum(float(np.sum(w * w)) for w in net.layers)) / net.depth


def align_to_sphere(net: ParallelDeepNet) -> SphereFactoredNet:
    """Factor each chain into unit-norm matrices times one coefficient.

    Homogeneity of the ReLU chain keeps the function unchanged; a subnet
    containing a zero matrix computes zero and gets alpha = 0.  Raises
    ValueError if an alpha overflows.
    """
    norms = np.array([_norms(w) for w in net.layers])
    dead = np.any(norms == 0.0, axis=0)
    units = []
    for w, n in zip(net.layers, norms):
        unit = w / np.where(dead, 1.0, n)[:, None, None]
        unit[dead] = 0.0
        unit[dead, 0, 0] = 1.0
        units.append(unit)
    # top * prod(norms) with the exponents of the norms summed apart, so
    # that a product of huge norms cannot overflow before top scales it
    frac, exp = np.frexp(norms)
    with np.errstate(over="ignore"):
        alpha = np.where(dead, 0.0, np.ldexp(net.top * np.prod(frac, axis=0),
                                             exp.sum(axis=0)))
    if not np.isfinite(alpha).all():
        raise ValueError("sphere coefficient alpha overflows")
    return SphereFactoredNet._from_layers(units, alpha)


def from_alpha(s: SphereFactoredNet) -> ParallelDeepNet:
    """Spread |alpha_i|^(1/L) over every layer of subnet i.

    The resulting net computes the same function and its cost_CL equals
    bridge_penalty(alpha, L) exactly.
    """
    r = np.abs(s.alpha) ** (1.0 / s.depth)
    layers = [r[:, None, None] * w for w in s.layers]
    return ParallelDeepNet._from_layers(layers, np.sign(s.alpha) * r)


def bridge_penalty(alpha, L: int) -> float:
    """Sum of |alpha_i|^(2/L); the sparsity-inducing penalty equivalent to cost_CL."""
    check_integer(L, "depth", 2)
    a = np.asarray(alpha, dtype=float)
    return float(np.sum(np.abs(a) ** (2.0 / L)))


@dataclass(frozen=True)
class AlignmentReport:
    """Per-subnet spread of the squared layer norms (0 means perfectly aligned)."""

    deviations: tuple[float, ...]

    @property
    def max_deviation(self) -> float:
        """The largest deviation; NaN if any is NaN, which ``max`` can skip."""
        return float(np.max(self.deviations, initial=0.0))

    @property
    def aligned(self) -> bool:
        return self.max_deviation < 1e-10


def check_alignment(net: ParallelDeepNet) -> AlignmentReport:
    """Max - min of the per-layer squared norms within each subnet; inf or
    NaN where a square overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.array([np.sum(w * w, axis=(1, 2)) for w in net.layers]
                      + [net.top * net.top])
        return AlignmentReport(tuple(np.ptp(sq, axis=0).tolist()))


def _null_vector(m: np.ndarray) -> np.ndarray:
    """Deterministic unit vector in the null space of an N x (N+1) block m.

    A zero column (a chain dead on every input) gives the unit vector on the
    first such column, which rounding cannot move.  Else, for m = [A | a], it
    is [A^-1 a; -1] scaled, with an LU residual near eps |m| however
    ill-conditioned A is, or a complete QR's if that solve fails.
    """
    dead = np.flatnonzero(~m.any(axis=0))
    if dead.size:
        return np.eye(m.shape[1])[dead[0]]
    try:
        beta = np.append(np.linalg.solve(m[:, :-1], m[:, -1]), -1.0)
        if not np.isfinite(beta).all():
            raise np.linalg.LinAlgError("the solve overflows")
    except np.linalg.LinAlgError:
        beta = np.linalg.qr(m.T, mode="complete")[0][:, -1]
    # sign by the largest entry, as the first nonzero one may be rounding
    # noise; made +1, it also keeps the norm from overflowing
    beta /= beta[np.argmax(np.abs(beta))]
    return beta / np.linalg.norm(beta)


def _walk_values(s: SphereFactoredNet, X) -> np.ndarray:
    """Chain values at the rows of X; ValueError unless all are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _chain_values(s.layers, X)
    if not (np.isfinite(X).all() and np.isfinite(phi).all()):
        raise ValueError("non-finite input or chain value")
    return phi


def _walk_step(alpha, phi):
    """The first N+1 active chains and a null vector of the prediction map
    on them, or None once at most N chains are active."""
    sub = np.flatnonzero(alpha)[:len(phi) + 1]
    return (sub, _null_vector(phi[:, sub])) if sub.size > len(phi) else None


def sparsify_support(s: SphereFactoredNet, X) -> SphereFactoredNet:
    """Reduce the active coefficients to at most N without moving predictions
    or raising the bridge penalty.

    ``X`` holds the N inputs as rows.  Each step walks ``_walk_step``'s null
    vector beta to its nearest zero crossing, oriented so the penalty's
    slope sum sign(a_i) |a_i|^(2/L - 1) beta_i is not positive.  Each
    |a_i + t beta_i|^(2/L) is concave until it crosses zero, so the penalty
    stays under its tangent.  At L = 2 the weights are 1: the l1 walk.
    Raises ValueError if X or a chain's value at it is not finite.
    """
    phi = _walk_values(s, X)
    alpha = np.array(s.alpha)
    while (step := _walk_step(alpha, phi)) is not None:
        sub, beta = step
        a = alpha[sub]
        if float(np.sign(a) * np.abs(a) ** (2.0 / s.depth - 1.0) @ beta) > 0:
            beta = -beta
        crossing = np.full(beta.shape, np.inf)
        opposing = np.sign(beta) == -np.sign(a)
        crossing[opposing] = -a[opposing] / beta[opposing]
        t = crossing.min()
        alpha[sub] = a + t * beta
        alpha[sub[crossing <= t]] = 0.0
    return SphereFactoredNet._from_layers(s.layers, alpha)


def improving_direction(s: SphereFactoredNet, X):
    """A certified penalty-decreasing perturbation for depth at least 3.

    When more than N coefficients are active, returns (beta, rho) with beta
    the unoriented null vector of ``_walk_step``, spread over all chains,
    and rho small enough that alpha + rho*beta and alpha - rho*beta keep
    every active sign.  Strict concavity of |.|^(2/L) then makes the smaller
    of the two perturbed penalties strictly below the current one.  Returns
    None when N or fewer coefficients are active; X as in sparsify_support.
    """
    if s.depth < 3:
        raise ValueError("use sparsify_support for depth 2")
    step = _walk_step(s.alpha, _walk_values(s, X))
    if step is None:
        return None
    sub, beta_sub = step
    nz = beta_sub != 0.0
    rho = 0.5 * float(np.min(np.abs(s.alpha[sub][nz]) / np.abs(beta_sub[nz])))
    beta = np.zeros(len(s.alpha))
    beta[sub] = beta_sub
    return beta, rho
