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


def _stack_layers(subnets) -> tuple[np.ndarray, ...]:
    """Matrix j of every chain as one read-only (k, rows, cols) array;
    numpy rejects a layer whose shape differs between chains."""
    depths = {len(s) for s in subnets}
    if len(depths) > 1 or 0 in depths:
        raise ValueError("all subnets must have the same nonzero depth")
    layers = tuple(np.array(layer, dtype=float) for layer in zip(*subnets))
    if any(w.ndim != 3 for w in layers):
        raise ValueError("subnet matrices must be 2-D")
    shapes = [w.shape[1:] for w in layers]
    m = shapes[0][0] if shapes else 1
    # rows m, ..., m, 1, each matrix taking the m outputs of the one before
    if shapes and shapes[-1][0] != 1 or len(shapes) > 1 and shapes[1:] != (
            [(m, m)] * (len(shapes) - 2) + [(1, m)]):
        raise ValueError("subnet shapes must be m x d, m x m, ..., 1 x m")
    for w in layers:
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite weight matrix")
        w.setflags(write=False)
    return layers


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
        top = frozen(self.top)
        if top.ndim != 1 or top.size != len(self.subnets):
            raise ValueError("need one top coefficient per subnet")
        layers = _stack_layers(self.subnets)
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

    def __post_init__(self):
        super().__post_init__()
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
    containing a zero matrix computes zero and gets alpha = 0.
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
    alpha = np.where(dead, 0.0, np.ldexp(net.top * np.prod(frac, axis=0),
                                         exp.sum(axis=0)))
    return SphereFactoredNet(tuple(zip(*units)), alpha)


def from_alpha(s: SphereFactoredNet) -> ParallelDeepNet:
    """Spread |alpha_i|^(1/L) over every layer of subnet i.

    The resulting net computes the same function and its cost_CL equals
    bridge_penalty(alpha, L) exactly.
    """
    r = np.abs(s.alpha) ** (1.0 / s.depth)
    layers = [r[:, None, None] * w for w in s.layers]
    return ParallelDeepNet(tuple(zip(*layers)), np.sign(s.alpha) * r)


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
    """Deterministic unit vector in the null space of a wide block m.

    A zero column (a chain dead on every input) gives the unit vector on the
    first such column, which rounding cannot move.
    """
    dead = np.flatnonzero(~m.any(axis=0))
    if dead.size:
        return np.eye(m.shape[1])[dead[0]]
    # the last column of a complete QR of m.T is orthogonal to every row of m
    beta = np.linalg.qr(m.T, mode="complete")[0][:, -1]
    # sign by the largest entry: the first nonzero one may be rounding noise
    return -beta if beta[np.argmax(np.abs(beta))] < 0 else beta


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
    """
    phi = _chain_values(s.layers, X)
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
    return SphereFactoredNet(s.subnets, alpha)


def improving_direction(s: SphereFactoredNet, X):
    """A certified penalty-decreasing perturbation for depth at least 3.

    When more than N coefficients are active, returns (beta, rho) with beta
    the unoriented null vector of ``_walk_step``, spread over all chains,
    and rho small enough that alpha + rho*beta and alpha - rho*beta keep
    every active sign.  Strict concavity of |.|^(2/L) then makes the smaller
    of the two perturbed penalties strictly below the current one.  Returns
    None when N or fewer coefficients are active.
    """
    if s.depth < 3:
        raise ValueError("use sparsify_support for depth 2")
    step = _walk_step(s.alpha, _chain_values(s.layers, X))
    if step is None:
        return None
    sub, beta_sub = step
    nz = beta_sub != 0.0
    rho = 0.5 * float(np.min(np.abs(s.alpha[sub][nz]) / np.abs(beta_sub[nz])))
    beta = np.zeros(len(s.alpha))
    beta[sub] = beta_sub
    return beta, rho
