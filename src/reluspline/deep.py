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

import json
from dataclasses import dataclass, field

import numpy as np

_UNIT_TOL = 1e-12


def _check_chain(shapes, depth, first):
    """Shapes m x d, then m x m repeated, then 1 x m (single 1 x d when L=2)."""
    m, d = first
    if len(shapes) != depth:
        raise ValueError("all subnets must have the same depth")
    if depth == 1 and shapes[0][0] != 1:
        raise ValueError("single-matrix subnet must have one output row")
    if depth > 1 and shapes[0] != first:
        raise ValueError(f"first matrix must be {m}x{d}")
    if any(shape != (m, m) for shape in shapes[1:-1]):
        raise ValueError(f"middle matrices must be {m}x{m}")
    if depth > 1 and shapes[-1] != (1, m):
        raise ValueError(f"last matrix must be 1x{m}")
    if shapes[0] != first:
        raise ValueError("inconsistent first-layer shape")


def _stack_layers(subnets) -> tuple[np.ndarray, ...]:
    """Matrix j of every chain as one read-only (k, rows, cols) array."""
    chains = [tuple(np.atleast_2d(np.asarray(w, dtype=float)) for w in s)
              for s in subnets]
    # each distinct shape pattern once, in order of first appearance
    for shapes in dict.fromkeys(tuple(w.shape for w in s) for s in chains):
        _check_chain(shapes, len(chains[0]), chains[0][0].shape)
    layers = tuple(np.stack(layer) for layer in zip(*chains))
    for w in layers:
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite weight matrix")
        w.setflags(write=False)
    return layers


def _norms(w) -> np.ndarray:
    """Frobenius norm of each matrix in a stack, one dot product each."""
    v = w.reshape(len(w), -1)
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _chain_values(layers, X) -> np.ndarray:
    """Every chain's value at every row of X, (N, k): one matmul per layer."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not layers:
        return np.zeros((X.shape[0], 0))
    k, m, d = layers[0].shape
    z = np.maximum(layers[0].reshape(k * m, d) @ X.T, 0.0).reshape(k, m, -1)
    for w in layers[1:]:
        z = np.maximum(w @ z, 0.0)
    return z[:, 0, :].T


class _Chains:
    """Shape queries shared by the two net types, read off the layer stacks."""

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


@dataclass(frozen=True)
class ParallelDeepNet(_Chains):
    """k parallel chains of L-1 bias-free matrices plus top coefficients.

    ``subnets[i][j]`` is a read-only view of the stacked ``layers[j][i]``.
    """

    subnets: tuple[tuple[np.ndarray, ...], ...]
    top: np.ndarray
    layers: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        top = np.asarray(self.top, dtype=float)
        if top.ndim != 1 or top.size != len(self.subnets):
            raise ValueError("need one top coefficient per subnet")
        layers = _stack_layers(self.subnets)
        if not np.all(np.isfinite(top)):
            raise ValueError("non-finite top coefficient")
        top.setflags(write=False)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "subnets", tuple(zip(*layers)))
        object.__setattr__(self, "top", top)

    def to_dict(self) -> dict:
        return {"subnets": [[w.tolist() for w in s] for s in self.subnets],
                "top": self.top.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ParallelDeepNet":
        return cls(tuple(tuple(w for w in s) for s in d["subnets"]), d["top"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "ParallelDeepNet":
        return cls.from_dict(json.loads(s))


@dataclass(frozen=True)
class SphereFactoredNet(_Chains):
    """Parallel net with every matrix on the Frobenius unit sphere."""

    subnets: tuple[tuple[np.ndarray, ...], ...]
    alpha: np.ndarray
    layers: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        base = ParallelDeepNet(self.subnets, self.alpha)
        for w in base.layers:
            if np.any(abs(_norms(w) - 1.0) > _UNIT_TOL):
                raise ValueError("subnet matrices must have unit Frobenius norm")
        object.__setattr__(self, "layers", base.layers)
        object.__setattr__(self, "subnets", base.subnets)
        object.__setattr__(self, "alpha", base.top)

    top = property(lambda self: self.alpha, doc="Alias of alpha.")


def parallel_eval(net, x) -> float:
    """Sum over subnets of the top coefficient times the ReLU chain value."""
    x = np.asarray(x, dtype=float)
    if net.layers and x.shape != (net.input_dim,):
        raise ValueError("input dimension mismatch")
    return float(net.top @ _chain_values(net.layers, x)[0])


def cost_CL(net: ParallelDeepNet) -> float:
    """Squared weight norm averaged over the L layers."""
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
    alpha = np.where(dead, 0.0, net.top * np.prod(norms, axis=0))
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
    if L < 2:
        raise ValueError("depth must be at least 2")
    a = np.asarray(alpha, dtype=float)
    return float(np.sum(np.abs(a) ** (2.0 / L)))


@dataclass(frozen=True)
class AlignmentReport:
    """Per-subnet spread of the squared layer norms (0 means perfectly aligned)."""

    deviations: tuple[float, ...]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations, default=0.0)

    @property
    def aligned(self) -> bool:
        return self.max_deviation < 1e-10


def check_alignment(net: ParallelDeepNet) -> AlignmentReport:
    """Max - min of the per-layer squared norms within each subnet."""
    sq = np.array([np.sum(w * w, axis=(1, 2)) for w in net.layers]
                  + [net.top * net.top])
    return AlignmentReport(tuple((sq.max(axis=0) - sq.min(axis=0)).tolist()))


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


def sparsify_support(s: SphereFactoredNet, X) -> SphereFactoredNet:
    """Reduce the active coefficients to at most N without moving predictions.

    ``X`` holds the N inputs as rows.  Requires depth 2, where the penalty
    is the l1 norm.  Each step walks a null vector of the prediction map on
    the first N+1 active chains to its nearest zero crossing, in whichever
    direction does not increase the norm.
    """
    if s.depth != 2:
        raise ValueError("support sparsification implemented for depth 2 only")
    phi = _chain_values(s.layers, X)
    n = phi.shape[0]
    alpha = np.array(s.alpha)
    while True:
        active = np.flatnonzero(alpha)
        if active.size <= n:
            break
        sub = active[:n + 1]
        a = alpha[sub]
        beta = _null_vector(phi[:, sub])
        if float(np.sign(a) @ beta) > 0:
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
    in the null space of the prediction map on the first N+1 active subnets
    and rho small enough that alpha + rho*beta and alpha - rho*beta keep
    every active sign.  Strict concavity of |.|^(2/L) then makes the smaller
    of the two perturbed penalties strictly below the current one.  Returns
    None when N or fewer coefficients are active.
    """
    if s.depth < 3:
        raise ValueError("use sparsify_support for depth 2")
    phi = _chain_values(s.layers, X)
    n = phi.shape[0]
    active = np.flatnonzero(s.alpha)
    if active.size <= n:
        return None
    sub = active[:n + 1]
    beta_sub = _null_vector(phi[:, sub])
    nz = beta_sub != 0.0
    rho = 0.5 * float(np.min(np.abs(s.alpha[sub][nz]) / np.abs(beta_sub[nz])))
    beta = np.zeros(len(s.alpha))
    beta[sub] = beta_sub
    return beta, rho
