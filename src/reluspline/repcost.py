"""Representation cost of univariate functions in infinite-width 2-layer ReLU nets.

The cost of a function f is max(total variation of f', |f'(-inf) + f'(inf)|).
This module computes that closed form, constructs an optimal representing
measure over threshold-parametrized ReLUs [w(x-b)]_+ with w in {-1, +1}, and
converts measures back to piecewise-linear functions and finite networks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import pwl
from ._value import Value, check_integer
from .net2 import TwoLayerNet
from .pwl import PwlFunction

# masses below this (relative) are treated as exact zeros when assembling atoms
_MASS_TOL = 1e-15


class LagrangeCase(enum.Enum):
    """Which multiplier branch is active in the optimal-measure construction."""

    ZERO = "zero"
    NEGATIVE = "negative"
    POSITIVE = "positive"


@dataclass(frozen=True, eq=False)
class CostReport(Value):
    tv: float
    end_sum: float
    cost: float
    lagrange_case: LagrangeCase
    upper_bound: float

    def __post_init__(self):
        object.__setattr__(self, "lagrange_case",
                           LagrangeCase(self.lagrange_case))


@dataclass(frozen=True, eq=False)
class ThresholdMeasure1D(Value):
    """Discrete signed measure over {-1,+1} x R in the threshold parametrization.

    An atom (w, b, mass) contributes mass * [w(x-b)]_+ to the induced
    function; c is the output offset.  ``atoms`` holds one (w, b, mass) row
    per atom, sorted by (b, w).
    """

    atoms: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        a = np.array(self.atoms, dtype=float).reshape(len(self.atoms), 3)
        w, b, m = a.T
        if np.any(np.abs(w) != 1.0):
            raise ValueError("atom signs must be -1 or +1")
        c = float(self.c)
        if not (np.isfinite(a).all() and np.isfinite(c)):
            raise ValueError("non-finite atom threshold, mass or offset")
        if np.any(m == 0.0):
            raise ValueError("atom masses must be nonzero")
        if not _strictly_sorted(a):  # optimal_alpha's atoms are in order
            a = a[np.lexsort((w, b))]
            if not _strictly_sorted(a):
                raise ValueError("at most one atom per (w, b) pair")
        a.setflags(write=False)
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "c", c)

    @cached_property
    def _pwl(self) -> PwlFunction:
        """Exact function of the measure, built once, no jump dropped: atom
        (w, b, m) adds jump m at b, and slope -m on the far left if w = -1."""
        w, b, m = self.atoms.T
        anchor = (0.0, self.c + _relu_sum(w, b, m, 0.0))
        return pwl._sum_jumps((-m[w == -1]).sum(), b, m, anchor)


def _strictly_sorted(atoms) -> bool:
    """Whether the (w, b, mass) rows strictly increase in (b, w)."""
    w, b = atoms[:, 0], atoms[:, 1]
    return bool(((b[1:] > b[:-1]) | (b[1:] == b[:-1]) & (w[1:] > w[:-1])).all())


def measure_norm(alpha: ThresholdMeasure1D) -> float:
    """Total variation norm: sum of absolute atom masses."""
    return float(np.abs(alpha.atoms[:, 2]).sum())


def _relu_sum(w, b, m, x: float) -> float:
    """sum_i m_i [w_i (x - b_i)]_+ at one point, as one dot product."""
    return float(m @ np.maximum(w * (x - b), 0.0))


def measure_eval(alpha: ThresholdMeasure1D, x):
    """Induced function h(x) = sum mass * [w(x-b)]_+ + c, through pwl_eval."""
    return pwl.pwl_eval(alpha._pwl, x)


def representation_cost(f: PwlFunction) -> CostReport:
    """Closed-form cost max(tv, |end sum|) with the active multiplier case."""
    tv = pwl.tv_fprime(f)
    s = pwl.end_slope_sum(f)
    case = (LagrangeCase.NEGATIVE if s > tv else
            LagrangeCase.POSITIVE if s < -tv else LagrangeCase.ZERO)
    upper = tv + 2.0 * float(np.abs(f.slopes).min())
    return CostReport(tv, s, max(tv, abs(s)), case, upper)


def _assemble(locs, plus, end_sum, tv, anchor_x, anchor_y) -> ThresholdMeasure1D:
    """Build the minimum-norm measure with given alpha_plus atoms.

    ``plus`` holds the alpha_plus mass (the second-derivative atom) at each
    location; alpha_minus is chosen per the multiplier case so that it sums
    to ``end_sum``.  The offset c pins the induced function at the anchor.
    """
    s = float(end_sum)
    m = locs.size
    if m == 0 and s != 0.0:
        locs, plus, minus = np.zeros(1), np.zeros(1), np.array([s])
    elif abs(s) <= tv:
        minus = (s / tv) * np.abs(plus) if tv > 0.0 else np.zeros(m)
    elif s > tv:
        minus = np.abs(plus) + (s - tv) / m
    else:
        minus = -np.abs(plus) + (s + tv) / m
    # the -1 and the +1 atom at every location, already in sorted order
    mass = 0.5 * np.column_stack((plus - minus, plus + minus)).ravel()
    atoms = np.column_stack((np.tile([-1.0, 1.0], locs.size),
                             np.repeat(locs, 2), mass))
    atoms = atoms[np.abs(mass) > _MASS_TOL * (1.0 + tv + abs(s))]
    return ThresholdMeasure1D(atoms, anchor_y - _relu_sum(*atoms.T, anchor_x))


def optimal_alpha(f: PwlFunction) -> ThresholdMeasure1D:
    """A measure representing f whose norm attains representation_cost(f).cost."""
    locs, jumps = pwl._jumps(f)
    return _assemble(locs, jumps, pwl.end_slope_sum(f), pwl.tv_fprime(f),
                     f.anchor[0], f.anchor[1])


def measure_to_pwl(alpha: ThresholdMeasure1D) -> PwlFunction:
    """Exact piecewise-linear function induced by a discrete measure: the
    canonical form of the one measure_eval evaluates through pwl_eval."""
    return pwl.canonicalize(alpha._pwl)


def measure_to_net(alpha: ThresholdMeasure1D) -> TwoLayerNet:
    """One balanced unit per atom; C(theta) equals the measure norm exactly."""
    w, b, m = alpha.atoms.T
    r = np.sqrt(np.abs(m))
    return TwoLayerNet(w * r, -w * r * b, np.sign(m) * r, alpha.c)


def discretize_smooth(fpp, support, n_atoms: int, end_slope_left: float,
                      anchor) -> ThresholdMeasure1D:
    """Midpoint-quadrature measure for a smooth second derivative.

    ``fpp`` is continuous on ``support = (a, b)`` and zero outside; the
    returned measure has atoms of mass fpp(b_i) * db at the grid midpoints,
    realizes the prescribed left end slope, and its norm converges to
    max(int |f''|, |2*end_slope_left + int f''|) as n_atoms grows.
    """
    a, b = float(support[0]), float(support[1])
    if not np.isfinite([a, b]).all():
        raise ValueError(f"support bounds must be finite, got [{a}, {b}]")
    if a >= b:
        raise ValueError(f"invalid support [{a}, {b}]")
    check_integer(n_atoms, "n_atoms", 2)
    db = (b - a) / n_atoms
    locs = a + (np.arange(n_atoms) + 0.5) * db
    masses = np.array([fpp(x) for x in locs], dtype=float) * db
    if not np.isfinite(masses).all():
        raise ValueError("fpp must be finite on the support")
    keep = masses != 0.0
    locs, masses = locs[keep], masses[keep]
    end_sum = 2.0 * end_slope_left + masses.sum()
    tv = float(np.abs(masses).sum())
    return _assemble(locs, masses, end_sum, tv, anchor[0], anchor[1])
