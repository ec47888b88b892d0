"""Property tests of the exact 1-D algebra at scale: nets up to k = 500,
functions up to 200 breakpoints.

Hypothesis draws the sizes, scales, tie patterns and a seed; numpy draws
the arrays from that seed, so large instances stay cheap to generate.
"""

import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from reluspline import pwl, repcost
from reluspline.net2 import TwoLayerNet, net_cost, net_eval, to_pwl
from reluspline.pwl import AtomList1D, PwlFunction
from reluspline.repcost import ThresholdMeasure1D

SETTINGS = settings(max_examples=40, deadline=None)
seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([1e-3, 1.0, 1e3])


def reference_measure_eval(alpha, xs):
    """h(x) = c + sum of mass * [w(x - b)]_+, one atom at a time."""
    vals = np.full(xs.shape, alpha.c)
    for w, b, m in alpha.atoms:
        vals += m * np.maximum(w * (xs - b), 0.0)
    return vals


def grid_around(points, n=400):
    """A uniform grid over the points' span, widened by one, plus the points."""
    points = np.asarray(points, float)
    lo, hi = (points.min() - 1.0, points.max() + 1.0) if points.size else (-1, 1)
    return np.concatenate((np.linspace(lo, hi, n), points))


def close(got, want, rel):
    return np.abs(got - want).max() <= rel * (1.0 + np.abs(want).max())


@st.composite
def measures(draw, max_atoms=500):
    """A measure with up to max_atoms atoms; with ties, thresholds repeat
    and both signs meet at one threshold."""
    k = draw(st.integers(0, max_atoms))
    rng = np.random.default_rng(draw(seeds))
    scale = draw(scales)
    if draw(st.booleans()):
        b = rng.integers(-20, 21, k) * (scale / 4)
    else:
        b = rng.uniform(-10, 10, k) * scale
    w = rng.choice([-1, 1], k)
    m = rng.standard_normal(k)
    m[m == 0.0] = 1.0
    atoms, seen = [], set()
    for atom in zip(w.tolist(), b.tolist(), m.tolist()):
        if atom[:2] not in seen:  # one atom per (w, b) pair
            seen.add(atom[:2])
            atoms.append(atom)
    return ThresholdMeasure1D(tuple(atoms), float(rng.standard_normal()))


@st.composite
def nets(draw, max_units=500):
    k = draw(st.integers(0, max_units))
    rng = np.random.default_rng(draw(seeds))
    scale = draw(scales)
    w1, b1, w2 = rng.standard_normal((3, k))
    if draw(st.booleans()):
        # dead units, and pairs of opposite units with a common kink
        w1[rng.random(k) < 0.1] = 0.0
        j = rng.permutation(k)[:k // 2]
        h = j.size // 2
        w1[j[:h]], b1[j[:h]] = -w1[j[h:2 * h]], -b1[j[h:2 * h]]
    return TwoLayerNet(w1, b1 * scale, w2, float(rng.standard_normal()))


class TestMeasureEval:
    @SETTINGS
    @given(measures())
    def test_matches_per_atom_loop(self, alpha):
        xs = grid_around([b for _, b, _ in alpha.atoms])
        want = reference_measure_eval(alpha, xs)
        assert close(repcost.measure_eval(alpha, xs), want, 1e-12)
        assert repcost.measure_eval(alpha, float(xs[7])) == pytest.approx(
            want[7], rel=0.0, abs=1e-12 * (1.0 + np.abs(want).max()))

    @SETTINGS
    @given(measures())
    def test_measure_to_pwl_is_the_same_function(self, alpha):
        xs = grid_around([b for _, b, _ in alpha.atoms])
        want = reference_measure_eval(alpha, xs)
        f = repcost.measure_to_pwl(alpha)
        assert close(pwl.pwl_eval(f, xs), want, 1e-9)
        assert pwl.canonicalize(f) == f


class TestFromJumps:
    @SETTINGS
    @given(st.integers(0, 500), seeds, st.booleans())
    def test_independent_of_atom_order(self, k, seed, ties):
        rng = np.random.default_rng(seed)
        locs = (rng.integers(-30, 31, k) / 3.0 if ties
                else rng.uniform(-10, 10, k))
        jumps = rng.standard_normal(k)
        atoms = np.column_stack((locs, jumps))
        f = pwl.from_jumps(0.7, atoms, (0.5, -1.0))
        g = pwl.from_jumps(0.7, atoms[rng.permutation(k)].tolist(), (0.5, -1.0))
        assert g.breakpoints == f.breakpoints
        assert g.anchor == f.anchor
        if np.unique(locs).size == k:
            # unique locations: nothing is summed, so bit for bit the same
            assert g.slopes == f.slopes
        else:
            assert close(np.array(g.slopes), np.array(f.slopes), 1e-13)


class TestCanonicalize:
    @SETTINGS
    @given(st.integers(0, 200), seeds, st.booleans())
    def test_idempotent_and_value_preserving(self, n, seed, clustered):
        rng = np.random.default_rng(seed)
        bp = np.sort(rng.uniform(-10, 10, n))
        if clustered:
            # runs of breakpoints a fraction of the merge tolerance apart
            steps = rng.uniform(0.1, 0.9, n) * pwl.BREAKPOINT_MERGE_TOL
            bp = np.sort(np.round(bp) + np.cumsum(steps) * (rng.random(n) < 0.7))
        slopes = rng.standard_normal(n + 1)
        for i in np.flatnonzero(rng.random(n) < 0.2):
            slopes[i + 1] = slopes[i]  # a zero jump
        f = PwlFunction(bp, slopes, (0.0, 1.0))
        g = pwl.canonicalize(f)
        assert pwl.canonicalize(g) == g
        assert all(b2 > b1 for b1, b2 in zip(g.breakpoints, g.breakpoints[1:]))
        xs = grid_around(bp)
        assert close(pwl.pwl_eval(g, xs), pwl.pwl_eval(f, xs), 1e-9)


class TestNetsAndMeasures:
    @SETTINGS
    @given(nets())
    def test_function_cost_at_most_net_cost(self, net):
        f = to_pwl(net)
        cost = repcost.representation_cost(f).cost
        c = net_cost(net)
        assert cost <= c * (1.0 + 1e-12) + 1e-12
        xs = grid_around(-net.b1[net.w1 != 0] / net.w1[net.w1 != 0])
        assert close(pwl.pwl_eval(f, xs), net_eval(net, xs), 1e-10)

    @SETTINGS
    @given(measures())
    def test_measure_to_net_round_trip(self, alpha):
        net = repcost.measure_to_net(alpha)
        norm = repcost.measure_norm(alpha)
        assert abs(net_cost(net) - norm) <= 1e-12 * (1.0 + norm)
        xs = grid_around([b for _, b, _ in alpha.atoms])
        want = reference_measure_eval(alpha, xs)
        assert close(pwl.pwl_eval(to_pwl(net), xs), want, 1e-9)
        assert close(pwl.pwl_eval(repcost.measure_to_pwl(alpha), xs),
                     pwl.pwl_eval(to_pwl(net), xs), 1e-9)

    @SETTINGS
    @given(nets())
    def test_optimal_alpha_round_trip(self, net):
        f = pwl.canonicalize(to_pwl(net))
        alpha = repcost.optimal_alpha(f)
        cost = repcost.representation_cost(f).cost
        assert abs(repcost.measure_norm(alpha) - cost) <= 1e-10 * (1.0 + cost)
        xs = grid_around(f.breakpoints)
        want = pwl.pwl_eval(f, xs)
        assert close(repcost.measure_eval(alpha, xs), want, 1e-9)
        assert close(pwl.pwl_eval(repcost.measure_to_pwl(alpha), xs), want,
                     1e-9)


def raises(message):
    return pytest.raises(ValueError, match=re.escape(message))


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([np.nan, np.inf, -np.inf])


class TestInvalidInputs:
    """Each kind of invalid input raises its own ValueError message."""

    @SETTINGS
    @given(st.lists(finite, min_size=2, max_size=200, unique=True), seeds)
    def test_unsorted_breakpoints(self, bp, seed):
        bp = sorted(bp)
        i = np.random.default_rng(seed).integers(0, len(bp) - 1)
        bp[i], bp[i + 1] = bp[i + 1], bp[i]
        with raises("breakpoints must be sorted"):
            PwlFunction(bp, [0.0] * (len(bp) + 1), (0.0, 0.0))

    @SETTINGS
    @given(st.lists(finite, min_size=0, max_size=200, unique=True), non_finite,
           st.integers(0, 10**6), st.sampled_from(["bp", "slope", "anchor"]))
    def test_non_finite(self, bp, bad, where, field):
        bp = sorted(bp)
        slopes = [1.0] * (len(bp) + 1)
        anchor = [0.0, 0.0]
        if field == "bp" and bp:
            # where the breakpoints stay sorted, so finiteness is what fails
            i = {np.inf: len(bp) - 1, -np.inf: 0}.get(bad, where % len(bp))
            bp[i] = bad
        elif field == "slope":
            slopes[where % len(slopes)] = bad
        else:
            anchor[where % 2] = bad
        with raises("non-finite breakpoint, slope or anchor"):
            PwlFunction(bp, slopes, tuple(anchor))
        with raises("non-finite breakpoint, slope or anchor"):
            pwl.from_jumps(slopes[0], list(zip(bp, slopes[1:])), tuple(anchor))

    @SETTINGS
    @given(measures(max_atoms=200), st.integers(0, 10**6))
    def test_duplicate_atom(self, alpha, i):
        if not alpha.atoms:
            return
        atoms = list(alpha.atoms)
        w, b, _ = atoms[i % len(atoms)]
        atoms.append((w, b, 2.5))
        with raises("at most one atom per (w, b) pair"):
            ThresholdMeasure1D(tuple(atoms), alpha.c)

    @SETTINGS
    @given(measures(max_atoms=200), st.integers(-5, 5).filter(
        lambda w: abs(w) != 1), st.integers(0, 10**6))
    def test_bad_sign(self, alpha, w, i):
        atoms = list(alpha.atoms) + [(1, 0.0, 1.0)]
        _, b, m = atoms[i % len(atoms)]
        atoms[i % len(atoms)] = (w, b, m)
        with raises("atom signs must be -1 or +1"):
            ThresholdMeasure1D(tuple(atoms), alpha.c)

    @SETTINGS
    @given(measures(max_atoms=200), st.integers(0, 10**6))
    def test_zero_mass(self, alpha, i):
        atoms = list(alpha.atoms) + [(1, 1e9, 1.0)]
        w, b, _ = atoms[i % len(atoms)]
        atoms[i % len(atoms)] = (w, b, 0.0)
        with raises("atom masses must be nonzero"):
            ThresholdMeasure1D(tuple(atoms), alpha.c)
        locs = sorted({b for _, b, _ in atoms})
        masses = [1.0] * len(locs)
        masses[i % len(locs)] = 0.0
        with raises("atom masses must be nonzero"):
            AtomList1D(tuple(zip(locs, masses)))

    def test_atom_locations_must_increase(self):
        with raises("atom locations must be strictly increasing"):
            AtomList1D(((0.0, 1.0), (2.0, 1.0), (2.0, -1.0)))
