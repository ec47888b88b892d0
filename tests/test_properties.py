"""Property tests of the exact 1-D algebra at scale: nets up to k = 500,
functions up to 200 breakpoints.

Hypothesis draws the sizes, scales, tie patterns and a seed; numpy draws
the arrays from that seed, so large instances stay cheap to generate.
"""

import dataclasses
import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from reluspline import pwl, repcost, spline
from reluspline.deep import (ParallelDeepNet, SphereFactoredNet, _chain_values,
                             _null_vector, align_to_sphere, bridge_penalty,
                             sparsify_support)
from reluspline.highdim import AtomMeasureDD
from reluspline.net2 import (TwoLayerNet, extract_u, net_cost, net_eval,
                             to_pwl)
from reluspline.pwl import AtomList1D, PwlFunction
from reluspline.repcost import CostReport, LagrangeCase, ThresholdMeasure1D
from reluspline.spline import Dataset

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
    return (np.abs(got - want).max(initial=0.0)
            <= rel * (1.0 + np.abs(want).max(initial=0.0)))


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
        assert np.array_equal(g.breakpoints, f.breakpoints)
        assert g.anchor == f.anchor
        if np.unique(locs).size == k:
            # unique locations: nothing is summed, so bit for bit the same
            assert np.array_equal(g.slopes, f.slopes)
        else:
            assert close(g.slopes, f.slopes, 1e-13)


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


@st.composite
def pwl_functions(draw, max_breakpoints=200):
    """A function with up to max_breakpoints breakpoints."""
    n = draw(st.integers(0, max_breakpoints))
    rng = np.random.default_rng(draw(seeds))
    scale = draw(scales)
    bp = np.sort(rng.uniform(-10, 10, n)) * scale
    return PwlFunction(bp, rng.standard_normal(n + 1),
                       (0.0, float(rng.standard_normal())))


@st.composite
def interpolation_data(draw):
    """Up to 30 points at least 0.5 * scale apart, spanning at most
    60 * scale, with y on a scale of its own."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(seeds))
    scale = draw(scales)
    xs = (rng.uniform(-10, 10) + np.cumsum(rng.uniform(0.5, 2.0, n))) * scale
    ys = rng.standard_normal(n) * draw(scales)
    return Dataset(zip(xs.tolist(), ys.tolist()))


def same_function(f, g, rel=1e-12):
    """Breakpoints, slopes and values at f's breakpoints and both anchors
    agree to rel relative to the largest of each."""
    xs = np.concatenate((f.breakpoints, [f.anchor[0], g.anchor[0]]))
    return (f.breakpoints.shape == g.breakpoints.shape
            and close(g.breakpoints, f.breakpoints, rel)
            and close(g.slopes, f.slopes, rel)
            and close(pwl.pwl_eval(g, xs), pwl.pwl_eval(f, xs), rel))


def transformed(d, fx, fy):
    return Dataset(zip(fx(d.xs).tolist(), fy(d.ys).tolist()))


@st.composite
def bent_end_data(draw):
    """2 to 12 points whose end secants sum past the interior variation.

    With T the total variation of the secant slopes and sigma the sum of
    the first and last, |sigma| - T is drawn in (0, scale], for the slopes'
    own scale: the case where the interpolant bends an end slope.
    """
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(seeds))
    scale = draw(scales)
    gaps = rng.uniform(0.5, 2.0, n - 1)
    slopes = rng.standard_normal(n - 1) * scale
    excess = draw(st.floats(0.0, 1.0, exclude_min=True)) * scale
    target = draw(st.sampled_from([-1.0, 1.0])) * (
        np.abs(np.diff(slopes)).sum() + excess)
    slopes += 0.5 * (target - slopes[0] - slopes[-1])
    xs = np.concatenate(([0.0], np.cumsum(gaps)))
    ys = np.concatenate(([0.0], np.cumsum(slopes * gaps)))
    return Dataset(zip(xs.tolist(), ys.tolist()))


class TestInterpolantCost:
    @SETTINGS
    @given(bent_end_data())
    @example(Dataset(((0.0, 0.0), (1.0, 0.3), (2.0, 0.6))))
    def test_reported_cost_is_the_splines_cost(self, d):
        res = spline.min_norm_interpolant(d)
        cost = repcost.representation_cost(res.spline).cost
        assert abs(cost - res.cost) <= 1e-12 * res.cost


class TestSymmetries:
    """The cost and the minimum-cost interpolant commute with translation,
    reflection and scaling of the data."""

    @SETTINGS
    @given(pwl_functions(), st.floats(-1e3, 1e3),
           st.sampled_from([-1e3, -2.5, -1.0, -1e-3, 1e-3, 0.5, 3.0, 1e3]))
    def test_cost_under_translate_reflect_and_scale(self, f, dx, c):
        cost = repcost.representation_cost(f).cost
        assert repcost.representation_cost(pwl.translate(f, dx)).cost == cost
        assert close(repcost.representation_cost(pwl.reflect(f)).cost, cost,
                     1e-12)
        assert close(repcost.representation_cost(pwl.scale(f, c)).cost,
                     abs(c) * cost, 1e-12)

    @SETTINGS
    @given(interpolation_data(), st.floats(-10, 10))
    def test_interpolant_of_translated_data(self, d, t):
        # dx on the data's own scale: the float error eps * |x + dx| of x + dx
        # would be large next to the gaps for a shift far beyond the data
        dx = t * np.abs(d.xs).max()
        got = spline.min_norm_interpolant(transformed(d, lambda x: x + dx,
                                                      lambda y: y))
        want = spline.min_norm_interpolant(d)
        assert same_function(pwl.translate(want.spline, dx), got.spline)
        assert close(got.cost, want.cost, 1e-12)

    @SETTINGS
    @given(interpolation_data())
    def test_interpolant_of_reflected_data(self, d):
        got = spline.min_norm_interpolant(transformed(d, np.negative,
                                                      lambda y: y))
        want = spline.min_norm_interpolant(d)
        assert same_function(pwl.reflect(want.spline), got.spline)
        assert close(got.cost, want.cost, 1e-12)

    @SETTINGS
    @given(interpolation_data(), st.sampled_from([1e-3, 0.5, 3.0, 1e3]))
    def test_interpolant_of_scaled_data(self, d, c):
        # c > 0: with c < 0 the tie between bending the left or the right
        # end slope resolves the other way, so only the cost is equivariant
        got = spline.min_norm_interpolant(transformed(d, lambda x: x,
                                                      lambda y: c * y))
        want = spline.min_norm_interpolant(d)
        assert same_function(pwl.scale(want.spline, c), got.spline)
        assert close(got.cost, c * want.cost, 1e-12)
        flipped = spline.min_norm_interpolant(
            transformed(d, lambda x: x, lambda y: -c * y))
        assert close(flipped.cost, c * want.cost, 1e-12)

    @SETTINGS
    @given(interpolation_data(), seeds)
    def test_no_challenger_through_the_points_is_cheaper(self, d, seed):
        """Piecewise-linear challengers through the data, with random extra
        breakpoints between the points and random end slopes, some far from
        the interpolant and some close to it."""
        rng = np.random.default_rng(seed)
        res = spline.min_norm_interpolant(d)
        best = res.cost
        assert close(repcost.representation_cost(res.spline).cost, best, 1e-12)
        slope_scale = 1.0 + np.abs(res.spline.slopes).max()
        for noise in (1.0, 1e-3, 1e-6) * 4:
            extra = rng.random(d.n - 1) < 0.7
            mids = d.xs[:-1] + rng.uniform(0.1, 0.9, d.n - 1) * np.diff(d.xs)
            knots = np.sort(np.concatenate((d.xs, mids[extra])))
            vals = pwl.pwl_eval(res.spline, knots)
            vals[~np.isin(knots, d.xs)] += rng.normal(
                0, noise * slope_scale * np.diff(d.xs)[extra])
            vals[np.isin(knots, d.xs)] = d.ys
            ends = (np.array(res.end_slopes)
                    + rng.normal(0, noise * slope_scale, 2))
            challenger = PwlFunction(knots, np.concatenate(
                ([ends[0]], np.diff(vals) / np.diff(knots), [ends[1]])),
                (knots[0], vals[0]))
            assert close(pwl.pwl_eval(challenger, d.xs), d.ys, 1e-9)
            cost = repcost.representation_cost(challenger).cost
            assert best <= cost * (1.0 + 1e-12) + 1e-12


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
        if not len(alpha.atoms):
            return
        atoms = list(alpha.atoms)
        w, b, _ = atoms[i % len(atoms)]
        atoms.append((w, b, 2.5))
        with raises("at most one atom per (w, b) pair"):
            ThresholdMeasure1D(tuple(atoms), alpha.c)

    @SETTINGS
    @given(measures(max_atoms=200), (st.integers(-5, 5) | st.floats(-5, 5)
                                     | non_finite).filter(
        lambda w: abs(w) != 1), st.integers(0, 10**6))
    def test_bad_sign(self, alpha, w, i):
        atoms = list(alpha.atoms) + [(1, 0.0, 1.0)]
        _, b, m = atoms[i % len(atoms)]
        atoms[i % len(atoms)] = (w, b, m)
        with raises("atom signs must be -1 or +1"):
            ThresholdMeasure1D(tuple(atoms), alpha.c)

    @SETTINGS
    @given(measures(max_atoms=200), non_finite, st.integers(0, 10**6),
           st.sampled_from(["threshold", "mass", "offset"]))
    def test_non_finite_atom(self, alpha, bad, i, field):
        atoms = [list(a) for a in alpha.atoms] + [[1, 0.0, 1.0]]
        c = alpha.c
        if field == "offset":
            c = bad
        else:
            atoms[i % len(atoms)][1 if field == "threshold" else 2] = bad
        with raises("non-finite atom threshold, mass or offset"):
            ThresholdMeasure1D(tuple(map(tuple, atoms)), c)

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

    @SETTINGS
    @given(st.lists(finite, min_size=1, max_size=200, unique=True), non_finite,
           st.integers(0, 10**6), st.sampled_from(["location", "mass"]))
    def test_non_finite_list_atom(self, locs, bad, i, field):
        atoms = [[x, 1.0] for x in sorted(locs)]
        atoms[i % len(atoms)][0 if field == "location" else 1] = bad
        with raises("non-finite atom location or mass"):
            AtomList1D(atoms)


def reference_dataset(points):
    """Dataset's former point-by-point construction: sort the (x, y)
    tuples, then keep the first pair at each x and check the rest against it,
    and check the gap and secant to each next kept pair."""
    pts = sorted((float(x), float(y)) for x, y in points)
    if not pts:
        raise ValueError("dataset needs at least one point")
    if not np.isfinite(pts).all():
        raise ValueError("dataset points must be finite")
    yscale = 1.0 + max(abs(y) for _, y in pts)
    merged = []
    for x, y in pts:
        if merged and x == merged[-1][0]:
            if abs(y - merged[-1][1]) > 1e-12 * yscale:
                raise ValueError(f"conflicting y values at x = {x}")
        else:
            merged.append((x, y))
    for (x0, y0), (x1, y1) in zip(merged, merged[1:]):
        dx = x1 - x0
        if not (math.isfinite(dx) and math.isfinite((y1 - y0) / dx)):
            raise ValueError(f"dataset x difference or secant overflows "
                             f"between x = {x0} and x = {x1}")
    return tuple(merged)


@st.composite
def point_sets(draw):
    """Up to 40 pairs over a few x values, both signed zeros among them.
    The y at one x repeat exactly or differ by steps near the 1e-12
    relative merge tolerance; now and then a value is not finite."""
    pool = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5])
                         | st.floats(-5, 5), min_size=1, max_size=6))
    bases = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -3.0, 40.0]),
                          min_size=len(pool), max_size=len(pool)))
    step = draw(st.sampled_from([1e-13, 1e-12, 1e-11]))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.integers(-30, 30)), max_size=40))
    # j = 0 keeps the base as it is: -0.0 + 0.0 would be 0.0
    points = [(pool[i], bases[i] + j * step if j else bases[i])
              for i, j in picks]
    if points and draw(st.integers(0, 9)) == 0:
        points[draw(st.integers(0, len(points) - 1))] = (
            draw(non_finite), 0.0)
    return points


def outcome(build, points):
    try:
        return build(points)
    except ValueError as exc:
        return str(exc)


class TestDataset:
    @settings(max_examples=300, deadline=None)
    @given(point_sets())
    @example([(0.0, 0.0), (5e-324, 40.0), (1.0, 1.0)])
    def test_matches_point_by_point_reference(self, points):
        want = outcome(reference_dataset, points)
        got = outcome(lambda p: Dataset(p).points, points)
        # repr tells -0.0 from 0.0, so the kept pair must be the same one
        assert repr(got) == repr(want)
        if not isinstance(want, str):
            d = Dataset(points)
            assert (d.xs.tolist(), d.ys.tolist()) == (
                [x for x, _ in want], [y for _, y in want])
            assert d == Dataset(want) and hash(d) == hash(Dataset(want))
            assert d.to_dict() == {"points": [list(p) for p in want]}


@st.composite
def deep_nets(draw, max_chains=6):
    """A parallel net of depth 2 to 4 with up to ``max_chains`` chains and
    inputs of dimension 1 to 3."""
    rng = np.random.default_rng(draw(seeds))
    L, m, k, d = (draw(st.integers(lo, hi))
                  for lo, hi in ((2, 4), (1, 3), (1, max_chains), (1, 3)))
    shapes = [(1, d)] if L == 2 else [(m, d)] + [(m, m)] * (L - 3) + [(1, m)]
    subnets = tuple(tuple(rng.standard_normal(s) for s in shapes)
                    for _ in range(k))
    return ParallelDeepNet(subnets, rng.standard_normal(k))


@st.composite
def dd_measures(draw):
    """Up to 20 atoms with unit directions in 2 to 5 dimensions."""
    rng = np.random.default_rng(draw(seeds))
    d, k = draw(st.integers(2, 5)), draw(st.integers(0, 20))
    w = rng.standard_normal((k, d))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    atoms = zip(map(tuple, w), rng.uniform(-1, 1, k), rng.standard_normal(k))
    return AtomMeasureDD(tuple(atoms), float(rng.standard_normal()), d)


def finite_secants(points):
    """Whether the secants between the points, taken in x order, are finite,
    as Dataset requires: subnormal x gaps can make them overflow."""
    xs, ys = np.array(sorted(points)).T
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.diff(ys) / np.diff(xs)).all())


# every value type of the package, drawn at random
values = st.one_of(
    nets(), measures(), nets().map(to_pwl), nets().map(extract_u),
    nets().map(lambda net: repcost.representation_cost(to_pwl(net))),
    deep_nets(), deep_nets().map(align_to_sphere), dd_measures(),
    st.lists(st.tuples(finite, finite), min_size=1, max_size=50,
             unique_by=lambda p: p[0]).filter(finite_secants).map(Dataset))

# one of each type, holding 0.0 in arrays and in scalars
SIGNED_ZERO_CASES = [
    PwlFunction((0.0, 1.0), (0.0, 1.0, 0.0), (0.0, 0.0)),
    AtomList1D(((0.0, 1.0), (1.0, -2.0))),
    ThresholdMeasure1D(((1, 0.0, 1.0), (-1, 0.0, 2.0)), 0.0),
    CostReport(0.0, 0.0, 0.0, LagrangeCase.ZERO, 0.0),
    TwoLayerNet([0.0, 1.0], [0.0, 0.0], [1.0, 0.0], 0.0),
    ParallelDeepNet(((np.array([[0.0, 1.0]]),),), [0.0]),
    SphereFactoredNet(((np.array([[0.0, 1.0]]),),), [0.0]),
    AtomMeasureDD((((1.0, 0.0), 0.0, 1.0),), 0.0, 2),
    Dataset(((0.0, 0.0), (1.0, 0.0))),
]


def negate_zeros(v):
    """A dict/list tree with every float 0.0 replaced by -0.0."""
    if isinstance(v, dict):
        return {key: negate_zeros(x) for key, x in v.items()}
    if isinstance(v, list):
        return [negate_zeros(x) for x in v]
    return -0.0 if isinstance(v, float) and v == 0.0 else v


def stored_arrays(x):
    """Every array a value stores, in its fields or in tuples of them."""
    stack = [getattr(x, f.name) for f in dataclasses.fields(x)]
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, tuple):
            stack.extend(v)


class TestValueSemantics:
    @SETTINGS
    @given(values)
    def test_json_round_trip_is_equal_and_hashes_alike(self, x):
        y = type(x).from_json(x.to_json())
        assert y == x and hash(y) == hash(x)
        assert y.to_json() == x.to_json()

    @SETTINGS
    @given(values)
    def test_stored_arrays_are_read_only(self, x):
        for a in stored_arrays(x):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 1.0

    @pytest.mark.parametrize("x", SIGNED_ZERO_CASES,
                             ids=lambda x: type(x).__name__)
    def test_signed_zeros_compare_and_hash_alike(self, x):
        y = type(x).from_dict(negate_zeros(x.to_dict()))
        assert "-0.0" in y.to_json() and "-0.0" not in x.to_json()
        assert y == x and hash(y) == hash(x) and len({x, y}) == 1

    def test_unequal_values(self):
        f = pwl.absval()
        assert f != pwl.add_constant(f, 1.0) and f != pwl.scale(f, 2.0)
        net = TwoLayerNet([1.0], [0.0], [1.0], 0.0)
        assert net != TwoLayerNet([1.0], [0.0], [1.0], 0.5)
        assert net != TwoLayerNet([1.0, 0.0], [0.0, 0.0], [1.0, 0.0], 0.0)
        deep = SIGNED_ZERO_CASES[5]
        assert deep != SIGNED_ZERO_CASES[6] and deep != deep.to_dict()

    def test_measure_schemas(self):
        alpha = ThresholdMeasure1D(((1, 0.5, 2.0), (-1, -1.0, 3.0)), 0.25)
        assert alpha.to_dict() == {"atoms": [[-1.0, -1.0, 3.0],
                                             [1.0, 0.5, 2.0]], "c": 0.25}
        beta = AtomMeasureDD((((0.6, 0.8), 0.5, 2.0),), 1.0, 2)
        assert beta.to_dict() == {"atoms": [[0.6, 0.8, 0.5, 2.0]],
                                  "c": 1.0, "d": 2}


def reference_sign_walk(s, X):
    """The depth-2 walk oriented by sign(alpha) . beta, the l1 slope."""
    phi = _chain_values(s.layers, X)
    n = phi.shape[0]
    alpha = np.array(s.alpha)
    while np.count_nonzero(alpha) > n:
        sub = np.flatnonzero(alpha)[:n + 1]
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
    return alpha


class TestSparsifySupport:
    @SETTINGS
    @given(deep_nets(max_chains=16), st.integers(1, 6), seeds)
    def test_walk_guarantees(self, net, n, seed):
        s = align_to_sphere(net)
        X = np.random.default_rng(seed).standard_normal((n, net.input_dim))
        out = sparsify_support(s, X)
        L = s.depth
        assert np.count_nonzero(out.alpha) <= n
        assert bridge_penalty(out.alpha, L) <= bridge_penalty(s.alpha, L) * (
            1.0 + 1e-12)
        assert close(_chain_values(out.layers, X) @ out.alpha,
                     _chain_values(s.layers, X) @ s.alpha, 1e-10)
        if L == 2:
            assert out.alpha.tobytes() == reference_sign_walk(s, X).tobytes()
