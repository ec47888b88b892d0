import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from reluspline import pwl
from reluspline.pwl import AtomList1D, PwlFunction


def random_pwl(rng, max_bp=6, scale=5.0):
    n = int(rng.integers(0, max_bp + 1))
    bp = np.sort(rng.uniform(-scale, scale, n))
    slopes = rng.uniform(-scale, scale, n + 1)
    anchor = (float(rng.uniform(-scale, scale)), float(rng.uniform(-scale, scale)))
    return PwlFunction(tuple(bp), tuple(slopes), anchor)


finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


@st.composite
def pwl_functions(draw):
    bp = sorted(draw(st.lists(finite, min_size=0, max_size=6, unique=True)))
    slopes = draw(st.lists(finite, min_size=len(bp) + 1, max_size=len(bp) + 1))
    anchor = (draw(finite), draw(finite))
    return PwlFunction(tuple(bp), tuple(slopes), anchor)


class TestConstruction:
    def test_slope_count_mismatch(self):
        with pytest.raises(ValueError):
            PwlFunction((0.0,), (1.0,), (0.0, 0.0))

    def test_unsorted_breakpoints(self):
        with pytest.raises(ValueError):
            PwlFunction((1.0, 0.0), (0.0, 1.0, 2.0), (0.0, 0.0))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            PwlFunction((0.0,), (0.0, np.inf), (0.0, 0.0))

    def test_breakpoints_must_be_flat(self):
        with pytest.raises(ValueError, match="must be flat sequences"):
            PwlFunction(((0.0, 1.0),), (0.0, 1.0, 2.0), (0.0, 0.0))

    def test_atoms_must_increase(self):
        with pytest.raises(ValueError):
            AtomList1D(((1.0, 1.0), (1.0, 2.0)))

    def test_atoms_nonzero_mass(self):
        with pytest.raises(ValueError):
            AtomList1D(((0.0, 0.0),))


class TestEval:
    def test_relu(self):
        f = pwl.relu()
        assert pwl.pwl_eval(f, -1.0) == 0.0
        assert pwl.pwl_eval(f, 2.0) == 2.0

    def test_absval(self):
        f = pwl.absval()
        xs = np.linspace(-3, 3, 13)
        assert np.allclose(pwl.pwl_eval(f, xs), np.abs(xs))

    def test_linear(self):
        f = pwl.linear(2.0, 1.0)
        assert pwl.pwl_eval(f, 3.0) == pytest.approx(7.0)

    def test_anchor_respected(self):
        f = PwlFunction((0.0, 1.0), (1.0, -1.0, 2.0), (0.5, 10.0))
        assert pwl.pwl_eval(f, 0.5) == pytest.approx(10.0)

    def test_matches_direct_sum_of_relus(self):
        # f = 2[x+1]_+ - 3[x]_+ + [x-2]_+ built from its jumps
        f = pwl.from_jumps(0.0, [(-1.0, 2.0), (0.0, -3.0), (2.0, 1.0)],
                           (-5.0, 0.0))
        xs = np.linspace(-4, 4, 201)
        direct = (2 * np.maximum(xs + 1, 0) - 3 * np.maximum(xs, 0)
                  + np.maximum(xs - 2, 0))
        assert np.abs(pwl.pwl_eval(f, xs) - direct).max() < 1e-12


class TestDerivedQuantities:
    def test_tv_and_end_sum(self):
        f = pwl.absval()
        assert pwl.tv_fprime(f) == 2.0
        assert pwl.end_slope_sum(f) == 0.0

    def test_second_derivative_measure(self):
        f = PwlFunction((0.0, 1.0), (0.0, 2.0, 2.0), (0.0, 0.0))
        atoms = pwl.second_derivative_measure(f)
        assert atoms.atoms.tolist() == [[0.0, 2.0]]

    def test_total_mass_is_slope_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_pwl(rng)
            atoms = pwl.second_derivative_measure(f)
            assert atoms.total_mass() == pytest.approx(
                f.slopes[-1] - f.slopes[0], abs=1e-12)


class TestTransforms:
    @settings(max_examples=60, deadline=None)
    @given(pwl_functions(), st.floats(-10, 10, allow_nan=False))
    def test_add_constant(self, f, c):
        g = pwl.add_constant(f, c)
        xs = np.linspace(-60, 60, 37)
        assert np.allclose(pwl.pwl_eval(g, xs), pwl.pwl_eval(f, xs) + c,
                           rtol=0, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(pwl_functions(), st.floats(-4, 4, allow_nan=False))
    def test_scale(self, f, c):
        g = pwl.scale(f, c)
        xs = np.linspace(-60, 60, 37)
        assert np.allclose(pwl.pwl_eval(g, xs), c * pwl.pwl_eval(f, xs),
                           rtol=1e-9, atol=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(pwl_functions(), st.floats(-20, 20, allow_nan=False))
    def test_translate(self, f, dx):
        g = pwl.translate(f, dx)
        xs = np.linspace(-40, 40, 37)
        assert np.allclose(pwl.pwl_eval(g, xs + dx), pwl.pwl_eval(f, xs),
                           rtol=0, atol=1e-7)
        assert pwl.tv_fprime(g) == pwl.tv_fprime(f)

    @settings(max_examples=60, deadline=None)
    @given(pwl_functions())
    def test_reflect(self, f):
        g = pwl.reflect(f)
        xs = np.linspace(-60, 60, 37)
        assert np.allclose(pwl.pwl_eval(g, xs), pwl.pwl_eval(f, -xs),
                           rtol=0, atol=1e-8)
        assert pwl.tv_fprime(g) == pytest.approx(pwl.tv_fprime(f))
        assert pwl.end_slope_sum(g) == pytest.approx(-pwl.end_slope_sum(f))

    @settings(max_examples=60, deadline=None)
    @given(pwl_functions())
    def test_reflect_involution(self, f):
        assert pwl.reflect(pwl.reflect(f)) == f


class TestJumpReconstruction:
    def test_round_trip_through_atoms(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            f = random_pwl(rng)
            atoms = pwl.second_derivative_measure(f)
            g = pwl.from_jumps(f.slopes[0], atoms.atoms, f.anchor)
            xs = np.linspace(-10, 10, 200)
            assert np.abs(pwl.pwl_eval(f, xs) - pwl.pwl_eval(g, xs)).max() < 1e-10

    def test_coincident_jumps_merge(self):
        f = pwl.from_jumps(0.0, [(1.0, 2.0), (1.0, 3.0)], (0.0, 0.0))
        assert f.breakpoints.tolist() == [1.0]
        assert f.slopes.tolist() == [0.0, 5.0]

    def test_cancelling_jumps_vanish(self):
        f = pwl.from_jumps(1.0, [(0.0, 2.0), (0.0, -2.0)], (0.0, 0.0))
        assert f.breakpoints.tolist() == []
        assert f.slopes.tolist() == [1.0]


class TestCanonicalize:
    def test_drops_tiny_jumps(self):
        f = PwlFunction((0.0,), (0.0, 1e-15), (0.0, 0.0))
        g = pwl.canonicalize(f)
        assert g.breakpoints.tolist() == []

    def test_merges_close_breakpoints(self):
        f = PwlFunction((1.0, 1.0 + 1e-14), (0.0, 1.0, 2.0), (0.0, 0.0))
        g = pwl.canonicalize(f)
        assert len(g.breakpoints) == 1
        assert g.slopes.tolist() == [0.0, 2.0]

    def test_chain_of_close_breakpoints_merges(self):
        # gaps of 0.6 tol link up although the chain spans 2.4 tol: merging
        # is single linkage, not distance to the first point of a cluster
        gap = 0.6 * pwl.BREAKPOINT_MERGE_TOL
        bp = (-1.0,) + tuple(gap * np.arange(5)) + (1.0,)
        f = PwlFunction(bp, (0.5, 1.0, -1.0, 2.0, 0.5, -3.0, 2.0, 0.0),
                        (0.3, -0.2))
        g = pwl.canonicalize(f)
        assert g.breakpoints.tolist() == [-1.0, 0.0, 1.0]
        assert g.slopes.tolist() == [0.5, 1.0, 2.0, 0.0]
        assert pwl.canonicalize(g) == g
        xs = np.linspace(-3, 3, 601)
        assert np.abs(pwl.pwl_eval(f, xs) - pwl.pwl_eval(g, xs)).max() < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            f = random_pwl(rng)
            g = pwl.canonicalize(f)
            h = pwl.canonicalize(g)
            assert np.array_equal(g.breakpoints, h.breakpoints)
            assert np.array_equal(g.slopes, h.slopes)

    def test_preserves_values(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = random_pwl(rng)
            g = pwl.canonicalize(f)
            xs = np.linspace(-10, 10, 100)
            assert np.abs(pwl.pwl_eval(f, xs) - pwl.pwl_eval(g, xs)).max() < 1e-9


class TestSerialization:
    @settings(max_examples=40, deadline=None)
    @given(pwl_functions())
    def test_json_round_trip(self, f):
        assert PwlFunction.from_json(f.to_json()) == f

    def test_atom_dict_round_trip(self):
        a = AtomList1D(((0.0, 1.5), (2.0, -0.5)))
        assert np.array_equal(AtomList1D.from_dict(a.to_dict()).atoms, a.atoms)
