import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta, betainc

from reluspline.highdim import (_FLUX_BATCH, AtomMeasureDD, _bump_radial,
                                ball_volume, bump_eval, eval_dd, grad_dd,
                                hessian_decay_estimate,
                                laplacian_flux_estimate, sphere_area)


def random_measure(rng, d, k, mass_sign=None):
    atoms = []
    for _ in range(k):
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        m = float(rng.uniform(0.2, 2.0))
        if mass_sign is None:
            m *= rng.choice([-1.0, 1.0])
        else:
            m *= mass_sign
        atoms.append((tuple(w), float(rng.uniform(-1, 1)), m))
    return AtomMeasureDD(tuple(atoms), float(rng.normal()), d)


class TestConstants:
    def test_closed_forms(self):
        assert sphere_area(2) == pytest.approx(2 * np.pi, abs=1e-12)
        assert sphere_area(3) == pytest.approx(4 * np.pi, abs=1e-12)
        assert ball_volume(1) == pytest.approx(2.0, abs=1e-12)
        assert ball_volume(2) == pytest.approx(np.pi, abs=1e-12)
        assert ball_volume(3) == pytest.approx(4 * np.pi / 3, abs=1e-12)

    def test_area_volume_relation(self):
        for d in range(2, 8):
            assert sphere_area(d) == pytest.approx(d * ball_volume(d))


class TestAtomMeasure:
    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            AtomMeasureDD((((2.0, 0.0), 0.0, 1.0),), 0.0, 2)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            AtomMeasureDD((((1.0,), 0.0, 1.0),), 0.0, 2)

    @pytest.mark.parametrize("d", [2.5, 2.0])
    def test_rejects_non_integer_dimension(self, d):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            AtomMeasureDD((((1.0, 0.0), 0.0, 1.0),), 0.0, d)
        m = AtomMeasureDD((((1.0, 0.0), 0.0, 1.0),), 0.0, np.int64(2))
        assert AtomMeasureDD.from_json(m.to_json()) == m and type(m.d) is int

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["direction", "bias", "mass", "offset"])
    def test_rejects_non_finite(self, field, bad):
        w, b, m, c = [0.6, 0.8], 0.5, 1.0, 0.0
        if field == "direction":
            w[1] = bad
        elif field == "bias":
            b = bad
        elif field == "mass":
            m = bad
        else:
            c = bad
        with pytest.raises(ValueError,
                           match="non-finite atom direction, bias, mass"):
            AtomMeasureDD(((tuple(w), b, m),), c, 2)

    def test_columns_are_views_of_the_atoms(self):
        a = random_measure(np.random.default_rng(60), 3, 4)
        assert a.atoms.shape == (4, 5)
        for column in (a.directions(), a.biases(), a.masses()):
            assert np.shares_memory(column, a.atoms)

    def test_single_atom_eval(self):
        a = AtomMeasureDD((((1.0, 0.0), 0.0, 2.0),), 0.0, 2)
        assert eval_dd(a, np.array([3.0, 0.0])) == pytest.approx(6.0)
        assert eval_dd(a, np.array([-3.0, 5.0])) == 0.0

    def test_offset_only(self):
        a = AtomMeasureDD((), 1.0, 2)
        assert eval_dd(a, np.zeros(2)) == 1.0

    def test_mirrored_atoms_give_absolute_value(self):
        a = AtomMeasureDD((((1.0, 0.0), 0.0, 2.0), ((-1.0, 0.0), 0.0, 2.0)),
                          0.0, 2)
        rng = np.random.default_rng(61)
        for _ in range(10):
            x = rng.standard_normal(2)
            assert eval_dd(a, x) == pytest.approx(2 * abs(x[0]))

    def test_json_round_trip(self):
        rng = np.random.default_rng(62)
        a = random_measure(rng, 3, 4)
        b = AtomMeasureDD.from_json(a.to_json())
        assert b.d == a.d and b.c == a.c
        assert np.allclose(b.directions(), a.directions())


class TestGradient:
    def test_single_atom_gradient(self):
        a = AtomMeasureDD((((1.0, 0.0), 0.0, 2.0),), 0.0, 2)
        assert np.allclose(grad_dd(a, np.array([3.0, 0.0])), [2.0, 0.0])
        assert np.allclose(grad_dd(a, np.array([-3.0, 0.0])), [0.0, 0.0])

    @pytest.mark.parametrize("fn", [eval_dd, grad_dd])
    @pytest.mark.parametrize("x", [np.ones(3), np.ones(1), np.ones((1, 2))])
    def test_rejects_wrong_input_dimension(self, fn, x):
        a = AtomMeasureDD((((1.0, 0.0), 0.0, 2.0),), 0.0, 2)
        with pytest.raises(ValueError, match="input dimension mismatch"):
            fn(a, x)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(63)
        h = 1e-6
        for _ in range(10):
            a = random_measure(rng, 3, 5)
            x = rng.standard_normal(3) * 2
            g = grad_dd(a, x)
            fd = np.empty(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd[i] = (eval_dd(a, x + e) - eval_dd(a, x - e)) / (2 * h)
            assert np.abs(g - fd).max() < 1e-5 * (1 + np.abs(g).max())


class TestFluxEstimate:
    def test_zero_measure(self):
        a = AtomMeasureDD((), 0.0, 2)
        est = laplacian_flux_estimate(a, 10.0, 100, seed=0)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(64)
        a = random_measure(rng, 2, 3, mass_sign=1.0)
        e1 = laplacian_flux_estimate(a, 100.0, 5000, seed=9)
        e2 = laplacian_flux_estimate(a, 100.0, 5000, seed=9)
        assert e1.value == e2.value

    def test_nonnegative_measure_recovers_total_mass(self):
        rng = np.random.default_rng(65)
        a = random_measure(rng, 2, 4, mass_sign=1.0)
        total = float(a.masses().sum())
        est = laplacian_flux_estimate(a, 1000.0, 200_000, seed=1)
        assert est.value == pytest.approx(total, rel=0.03)
        assert abs(est.value - total) < 4 * est.std_error + 1e-9

    def test_signed_measure_gives_signed_sum(self):
        rng = np.random.default_rng(66)
        a = random_measure(rng, 2, 4)
        signed = float(a.masses().sum())
        absolute = float(np.abs(a.masses()).sum())
        est = laplacian_flux_estimate(a, 1000.0, 200_000, seed=2)
        assert abs(est.value - signed) < 0.05 * (1 + abs(signed))
        if absolute - abs(signed) > 0.5:
            assert abs(est.value - absolute) > 0.1

    def test_rejects_tiny_sample_count(self):
        a = AtomMeasureDD((), 0.0, 2)
        with pytest.raises(ValueError):
            laplacian_flux_estimate(a, 1.0, 1, seed=0)

    def test_rejects_nan_radius(self):
        a = AtomMeasureDD((), 0.0, 2)
        with pytest.raises(ValueError):
            laplacian_flux_estimate(a, np.nan, 100, seed=0)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("r", [0.5, 1.5, 3.0])
    def test_exact_value_at_finite_radius(self, d, r):
        # for unit w, (A_d / V_{d-1}) * E_u 1[<w,u> > t] <w,u> is exactly
        # (1 - t^2)^((d-1)/2), so the flux of the measure at radius r is the
        # sum of m_i (1 - t_i^2)^((d-1)/2) with t_i = clip(-b_i / r, -1, 1);
        # only b / r matters, so each case draws its own biases
        rng = np.random.default_rng([5, d, int(10 * r)])
        w = rng.standard_normal((5, d))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        b = rng.uniform(-1.2 * r, 1.2 * r, 5)
        m = rng.uniform(0.2, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
        a = AtomMeasureDD(tuple(zip(map(tuple, w), b, m)), 0.0, d)
        t = np.clip(-b / r, -1.0, 1.0)
        exact = float(m @ (1.0 - t * t) ** ((d - 1) / 2))
        est = laplacian_flux_estimate(a, r, 200_000, seed=d)
        assert abs(est.value - exact) < 4 * est.std_error

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("r", [0.5, 1.5, 1000.0])
    def test_matches_reference_loop(self, d, r):
        # the sign test r <u,w> + b > 0 and a flux summed per atom with its
        # mass, scaled afterwards, on the estimator's Philox stream; 10 001
        # samples end on a short batch, and the atoms at b = +-1.5 r are
        # active on the whole sphere or nowhere
        rng = np.random.default_rng([6, d, int(10 * r)])
        w = rng.standard_normal((7, d))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        b = np.append(rng.uniform(-1.2 * r, 1.2 * r, 5), (1.5 * r, -1.5 * r))
        m = rng.uniform(0.2, 2.0, 7) * np.array([1, -1, 1, -1, 1, -1, 1])
        a = AtomMeasureDD(tuple(zip(map(tuple, w), b, m)), 0.0, d)
        n = 10_001
        stream = np.random.Generator(np.random.Philox(3))
        scale = sphere_area(d) / ball_volume(d - 1)
        vals = []
        for done in range(0, n, _FLUX_BATCH):
            g = stream.standard_normal((min(_FLUX_BATCH, n - done), d))
            proj = (g / np.linalg.norm(g, axis=1, keepdims=True)) @ w.T
            vals.append(scale * np.einsum("nk,nk->n", (r * proj + b > 0.0) * m,
                                          proj))
        vals = np.concatenate(vals)
        est = laplacian_flux_estimate(a, r, n, seed=3)
        sd = vals.std() / n ** 0.5
        assert est.value == pytest.approx(vals.mean(), rel=1e-12, abs=0)
        assert est.std_error == pytest.approx(sd, rel=1e-12, abs=0)


class TestBump:
    def test_origin_value(self):
        for d in (2, 3, 4):
            assert bump_eval(0.0, d) == pytest.approx(sphere_area(d),
                                                      abs=1e-10)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(67)
        x = rng.standard_normal(3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert bump_eval(q @ x) == pytest.approx(bump_eval(x), abs=1e-8)

    def test_asymptotic_decay(self):
        for d in (2, 3, 4):
            r = 10.0
            lead = sphere_area(d - 1) / r
            assert abs(bump_eval(r, d) - lead) < 2.0 * lead / (r * r) + 1e-9

    def test_monte_carlo_sphere_average(self):
        # independent check: average the tent over random directions
        rng = np.random.default_rng(68)
        x = np.array([0.7, 0.3, -0.2])
        w = rng.standard_normal((200_000, 3))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        z = w @ x
        mc = sphere_area(3) * np.maximum(0.0, 1.0 - np.abs(z)).mean()
        assert bump_eval(x) == pytest.approx(mc, rel=0.01)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_matches_quad_of_sphere_integral(self, d):
        # area(S^{d-2}) * int_0^pi tent(r cos t) sin(t)^(d-2) dt, split at
        # the kinks of the tent so every piece is smooth
        def tent(z):
            return max(0.0, 1.0 - abs(z))

        for r in (0.0, 0.3, 1 - 1e-12, 1.0, 1 + 1e-12, 1.7, 10.0, 1000.0):
            kinks = [np.pi / 2]
            if r > 1:
                kinks += [np.arccos(1 / r), np.arccos(-1 / r)]
            edges = [0.0, *sorted(kinks), np.pi]
            total = sum(quad(lambda t: tent(r * np.cos(t))
                             * np.sin(t) ** (d - 2), a, b,
                             epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                        for a, b in zip(edges, edges[1:]))
            assert abs(bump_eval(r, d) - sphere_area(d - 1) * total) < 1e-10

    @pytest.mark.parametrize("d", range(2, 31))
    def test_matches_incomplete_beta_form(self, d):
        # the former scipy form: area(S^{d-2}) * [B(1/2, b) I_s(1/2, b)
        # + (2r/(d-1)) * ((1-s)^b - 1)] with s = min(1, 1/r^2), b = (d-1)/2
        stencil = []

        def record(radii):
            stencil.append(radii.ravel())
            return radii

        hessian_decay_estimate(d, 10.0, 4, seed=d, radial_fn=record)
        r = np.concatenate([np.linspace(0.0, 1e6, 301),
                            np.geomspace(1e-3, 1e6, 301),
                            [1.0, 1.0 - 1e-9, 1.0 + 1e-9], *stencil])
        b = (d - 1) / 2
        s = 1.0 / np.maximum(r, 1.0) ** 2
        with np.errstate(divide="ignore"):
            slope = np.expm1(b * np.log1p(-s))
        ref = sphere_area(d - 1) * (beta(0.5, b) * betainc(0.5, b, s)
                                    + (2.0 * r / (d - 1)) * slope)
        got = _bump_radial(r, d)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    @pytest.mark.parametrize("d", range(2, 8))
    @pytest.mark.parametrize("r", [1e160, 1e300])
    def test_huge_radius_decays_like_one_over_r(self, d, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = bump_eval(r, d)
            vector_value = bump_eval(np.full(d, r))
        assert value == pytest.approx(sphere_area(d - 1) / r, rel=1e-12)
        assert vector_value == pytest.approx(
            sphere_area(d - 1) / (r * np.sqrt(d)), rel=1e-12)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_radius(self, x):
        with pytest.raises(ValueError):
            bump_eval(x, 3)

    @pytest.mark.parametrize("x", [(np.nan, 0.0, 1.0), (0.0, np.inf, 1.0)])
    def test_rejects_non_finite_vector(self, x):
        with pytest.raises(ValueError):
            bump_eval(np.array(x))

    def test_radius_needs_dimension(self):
        with pytest.raises(ValueError, match="d is required"):
            bump_eval(0.5)

    @pytest.mark.parametrize("d", [2.5, 3.0])
    def test_rejects_non_integer_dimension(self, d):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            bump_eval(1.5, d)
        assert bump_eval(1.5, np.int64(3)) == bump_eval(1.5, 3)

    @pytest.mark.parametrize("x,d", [(np.ones(3), 5), (np.ones(3), 2),
                                     (np.ones((2, 2)), None),
                                     (np.ones((2, 2)), 4)])
    def test_rejects_dimension_mismatch(self, x, d):
        with pytest.raises(ValueError, match="input dimension mismatch"):
            bump_eval(x, d)


class TestHessianDecay:
    def test_quadratic_control_case(self):
        for r in (5.0, 10.0):
            est = hessian_decay_estimate(3, r, 100, seed=4,
                                         radial_fn=lambda rr: rr ** 2 / 2)
            assert est == pytest.approx(ball_volume(3) * r * np.sqrt(3),
                                        rel=1e-9)

    def test_control_grows_with_radius(self):
        vals = [hessian_decay_estimate(3, r, 50, seed=5,
                                       radial_fn=lambda rr: rr ** 2 / 2)
                for r in (5.0, 10.0, 20.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_bump_ratio_near_quarter(self):
        a = hessian_decay_estimate(3, 10.0, 150, seed=6)
        b = hessian_decay_estimate(3, 20.0, 150, seed=6)
        assert 0.15 <= b / a <= 0.40

    def test_guards(self):
        with pytest.raises(ValueError):
            hessian_decay_estimate(3, 1.0, 10)
        with pytest.raises(ValueError):
            hessian_decay_estimate(3, 10.0, 1)

    def test_rejects_nan_radius(self):
        with pytest.raises(ValueError):
            hessian_decay_estimate(3, np.nan, 10)

    @pytest.mark.parametrize("d", [0, 1])
    def test_rejects_dimension_below_two(self, d):
        with pytest.raises(ValueError, match="dimension must be at least 2"):
            hessian_decay_estimate(d, 10.0, 10)

    @pytest.mark.parametrize("d", [2.5, 3.0])
    def test_rejects_non_integer_dimension(self, d):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            hessian_decay_estimate(d, 5.0, 10)

    @pytest.mark.parametrize("r", [8.0, 16.0])
    def test_bump_exact_value_d3(self, r):
        # in d=3 the bump is 4pi - 2pi rho inside the unit ball and 2pi/rho
        # outside, so |H|_F is 2 sqrt(2) pi / rho, then 2 sqrt(6) pi / rho^3
        exact = (4 * np.pi / r ** 2) * np.pi * (
            np.sqrt(2) + 2 * np.sqrt(6) * np.log(r))
        for seed in range(20):
            est = hessian_decay_estimate(3, r, 120, seed=seed)
            assert est == pytest.approx(exact, rel=0.05)

    @pytest.mark.parametrize("d,r", [(3, 5.0), (5, 8.0)])
    def test_quartic_exact_value(self, d, r):
        # f = rho^4/4 has Hessian rho^2 I + 2 x x^T, so |H|_F = rho^2 sqrt(d+8)
        n, seed = 200, 7
        est = hessian_decay_estimate(d, r, n, seed=seed,
                                     radial_fn=lambda rr: rr ** 4 / 4)
        rng = np.random.Generator(np.random.Philox(seed))
        rho = r * (np.arange(n) + rng.random(n)) / n
        exact = ball_volume(d) * r * np.average(rho ** 2 * np.sqrt(d + 8),
                                                weights=rho ** (d - 1))
        assert est == pytest.approx(exact, rel=1e-3)

    @pytest.mark.parametrize("d,tol", [(2, 1e-2), (3, 1e-3), (5, 1e-4)])
    @pytest.mark.parametrize("r", [4.0, 10.0])
    def test_bump_exact_mass(self, d, tol, r):
        # M(r) = (A_d / r^(d-1)) int_0^r rho^(d-1) |H|_F drho, with
        # |H|_F = sqrt(h''^2 + (d-1) (h'/rho)^2), s = min(1, rho^-2),
        # S = area(S^{d-2}), h' = (2S/(d-1)) ((1-s)^((d-1)/2) - 1) and
        # h'' = 2S rho^-3 (1-s)^((d-3)/2) outside the unit ball, 0 inside
        S = sphere_area(d - 1)

        def integrand(rho):
            s = min(1.0, rho ** -2)
            h1 = (2 * S / (d - 1)) * ((1 - s) ** ((d - 1) / 2) - 1)
            h2 = 2 * S * rho ** -3 * (1 - s) ** ((d - 3) / 2) if rho > 1 else 0
            return rho ** (d - 1) * np.hypot(h2, np.sqrt(d - 1) * h1 / rho)

        total = sum(quad(integrand, a, b, epsabs=0, epsrel=1e-12, limit=200)[0]
                    for a, b in ((0.0, 1.0), (1.0, r)))
        exact = sphere_area(d) * total / r ** (d - 1)
        for seed in range(8):
            est = hessian_decay_estimate(d, r, 10_000, seed=seed)
            assert est == pytest.approx(exact, rel=tol)


@pytest.mark.parametrize("n", [np.nan, 10.5, 1])
@pytest.mark.parametrize("estimate", [
    lambda n: laplacian_flux_estimate(AtomMeasureDD((), 0.0, 2), 10.0, n),
    lambda n: hessian_decay_estimate(3, 10.0, n)], ids=["flux", "decay"])
def test_estimators_reject_bad_sample_count(estimate, n):
    with pytest.raises(ValueError):
        estimate(n)


@pytest.mark.parametrize("seed", [1.5, -1])
@pytest.mark.parametrize("estimate", [
    lambda s: laplacian_flux_estimate(AtomMeasureDD((), 0.0, 2), 10.0, 100,
                                      seed=s),
    lambda s: hessian_decay_estimate(3, 10.0, 10, seed=s)],
    ids=["flux", "decay"])
def test_estimators_reject_bad_seed(estimate, seed):
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        estimate(seed)
