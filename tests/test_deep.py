import numpy as np
import pytest

from reluspline import deep, net2
from reluspline.deep import (ParallelDeepNet, SphereFactoredNet,
                             align_to_sphere, bridge_penalty, check_alignment,
                             cost_CL, from_alpha, improving_direction,
                             parallel_eval, sparsify_support)


def random_net(rng, L, m, k, d):
    subnets = []
    for _ in range(k):
        if L == 2:
            mats = [rng.standard_normal((1, d))]
        else:
            mats = [rng.standard_normal((m, d))]
            mats += [rng.standard_normal((m, m)) for _ in range(L - 3)]
            mats.append(rng.standard_normal((1, m)))
        subnets.append(tuple(mats))
    return ParallelDeepNet(tuple(subnets), rng.standard_normal(k))


def reference_chains(net, X):
    """Per-chain ReLU values at every row of X, one chain at a time."""
    out = np.zeros((len(X), len(net.subnets)))
    for p, x in enumerate(np.atleast_2d(X)):
        for i, mats in enumerate(net.subnets):
            z = np.asarray(x, dtype=float)
            for w in mats:
                z = np.maximum(w @ z, 0.0)
            out[p, i] = z[0]
    return out


def reference_eval(net, X):
    return reference_chains(net, X) @ np.asarray(net.top)


def assert_sparsified(s, X, out):
    """At most N active chains, the same predictions, no higher penalty."""
    L = s.depth
    assert np.count_nonzero(out.alpha) <= len(X)
    assert bridge_penalty(out.alpha, L) <= bridge_penalty(s.alpha, L) + 1e-10
    assert np.allclose(reference_eval(out, X), reference_eval(s, X),
                       rtol=0.0, atol=1e-10)


def random_sphere_net(rng, k, d):
    subnets = []
    for _ in range(k):
        w = rng.standard_normal((1, d))
        subnets.append((w / np.linalg.norm(w),))
    return SphereFactoredNet(tuple(subnets), rng.standard_normal(k))


class TestConstruction:
    def test_top_length_mismatch(self):
        with pytest.raises(ValueError):
            ParallelDeepNet(((np.ones((1, 2)),),), [1.0, 2.0])

    def test_last_matrix_must_be_row(self):
        with pytest.raises(ValueError):
            ParallelDeepNet(((np.ones((2, 2)),),), [1.0])

    @pytest.mark.parametrize("subnets", [
        ((),),
        ((np.ones(2),),),
        ((np.ones((2, 2)), np.ones((1, 2))), (np.ones((1, 2)),)),
        ((np.ones((2, 2)), np.ones((1, 2))),
         (np.ones((3, 2)), np.ones((1, 3)))),
        ((np.ones((2, 2)), np.ones((3, 2)), np.ones((1, 3))),),
        ((np.ones((2, 2)), np.ones((1, 3))),),
    ], ids=["empty-chain", "1-D-matrix", "depth-mismatch", "chains-differ",
            "middle-not-square", "last-not-1xm"])
    def test_rejects_bad_chain_shapes(self, subnets):
        with pytest.raises(ValueError):
            ParallelDeepNet(subnets, np.ones(len(subnets)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_matrix(self, bad):
        with pytest.raises(ValueError, match="non-finite weight matrix"):
            ParallelDeepNet(((np.array([[bad, 1.0]]),),), [1.0])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_non_finite_top(self, bad):
        with pytest.raises(ValueError, match="non-finite top coefficient"):
            ParallelDeepNet(((np.ones((1, 2)),),), [bad])

    def test_no_chains_reports_depth_two(self):
        net = ParallelDeepNet((), [])
        assert net.depth == 2 and net.input_dim == 0

    def test_sphere_net_requires_unit_norm(self):
        with pytest.raises(ValueError):
            SphereFactoredNet(((2.0 * np.ones((1, 2)),),), [1.0])

    def test_json_round_trip(self):
        rng = np.random.default_rng(41)
        net = random_net(rng, 3, 2, 3, 2)
        back = ParallelDeepNet.from_json(net.to_json())
        assert back.depth == net.depth
        x = rng.standard_normal(2)
        assert parallel_eval(back, x) == pytest.approx(parallel_eval(net, x))


class TestEval:
    def test_zero_top(self):
        rng = np.random.default_rng(42)
        net = random_net(rng, 3, 3, 2, 2)
        zeroed = ParallelDeepNet(net.subnets, np.zeros(2))
        assert parallel_eval(zeroed, rng.standard_normal(2)) == 0.0

    def test_scalar_chain_composition(self):
        # depth 4, all 1x1 positive weights: value is the product on x > 0
        net = ParallelDeepNet(
            (((np.array([[2.0]]), np.array([[3.0]]), np.array([[0.5]]))),),
            [4.0])
        assert parallel_eval(net, np.array([1.5])) == pytest.approx(
            4.0 * 0.5 * 3.0 * 2.0 * 1.5)
        assert parallel_eval(net, np.array([-1.0])) == 0.0

    def test_depth2_matches_biasless_two_layer(self):
        rng = np.random.default_rng(43)
        net = random_net(rng, 2, 1, 5, 1)
        w1 = np.array([s[0][0, 0] for s in net.subnets])
        ref = net2.TwoLayerNet(w1, np.zeros(5), net.top, 0.0)
        for x in rng.standard_normal(10):
            assert parallel_eval(net, np.array([x])) == pytest.approx(
                net2.net_eval(ref, x), abs=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(44)
        net = random_net(rng, 3, 2, 1, 3)
        with pytest.raises(ValueError):
            parallel_eval(net, np.zeros(2))

    @pytest.mark.parametrize("call", [
        lambda s, X: parallel_eval(s, X[0]), sparsify_support,
        improving_direction], ids=["parallel_eval", "sparsify_support",
                                   "improving_direction"])
    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (2, 4, 3)],
                             ids=["narrow", "wide", "3-D"])
    def test_input_dimension_mismatch_message(self, call, shape):
        s = align_to_sphere(random_net(np.random.default_rng(45), 3, 2, 6, 3))
        with pytest.raises(ValueError, match="input dimension mismatch"):
            call(s, np.zeros(shape))


class TestBatchedKernel:
    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_matches_per_chain_loop(self, L):
        rng = np.random.default_rng(60 + L)
        net = random_net(rng, L, 5, 40, 3)
        X = rng.standard_normal((25, 3))
        want = reference_chains(net, X)
        got = deep._chain_values(net.layers, X)
        assert got.shape == (25, 40)
        assert np.allclose(got, want, rtol=1e-12,
                           atol=1e-12 * np.abs(want).max())
        ref = reference_eval(net, X)
        values = np.array([parallel_eval(net, x) for x in X])
        assert np.allclose(values, ref, rtol=1e-12,
                           atol=1e-12 * np.abs(ref).max())
        s = align_to_sphere(net)
        assert s.layers[0].shape == (40,) + net.layers[0].shape[1:]
        sphere = np.array([parallel_eval(s, x) for x in X])
        assert np.allclose(sphere, ref, rtol=1e-10,
                           atol=1e-10 * np.abs(ref).max())

    def test_dead_chains_give_zero_columns(self):
        rng = np.random.default_rng(64)
        net = random_net(rng, 3, 4, 6, 2)
        subnets = list(net.subnets)
        # a negative first layer on the positive quadrant, and a zero matrix
        subnets[1] = (-np.abs(subnets[1][0]),) + subnets[1][1:]
        subnets[4] = (subnets[4][0], np.zeros((1, 4)))
        dead = ParallelDeepNet(tuple(subnets), net.top)
        X = np.abs(rng.standard_normal((10, 2)))
        got = deep._chain_values(dead.layers, X)
        assert np.all(got[:, 1] == 0.0) and np.all(got[:, 4] == 0.0)
        assert np.allclose(got, reference_chains(dead, X), rtol=1e-12,
                           atol=1e-15)

    def test_empty_net(self):
        net = ParallelDeepNet((), [])
        assert net.k == 0 and net.layers == ()
        assert parallel_eval(net, np.zeros(3)) == 0.0
        assert deep._chain_values(net.layers, np.zeros((4, 3))).shape == (4, 0)
        assert parallel_eval(align_to_sphere(net), [1.0]) == 0.0

    def test_one_and_two_dimensional_inputs(self):
        rng = np.random.default_rng(65)
        net = random_net(rng, 3, 3, 7, 2)
        x = rng.standard_normal(2)
        one = deep._chain_values(net.layers, x)
        assert one.shape == (1, 7)
        assert np.array_equal(one, deep._chain_values(net.layers, x[None, :]))

    def test_stacks_and_views_are_read_only(self):
        rng = np.random.default_rng(66)
        raw = random_net(rng, 4, 3, 5, 2).to_dict()["subnets"]
        top = rng.standard_normal(5)
        net = ParallelDeepNet(tuple(tuple(map(np.array, s)) for s in raw), top)
        # the net keeps a frozen copy; the caller's array stays writable
        assert top.flags.writeable and not net.top.flags.writeable
        for i, mats in enumerate(raw):
            for j, w in enumerate(mats):
                assert np.array_equal(net.layers[j][i], w)
        for s in (net, align_to_sphere(net)):
            for j, layer in enumerate(s.layers):
                assert not layer.flags.writeable
                for i in range(5):
                    view = s.subnets[i][j]
                    assert not view.flags.writeable
                    assert np.shares_memory(view, layer)
                    assert np.array_equal(view, layer[i])
            with pytest.raises(ValueError):
                s.layers[0][0, 0, 0] = 1.0
            with pytest.raises(ValueError):
                s.subnets[0][0][0, 0] = 1.0


class TestCost:
    def test_simple_values(self):
        net = ParallelDeepNet(((np.array([[1.0, 0.0]]),),), [1.0])
        assert cost_CL(net) == pytest.approx(1.0)

    def test_three_layer_arithmetic(self):
        first = np.sqrt(2.0) * np.eye(2)  # Frobenius norm 2
        net = ParallelDeepNet(((first, np.array([[2.0, 0.0]])),
                               (first, np.array([[0.0, 2.0]]))), [3.0, 3.0])
        assert cost_CL(net) == pytest.approx((18 + 2 * (4 + 4)) / 3)

    def test_zero_net(self):
        net = ParallelDeepNet(((np.zeros((1, 2)),),), [0.0])
        assert cost_CL(net) == 0.0

    def test_overflow_gives_inf_without_warning(self):
        # squares of 1e200 overflow; filterwarnings turns a warning into a
        # failure, and alpha itself stays finite
        net = ParallelDeepNet(((np.full((1, 2), 1e200), np.array([[1e200]])),),
                              [1e-300])
        assert cost_CL(net) == np.inf
        assert check_alignment(net).max_deviation == np.inf
        assert align_to_sphere(net).alpha[0] == pytest.approx(
            np.sqrt(2.0) * 1e100, rel=1e-15)

    def test_unmeasurable_chain_is_not_aligned(self):
        # the second chain's squares are both inf, so its spread is NaN;
        # it must not hide behind the first chain's 0
        net = ParallelDeepNet(((np.array([[1.0, 0.0]]),),
                               (np.array([[1e200, 0.0]]),)), [1.0, 1e200])
        report = check_alignment(net)
        assert report.deviations[0] == 0.0
        assert np.isnan(report.max_deviation) and not report.aligned


class TestAlignment:
    def test_simple_factorization(self):
        net = ParallelDeepNet(((np.array([[2.0, 0.0]]),),), [3.0])
        s = align_to_sphere(net)
        assert s.alpha[0] == pytest.approx(6.0)
        assert np.allclose(s.subnets[0][0], [[1.0, 0.0]])

    @pytest.mark.parametrize("entry, top, want", [(1e200, 1e-300, 1e100),
                                                  (1e-200, 1e300, 1e-100)])
    def test_extreme_entries_keep_alpha(self, entry, top, want):
        # squares of 1e200 overflow (a RuntimeWarning, which the suite makes
        # an error) and squares of 1e-200 vanish, taking the chain for dead;
        # either way alpha is sqrt(2) * top * entry^3
        net = ParallelDeepNet.from_dict(
            {"subnets": [[[[entry, entry]], [[entry]]]], "top": [top]})
        alpha = align_to_sphere(net).alpha[0]
        assert alpha == pytest.approx(np.sqrt(2.0) * want, rel=1e-15, abs=0)

    def test_zero_subnet_gets_zero_alpha(self):
        net = ParallelDeepNet(((np.zeros((1, 2)),),), [3.0])
        assert align_to_sphere(net).alpha[0] == 0.0

    def test_eval_preserved(self):
        rng = np.random.default_rng(45)
        for L in (2, 3, 4):
            net = random_net(rng, L, 3, 4, 2)
            s = align_to_sphere(net)
            back = from_alpha(s)
            for _ in range(50):
                x = rng.standard_normal(2)
                v = parallel_eval(net, x)
                assert parallel_eval(s, x) == pytest.approx(v, abs=1e-10)
                assert parallel_eval(back, x) == pytest.approx(v, abs=1e-10)

    def test_from_alpha_cost_identity(self):
        rng = np.random.default_rng(46)
        for L in (2, 3, 4):
            net = random_net(rng, L, 8, 10, 4)
            s = align_to_sphere(net)
            realigned = from_alpha(s)
            penalty = bridge_penalty(s.alpha, L)
            assert abs(cost_CL(realigned) - penalty) < 1e-10
            assert penalty <= cost_CL(net) + 1e-10

    def test_am_gm_strict_when_unbalanced(self):
        rng = np.random.default_rng(47)
        net = random_net(rng, 3, 3, 2, 2)
        # scale one layer up, another down: same function, higher cost
        sub = list(net.subnets)
        mats = list(sub[0])
        mats[0] = 2.0 * mats[0]
        mats[1] = 0.5 * mats[1]
        sub[0] = tuple(mats)
        unbalanced = ParallelDeepNet(tuple(sub), net.top)
        report = check_alignment(unbalanced)
        assert report.max_deviation > 1e-6
        s = align_to_sphere(unbalanced)
        assert bridge_penalty(s.alpha, 3) < cost_CL(unbalanced) - 1e-9

    def test_from_alpha_output_is_aligned(self):
        rng = np.random.default_rng(48)
        net = from_alpha(align_to_sphere(random_net(rng, 4, 3, 5, 2)))
        assert check_alignment(net).aligned

    def test_zero_net_aligned(self):
        net = ParallelDeepNet(((np.zeros((1, 2)),),), [0.0])
        assert check_alignment(net).aligned


class TestBridgePenalty:
    def test_examples(self):
        assert bridge_penalty([1.0, 1.0], 2) == pytest.approx(2.0)
        assert bridge_penalty([8.0], 3) == pytest.approx(4.0)

    def test_depth2_is_l1(self):
        rng = np.random.default_rng(49)
        a = rng.standard_normal(10)
        assert bridge_penalty(a, 2) == pytest.approx(np.abs(a).sum())

    def test_depth4_is_sqrt_sum(self):
        rng = np.random.default_rng(50)
        a = rng.standard_normal(10)
        assert bridge_penalty(a, 4) == pytest.approx(
            np.sqrt(np.abs(a)).sum())

    def test_rejects_shallow(self):
        with pytest.raises(ValueError):
            bridge_penalty([1.0], 1)

    @pytest.mark.parametrize("L", [2.5, 3.0, np.nan, "3"])
    def test_rejects_non_integer_depth(self, L):
        with pytest.raises(ValueError, match="depth must be an integer"):
            bridge_penalty([1.0, 2.0], L)

    def test_numpy_integer_depth(self):
        assert bridge_penalty([8.0], np.int64(3)) == pytest.approx(4.0)


class TestSparsify:
    def test_square_full_rank_unchanged(self):
        rng = np.random.default_rng(51)
        s = random_sphere_net(rng, 3, 3)
        X = rng.standard_normal((3, 3))
        out = sparsify_support(s, X)
        assert np.array_equal(out.alpha, s.alpha)

    def test_duplicate_subnets_merge(self):
        rng = np.random.default_rng(52)
        w = rng.standard_normal((1, 2))
        w /= np.linalg.norm(w)
        others = random_sphere_net(rng, 2, 2)
        subnets = ((w,), (w,)) + others.subnets
        s = SphereFactoredNet(subnets, [1.0, 2.0, 0.5, -0.5])
        X = rng.standard_normal((3, 2))
        out = sparsify_support(s, X)
        assert np.count_nonzero(out.alpha) <= 3
        for x in X:
            assert parallel_eval(out, x) == pytest.approx(
                parallel_eval(s, x), abs=1e-10)

    def test_overcomplete_random_instances(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            s = random_sphere_net(rng, n + 3, 2)
            X = rng.standard_normal((n, 2))
            out = sparsify_support(s, X)
            assert np.count_nonzero(out.alpha) <= n
            assert np.abs(out.alpha).sum() <= np.abs(s.alpha).sum() + 1e-10
            for x in X:
                assert parallel_eval(out, x) == pytest.approx(
                    parallel_eval(s, x), abs=1e-10)

    def test_benchmark_scale(self):
        # (N, k) = (30, 120) at d=3: about 90 steps of the walk
        rng = np.random.default_rng(67)
        for _ in range(3):
            s = random_sphere_net(rng, 120, 3)
            X = rng.standard_normal((30, 3))
            out = sparsify_support(s, X)
            assert np.count_nonzero(out.alpha) <= 30
            assert np.abs(out.alpha).sum() <= np.abs(s.alpha).sum() + 1e-10
            want = reference_eval(s, X)
            assert np.allclose(reference_eval(out, X), want, rtol=0.0,
                               atol=1e-10)


class TestDeepSparsify:
    """The walk at L >= 3: steps oriented by the penalty's tangent."""

    @pytest.mark.parametrize("L, n, k", [(3, 20, 60), (4, 30, 120)])
    def test_benchmark_scale(self, L, n, k):
        rng = np.random.default_rng(80 + L)
        s = align_to_sphere(random_net(rng, L, 4, k, 3))
        X = rng.standard_normal((n, 3))
        out = sparsify_support(s, X)
        assert_sparsified(s, X, out)
        assert bridge_penalty(out.alpha, L) < 0.8 * bridge_penalty(s.alpha, L)

    @staticmethod
    def _tangent_case(L, seed):
        rng = np.random.default_rng([L, seed])
        n = int(rng.integers(1, 4))
        subnets = [tuple([rng.standard_normal((3, 2))]
                         + [rng.standard_normal((3, 3)) for _ in range(L - 3)]
                         + [rng.standard_normal((1, 3))])
                   for _ in range(n + 1)]
        top = rng.standard_normal(n + 1) * np.exp(rng.uniform(-5, 1, n + 1))
        s = align_to_sphere(ParallelDeepNet(tuple(subnets), top))
        return s, rng.standard_normal((n, 2))

    # start -> sign(alpha).beta walk -> tangent walk: 4.763 -> 4.956 -> 4.617
    # at [3, 404] and 8.379 -> 8.932 -> 8.027 at [4, 509]
    @pytest.mark.parametrize("L, seed, start, end",
                             [(3, 404, 4.763, 4.617), (4, 509, 8.379, 8.027)])
    def test_sign_orientation_counterexamples(self, L, seed, start, end):
        s, X = self._tangent_case(L, seed)
        out = sparsify_support(s, X)
        assert_sparsified(s, X, out)
        assert bridge_penalty(s.alpha, L) == pytest.approx(start, abs=1e-3)
        assert bridge_penalty(out.alpha, L) == pytest.approx(end, abs=1e-3)


class TestImprovingDirection:
    def _sphere_deep(self, rng, L, k, d, m=3):
        raw = random_net(rng, L, m, k, d)
        return align_to_sphere(raw)

    def test_returns_none_when_sparse_enough(self):
        rng = np.random.default_rng(55)
        s = self._sphere_deep(rng, 3, 2, 2)
        assert improving_direction(s, rng.standard_normal((5, 2))) is None

    def test_certificate_strictly_decreases(self):
        rng = np.random.default_rng(56)
        found = 0
        for _ in range(10):
            n = 3
            s = self._sphere_deep(rng, 3, n + 4, 2)
            X = rng.standard_normal((n, 2))
            out = improving_direction(s, X)
            if out is None:
                continue
            beta, rho = out
            found += 1
            alpha = np.asarray(s.alpha)
            base = bridge_penalty(alpha, 3)
            up = bridge_penalty(alpha + rho * beta, 3)
            down = bridge_penalty(alpha - rho * beta, 3)
            assert min(up, down) < base - 1e-12
            # signs preserved on the perturbed actives
            nz = beta != 0.0
            assert np.all(np.sign(alpha[nz] + rho * beta[nz])
                          == np.sign(alpha[nz]))
            assert np.all(np.sign(alpha[nz] - rho * beta[nz])
                          == np.sign(alpha[nz]))
            # predictions untouched in both directions
            for x in X:
                v0 = parallel_eval(s, x)
                for sgn in (1.0, -1.0):
                    pert = SphereFactoredNet(s.subnets,
                                             alpha + sgn * rho * beta)
                    assert parallel_eval(pert, x) == pytest.approx(v0,
                                                                   abs=1e-9)
        assert found >= 1

    def test_certificate_at_scale(self):
        rng = np.random.default_rng(68)
        n, L = 20, 3
        for k in (60, 90):
            s = self._sphere_deep(rng, L, k, 3, m=4)
            X = rng.standard_normal((n, 3))
            beta, rho = improving_direction(s, X)
            alpha = np.asarray(s.alpha)
            base = bridge_penalty(alpha, L)
            up = bridge_penalty(alpha + rho * beta, L)
            down = bridge_penalty(alpha - rho * beta, L)
            assert min(up, down) < base - 1e-12
            nz = beta != 0.0
            assert np.count_nonzero(nz) <= n + 1
            for sgn in (1.0, -1.0):
                moved = alpha[nz] + sgn * rho * beta[nz]
                assert np.all(np.sign(moved) == np.sign(alpha[nz]))
                pert = SphereFactoredNet(s.subnets, alpha + sgn * rho * beta)
                assert np.allclose(reference_eval(pert, X),
                                   reference_eval(s, X), rtol=0.0, atol=1e-9)

    def test_rejects_depth2(self):
        rng = np.random.default_rng(57)
        s = random_sphere_net(rng, 5, 2)
        with pytest.raises(ValueError):
            improving_direction(s, np.zeros((2, 2)))


class TestDeadChains:
    """Chains dead on every input give zero columns of the prediction map."""

    @staticmethod
    def _kill(subnets, dead):
        # after the first layer, nonnegative matrices keep a chain alive
        # wherever a first-layer unit is; a nonpositive last row kills it
        out = [[s[0]] + [np.abs(w) for w in s[1:]] for s in subnets]
        for i in dead:
            out[i][-1] = -out[i][-1]
        return tuple(map(tuple, out))

    @staticmethod
    def _ulp_perturbed(s, rng):
        def nudge(w):
            return w * (1.0 + np.finfo(float).eps * rng.choice([-1.0, 1.0],
                                                               w.shape))
        subnets = tuple(tuple(nudge(w) for w in mats) for mats in s.subnets)
        return SphereFactoredNet(subnets, nudge(np.asarray(s.alpha)))

    @pytest.mark.parametrize("L", [3, 4])
    @pytest.mark.parametrize("n_dead", [1, 2, 3])
    def test_direction_is_unit_vector_on_first_dead_chain(self, L, n_dead):
        rng = np.random.default_rng(700 + 10 * L + n_dead)
        n, d, m, k = 5, 2, 6, 9
        raw = random_net(rng, L, m, k, d)
        dead = np.sort(rng.choice(n + 1, n_dead, replace=False))
        s = align_to_sphere(ParallelDeepNet(self._kill(raw.subnets, dead),
                                            raw.top))
        X = rng.standard_normal((n, d))
        phi = deep._chain_values(s.layers, X)
        assert np.all(phi[:, dead] == 0.0)
        assert np.all(np.any(phi != 0.0, axis=0)[np.setdiff1d(range(k), dead)])
        want = np.zeros(k)
        want[dead[0]] = 1.0
        beta, rho = improving_direction(s, X)
        assert np.array_equal(beta, want)
        assert rho == 0.5 * abs(s.alpha[dead[0]])
        # the same vector after ulp-level changes of every weight and of phi
        for _ in range(3):
            again, _ = improving_direction(self._ulp_perturbed(s, rng), X)
            assert np.array_equal(again, want)
            nudged = phi * (1.0 + np.finfo(float).eps
                            * rng.choice([-1.0, 1.0], phi.shape))
            assert np.array_equal(deep._null_vector(nudged[:, :n + 1]),
                                  want[:n + 1])

    def test_sparsify_zeroes_dead_chains_first(self):
        rng = np.random.default_rng(77)
        n, d, k = 4, 2, 9
        s = random_sphere_net(rng, k, d)
        X = np.abs(rng.standard_normal((n, d)))
        # a nonpositive row is dead on the positive quadrant
        subnets = list(s.subnets)
        for i in (1, 3):
            subnets[i] = (-np.abs(subnets[i][0]),)
        s = SphereFactoredNet(tuple(subnets), s.alpha)
        out = sparsify_support(s, X)
        assert out.alpha[1] == 0.0 and out.alpha[3] == 0.0
        assert np.count_nonzero(out.alpha) <= n
        assert np.abs(out.alpha).sum() <= np.abs(s.alpha).sum() + 1e-10
        assert np.allclose(reference_eval(out, X), reference_eval(s, X),
                           rtol=0.0, atol=1e-10)

    def test_sparsify_zeroes_dead_chains_first_deep(self):
        rng = np.random.default_rng(78)
        n, d, m, k = 4, 2, 3, 9
        raw = random_net(rng, 3, m, k, d)
        s = align_to_sphere(ParallelDeepNet(self._kill(raw.subnets, (1, 3)),
                                            raw.top))
        X = rng.standard_normal((n, d))
        assert np.all(deep._chain_values(s.layers, X)[:, [1, 3]] == 0.0)
        out = sparsify_support(s, X)
        assert out.alpha[1] == 0.0 and out.alpha[3] == 0.0
        assert_sparsified(s, X, out)
