import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsep import (GainContext, HmmModel, brute_force_decode,
                     gains_from_theta, gfhmm_infer, gvq_infer,
                     log_b_table, maximize_theta, parallel_viterbi)
from specsep.decode import (NumericError, _viterbi_from_table,
                            mega_frame_slices)
from specsep.gain import THETA_MAX_DB, THETA_MIN_DB
from specsep.mixmax import mixmax_combine
from specsep.quantize import Codebook, gvq_score

from conftest import (backpointer_viterbi, log_b_jk, naive_viterbi_deltas,
                      path_loglik,
                      planted_path_objective, random_hmm,
                      sampled_feature_mixture, shared_variance_hmm,
                      structured_hmm)


@pytest.fixture
def ctx():
    return GainContext(g_y=1.0)


class TestParallelViterbi:
    def test_k1_closed_form(self, ctx):
        rng = np.random.default_rng(0)
        mx = HmmModel(pi=np.zeros(1), trans=np.zeros((1, 1)),
                      means=rng.normal(0, 1, (1, 4)),
                      vars=rng.uniform(0.3, 1, (1, 4)))
        mv = HmmModel(pi=np.zeros(1), trans=np.zeros((1, 1)),
                      means=rng.normal(0, 1, (1, 4)),
                      vars=rng.uniform(0.3, 1, (1, 4)))
        y = rng.normal(0, 1, (5, 4))
        res = parallel_viterbi(y, mx, mv, 2.0, ctx)
        assert np.all(res.path_x == 0) and np.all(res.path_v == 0)
        gp = gains_from_theta(2.0, ctx)
        b = log_b_table(y, mx, mv, gp)
        expected = (mx.pi[0] + mv.pi[0] + b[:, 0, 0].sum()
                    + (5 - 1) * (mx.trans[0, 0] + mv.trans[0, 0]))
        assert res.logprob == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_k2_r3(self, ctx):
        rng = np.random.default_rng(1)
        mx = random_hmm(rng, K=2, dim=3)
        mv = random_hmm(rng, K=2, dim=3)
        y = rng.normal(0, 1, (3, 3))
        fast = parallel_viterbi(y, mx, mv, 1.5, ctx)
        oracle = brute_force_decode(y, mx, mv, 1.5, ctx)
        assert fast.logprob == pytest.approx(oracle.logprob, rel=1e-9)
        np.testing.assert_array_equal(fast.path_x, oracle.path_x)
        np.testing.assert_array_equal(fast.path_v, oracle.path_v)

    def test_uniform_models_decouple_frames(self, ctx):
        rng = np.random.default_rng(2)
        K, dim, R = 3, 4, 6
        uniform = np.log(np.full((K, K), 1.0 / K))
        pi = np.log(np.full(K, 1.0 / K))
        mx = HmmModel(pi.copy(), uniform.copy(), rng.normal(0, 1, (K, dim)),
                      rng.uniform(0.3, 1, (K, dim)))
        mv = HmmModel(pi.copy(), uniform.copy(), rng.normal(0, 1, (K, dim)),
                      rng.uniform(0.3, 1, (K, dim)))
        y = rng.normal(0, 1, (R, dim))
        res = parallel_viterbi(y, mx, mv, 0.0, ctx)
        b = log_b_table(y, mx, mv, gains_from_theta(0.0, ctx))
        for r in range(R):
            j, k = divmod(int(np.argmax(b[r])), K)
            assert res.path_x[r] == j
            assert res.path_v[r] == k

    def test_empty_sequence_rejected(self, ctx):
        rng = np.random.default_rng(4)
        m = random_hmm(rng, K=2, dim=3)
        with pytest.raises(ValueError, match="empty"):
            parallel_viterbi(np.zeros((0, 3)), m, m, 0.0, ctx)

    def test_theta_outside_search_interval_rejected(self, ctx):
        rng = np.random.default_rng(4)
        m = random_hmm(rng, K=2, dim=3)
        y = rng.normal(0, 1, (4, 3))
        for bad in (20.0, float("nan")):
            with pytest.raises(ValueError, match="outside"):
                parallel_viterbi(y, m, m, bad, ctx)
        assert parallel_viterbi(y, m, m, 15.0, ctx).theta_hat == 15.0


class TestBruteForceOracle:
    def test_k1_any_r_matches(self, ctx):
        rng = np.random.default_rng(5)
        m = random_hmm(rng, K=1, dim=2)
        y = rng.normal(0, 1, (6, 2))
        fast = parallel_viterbi(y, m, m, 3.0, ctx)
        oracle = brute_force_decode(y, m, m, 3.0, ctx)
        assert fast.logprob == pytest.approx(oracle.logprob, rel=1e-12)

    def test_ten_seeds_k3_r4(self, ctx):
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            mx = random_hmm(rng, K=3, dim=2)
            mv = random_hmm(rng, K=3, dim=2)
            y = rng.normal(0, 1, (4, 2))
            theta = float(rng.uniform(-10, 10))
            fast = parallel_viterbi(y, mx, mv, theta, ctx)
            oracle = brute_force_decode(y, mx, mv, theta, ctx)
            assert fast.logprob == pytest.approx(oracle.logprob, rel=1e-9)
            np.testing.assert_array_equal(fast.path_x, oracle.path_x)
            np.testing.assert_array_equal(fast.path_v, oracle.path_v)

    def test_duplicated_state_logprob_still_matches(self, ctx):
        rng = np.random.default_rng(6)
        mean = rng.normal(0, 1, (1, 3))
        var = rng.uniform(0.3, 1, (1, 3))
        dup = HmmModel(pi=np.log([0.5, 0.5]),
                       trans=np.log(np.full((2, 2), 0.5)),
                       means=np.vstack([mean, mean]),
                       vars=np.vstack([var, var]))
        other = random_hmm(rng, K=2, dim=3)
        y = rng.normal(0, 1, (4, 3))
        fast = parallel_viterbi(y, dup, other, 0.0, ctx)
        oracle = brute_force_decode(y, dup, other, 0.0, ctx)
        assert fast.logprob == pytest.approx(oracle.logprob, rel=1e-12)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(K_x=st.integers(1, 3), K_v=st.integers(1, 3), R=st.integers(1, 4),
           dim=st.integers(1, 4), theta=st.floats(-15.0, 15.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(K_x=2, K_v=3, R=4, dim=3, theta=1.5, seed=0)
    @example(K_x=3, K_v=1, R=4, dim=1, theta=-15.0, seed=1)
    def test_matches_viterbi_with_any_state_counts(self, K_x, K_v, R, dim,
                                                   theta, seed):
        ctx = GainContext(g_y=1.0)
        rng = np.random.default_rng(seed)
        mx = random_hmm(rng, K=K_x, dim=dim)
        mv = random_hmm(rng, K=K_v, dim=dim)
        y = rng.normal(0, 1, (R, dim))
        fast = parallel_viterbi(y, mx, mv, theta, ctx)
        oracle = brute_force_decode(y, mx, mv, theta, ctx)
        assert fast.logprob == pytest.approx(oracle.logprob, rel=1e-9)
        assert fast.path_x.max() < K_x and fast.path_v.max() < K_v
        paths = (fast.path_x, fast.path_v)
        if not (np.array_equal(fast.path_x, oracle.path_x)
                and np.array_equal(fast.path_v, oracle.path_v)):
            # another path pair is allowed only when it ties the optimum
            assert path_loglik(paths, y, mx, mv, theta, ctx) == \
                pytest.approx(oracle.logprob, rel=1e-9)

    def test_size_guard(self, ctx):
        rng = np.random.default_rng(7)
        m = random_hmm(rng, K=8, dim=2)
        with pytest.raises(ValueError, match="too large"):
            brute_force_decode(np.zeros((8, 2)), m, m, 0.0, ctx)


class TestTwoStageEquivalence:
    def test_bit_identical_to_naive_k4(self, ctx):
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            K = int(rng.integers(2, 9))
            mx = random_hmm(rng, K=K, dim=3)
            mv = random_hmm(rng, K=K, dim=3)
            y = rng.normal(0, 1, (5, 3))
            b = log_b_table(y, mx, mv, gains_from_theta(1.0, ctx))
            trace = []
            _viterbi_from_table(b, mx.pi, mv.pi, mx.trans, mv.trans,
                                delta_trace=trace)
            naive = naive_viterbi_deltas(b, mx.pi, mv.pi, mx.trans, mv.trans)
            assert len(trace) == len(naive)
            for fast_d, naive_d in zip(trace, naive):
                np.testing.assert_array_equal(fast_d, naive_d)


class TestBacktraceByRecomputation:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(K_x=st.integers(1, 6), K_v=st.integers(1, 6), R=st.integers(1, 12),
           tie_heavy=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(K_x=3, K_v=5, R=6, tie_heavy=True, seed=0)
    @example(K_x=5, K_v=2, R=8, tie_heavy=False, seed=1)
    def test_matches_backpointer_reference(self, K_x, K_v, R, tie_heavy,
                                           seed):
        # tie-heavy draws hold integer-valued emissions and uniform priors
        # and transitions, so many predecessors tie at both stages
        rng = np.random.default_rng(seed)
        if tie_heavy:
            b = rng.integers(-2, 1, (R, K_x, K_v)).astype(np.float64)
            log_pi_x, log_pi_v = (np.full(K, -np.log(K)) for K in (K_x, K_v))
            log_a_x, log_a_v = (np.full((K, K), -np.log(K))
                                for K in (K_x, K_v))
        else:
            mx = random_hmm(rng, K=K_x, dim=1)
            mv = random_hmm(rng, K=K_v, dim=1)
            b = rng.normal(0.0, 3.0, (R, K_x, K_v))
            log_pi_x, log_pi_v = mx.pi, mv.pi
            log_a_x, log_a_v = mx.trans, mv.trans
        args = (b, log_pi_x, log_pi_v, log_a_x, log_a_v)
        path_x, path_v, logprob = _viterbi_from_table(*args)
        want_x, want_v, want_logprob = backpointer_viterbi(*args)
        np.testing.assert_array_equal(path_x, want_x)
        np.testing.assert_array_equal(path_v, want_v)
        assert logprob == want_logprob


class TestPathLoglik:
    def test_equals_viterbi_score_on_decoded_paths(self, ctx):
        rng = np.random.default_rng(8)
        mx = random_hmm(rng, K=3, dim=4)
        mv = random_hmm(rng, K=3, dim=4)
        y = rng.normal(0, 1, (6, 4))
        res = parallel_viterbi(y, mx, mv, 4.0, ctx)
        ll = path_loglik((res.path_x, res.path_v), y, mx, mv, 4.0, ctx)
        assert ll == pytest.approx(res.logprob, rel=1e-12)

    def test_transition_terms_cancel_in_differences(self, ctx):
        rng = np.random.default_rng(9)
        mx = random_hmm(rng, K=3, dim=4)
        mv = random_hmm(rng, K=3, dim=4)
        y = rng.normal(0, 1, (5, 4))
        px = rng.integers(0, 3, 5)
        pv = rng.integers(0, 3, 5)
        l1 = path_loglik((px, pv), y, mx, mv, 2.0, ctx)
        l2 = path_loglik((px, pv), y, mx, mv, -7.0, ctx)
        states = [(mx.means[px[r]], mx.vars[px[r]], mv.means[pv[r]],
                   mv.vars[pv[r]]) for r in range(5)]
        b_diff = sum(
            log_b_jk(y[r], *states[r], gains_from_theta(2.0, ctx))
            - log_b_jk(y[r], *states[r], gains_from_theta(-7.0, ctx))
            for r in range(5))
        assert l1 - l2 == pytest.approx(b_diff, rel=1e-9)

    def test_single_frame_k1_matches_grid(self, ctx):
        rng = np.random.default_rng(10)
        mx = HmmModel(np.zeros(1), np.zeros((1, 1)),
                      rng.normal(0, 1, (1, 6)), rng.uniform(0.2, 1, (1, 6)))
        mv = HmmModel(np.zeros(1), np.zeros((1, 1)),
                      rng.normal(0, 1, (1, 6)), rng.uniform(0.2, 1, (1, 6)))
        y = mixmax_combine(mx.means[0], mv.means[0],
                           gains_from_theta(5.0, ctx))[None, :]
        paths = (np.zeros(1, dtype=int), np.zeros(1, dtype=int))

        def objective(t):
            return path_loglik(paths, y, mx, mv, t, ctx)

        grid = np.arange(-15.0, 15.0 + 1e-9, 0.01)
        grid_best = grid[int(np.argmax([objective(t) for t in grid]))]
        theta_star, _ = maximize_theta(objective, (-15.0, 15.0))
        assert abs(theta_star - grid_best) <= 0.1

    def test_invalid_indices_rejected(self, ctx):
        rng = np.random.default_rng(11)
        m = random_hmm(rng, K=2, dim=3)
        y = rng.normal(0, 1, (3, 3))
        with pytest.raises(ValueError, match="invalid state"):
            path_loglik((np.array([0, 2, 0]), np.zeros(3, dtype=int)),
                        y, m, m, 0.0, ctx)


class TestMaximizeTheta:
    def test_pure_parabola_exact_vertex(self):
        theta, value = maximize_theta(lambda t: -(t - 5.0) ** 2,
                                      (-15.0, 15.0))
        assert theta == pytest.approx(5.0, abs=1e-9)
        assert value == pytest.approx(0.0, abs=1e-18)

    def test_boundary_clamp(self):
        theta, _ = maximize_theta(lambda t: -(t - 40.0) ** 2, (-15.0, 15.0))
        assert theta == pytest.approx(15.0, abs=1e-9)

    def test_planted_path_likelihood_matches_grid(self, ctx):
        grid = np.arange(-15.0, 15.0 + 1e-9, 0.01)
        for seed in range(5):
            objective, _ = planted_path_objective(7000 + seed, ctx, K=4)
            grid_best = grid[int(np.argmax([objective(t) for t in grid]))]
            theta_star, _ = maximize_theta(objective, (-15.0, 15.0))
            assert abs(theta_star - grid_best) <= 0.1

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(kinked=st.booleans(), lo=st.floats(-30.0, 15.0),
           width=st.floats(0.5, 40.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_never_below_its_seed_points(self, kinked, lo, width, seed):
        # sums of three concave quadratics, or of three |t - c| terms with
        # random signs (kinks, concave or not); the seeds are lo, mid, hi
        rng = np.random.default_rng(seed)
        hi = lo + width
        centers = rng.uniform(lo - 10.0, hi + 10.0, 3)
        scales = rng.uniform(0.1, 5.0, 3)
        if kinked:
            scales *= rng.choice([-1.0, 1.0], 3)

        def objective(t):
            dist = np.abs(t - centers) if kinked else (t - centers) ** 2
            return float(-(scales * dist).sum())

        theta, value = maximize_theta(objective, (lo, hi))
        assert lo <= theta <= hi
        assert value == objective(theta)
        assert value >= max(objective(x) for x in (lo, 0.5 * (lo + hi), hi))

    def test_nonfinite_objective_rejected(self):
        with pytest.raises(NumericError):
            maximize_theta(lambda t: float("nan"), (-15.0, 15.0))

    def test_respects_max_evals(self):
        calls = []

        def objective(t):
            calls.append(t)
            return -(t - 3.0) ** 4    # flat-topped, slow convergence

        maximize_theta(objective, (-15.0, 15.0), tol=1e-12, max_evals=20)
        assert len(calls) <= 20


class TestGfhmmInfer:
    def test_planted_theta_recovery(self, ctx):
        rng = np.random.default_rng(13)
        mx = structured_hmm(rng, K=8, dim=33)
        mv = structured_hmm(rng, K=8, dim=33)
        y = sampled_feature_mixture(mx, mv, 6.0, ctx, 100, seed=77)
        res = gfhmm_infer(y, mx, mv, ctx, theta0=0.0)
        assert abs(res.theta_hat - 6.0) <= 1.0
        assert res.iterations <= 5

    def test_starting_at_truth_exits_quickly(self, ctx):
        rng = np.random.default_rng(14)
        mx = structured_hmm(rng, K=6, dim=20)
        mv = structured_hmm(rng, K=6, dim=20)
        y = sampled_feature_mixture(mx, mv, 9.0, ctx, 80, seed=5)
        res = gfhmm_infer(y, mx, mv, ctx, theta0=9.0)
        assert res.iterations <= 2
        assert abs(res.theta_hat - 9.0) <= 1.0

    def test_k1_matches_grid_argmax(self, ctx):
        rng = np.random.default_rng(15)
        shared_var = rng.uniform(0.1, 0.5, 8)
        mx = shared_variance_hmm(rng, 1, 8, shared_var)
        mv = shared_variance_hmm(rng, 1, 8, shared_var)
        y = sampled_feature_mixture(mx, mv, 4.0, ctx, 40, seed=3)
        res = gfhmm_infer(y, mx, mv, ctx)
        paths = (np.zeros(40, dtype=int), np.zeros(40, dtype=int))
        grid = np.arange(-15.0, 15.0 + 1e-9, 0.01)
        vals = [path_loglik(paths, y, mx, mv, t, ctx) for t in grid]
        grid_best = grid[int(np.argmax(vals))]
        assert abs(res.theta_hat - grid_best) <= 0.1

    def test_objective_trace_monotone(self, ctx):
        for seed in range(5):
            rng = np.random.default_rng(700 + seed)
            mx = structured_hmm(rng, K=5, dim=16)
            mv = structured_hmm(rng, K=5, dim=16)
            theta = float(rng.uniform(-12, 12))
            y = sampled_feature_mixture(mx, mv, theta, ctx, 60,
                                        seed=800 + seed)
            res = gfhmm_infer(y, mx, mv, ctx)
            assert np.all(np.diff(res.objective_trace) >= -1e-6)
            assert THETA_MIN_DB <= res.theta_hat <= THETA_MAX_DB

    def test_mega_frames_estimate_per_chunk(self, ctx):
        rng = np.random.default_rng(16)
        mx = structured_hmm(rng, K=4, dim=12)
        mv = structured_hmm(rng, K=4, dim=12)
        y = sampled_feature_mixture(mx, mv, 8.0, ctx, 120, seed=9)
        chunks = mega_frame_slices(120, 60)
        res = gfhmm_infer(y, mx, mv, ctx, mega_frames=chunks)
        assert len(res.theta_per_chunk) == 2
        for th in res.theta_per_chunk:
            assert abs(th - 8.0) <= 1.5

    def test_zero_rounds_is_one_viterbi_pass(self, ctx):
        rng = np.random.default_rng(20)
        mx = structured_hmm(rng, K=4, dim=12)
        mv = structured_hmm(rng, K=4, dim=12)
        y = sampled_feature_mixture(mx, mv, 5.0, ctx, 50, seed=21)
        res = gfhmm_infer(y, mx, mv, ctx, theta0=-3.7, max_outer=0)
        b = log_b_table(y, mx, mv, gains_from_theta(-3.7, ctx))
        path_x, path_v, logprob = _viterbi_from_table(
            b, mx.pi, mv.pi, mx.trans, mv.trans)
        np.testing.assert_array_equal(res.path_x, path_x)
        np.testing.assert_array_equal(res.path_v, path_v)
        assert res.logprob == logprob
        assert res.iterations == 0
        assert res.theta_hat == -3.7
        assert res.theta_per_chunk == (-3.7,)


class TestGvqInfer:
    def make_codebooks(self, rng, K=4, dim=8):
        return (Codebook(rng.normal(0, 1.0, (K, dim)),
                         np.full((K, dim), 0.1), np.full(K, 5)),
                Codebook(rng.normal(0, 1.0, (K, dim)),
                         np.full((K, dim), 0.1), np.full(K, 5)))

    def test_planted_theta_recovery(self, ctx):
        rng = np.random.default_rng(17)
        cb_x, cb_v = self.make_codebooks(rng, K=4, dim=12)
        theta_true = 9.0
        gp = gains_from_theta(theta_true, ctx)
        idx_x = rng.integers(0, 4, 50)
        idx_v = rng.integers(0, 4, 50)
        y = np.maximum(cb_x.codevectors[idx_x] + gp.log10_gx,
                       cb_v.codevectors[idx_v] + gp.log10_gv)
        y = y + rng.normal(0, 0.02, y.shape)
        res = gvq_infer(y, cb_x, cb_v, ctx, theta0=0.0)
        assert abs(res.theta_hat - theta_true) <= 1.0

    def test_ascent_property(self, ctx):
        rng = np.random.default_rng(18)
        cb_x, cb_v = self.make_codebooks(rng)
        y = rng.normal(0, 1, (20, 8))
        theta0 = 0.0
        res = gvq_infer(y, cb_x, cb_v, ctx, theta0=theta0)
        _, _, q0 = gvq_score(y, cb_x, cb_v, theta0, ctx)
        assert res.logprob >= q0 - 1e-9
        assert np.all(np.diff(res.objective_trace) >= -1e-9)

    def test_small_instance_matches_exhaustive(self, ctx):
        rng = np.random.default_rng(19)
        cb_x, cb_v = self.make_codebooks(rng, K=2, dim=6)
        theta_true = 3.0
        gp = gains_from_theta(theta_true, ctx)
        idx_x = np.array([0, 1, 0])
        idx_v = np.array([1, 0, 1])
        y = np.maximum(cb_x.codevectors[idx_x] + gp.log10_gx,
                       cb_v.codevectors[idx_v] + gp.log10_gv)
        y = y + rng.normal(0, 0.01, y.shape)

        best = None
        for theta in np.arange(-15.0, 15.05, 0.1):
            sx, sv, q = gvq_score(y, cb_x, cb_v, float(theta), ctx)
            if best is None or q > best[0]:
                best = (q, sx.copy(), sv.copy())
        res = gvq_infer(y, cb_x, cb_v, ctx, theta0=0.0)
        np.testing.assert_array_equal(res.path_x, best[1])
        np.testing.assert_array_equal(res.path_v, best[2])

    def test_k1_matches_grid_argmax(self, ctx):
        # the path objective at unit variances has the squared-error cost's
        # argmax: compare with that cost on a 0.01 dB grid
        rng = np.random.default_rng(15)
        cb_x, cb_v = self.make_codebooks(rng, K=1, dim=8)
        gp = gains_from_theta(4.0, ctx)
        y = mixmax_combine(cb_x.codevectors, cb_v.codevectors, gp)
        y = y + rng.normal(0, 0.3, (40, 8))
        res = gvq_infer(y, cb_x, cb_v, ctx)
        grid = np.arange(-15.0, 15.0 + 1e-9, 0.01)
        costs = [((y - mixmax_combine(cb_x.codevectors, cb_v.codevectors,
                                      gains_from_theta(t, ctx))) ** 2).sum()
                 for t in grid]
        grid_best = grid[int(np.argmin(costs))]
        assert abs(res.theta_hat - grid_best) <= 0.1

    def test_zero_rounds_is_one_score_pass(self, ctx):
        rng = np.random.default_rng(22)
        cb_x, cb_v = self.make_codebooks(rng)
        y = rng.normal(0, 1, (15, 8))
        res = gvq_infer(y, cb_x, cb_v, ctx, theta0=6.2, max_outer=0)
        idx_x, idx_v, q = gvq_score(y, cb_x, cb_v, 6.2, ctx)
        np.testing.assert_array_equal(res.path_x, idx_x)
        np.testing.assert_array_equal(res.path_v, idx_v)
        assert res.logprob == q
        assert res.iterations == 0
        assert res.theta_hat == 6.2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_theta0_rejected_before_decoding(ctx, bad, monkeypatch):
    rng = np.random.default_rng(23)
    mx, mv = random_hmm(rng, 2, 6), random_hmm(rng, 2, 6)
    cb_x, cb_v = (Codebook(m.means, m.vars, np.ones(m.K)) for m in (mx, mv))
    y = rng.normal(0, 1, (10, 6))

    def no_decode(*args, **kwargs):
        raise AssertionError("decoded before checking theta0")

    monkeypatch.setattr("specsep.decode._viterbi_from_table", no_decode)
    monkeypatch.setattr("specsep.decode.gvq_score", no_decode)
    with pytest.raises(ValueError, match="theta0"):
        gfhmm_infer(y, mx, mv, ctx, theta0=bad)
    with pytest.raises(ValueError, match="theta0"):
        gvq_infer(y, cb_x, cb_v, ctx, theta0=bad)


class TestSingleWindowThetaHat:
    # seeds where the frame-weighted mean of one estimate, (theta*R)/R, is
    # one ulp off the estimate itself for gfhmm (16, 27) or gvq (21)
    @pytest.mark.parametrize("seed", [16, 21, 27])
    def test_theta_hat_is_the_window_estimate(self, ctx, seed):
        rng = np.random.default_rng(seed)
        mx = structured_hmm(rng, K=4, dim=16)
        mv = structured_hmm(rng, K=4, dim=16)
        theta = float(rng.uniform(-12, 12))
        y = sampled_feature_mixture(mx, mv, theta, ctx, 37, seed=900 + seed)
        cb_x, cb_v = (Codebook(m.means, m.vars, np.ones(m.K))
                      for m in (mx, mv))
        for res in (gfhmm_infer(y, mx, mv, ctx),
                    gvq_infer(y, cb_x, cb_v, ctx)):
            assert res.iterations >= 1
            assert len(res.theta_per_chunk) == 1
            assert res.theta_hat == res.theta_per_chunk[0]


class TestMegaFrameSlices:
    def test_short_sequence_single_chunk(self):
        assert mega_frame_slices(150, 100) == [slice(0, 150)]

    def test_remainder_absorbed_by_last_chunk(self):
        slices = mega_frame_slices(250, 100)
        assert slices == [slice(0, 100), slice(100, 250)]

    def test_none_chunk_size(self):
        assert mega_frame_slices(500, None) == [slice(0, 500)]
