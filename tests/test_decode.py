import faulthandler
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsep import (GainContext, HmmModel, ModelMismatchError,
                     brute_force_decode, gains_from_theta, gfhmm_infer,
                     gvq_infer, log_b_table, maximize_theta,
                     parallel_viterbi)
from specsep import decode
from specsep.decode import (MAX_OUTER_ITERS, NumericError,
                            _viterbi_from_table, mega_frame_slices)
from specsep.gain import THETA_MAX_DB, THETA_MIN_DB
from specsep.mixmax import mixmax_combine
from specsep.quantize import Codebook, gvq_score

from conftest import (CODEBOOK_DEFECTS, HMM_DEFECTS, backpointer_viterbi,
                      log_b_jk, malformed, naive_viterbi_deltas,
                      patch_out_decoding, path_loglik,
                      planted_path_objective, random_hmm,
                      sampled_feature_mixture, shared_variance_hmm,
                      structured_hmm, whole_table)


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
        # the oracle reports what parallel_viterbi reports
        assert oracle.iterations == fast.iterations == 0
        assert oracle.theta_hat == fast.theta_hat
        assert oracle.theta_per_chunk == fast.theta_per_chunk
        assert oracle.mask_x.dtype == fast.mask_x.dtype == np.uint8
        assert oracle.mask_x.shape == fast.mask_x.shape == (R, dim)
        paths = (fast.path_x, fast.path_v)
        if (np.array_equal(fast.path_x, oracle.path_x)
                and np.array_equal(fast.path_v, oracle.path_v)):
            np.testing.assert_array_equal(fast.mask_x, oracle.mask_x)
        else:
            # another path pair is allowed only when it ties the optimum
            assert path_loglik(paths, y, mx, mv, theta, ctx) == \
                pytest.approx(oracle.logprob, rel=1e-9)

    def test_size_guard(self, ctx):
        rng = np.random.default_rng(7)
        m = random_hmm(rng, K=8, dim=2)
        with pytest.raises(ValueError, match="too large"):
            brute_force_decode(np.zeros((8, 2)), m, m, 0.0, ctx)


def viterbi_draws(test):
    """A property over viterbi_inputs' arguments, 200 derandomized draws
    and two fixed examples."""
    test = example(K_x=12, K_v=2, R=8, tie_heavy=True, p_impossible=0.8,
                   seed=1)(test)
    test = example(K_x=3, K_v=7, R=5, tie_heavy=False, p_impossible=0.3,
                   seed=0)(test)
    return settings(derandomize=True, max_examples=200, deadline=None)(
        given(K_x=st.integers(1, 12), K_v=st.integers(1, 12),
              R=st.integers(1, 8), tie_heavy=st.booleans(),
              p_impossible=st.sampled_from([0, 0.3, 0.8]),
              seed=st.integers(0, 2 ** 32 - 1))(test))


def viterbi_inputs(K_x, K_v, R, tie_heavy, p_impossible, seed):
    """_viterbi_from_table's positional arguments (b, log_pi_x, log_pi_v,
    log_a_x, log_a_v), drawn at random.

    The two chains differ in size, so a layout that swaps K_x and K_v
    fails; impossible (-inf) priors and transitions are the probability-0
    entries HmmModel.validate accepts, one finite entry kept per row, and
    tie-heavy draws hold small integers throughout."""
    rng = np.random.default_rng(seed)

    def table(shape):
        if tie_heavy:
            return rng.integers(-2, 1, shape).astype(np.float64)
        return rng.normal(-2.0, 3.0, shape)

    def log_probs(n_rows, K):
        rows = table((n_rows, K))
        impossible = rng.random((n_rows, K)) < p_impossible
        impossible[np.arange(n_rows), rng.integers(0, K, n_rows)] = False
        rows[impossible] = -np.inf
        return rows

    return (table((R, K_x, K_v)), log_probs(1, K_x)[0], log_probs(1, K_v)[0],
            log_probs(K_x, K_x), log_probs(K_v, K_v))


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

    @viterbi_draws
    def test_bit_identical_with_any_state_counts(self, K_x, K_v, R, tie_heavy,
                                                 p_impossible, seed):
        args = viterbi_inputs(K_x, K_v, R, tie_heavy, p_impossible, seed)
        trace = []
        _viterbi_from_table(*args, delta_trace=trace)
        naive = naive_viterbi_deltas(*args)
        assert len(trace) == len(naive) == R
        for fast_d, naive_d in zip(trace, naive):
            np.testing.assert_array_equal(fast_d, naive_d)

    @viterbi_draws
    def test_score_tables_written_over_the_emissions(self, K_x, K_v, R,
                                                     tie_heavy, p_impossible,
                                                     seed):
        # by default b is left as given; with overwrite_b the same paths
        # and logprob come back, and b ends up holding the score tables
        b, *model = viterbi_inputs(K_x, K_v, R, tie_heavy, p_impossible,
                                   seed)
        given_b, trace = b.copy(), []
        want = _viterbi_from_table(b, *model, delta_trace=trace)
        np.testing.assert_array_equal(b, given_b)
        path_x, path_v, logprob = _viterbi_from_table(b, *model,
                                                      overwrite_b=True)
        np.testing.assert_array_equal(path_x, want[0])
        np.testing.assert_array_equal(path_v, want[1])
        assert logprob == want[2]
        np.testing.assert_array_equal(b, np.array(trace))


def traced_peak(call):
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestViterbiMemory:
    """The tracemalloc peak of one _viterbi_from_table call over 197 frames
    (2 s of audio at the default framing) stays within 16 MB at K=64 and
    within 3.5 MB at K_x=64, K_v=16; written over the emission table, the
    score tables take no memory of their own, and the peaks stay within
    6.8 MB and 1.5 MB.  At K=64 a 197-frame table takes 6.5 MB and each
    (K, K, K) float64 cube 2.1 MB.  A gfhmm decode holds one such table,
    8 K_x K_v bytes per frame."""

    @staticmethod
    def viterbi_args(K_x, K_v):
        rng = np.random.default_rng(K_v)
        mx, mv = random_hmm(rng, K=K_x, dim=1), random_hmm(rng, K=K_v, dim=1)
        return (rng.normal(0.0, 30.0, (197, K_x, K_v)), mx.pi, mv.pi,
                mx.trans, mv.trans)

    @pytest.mark.parametrize("K_x, K_v, limit", [(64, 64, 16e6),
                                                 (64, 16, 3.5e6)])
    def test_peak_bounded(self, K_x, K_v, limit):
        args = self.viterbi_args(K_x, K_v)
        _viterbi_from_table(*args)
        assert traced_peak(lambda: _viterbi_from_table(*args)) <= limit

    @pytest.mark.parametrize("K_x, K_v, limit", [(64, 64, 6.8e6),
                                                 (64, 16, 1.5e6)])
    def test_peak_bounded_over_the_emissions(self, K_x, K_v, limit):
        args = self.viterbi_args(K_x, K_v)
        _viterbi_from_table(*args, overwrite_b=True)
        assert traced_peak(lambda: _viterbi_from_table(
            *args, overwrite_b=True)) <= limit

    def test_gfhmm_decode_adds_nothing_to_the_viterbi_peak(self, ctx):
        # one round at K=64 on 197 frames peaks at 12.9e6 bytes: one table
        # that holds the emissions and then the score tables, the Viterbi
        # pass's two tiles and one cube; a second table would add 6.5e6
        rng = np.random.default_rng(64)
        mx, mv = random_hmm(rng, 64, 129), random_hmm(rng, 64, 129)
        y = rng.normal(0.0, 1.5, (197, 129))
        peak = traced_peak(lambda: gfhmm_infer(y, mx, mv, ctx, outer_tol=0.0,
                                               max_outer=1))
        assert peak <= 13.6e6

    def test_theta_step_runs_without_the_table(self, ctx):
        # one round at K=32 on 1,998 frames peaks at 24.7e6 bytes while a
        # decode fills its 16.4e6-byte table; a table kept through the theta
        # step and the mask, which then run beside it, peaked at 31.1e6
        rng = np.random.default_rng(32)
        mx, mv = random_hmm(rng, 32, 129), random_hmm(rng, 32, 129)
        y = rng.normal(0.0, 1.5, (1998, 129))
        peak = traced_peak(lambda: gfhmm_infer(y, mx, mv, ctx, outer_tol=0.0,
                                               max_outer=1))
        assert peak <= 27e6

    def test_decode_memory_per_frame_is_one_table_row(self, ctx):
        # a zero-round decode grows by one 8 K^2-byte row of the one table
        # per frame, and by two if the score tables had a table of their own
        rng = np.random.default_rng(65)
        mx, mv = random_hmm(rng, 64, 129), random_hmm(rng, 64, 129)
        ys = [rng.normal(0.0, 1.5, (R, 129)) for R in (198, 998)]
        small, large = (traced_peak(lambda: parallel_viterbi(y, mx, mv, 0.0,
                                                             ctx))
                        for y in ys)
        assert (large - small) / 800 <= 1.1 * 8 * 64 * 64


@pytest.fixture
def split_calls(monkeypatch):
    """The shapes of b for which _viterbi_from_table ran its forward pass
    on two threads (_forward_split), one entry per call."""
    calls, split = [], decode._forward_split

    def spy(b, *args):
        calls.append(b.shape)
        return split(b, *args)

    monkeypatch.setattr(decode, "_forward_split", spy)
    return calls


def forward_pass_outputs(args):
    """What the forward pass shows: the paths and logprob of a default
    call, its delta_trace, and b and the result after overwrite_b."""
    trace, b = [], args[0].copy()
    return (_viterbi_from_table(*args, delta_trace=trace), trace, b,
            _viterbi_from_table(b, *args[1:], overwrite_b=True))


def assert_same_outputs(got, want):
    (paths, trace, b, over), (want_paths, want_trace, want_b, want_over) = \
        got, want
    for result, want_result in ((paths, want_paths), (over, want_over)):
        np.testing.assert_array_equal(result[0], want_result[0])
        np.testing.assert_array_equal(result[1], want_result[1])
        assert result[2] == want_result[2]
    assert len(trace) == len(want_trace)
    for d, want_d in zip(trace, want_trace):
        np.testing.assert_array_equal(d, want_d)
    np.testing.assert_array_equal(b, want_b)


def two_cpus(monkeypatch):
    """Two usable CPUs, whatever the affinity the tests run with."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def one_and_two_threads(monkeypatch, args):
    """forward_pass_outputs on one thread, then, with two usable CPUs and
    the switch-over forced down, on two wherever the pass can split."""
    two_cpus(monkeypatch)
    monkeypatch.setattr(decode, "_SPLIT_MIN_CELLS", np.inf)
    one = forward_pass_outputs(args)
    monkeypatch.setattr(decode, "_SPLIT_MIN_CELLS", 0)
    return one, forward_pass_outputs(args)


class TestTwoThreadForwardPass:
    """From _SPLIT_MIN_CELLS cells per frame, while the caller is the
    process's only thread and two CPUs are usable, the forward pass runs
    on the caller and one helper thread, each owning half of the
    interference states, and gives the one-thread pass's outputs bit for
    bit."""

    @pytest.mark.parametrize("K_x, K_v, R", [
        (64, 64, 197), (64, 48, 50), (48, 64, 3), (80, 40, 30),
        (64, 64, 2), (40, 33, 20), (3, 2, 6)])
    @pytest.mark.parametrize("tie_heavy, p_impossible",
                             [(False, 0), (True, 0.3), (False, 0.8)])
    def test_bit_identical_to_one_thread(self, monkeypatch, split_calls,
                                         K_x, K_v, R, tie_heavy,
                                         p_impossible):
        args = viterbi_inputs(K_x, K_v, R, tie_heavy, p_impossible, R)
        one, two = one_and_two_threads(monkeypatch, args)
        assert split_calls == [(R, K_x, K_v)] * 2
        assert_same_outputs(two, one)

    @viterbi_draws
    def test_bit_identical_with_any_state_counts(self, K_x, K_v, R, tie_heavy,
                                                 p_impossible, seed):
        args = viterbi_inputs(K_x, K_v, R, tie_heavy, p_impossible, seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            one, two = one_and_two_threads(monkeypatch, args)
        assert_same_outputs(two, one)

    @pytest.mark.parametrize("K_x, K_v, R", [(64, 64, 1), (64, 1, 20),
                                             (1, 1, 5)])
    def test_nothing_to_split_runs_on_one_thread(self, monkeypatch,
                                                 split_calls, K_x, K_v, R):
        # one frame has no forward step, and one interference state no
        # second half
        args = viterbi_inputs(K_x, K_v, R, False, 0.3, 7)
        one, two = one_and_two_threads(monkeypatch, args)
        assert split_calls == []
        assert_same_outputs(two, one)

    @pytest.mark.parametrize("K", [48, 64])
    def test_switch_over(self, monkeypatch, split_calls, K):
        # K_x K_v (K_x + K_v) is 221,184 cells at K=48 and 524,288 at K=64
        two_cpus(monkeypatch)
        _viterbi_from_table(*viterbi_inputs(K, K, 4, False, 0, 1))
        assert split_calls == ([(4, K, K)] if K == 64 else [])

    def test_split_follows_the_process_affinity(self, split_calls):
        # pinned to one CPU (CI runs this file under taskset -c 0 as well),
        # a K=64 pass stays on the calling thread
        _viterbi_from_table(*viterbi_inputs(64, 64, 4, False, 0, 1))
        assert split_calls == ([(4, 64, 64)] if decode._usable_cpus() > 1
                               else [])

    def test_one_usable_cpu_runs_on_one_thread(self, monkeypatch,
                                               split_calls):
        args = viterbi_inputs(8, 8, 6, False, 0.3, 2)
        one, _ = one_and_two_threads(monkeypatch, args)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert_same_outputs(forward_pass_outputs(args), one)
        assert split_calls == [(6, 8, 8)] * 2

    @pytest.mark.parametrize("n_cpus, splits", [(1, 0), (None, 0), (2, 2)])
    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch,
                                                 split_calls, n_cpus,
                                                 splits):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n_cpus)
        monkeypatch.setattr(decode, "_SPLIT_MIN_CELLS", 0)
        forward_pass_outputs(viterbi_inputs(8, 8, 6, False, 0.3, 3))
        assert split_calls == [(6, 8, 8)] * splits

    def test_another_thread_alive_runs_on_one_thread(self, monkeypatch,
                                                     split_calls):
        # another thread may be decoding too, or hold the helper of a
        # split pass: the second core is not idle
        args = viterbi_inputs(8, 8, 6, False, 0.3, 4)
        one, _ = one_and_two_threads(monkeypatch, args)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            got = forward_pass_outputs(args)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert split_calls == [(6, 8, 8)] * 2
        assert_same_outputs(got, one)

    def test_callers_error_state_covers_the_helper(self, monkeypatch,
                                                   split_calls):
        # scores near the float64 limit overflow to -inf on both threads;
        # the caller's np.errstate silences the helper too, where pyproject
        # turns a RuntimeWarning into an error
        b, *model = viterbi_inputs(8, 8, 6, False, 0.3, 6)
        with np.errstate(over="ignore"):
            one, two = one_and_two_threads(monkeypatch, (b - 1.7e308,
                                                         *model))
        assert split_calls == [(6, 8, 8)] * 2
        assert_same_outputs(two, one)
        assert np.isneginf(one[0][2])

    @pytest.mark.parametrize("on_helper", [True, False])
    @pytest.mark.parametrize("failing_call", [1, 7])
    def test_error_on_either_thread_raised_without_hang_or_stray_thread(
            self, monkeypatch, split_calls, on_helper, failing_call):
        caller, stage, calls = threading.get_ident(), decode._max_stage, []

        def failing(*args, **kwargs):
            if (threading.get_ident() != caller) == on_helper:
                calls.append(None)
                if len(calls) == failing_call:
                    raise FloatingPointError("stage failed")
            return stage(*args, **kwargs)

        monkeypatch.setattr(decode, "_max_stage", failing)
        monkeypatch.setattr(decode, "_SPLIT_MIN_CELLS", 0)
        two_cpus(monkeypatch)
        baseline = threading.active_count()
        # a pass that hangs at the barrier ends the run with a traceback
        faulthandler.dump_traceback_later(60, exit=True)
        try:
            with pytest.raises(FloatingPointError, match="stage failed"):
                _viterbi_from_table(*viterbi_inputs(8, 8, 10, False, 0, 5))
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert split_calls == [(10, 8, 8)]
        assert threading.active_count() == baseline


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

        calls = []

        def objective(t):
            calls.append(t)
            dist = np.abs(t - centers) if kinked else (t - centers) ** 2
            return float(-(scales * dist).sum())

        theta, value = maximize_theta(objective, (lo, hi))
        evaluated = list(calls)
        values = [objective(x) for x in evaluated]
        # every point evaluated lies in the interval, none twice, and the
        # result is the first evaluated point of the best value
        assert all(lo <= x <= hi for x in evaluated)
        assert len(set(evaluated)) == len(evaluated)
        assert value == max(values)
        assert theta == evaluated[values.index(value)]
        assert value >= max(objective(x) for x in (lo, 0.5 * (lo + hi), hi))

    def test_parabola_through_underflowing_points_is_no_fit(self):
        # a concave fit whose denominator underflows to 0
        assert decode._parabola_vertex(0.0, 1e-200, 2e-200,
                                       0.0, 1e-200, 0.0) is None

    @pytest.mark.parametrize("interval", [(1.0, 1.0), (2.0, -2.0)])
    def test_degenerate_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="degenerate interval"):
            maximize_theta(lambda t: -t ** 2, interval)

    @pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 0.0),
                                          (-np.inf, np.inf)], ids=str)
    def test_nonfinite_interval_rejected(self, interval):
        # the midpoint of (0, inf) rounds to inf, so a search over it would
        # only ever repeat its two points; the objective, finite at +-inf
        # and best at 0, gives up after 100 calls so that such a search
        # fails, not hangs
        calls = []

        def objective(t):
            calls.append(t)
            if len(calls) > 100:
                raise RuntimeError("the search does not end")
            return -float(np.tanh(t)) ** 2

        with pytest.raises(ValueError, match="must be finite"):
            maximize_theta(objective, interval)
        assert calls == []

    def test_huge_objectives_searched_at_finite_points(self):
        # kinked and peaked shapes of magnitude <= 1, scaled by 1e300 to
        # 1e307: near the top, the parabola fit overflows to a vertex that
        # is not a number; such a fit is no fit, and the step goes to
        # golden section
        for seed in range(300):
            rng = np.random.default_rng(seed)
            scale = 10.0 ** rng.uniform(300.0, 307.0)
            centers = rng.uniform(-15.0, 15.0, 3)
            weights = rng.uniform(0.1, 1.0, 3)
            if seed % 2:
                weights *= rng.choice([-1.0, 1.0], 3) / 90.0
                widths = None
            else:
                weights /= 3.0
                widths = rng.uniform(0.1, 5.0, 3)
            calls = []

            def objective(t):
                calls.append(t)
                if widths is None:
                    shape = -(weights * np.abs(t - centers)).sum()
                else:
                    shape = (weights / (1.0 + ((t - centers) / widths) ** 2)
                             ).sum()
                return scale * float(shape)

            theta, value = maximize_theta(objective, (-15.0, 15.0))
            evaluated = list(calls)
            values = [objective(x) for x in evaluated]
            assert not np.isnan(evaluated).any()
            assert len(evaluated) <= decode.MAX_THETA_EVALS
            assert value == max(values)
            assert theta == evaluated[values.index(value)]

    def test_nonfinite_objective_rejected(self):
        with pytest.raises(NumericError):
            maximize_theta(lambda t: float("nan"), (-15.0, 15.0))

    def test_respects_max_evals(self, monkeypatch):
        calls = []

        def objective(t):
            calls.append(t)
            return -(t - 3.0) ** 4    # flat-topped, slow convergence

        # a tolerance that never stops the search leaves only the cap
        monkeypatch.setattr(decode, "THETA_STEP_TOL_DB", 1e-12)
        assert decode.MAX_THETA_EVALS == 20
        maximize_theta(objective, (-15.0, 15.0))
        assert len(calls) == 20


class TestFrameChecks:
    """Both decoders check the frames before they derive R and the
    chunks: a shape that is not (R, dim) is named, and no frames at all
    are empty input."""

    @pytest.fixture(params=["gfhmm", "gvq"])
    def infer(self, request, ctx):
        rng = np.random.default_rng(23)
        if request.param == "gfhmm":
            m = random_hmm(rng, K=2, dim=5)
            return lambda y: gfhmm_infer(y, m, m, ctx)
        cb = Codebook(rng.normal(0.0, 1.0, (2, 5)), np.ones((2, 5)),
                      np.full(2, 5))
        return lambda y: gvq_infer(y, cb, cb, ctx)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 5), ()], ids=str)
    def test_frames_not_2d_name_their_shape(self, infer, shape):
        with pytest.raises(ValueError,
                           match=re.escape(f"(R, dim) array, got shape "
                                           f"{shape}")):
            infer(np.zeros(shape))

    def test_no_frames_is_empty_input(self, infer):
        with pytest.raises(ValueError, match="^empty input$"):
            infer(np.zeros((0, 5)))


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
        res = gfhmm_infer(y, mx, mv, ctx, frames_per_chunk=60)
        assert len(res.theta_per_chunk) == 2
        for th in res.theta_per_chunk:
            assert abs(th - 8.0) <= 1.5

    def test_windows_filled_in_place_match_copied_tables(self, ctx,
                                                         monkeypatch):
        # each decode fills its own table window by window through
        # log_b_table's out; the reference copies a whole-table product per
        # window into a fresh table.  K=32 at 129 bins is 2 blocks
        rng = np.random.default_rng(32)
        mx = structured_hmm(rng, K=32, dim=129)
        mv = structured_hmm(rng, K=32, dim=129)
        y = sampled_feature_mixture(mx, mv, 4.0, ctx, 130, seed=33)
        options = dict(outer_tol=0.0, max_outer=2, frames_per_chunk=40)
        res = gfhmm_infer(y, mx, mv, ctx, **options)

        def copied(y_seq, model_x, model_v, gp, out):
            out[...] = whole_table(y_seq, model_x, model_v, gp)
            return out

        monkeypatch.setattr("specsep.decode.log_b_table", copied)
        want = gfhmm_infer(y, mx, mv, ctx, **options)
        assert len(res.theta_per_chunk) == 3
        np.testing.assert_array_equal(res.path_x, want.path_x)
        np.testing.assert_array_equal(res.path_v, want.path_v)
        assert res.logprob == want.logprob
        assert res.objective_trace == want.objective_trace
        assert res.theta_per_chunk == want.theta_per_chunk
        assert res.theta_hat == want.theta_hat

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


@pytest.fixture
def undecodable(ctx, monkeypatch):
    """Both decoders on 10 frames with their decode kernels patched to
    fail, for checks that must raise before any decode: infer(**options)
    runs gfhmm_infer, then gvq_infer."""
    rng = np.random.default_rng(23)
    mx, mv = random_hmm(rng, 2, 6), random_hmm(rng, 2, 6)
    cb_x, cb_v = (Codebook(m.means, m.vars, np.ones(m.K)) for m in (mx, mv))
    y = rng.normal(0, 1, (10, 6))
    patch_out_decoding(monkeypatch)
    return [lambda **options: gfhmm_infer(y, mx, mv, ctx, **options),
            lambda **options: gvq_infer(y, cb_x, cb_v, ctx, **options)]


# each public decoder: the model kind it takes, and a call on frames, the
# two models and a gain context
DECODERS = {
    "gfhmm_infer": ("hmm", lambda y, mx, mv, ctx: gfhmm_infer(y, mx, mv, ctx)),
    "parallel_viterbi": ("hmm", lambda y, mx, mv, ctx:
                         parallel_viterbi(y, mx, mv, 0.0, ctx)),
    "brute_force_decode": ("hmm", lambda y, mx, mv, ctx:
                           brute_force_decode(y, mx, mv, 0.0, ctx)),
    "gvq_infer": ("vq", lambda y, mx, mv, ctx: gvq_infer(y, mx, mv, ctx)),
    "gvq_score": ("vq", lambda y, mx, mv, ctx: gvq_score(y, mx, mv, 0.0,
                                                         ctx)),
}


@pytest.mark.parametrize("decoder, defect, role", [
    (decoder, defect, role) for decoder, (kind, _) in DECODERS.items()
    for defect in (HMM_DEFECTS if kind == "hmm" else CODEBOOK_DEFECTS)
    + ("one_bin_short",) for role in ("target", "interference")])
def test_malformed_model_rejected_before_any_work(ctx, monkeypatch, decoder,
                                                  defect, role):
    # a NaN codevector would otherwise never be picked, and gvq_infer and
    # gvq_score would return a finite score; a model one bin short of the
    # frames is a model mismatch that names its role
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a malformed model")

    for name in ("specsep.decode.log_b_table",
                 "specsep.decode._viterbi_from_table",
                 "specsep.decode.gvq_score",
                 "specsep.quantize.mixmax_combine"):
        monkeypatch.setattr(name, no_work)
    rng = np.random.default_rng(29)
    models = [random_hmm(rng, 2, 6), random_hmm(rng, 2, 6)]
    kind, call = DECODERS[decoder]
    if kind == "vq":
        models = [Codebook(m.means, m.vars, np.ones(m.K)) for m in models]
    which = 0 if role == "target" else 1
    models[which] = malformed(models[which], defect)
    match = (f"^{role} model dimension 5 " if defect == "one_bin_short"
             else None)
    with pytest.raises(ModelMismatchError, match=match):
        call(rng.normal(0, 1, (3, 6)), *models, ctx)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "3", True, None])
def test_nonfinite_theta0_rejected_before_decoding(undecodable, bad):
    for infer in undecodable:
        with pytest.raises(ValueError, match="theta0"):
            infer(theta0=bad)


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, "60"], ids=repr)
def test_bad_frames_per_chunk_rejected_before_decoding(undecodable, bad):
    for infer in undecodable:
        with pytest.raises(ValueError, match="frames_per_chunk must be None "
                                             "or a positive int"):
            infer(frames_per_chunk=bad)


@pytest.mark.parametrize("bad", [np.nan, -1.0, -np.inf, "0.3", True, None],
                         ids=repr)
def test_bad_outer_tol_rejected_before_decoding(undecodable, bad):
    # a NaN or negative tolerance would silently run every round
    for infer in undecodable:
        with pytest.raises(ValueError, match="outer_tol"):
            infer(outer_tol=bad)


@pytest.mark.parametrize("bad", [-1, 2.5, True, "3", None], ids=repr)
def test_bad_max_outer_rejected_before_decoding(undecodable, bad):
    for infer in undecodable:
        with pytest.raises(ValueError, match="max_outer must be an integer"):
            infer(max_outer=bad)


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


class TestAlternatingLoopProperties:
    """Invariants of the alternating decode/estimate loop and its mask, on
    tiny random models of both kinds, with one window and with windows of
    1-19 frames."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["gfhmm", "gvq"]), K_x=st.integers(1, 6),
           K_v=st.integers(1, 6), dim=st.integers(1, 12),
           R=st.integers(1, 40),
           frames_per_chunk=st.none() | st.integers(1, 19),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(kind="gfhmm", K_x=4, K_v=3, R=40, dim=12, frames_per_chunk=7,
             seed=0)
    @example(kind="gvq", K_x=6, K_v=5, R=37, dim=9, frames_per_chunk=6,
             seed=1)
    def test_loop_invariants(self, kind, K_x, K_v, dim, R, frames_per_chunk,
                             seed):
        ctx = GainContext(g_y=1.0)
        rng = np.random.default_rng(seed)
        mx, mv = random_hmm(rng, K_x, dim), random_hmm(rng, K_v, dim)
        y = sampled_feature_mixture(mx, mv, float(rng.uniform(-15, 15)), ctx,
                                    R, seed=seed)
        if kind == "gfhmm":
            models, infer, tol = (mx, mv), gfhmm_infer, 1e-6
        else:
            models = tuple(Codebook(m.means, m.vars, np.ones(m.K))
                           for m in (mx, mv))
            infer, tol = gvq_infer, 1e-9
        res = infer(y, *models, ctx, frames_per_chunk=frames_per_chunk)

        # one decode at theta0, then one per round, of which the defaults
        # run at least one
        assert len(res.objective_trace) == res.iterations + 1
        assert 1 <= res.iterations <= MAX_OUTER_ITERS
        # the objective never drops, up to the emission GEMM's rounding
        assert np.all(np.diff(res.objective_trace) >= -tol)
        chunks = mega_frame_slices(R, frames_per_chunk)
        assert len(res.theta_per_chunk) == len(chunks)
        assert all(THETA_MIN_DB <= th <= THETA_MAX_DB
                   for th in res.theta_per_chunk)
        if len(chunks) == 1:
            once = infer(y, *models, ctx, theta0=res.theta_hat, max_outer=0)
            assert once.logprob == res.logprob
        else:
            weights = [sl.stop - sl.start for sl in chunks]
            assert res.theta_hat == pytest.approx(
                np.dot(weights, res.theta_per_chunk) / R, abs=1e-12)
        # the mask compares the means along the final paths at each
        # window's theta, ties to the target
        assert res.mask_x.dtype == np.uint8
        for sl, th in zip(chunks, res.theta_per_chunk):
            gp = gains_from_theta(th, ctx)
            np.testing.assert_array_equal(
                res.mask_x[sl], mx.means[res.path_x[sl]] + gp.log10_gx
                >= mv.means[res.path_v[sl]] + gp.log10_gv)


    @pytest.mark.parametrize("kind", ["gfhmm", "gvq"])
    @pytest.mark.parametrize("rounds", [0, 1, 3])
    def test_zero_tolerance_runs_every_round(self, monkeypatch, kind,
                                             rounds):
        # outer_tol=0 never stops early: max_outer rounds, each one decode
        # after the decode at theta0; numpy scalars are settings as well
        ctx = GainContext(g_y=1.0)
        rng = np.random.default_rng(11)
        mx, mv = random_hmm(rng, 3, 8), random_hmm(rng, 4, 8)
        y = sampled_feature_mixture(mx, mv, 5.0, ctx, 30, seed=11)
        if kind == "gfhmm":
            models, infer = (mx, mv), gfhmm_infer
            kernel = "_viterbi_from_table"
        else:
            models = tuple(Codebook(m.means, m.vars, np.ones(m.K))
                           for m in (mx, mv))
            infer, kernel = gvq_infer, "gvq_score"
        calls = {}

        def count(name):
            original = getattr(decode, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(decode, name, counted)

        count(kernel)
        # perfbench's traced run times the theta search through this name
        # in decode: one call per window per round
        count("maximize_theta")
        if kind == "gfhmm":
            # perfbench's traced run counts the emission table through this
            # name in decode: one call per window per decode
            count("log_b_table")
        res = infer(y, *models, ctx, theta0=np.float64(0.0),
                    outer_tol=np.float64(0.0), max_outer=rounds,
                    frames_per_chunk=np.int64(15))
        windows = len(res.theta_per_chunk)
        assert windows == 2
        assert res.iterations == rounds
        assert len(res.objective_trace) == rounds + 1
        per_decode = 1 if kind == "gfhmm" else windows
        assert calls[kernel] == per_decode * (rounds + 1)
        assert calls.get("maximize_theta", 0) == windows * rounds
        if kind == "gfhmm":
            assert calls["log_b_table"] == windows * (rounds + 1)


class TestMegaFrameSlices:
    def test_short_sequence_single_chunk(self):
        assert mega_frame_slices(150, 100) == [slice(0, 150)]

    def test_remainder_absorbed_by_last_chunk(self):
        slices = mega_frame_slices(250, 100)
        assert slices == [slice(0, 100), slice(100, 250)]
        assert mega_frame_slices(250, np.int64(100)) == slices

    def test_none_chunk_size(self):
        assert mega_frame_slices(500, None) == [slice(0, 500)]
