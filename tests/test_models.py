import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsep import (Codebook, HmmModel, ModelMismatchError, baum_welch,
                     init_hmm_from_codebook, load_model, sample_hmm_frames,
                     save_model)
from specsep.mixmax import LOG_2PI, log_gauss_table
from specsep.models import VARIANCE_FLOOR, _forward_backward

from conftest import (BAD_FILES, CODEBOOK_DEFECTS, HMM_DEFECTS, malformed,
                      per_frame_xi_counts, per_utterance_forward_backward,
                      random_hmm, save_bad_file)


def assert_same_model(back, model):
    """back is model bit for bit: same class, arrays, dtypes and metadata
    values of the same types."""
    assert type(back) is type(model)
    for name, value in vars(model).items():
        if name == "meta":
            assert back.meta == value
            assert ([type(v) for v in back.meta.values()]
                    == [type(value[k]) for k in back.meta])
        else:
            np.testing.assert_array_equal(getattr(back, name), value,
                                          strict=True)


def log_gauss(x, mean, var):
    """mixmax.log_gauss_table on one frame and one center."""
    return log_gauss_table(x[None], mean[None], var[None])[0, 0]


class TestLogGaussianDiag:
    def test_at_mean_unit_variance_dim_129(self):
        expected = -0.5 * 129 * math.log(2.0 * math.pi)
        assert log_gauss(np.zeros(129), np.zeros(129), np.ones(129)) == \
            pytest.approx(expected, rel=1e-12)

    def test_one_sigma_in_one_dimension_costs_half(self):
        rng = np.random.default_rng(0)
        mean = rng.normal(0, 1, 10)
        var = rng.uniform(0.5, 2.0, 10)
        at_mean = log_gauss(mean, mean, var)
        x = mean.copy()
        x[3] += math.sqrt(var[3])
        assert log_gauss(x, mean, var) == pytest.approx(at_mean - 0.5,
                                                        abs=1e-10)

    def test_doubling_sigma_changes_normalizer_only(self):
        mean = np.zeros(129)
        diff = (log_gauss(mean, mean, np.ones(129))
                - log_gauss(mean, mean, 4.0 * np.ones(129)))  # sigma doubled
        assert diff == pytest.approx(129 * math.log(2.0), rel=1e-12)

    def test_maximized_at_mean(self):
        rng = np.random.default_rng(1)
        mean = rng.normal(0, 1, 6)
        var = rng.uniform(0.2, 1.0, 6)
        best = log_gauss(mean, mean, var)
        for d in range(6):
            for eps in (-0.01, 0.01):
                x = mean.copy()
                x[d] += eps
                assert log_gauss(x, mean, var) < best


class TestInitFromCodebook:
    def test_equal_occupancy_gives_uniform_pi(self):
        cb = Codebook(codevectors=np.zeros((2, 3)),
                      cluster_variances=np.full((2, 3), 0.5),
                      occupancy=np.array([50, 50]))
        model = init_hmm_from_codebook(cb)
        np.testing.assert_allclose(np.exp(model.pi), [0.5, 0.5], atol=1e-12)

    def test_k64_shapes(self):
        cb = Codebook(codevectors=np.zeros((64, 129)),
                      cluster_variances=np.full((64, 129), 0.5),
                      occupancy=np.full(64, 10))
        model = init_hmm_from_codebook(cb)
        assert model.K == 64
        assert model.trans.shape == (64, 64)
        np.testing.assert_allclose(np.exp(model.trans), 1.0 / 64, atol=1e-12)

    def test_zero_occupancy_floored_then_renormalized(self):
        cb = Codebook(codevectors=np.zeros((3, 2)),
                      cluster_variances=np.full((3, 2), 0.5),
                      occupancy=np.array([10, 0, 10]))
        model = init_hmm_from_codebook(cb)
        pi = np.exp(model.pi)
        assert pi[1] >= 1e-7
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        model.validate()

    def test_state_params_copied(self):
        rng = np.random.default_rng(2)
        cvs = rng.normal(0, 1, (4, 5))
        cvars = rng.uniform(0.1, 0.5, (4, 5))
        cb = Codebook(cvs, cvars, np.full(4, 5))
        model = init_hmm_from_codebook(cb)
        np.testing.assert_array_equal(model.means, cvs)
        np.testing.assert_array_equal(model.vars, cvars)

    def test_malformed_codebook_rejected(self):
        cb = Codebook(np.zeros((2, 3)), np.full((2, 3), 0.5),
                      np.array([5, 3]))
        with pytest.raises(ModelMismatchError, match="occupancy"):
            init_hmm_from_codebook(malformed(cb, "negative_occupancy"))


class TestBaumWelch:
    def test_k1_converges_to_sample_stats(self):
        rng = np.random.default_rng(3)
        utts = [rng.normal(1.5, 0.8, (60, 4)), rng.normal(1.5, 0.8, (40, 4))]
        allframes = np.vstack(utts)
        init = HmmModel(pi=np.zeros(1), trans=np.zeros((1, 1)),
                        means=np.zeros((1, 4)), vars=np.ones((1, 4)))
        model, trace = baum_welch(utts, init)
        np.testing.assert_allclose(model.means[0], allframes.mean(axis=0),
                                   atol=1e-10)
        np.testing.assert_allclose(model.vars[0], allframes.var(axis=0),
                                   atol=1e-10)
        # closed-form single-Gaussian log-likelihood at the ML parameters
        n, dim = allframes.shape
        var = allframes.var(axis=0)
        expected_ll = -0.5 * n * (np.log(var) + LOG_2PI).sum() - 0.5 * n * dim
        assert trace[-1] == pytest.approx(expected_ll, rel=1e-10)

    def test_two_state_recovery_near_truth(self):
        rng = np.random.default_rng(4)
        truth = HmmModel(
            pi=np.log([0.6, 0.4]),
            trans=np.log([[0.85, 0.15], [0.2, 0.8]]),
            means=np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]),
            vars=np.full((2, 3), 0.25))
        frames, _ = sample_hmm_frames(truth, 2000, rng)
        init = HmmModel(pi=truth.pi.copy(), trans=truth.trans.copy(),
                        means=truth.means + rng.normal(0, 0.2, (2, 3)),
                        vars=truth.vars.copy())
        model, trace = baum_welch([frames], init)
        np.testing.assert_allclose(model.means, truth.means, atol=0.1)
        assert np.all(np.diff(trace) >= -1e-6)

    def test_ll_trace_monotone_over_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            init = random_hmm(rng, K=3, dim=4)
            utts = [rng.normal(0, 1, (rng.integers(20, 40), 4))
                    for _ in range(3)]
            model, trace = baum_welch(utts, init, max_iters=8)
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-6), (seed, trace)
            model.validate()

    def test_stochasticity_preserved_every_iteration(self):
        rng = np.random.default_rng(77)
        init = random_hmm(rng, K=3, dim=4)
        utts = [rng.normal(0, 1, (40, 4)) for _ in range(2)]
        for iters in range(1, 5):
            model, _ = baum_welch(utts, init, rel_tol=0.0, max_iters=iters)
            model.validate()
            assert np.all(model.vars >= VARIANCE_FLOOR)

    def test_termination_honors_rel_tol_and_cap(self):
        rng = np.random.default_rng(5)
        init = random_hmm(rng, K=2, dim=3)
        utts = [rng.normal(0, 1, (30, 3))]
        model, trace = baum_welch([u for u in utts], init, rel_tol=1e-5,
                                  max_iters=15)
        assert len(trace) <= 15
        if len(trace) < 15:
            assert abs(trace[-1] - trace[-2]) < 1e-5 * abs(trace[-2])

    def test_variances_floored(self):
        # constant data would otherwise collapse the variance to zero
        utts = [np.ones((50, 3))]
        init = HmmModel(pi=np.zeros(1), trans=np.zeros((1, 1)),
                        means=np.zeros((1, 3)), vars=np.ones((1, 3)))
        model, _ = baum_welch(utts, init, max_iters=3)
        assert np.all(model.vars >= VARIANCE_FLOOR)

    def test_unvisited_state_keeps_emissions_and_gets_uniform_row(self):
        # state 2 has zero initial probability and no incoming transitions,
        # so no frame is ever assigned to it
        rng = np.random.default_rng(8)
        K, dim = 3, 4
        trans = np.array([[0.7, 0.3, 0.0], [0.4, 0.6, 0.0],
                          [0.2, 0.3, 0.5]])
        with np.errstate(divide="ignore"):
            init = HmmModel(pi=np.log([0.5, 0.5, 0.0]), trans=np.log(trans),
                            means=rng.normal(0, 1, (K, dim)),
                            vars=rng.uniform(0.2, 1.0, (K, dim)))
        reachable = HmmModel(pi=np.log([0.5, 0.5]),
                             trans=np.log(trans[:2, :2]),
                             means=init.means[:2], vars=init.vars[:2])
        utts = [sample_hmm_frames(reachable, 50, rng)[0] for _ in range(2)]
        model, _ = baum_welch(utts, init, rel_tol=0.0, max_iters=3)
        np.testing.assert_allclose(np.exp(model.trans[2]), 1.0 / K,
                                   rtol=1e-15)
        np.testing.assert_array_equal(model.means[2], init.means[2])
        np.testing.assert_array_equal(model.vars[2], init.vars[2])

    def test_subnormal_occupancy_counts_as_unoccupied(self):
        # state 1 scores every frame about 717 nats below state 0, so its
        # shifted emissions, and so its posteriors, are subnormal: below
        # tiny it is unoccupied, and keeps its emissions with a uniform row
        # instead of a mean and variance divided out of subnormal sums
        init = HmmModel(pi=np.log([0.5, 0.5]), trans=np.log(np.full((2, 2),
                                                                    0.5)),
                        means=np.array([[0.0], [0.38]]),
                        vars=np.array([[1.0], [VARIANCE_FLOOR]]))
        frames = np.random.default_rng(9).normal(0.0, 5e-4, (40, 1))
        logB = log_gauss_table(frames, init.means, init.vars)
        B = np.exp(logB[:, 1] - logB[:, 0])
        assert np.all((B > 0) & (B < np.finfo(float).tiny))
        model, _ = baum_welch([frames], init, rel_tol=0.0, max_iters=2)
        np.testing.assert_array_equal(model.means[1], init.means[1])
        np.testing.assert_array_equal(model.vars[1], init.vars[1])
        np.testing.assert_allclose(np.exp(model.trans[1]), 0.5, rtol=1e-15)
        model.validate()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(K=st.integers(1, 6), R=st.integers(1, 12), dim=st.integers(1, 6),
           sticky=st.booleans(), var_lo=st.sampled_from([1e-4, 1e-2, 0.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_xi_counts_match_per_frame_reference(self, K, R, dim, sticky,
                                                 var_lo, seed):
        rng = np.random.default_rng(seed)
        pi = rng.random(K) + 0.05
        pi /= pi.sum()
        # strictly positive rows, either sticky or near-uniform
        trans = rng.uniform(0.9, 1.1, (K, K))
        if sticky:
            trans += np.diag(rng.uniform(5.0, 50.0, K))
        trans /= trans.sum(axis=1, keepdims=True)
        means = rng.normal(0.0, 1.0, (K, dim))
        variances = rng.uniform(var_lo, 2 * var_lo + 0.1, (K, dim))
        frames = rng.normal(0.0, 1.0, (R, dim))
        (gamma,), xi_sum, _ = _forward_backward([frames], pi, trans, means,
                                                variances)
        ref_xi = per_frame_xi_counts(frames, pi, trans, means, variances)
        # each frame's xi sums to 1, up to rounding, on both sides
        tol = 64 * np.finfo(float).eps * (R - 1)
        np.testing.assert_allclose(xi_sum, ref_xi, rtol=0, atol=tol)
        np.testing.assert_allclose(xi_sum.sum(axis=1),
                                   gamma[:-1].sum(axis=0), rtol=0, atol=tol)
        if R == 1:
            np.testing.assert_array_equal(xi_sum, np.zeros((K, K)))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(K=st.integers(1, 6), dim=st.integers(1, 6),
           lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           sticky=st.booleans(), var_lo=st.sampled_from([1e-4, 1e-2, 0.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(K=3, dim=2, lengths=[1, 7, 1, 7, 3], sticky=True, var_lo=1e-2,
             seed=0)
    def test_batched_pass_matches_per_utterance_reference(
            self, K, dim, lengths, sticky, var_lo, seed):
        # unequal and tied lengths, in no particular order: the batched
        # pass sorts them and must hand gamma back in the order given
        rng = np.random.default_rng(seed)
        pi = rng.random(K) + 0.05
        pi /= pi.sum()
        trans = rng.uniform(0.9, 1.1, (K, K))
        if sticky:
            trans += np.diag(rng.uniform(5.0, 50.0, K))
        trans /= trans.sum(axis=1, keepdims=True)
        means = rng.normal(0.0, 1.0, (K, dim))
        variances = rng.uniform(var_lo, 2 * var_lo + 0.1, (K, dim))
        utts = [rng.normal(0.0, 1.0, (R, dim)) for R in lengths]
        gammas, xi_sum, loglik = _forward_backward(utts, pi, trans, means,
                                                   variances)
        refs = [per_utterance_forward_backward(u, pi, trans, means,
                                               variances) for u in utts]
        # the batched products round differently from the per-utterance
        # ones, and values below tiny become 0; both move a normalized
        # posterior by a few ulps per frame, and a count or log-likelihood
        # by a few ulps of its magnitude per frame
        eps = np.finfo(float).eps
        frames = sum(lengths)
        assert len(gammas) == len(utts)
        for gamma, (ref_gamma, _, _), R in zip(gammas, refs, lengths):
            assert gamma.shape == (R, K)
            np.testing.assert_allclose(gamma, ref_gamma, rtol=0,
                                       atol=64 * eps * R)
        ref_xi = sum(xi for _, xi, _ in refs)
        np.testing.assert_allclose(xi_sum, ref_xi, rtol=0,
                                   atol=64 * eps * frames)
        ref_ll = sum(ll for _, _, ll in refs)
        assert abs(loglik - ref_ll) <= 64 * eps * frames * max(1.0,
                                                                abs(ref_ll))

    def test_subnormal_regime_trains_a_valid_model(self):
        # states 0.38 apart at the variance floor: a frame scores its
        # neighbouring states about 722 +- 40 nats below its own, so exp()
        # of the shifted emission table lands in the subnormal range
        # (708-745 nats below the frame's maximum); the transitions form a
        # cycle, zero off its two diagonals
        K, dim = 4, 1
        means = 0.38 * np.arange(K)[:, None] * np.ones((K, dim))
        trans = np.zeros((K, K))
        for i in range(K):
            trans[i, i], trans[i, (i + 1) % K] = 0.7, 0.3
        with np.errstate(divide="ignore"):
            truth = HmmModel(pi=np.log(np.full(K, 1.0 / K)),
                             trans=np.log(trans), means=means,
                             vars=np.full((K, dim), VARIANCE_FLOOR))
        rng = np.random.default_rng(12)
        utts = [sample_hmm_frames(truth, R, rng)[0] for R in (60, 41, 41, 1)]
        logB = log_gauss_table(np.vstack(utts), truth.means, truth.vars)
        B = np.exp(logB - logB.max(axis=1, keepdims=True))
        assert np.any((B > 0) & (B < np.finfo(float).tiny))

        init = dataclasses.replace(truth, means=truth.means + 0.01)
        model, trace = baum_welch(utts, init, rel_tol=0.0, max_iters=6)
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1])), trace
        model.validate()
        gammas, xi_sum, loglik = _forward_backward(
            utts, np.exp(model.pi), np.exp(model.trans), model.means,
            model.vars)
        assert np.isfinite(loglik) and np.all(np.isfinite(xi_sum))
        for gamma in gammas:
            np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=0,
                                       atol=8 * np.finfo(float).eps)

    @pytest.mark.parametrize("dims, error, match", [
        ((3, 4), ValueError, "inconsistent frame dimensions"),
        ((4, 4), ModelMismatchError, "model dimension 3"),
    ])
    def test_frames_that_do_not_fit_rejected(self, dims, error, match):
        init = HmmModel(pi=np.zeros(1), trans=np.zeros((1, 1)),
                        means=np.zeros((1, 3)), vars=np.ones((1, 3)))
        with pytest.raises(error, match=match):
            baum_welch([np.zeros((5, d)) for d in dims], init)

    def test_empty_training_set_rejected(self):
        init = HmmModel(pi=np.zeros(1), trans=np.zeros((1, 1)),
                        means=np.zeros((1, 3)), vars=np.ones((1, 3)))
        with pytest.raises(ValueError, match="empty"):
            baum_welch([], init)

    @pytest.mark.parametrize("options, match", [
        ({"max_iters": -1}, "max_iters"), ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": True}, "max_iters"), ({"max_iters": "3"}, "max_iters"),
        ({"rel_tol": np.nan}, "rel_tol"), ({"rel_tol": np.inf}, "rel_tol"),
        ({"rel_tol": -1e-5}, "rel_tol"), ({"rel_tol": "1e-4"}, "rel_tol"),
        ({"rel_tol": True}, "rel_tol"), ({"rel_tol": None}, "rel_tol"),
    ], ids=repr)
    def test_bad_settings_rejected_before_any_pass(self, monkeypatch,
                                                   options, match):
        # max_iters=-1 would return the initial model untrained, and a NaN
        # rel_tol would run every iteration
        def no_pass(*args):
            raise AssertionError("ran an EM pass before checking")

        monkeypatch.setattr("specsep.models._forward_backward", no_pass)
        init = random_hmm(np.random.default_rng(3), K=2, dim=3)
        with pytest.raises(ValueError, match=match):
            baum_welch([np.zeros((5, 3))], init, **options)

    @pytest.mark.parametrize("defect", HMM_DEFECTS + ("all_variances_1e-300",
                                                      "pi_one_short"))
    def test_malformed_init_rejected_before_any_pass(self, monkeypatch,
                                                     defect):
        # a NaN mean would return a NaN model and trace, variances of 1e-300
        # a first log-likelihood of -3.8e302, and a short pi a numpy
        # broadcast error from inside the pass
        def no_pass(*args):
            raise AssertionError("ran an EM pass before checking")

        monkeypatch.setattr("specsep.models._forward_backward", no_pass)
        init = random_hmm(np.random.default_rng(3), K=4, dim=3)
        if defect == "all_variances_1e-300":
            init = dataclasses.replace(init, vars=np.full((4, 3), 1e-300))
        elif defect == "pi_one_short":
            init = dataclasses.replace(init, pi=np.log(np.full(3, 1 / 3)))
        else:
            init = malformed(init, defect)
        frames = np.random.default_rng(4).normal(0, 1, (50, 3))
        with pytest.raises(ModelMismatchError):
            baum_welch([frames], init)

    @pytest.mark.parametrize("max_iters", [0, np.int64(0)], ids=repr)
    def test_zero_iterations_run_no_pass(self, monkeypatch, max_iters):
        def no_pass(*args):
            raise AssertionError("ran an EM pass")

        monkeypatch.setattr("specsep.models._forward_backward", no_pass)
        init = random_hmm(np.random.default_rng(3), K=2, dim=3)
        model, trace = baum_welch([np.zeros((5, 3))], init,
                                  max_iters=max_iters)
        assert trace == []
        np.testing.assert_array_equal(model.means, init.means)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 1), ()], ids=repr)
    def test_utterance_not_2d_rejected(self, shape):
        init = HmmModel(pi=np.zeros(1), trans=np.zeros((1, 1)),
                        means=np.zeros((1, 3)), vars=np.ones((1, 3)))
        utts = [np.zeros((5, 3)), np.zeros(shape)]
        with pytest.raises(ValueError, match=re.escape(
                f"utterance 1 has shape {shape}, not (frames, dim)")):
            baum_welch(utts, init)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_frame_rejected(self, bad):
        # a NaN frame would otherwise give a NaN log-likelihood trace, an
        # infinite one inf - inf
        init = HmmModel(pi=np.zeros(1), trans=np.zeros((1, 1)),
                        means=np.zeros((1, 3)), vars=np.ones((1, 3)))
        utts = [np.zeros((5, 3)), np.zeros((6, 3))]
        utts[1][4, 2] = bad
        with pytest.raises(ValueError,
                           match=r"utterance 1 .*\(4, 2\) is .*not a finite"):
            baum_welch(utts, init)


class TestForwardBackwardMemory:
    """The tracemalloc peak of one _forward_backward pass grows with the
    frame count, not with the longest utterance times the utterance
    count: one 1,000-frame and 31 ten-frame utterances (1,310 frames) at
    K=64 stay within 4 float64 arrays of (1,310, K), the three arrays of
    the recursions plus the emission table's temporaries.  Padding every
    utterance to the longest would hold 3 x 1,000 x 32 x K values, 49 MB."""

    def test_peak_grows_with_frame_count(self):
        rng = np.random.default_rng(5)
        K, dim = 64, 8
        utts = [rng.normal(0.0, 1.0, (R, dim)) for R in [10] * 15 + [1000]
                + [10] * 16]
        args = (np.full(K, 1.0 / K), np.full((K, K), 1.0 / K),
                rng.normal(0.0, 1.0, (K, dim)), np.ones((K, dim)))
        _forward_backward(utts, *args)
        tracemalloc.start()
        try:
            _forward_backward(utts, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 1310 * K * 8


class TestPersistence:
    def test_hmm_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(6)
        model = random_hmm(rng, K=4, dim=7)
        model.meta.update({"sample_rate": 8000, "frame_len": 256})
        path = tmp_path / "m.ssm"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, HmmModel)
        np.testing.assert_array_equal(back.pi, model.pi)
        np.testing.assert_array_equal(back.trans, model.trans)
        np.testing.assert_array_equal(back.means, model.means)
        np.testing.assert_array_equal(back.vars, model.vars)
        assert back.meta["sample_rate"] == 8000

    def test_codebook_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        cb = Codebook(codevectors=rng.normal(0, 1, (4, 5)),
                      cluster_variances=rng.uniform(0.1, 1, (4, 5)),
                      occupancy=np.array([3, 4, 5, 6]))
        path = tmp_path / "cb.ssm"
        save_model(cb, path)
        back = load_model(path)
        assert isinstance(back, Codebook)
        np.testing.assert_array_equal(back.codevectors, cb.codevectors)
        np.testing.assert_array_equal(back.cluster_variances,
                                      cb.cluster_variances)
        np.testing.assert_array_equal(back.occupancy, cb.occupancy)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(hmm=st.booleans(), K=st.integers(1, 9), dim=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1),
           meta=st.fixed_dictionaries({}, optional={
               "sample_rate": st.integers(1, 96000),
               "frame_len": st.integers(1, 4096),
               "hop": st.integers(1, 4096),
               "dft_size": st.integers(1, 8192),
               "speaker": st.text(max_size=100),
               "gain": st.floats(allow_nan=False),
               "flag": st.booleans()}))
    @example(hmm=False, K=2, dim=3, seed=0, meta={"speaker": "ab" * 50})
    # each of these loaded back as another value or type from version-1
    # files, whose metadata was text
    @example(hmm=True, K=2, dim=3, seed=0, meta={
        "flag": True, "speaker": "007", "gain": 2.0})
    @example(hmm=False, K=2, dim=3, seed=0, meta={
        "speaker": "1e3", "gain": float("inf")})
    @example(hmm=True, K=1, dim=1, seed=0, meta={
        "speaker": "nan", "gain": float("-inf")})
    def test_round_trip_property(self, tmp_path_factory, hmm, K, dim, seed,
                                 meta):
        rng = np.random.default_rng(seed)
        if hmm:
            model = random_hmm(rng, K=K, dim=dim)
            model.meta = meta
        else:
            model = Codebook(rng.normal(0, 3, (K, dim)),
                             rng.uniform(1e-3, 2, (K, dim)),
                             rng.integers(0, 1000, K), meta=meta)
        path = tmp_path_factory.getbasetemp() / "round_trip.ssm"
        save_model(model, path)
        back = load_model(path)
        assert_same_model(back, model)

    # Values that JSON would load back as another value or type are
    # refused. Values that version-1 files, whose metadata was text, could
    # not keep and refused are kept by JSON: they are saved and load back
    # equal and of their type.
    @pytest.mark.parametrize("meta, refused", [
        pytest.param(meta, refused, id=repr(meta)) for meta, refused in [
            ({"gain": float("nan")}, True), ({"shape": (2, 3)}, True),
            ({1: "a"}, True), ({(1, 2): "a"}, True),
            ({"hop": np.int64(80)}, True), ({"gain": np.float64(0.5)}, True),
            ({"speaker": np.str_("a")}, True), ({"flag": np.bool_(True)}, True),
            ({"speakers": ["a", ("b", "c")]}, True),
            ({"speaker": "007"}, False), ({"name": "1e3"}, False),
            ({"flag": True}, False), ({"x": "nan"}, False),
            ({"gain": 2.0}, False)]])
    def test_meta_that_would_not_round_trip_refused(self, tmp_path, meta,
                                                    refused):
        rng = np.random.default_rng(8)
        model = random_hmm(rng, K=2, dim=3)
        model.meta = {"sample_rate": 8000, **meta}
        path = tmp_path / "m.ssm"
        if refused:
            with pytest.raises(ValueError, match="model meta"):
                save_model(model, path)
            assert not path.exists()
        else:
            save_model(model, path)
            assert_same_model(load_model(path), model)

    # version 1, whose metadata was text, is no longer read
    @pytest.mark.parametrize("version", [1, 3])
    def test_unknown_version_rejected(self, tmp_path, version):
        path = tmp_path / "m.ssm"
        save_model(random_hmm(np.random.default_rng(10), K=2, dim=3), path)
        with np.load(path) as data:
            entries = {**data, "version": np.array(version)}
        with open(path, "wb") as f:
            np.savez(f, **entries)
        with pytest.raises(ModelMismatchError,
                           match=f"m.ssm: unsupported model version "
                                 f"{version}; this release reads version 2"):
            load_model(path)

    @pytest.mark.parametrize("defect", BAD_FILES)
    @pytest.mark.parametrize("hmm", [True, False], ids=["hmm", "vq"])
    def test_unreadable_file_is_model_error(self, tmp_path, hmm, defect):
        rng = np.random.default_rng(11)
        model = (random_hmm(rng, K=2, dim=3) if hmm else
                 Codebook(rng.normal(0, 1, (2, 3)), np.full((2, 3), 0.2),
                          np.full(2, 3)))
        path = tmp_path / "bad.ssm"
        save_bad_file(model, path, defect)
        with pytest.raises(ModelMismatchError, match="bad.ssm"):
            load_model(path)

    def test_non_model_refused_on_save(self, tmp_path):
        with pytest.raises(TypeError, match="cannot save object of type"):
            save_model({"pi": np.zeros(1)}, tmp_path / "d.ssm")
        assert not (tmp_path / "d.ssm").exists()

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.ssm")

    def test_non_model_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ModelMismatchError, match="not a model file"):
            load_model(path)


class TestValidation:
    @pytest.mark.parametrize("defect", HMM_DEFECTS)
    def test_malformed_hmm_rejected_on_load(self, tmp_path, defect):
        model = random_hmm(np.random.default_rng(10), K=3, dim=5)
        model.meta.update(sample_rate=8000, hop=80)
        path = tmp_path / "m.ssm"
        save_model(malformed(model, defect), path)
        with pytest.raises(ModelMismatchError, match="m.ssm"):
            load_model(path)

    @pytest.mark.parametrize("defect", CODEBOOK_DEFECTS)
    def test_malformed_codebook_rejected_on_load(self, tmp_path, defect):
        rng = np.random.default_rng(11)
        cb = Codebook(rng.normal(0, 1, (4, 5)), np.full((4, 5), 0.2),
                      np.full(4, 3), meta={"hop": 80})
        path = tmp_path / "cb.ssm"
        save_model(malformed(cb, defect), path)
        with pytest.raises(ModelMismatchError, match="cb.ssm"):
            load_model(path)

    def test_shapes_checked_against_k_and_dim(self):
        rng = np.random.default_rng(12)
        model = random_hmm(rng, K=3, dim=5)
        for bad in (dict(vars=model.vars[:, :4]),
                    dict(means=model.means[:2]),
                    dict(trans=model.trans[:, :2])):
            with pytest.raises(ModelMismatchError, match="shape"):
                HmmModel(**{**vars(model), **bad}).validate()
        cb = Codebook(rng.normal(0, 1, (4, 5)), np.full((4, 5), 0.2),
                      np.full(3, 3))
        with pytest.raises(ModelMismatchError, match="shape"):
            cb.validate()

    def test_all_zero_occupancy_rejected(self):
        # init_hmm_from_codebook would divide by the zero total
        cb = Codebook(np.zeros((2, 3)), np.full((2, 3), 0.5), np.zeros(2))
        with pytest.raises(ModelMismatchError, match="occupancy"):
            cb.validate()

    def test_zero_probability_transitions_accepted(self):
        model = random_hmm(np.random.default_rng(13), K=2, dim=3)
        model.trans = np.array([[0.0, -np.inf], [np.log(0.5), np.log(0.5)]])
        model.validate()
