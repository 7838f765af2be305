import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsep import (Codebook, HmmModel, ModelMismatchError, baum_welch,
                     init_hmm_from_codebook, load_model, sample_hmm_frames,
                     save_model)
from specsep.mixmax import LOG_2PI, log_gauss_table
from specsep.models import VARIANCE_FLOOR, _forward_backward

from conftest import (CODEBOOK_DEFECTS, HMM_DEFECTS, malformed,
                      per_frame_xi_counts, random_hmm)


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
        gamma, xi_sum, _ = _forward_backward(frames, pi, trans, means,
                                             variances)
        ref_xi = per_frame_xi_counts(frames, pi, trans, means, variances)
        # each frame's xi sums to 1, up to rounding, on both sides
        tol = 64 * np.finfo(float).eps * (R - 1)
        np.testing.assert_allclose(xi_sum, ref_xi, rtol=0, atol=tol)
        np.testing.assert_allclose(xi_sum.sum(axis=1),
                                   gamma[:-1].sum(axis=0), rtol=0, atol=tol)
        if R == 1:
            np.testing.assert_array_equal(xi_sum, np.zeros((K, K)))

    def test_empty_training_set_rejected(self):
        init = HmmModel(pi=np.zeros(1), trans=np.zeros((1, 1)),
                        means=np.zeros((1, 3)), vars=np.ones((1, 3)))
        with pytest.raises(ValueError, match="empty"):
            baum_welch([], init)


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
               # letters only, and none of the words float() parses
               "speaker": st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1,
                                  max_size=100).filter(
                   lambda s: s not in ("inf", "infinity", "nan")),
               "gain": st.floats(allow_nan=False, allow_infinity=False)}))
    @example(hmm=False, K=2, dim=3, seed=0, meta={"speaker": "ab" * 50})
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
        if any(isinstance(v, float) and v.is_integer() for v in meta.values()):
            # the text of a whole float loads back as an int
            with pytest.raises(ValueError, match="would load back"):
                save_model(model, path)
            return
        save_model(model, path)
        back = load_model(path)
        assert type(back) is type(model)
        for name, value in vars(model).items():
            if name == "meta":
                assert back.meta == meta
                assert ([type(v) for v in back.meta.values()]
                        == [type(meta[k]) for k in back.meta])
            else:
                np.testing.assert_array_equal(getattr(back, name), value,
                                              strict=True)

    # values whose text loads back as another value or type
    @pytest.mark.parametrize("meta", [
        {"speaker": "007"}, {"name": "1e3"}, {"flag": True}, {"x": "nan"},
        {"gain": 2.0}, {"gain": float("nan")}, {"hop": "80"}, {1: "a"},
    ], ids=repr)
    def test_meta_that_would_not_round_trip_refused(self, tmp_path, meta):
        rng = np.random.default_rng(8)
        model = random_hmm(rng, K=2, dim=3)
        model.meta = {"sample_rate": 8000, **meta}
        path = tmp_path / "m.ssm"
        with pytest.raises(ValueError, match="model meta"):
            save_model(model, path)
        assert not path.exists()

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
