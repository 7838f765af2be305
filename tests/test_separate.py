import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsep import (AudioSignal, Codebook, GainContext, HmmModel,
                     ModelMismatchError, apply_masks_and_reconstruct,
                     frame_signal, g_of_theta, gains_from_theta, gvq_infer,
                     log_spectra, mix_at_tir, normalize_equal_power,
                     parallel_viterbi, separate, snr, synth_source)
from specsep.decode import NumericError, _target_mask, mega_frame_slices
from specsep.gain import THETA_MAX_DB, THETA_MIN_DB
from specsep.separate import BASELINE_GY_OVER_G0, MEGA_FRAME_SECONDS

from conftest import (CODEBOOK_DEFECTS, HMM_DEFECTS, MODEL_DEFECTS,
                      malformed, overflowing, patch_out_decoding,
                      random_hmm, train_speaker_models)


@pytest.fixture
def ctx():
    return GainContext(g_y=1.0)


# every method with the kind of the models it decodes with
EVERY_METHOD = (("gfhmm", "hmm"), ("gvq", "cb"), ("fhmm", "hmm"),
                ("vq", "cb"))


def mask_pair(proto_x, proto_v, chunks, thetas, ctx):
    """The decoders' target mask (_target_mask) and its complement, the
    interference mask that separate() applies."""
    mask_x = _target_mask(proto_x, proto_v, chunks, thetas, ctx)
    return mask_x, 1 - mask_x


def path_masks(proto_x, proto_v, path_x, path_v, theta, ctx):
    """mask_pair over one whole-sequence chunk of decoded prototypes."""
    return mask_pair(proto_x[np.asarray(path_x)],
                     proto_v[np.asarray(path_v)],
                     [slice(0, len(path_x))], [theta], ctx)


class TestMaskBuilding:
    def test_dominant_target_gives_all_ones(self, ctx):
        rng = np.random.default_rng(0)
        mx = random_hmm(rng, K=2, dim=6)
        mv = random_hmm(rng, K=2, dim=6)
        mx.means += 10.0
        masks_x, masks_v = path_masks(mx.means, mv.means, [0, 1], [1, 0],
                                      0.0, ctx)
        assert np.all(masks_x == 1)
        assert np.all(masks_v == 0)

    @pytest.mark.parametrize("theta", [-4000.0, 4000.0])
    def test_huge_theta_gives_every_bin_to_louder_source(self, ctx, theta):
        rng = np.random.default_rng(3)
        mx = random_hmm(rng, K=2, dim=6)
        mv = random_hmm(rng, K=2, dim=6)
        masks_x, masks_v = path_masks(mx.means, mv.means, [0, 1], [1, 0],
                                      theta, ctx)
        assert np.all(masks_x == (theta > 0))
        assert np.all(masks_v == (theta < 0))

    @pytest.mark.parametrize("theta", [np.nan, -np.inf])
    def test_nonfinite_theta_rejected(self, ctx, theta):
        rng = np.random.default_rng(4)
        mx = random_hmm(rng, K=2, dim=6)
        with pytest.raises(ValueError, match="theta"):
            path_masks(mx.means, mx.means, [0, 1], [1, 0], theta, ctx)

    def test_tie_goes_to_target(self, ctx):
        rng = np.random.default_rng(1)
        mx = random_hmm(rng, K=1, dim=4)
        mv = random_hmm(rng, K=1, dim=4)
        mv.means = mx.means.copy()     # equal shifted means at theta = 0
        masks_x, masks_v = path_masks(mx.means, mv.means, [0], [0], 0.0, ctx)
        assert np.all(masks_x == 1)
        assert np.all(masks_v == 0)

    def test_matches_elementwise_recomputation(self, ctx):
        rng = np.random.default_rng(2)
        mx = random_hmm(rng, K=3, dim=8)
        mv = random_hmm(rng, K=3, dim=8)
        path_x = rng.integers(0, 3, 5)
        path_v = rng.integers(0, 3, 5)
        theta = 3.0
        masks_x, masks_v = path_masks(mx.means, mv.means, path_x, path_v,
                                      theta, ctx)
        gx, gv = g_of_theta(theta, ctx), g_of_theta(-theta, ctx)
        for r in range(5):
            for d in range(8):
                want = 1 if (mx.means[path_x[r], d] + gx
                             >= mv.means[path_v[r], d] + gv) else 0
                assert masks_x[r, d] == want
                assert masks_v[r, d] == 1 - want

    def test_vq_identical_codebooks_positive_theta(self, ctx, trained_models):
        cb = trained_models["cb_a"]
        idx = np.zeros(4, dtype=int)
        masks_x, masks_v = path_masks(cb.codevectors, cb.codevectors, idx,
                                      idx, 5.0, ctx)
        assert np.all(masks_x == 1)     # g(theta) > g(-theta) for theta > 0
        assert np.all(masks_v == 0)

    def test_vq_complementarity(self, ctx, trained_models):
        rng = np.random.default_rng(3)
        cb_a, cb_b = trained_models["cb_a"], trained_models["cb_b"]
        idx_x = rng.integers(0, cb_a.K, 6)
        idx_v = rng.integers(0, cb_b.K, 6)
        masks_x, masks_v = path_masks(cb_a.codevectors, cb_b.codevectors,
                                      idx_x, idx_v, -4.0, ctx)
        np.testing.assert_array_equal(masks_x + masks_v, 1)

    def test_per_chunk_thetas_match_single_chunk_masks(self, ctx):
        rng = np.random.default_rng(5)
        proto_x = rng.normal(0.0, 1.0, (10, 7))
        proto_v = rng.normal(0.0, 1.0, (10, 7))
        chunks = [slice(0, 4), slice(4, 10)]
        thetas = [-6.0, 9.0]
        masks_x, masks_v = mask_pair(proto_x, proto_v, chunks, thetas, ctx)
        for sl, th in zip(chunks, thetas):
            want_x, want_v = mask_pair(proto_x[sl], proto_v[sl],
                                       [slice(0, sl.stop - sl.start)],
                                       [th], ctx)
            np.testing.assert_array_equal(masks_x[sl], want_x)
            np.testing.assert_array_equal(masks_v[sl], want_v)
        np.testing.assert_array_equal(masks_x + masks_v, 1)
        assert masks_x.dtype == masks_v.dtype == np.uint8

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(R=st.integers(1, 30), dim=st.integers(1, 12),
           cuts=st.lists(st.integers(1, 29), max_size=3, unique=True),
           thetas=st.lists(st.one_of(st.just(0.0),
                                     st.floats(THETA_MIN_DB, THETA_MAX_DB)),
                           min_size=4, max_size=4),
           g_y=st.floats(0.05, 20.0), tie_frac=st.sampled_from([0, 0.5, 1]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(R=6, dim=3, cuts=[3], thetas=[0.0, 7.5, 0.0, 0.0], g_y=1.0,
             tie_frac=1, seed=0)
    def test_complementary_with_ties_to_target(self, R, dim, cuts, thetas,
                                               g_y, tie_frac, seed):
        # chunks from drawn cut points; in a tie_frac share of each chunk's
        # bins the interference prototype is planted on the target's
        # gain-shifted value, an exact tie wherever the sum rounds back
        # (always at theta = 0, where both gains are equal)
        rng = np.random.default_rng(seed)
        ctx = GainContext(g_y=g_y)
        bounds = [0] + sorted(c for c in cuts if c < R) + [R]
        chunks = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        thetas = thetas[:len(chunks)]
        proto_x = rng.normal(-2.0, 1.0, (R, dim))
        proto_v = rng.normal(-2.0, 1.0, (R, dim))
        for sl, th in zip(chunks, thetas):
            gp = gains_from_theta(th, ctx)
            tie = rng.random(proto_x[sl].shape) < tie_frac
            proto_v[sl][tie] = (proto_x[sl] + gp.log10_gx
                                - gp.log10_gv)[tie]
        masks_x, masks_v = mask_pair(proto_x, proto_v, chunks, thetas, ctx)
        assert masks_x.dtype == masks_v.dtype == np.uint8
        np.testing.assert_array_equal(masks_x + masks_v, 1)
        for sl, th in zip(chunks, thetas):
            gp = gains_from_theta(th, ctx)
            m_x, m_v = proto_x[sl] + gp.log10_gx, proto_v[sl] + gp.log10_gv
            np.testing.assert_array_equal(masks_x[sl], m_x >= m_v)
            assert np.all(masks_x[sl][m_x == m_v] == 1)
            if th == 0.0 and tie_frac == 1:
                assert np.all(masks_x[sl] == 1)


@pytest.fixture(scope="module")
def mixture_setup(framing, speaker_generators):
    gen_a, gen_b = speaker_generators
    sx = synth_source("hmm_sample", model=gen_a, seed=3007, duration=1.5,
                      cfg=framing)
    sv = synth_source("hmm_sample", model=gen_b, seed=4007, duration=1.5,
                      cfg=framing)
    x, v = normalize_equal_power(sx, sv)
    return x, v


@pytest.fixture(scope="module")
def k4_models(framing, speaker_generators):
    """(codebook, HMM) with K=4 for the first speaker."""
    return train_speaker_models(speaker_generators[0], 100, framing, K=4,
                                n_clips=6, duration=1.2, bw_iters=2)


class TestSeparatePipeline:
    def test_outputs_split_the_unity_reconstruction(self, framing,
                                                    trained_models,
                                                    mixture_setup):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 6.0)
        x_hat, v_hat, diag = separate(y, trained_models["hmm_a"],
                                      trained_models["hmm_b"], framing,
                                      method="gfhmm")
        R = frame_signal(y, framing).shape[0]
        ones = np.ones((R, framing.n_bins))
        full, _ = apply_masks_and_reconstruct(y, ones, ones, framing)
        np.testing.assert_allclose(x_hat.samples + v_hat.samples,
                                   full.samples, atol=1e-10)

    def test_energy_split_per_frame(self, framing, trained_models,
                                    mixture_setup):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 3.0)
        x_hat, v_hat, diag = separate(y, trained_models["cb_a"],
                                      trained_models["cb_b"], framing,
                                      method="gvq")
        # binary complementary masks partition every bin's energy
        win = framing.analysis_window()
        frames = frame_signal(y, framing)
        spec = np.fft.rfft(frames * win, n=framing.dft_size, axis=1)
        masks_x, masks_v = diag["mask_x"], 1 - diag["mask_x"]
        e_full = np.abs(spec) ** 2
        e_x = np.abs(spec * masks_x) ** 2
        e_v = np.abs(spec * masks_v) ** 2
        np.testing.assert_allclose(e_x + e_v, e_full, rtol=1e-12)

    def test_determinism(self, framing, trained_models, mixture_setup):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 9.0)
        a1 = separate(y, trained_models["hmm_a"], trained_models["hmm_b"],
                      framing, method="gfhmm")
        a2 = separate(y, trained_models["hmm_a"], trained_models["hmm_b"],
                      framing, method="gfhmm")
        np.testing.assert_array_equal(a1[0].samples, a2[0].samples)
        np.testing.assert_array_equal(a1[1].samples, a2[1].samples)
        assert a1[2]["theta_hat"] == a2[2]["theta_hat"]

    def test_gfhmm_beats_vq_at_theta_0(self, framing, trained_models,
                                       mixture_setup):
        x, v = mixture_setup
        y, gx, _ = mix_at_tir(x, v, 0.0)
        ref = AudioSignal(gx * x.samples[: len(y)], x.sample_rate)
        x_gf, _, _ = separate(y, trained_models["hmm_a"],
                              trained_models["hmm_b"], framing,
                              method="gfhmm")
        x_vq, _, _ = separate(y, trained_models["cb_a"],
                              trained_models["cb_b"], framing, method="vq")
        assert snr(ref, x_gf) > snr(ref, x_vq)

    def test_gfhmm_beats_fhmm_at_theta_15(self, framing, trained_models,
                                          mixture_setup):
        x, v = mixture_setup
        y, gx, _ = mix_at_tir(x, v, 15.0)
        ref = AudioSignal(gx * x.samples[: len(y)], x.sample_rate)
        x_gf, _, _ = separate(y, trained_models["hmm_a"],
                              trained_models["hmm_b"], framing,
                              method="gfhmm")
        x_fh, _, _ = separate(y, trained_models["hmm_a"],
                              trained_models["hmm_b"], framing,
                              method="fhmm")
        assert snr(ref, x_gf) > snr(ref, x_fh)

    @pytest.mark.parametrize("method, kind", [("fhmm", "hmm"), ("vq", "cb")])
    def test_baseline_is_the_theta_0_decode_at_baseline_gains(
            self, framing, trained_models, mixture_setup, method, kind):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 6.0)
        model_x, model_v = (trained_models[f"{kind}_{s}"] for s in "ab")
        _, _, diag = separate(y, model_x, model_v, framing, method=method)
        y_seq = log_spectra(y, framing)
        ctx = GainContext(g_y=BASELINE_GY_OVER_G0)
        if kind == "hmm":
            ref = parallel_viterbi(y_seq, model_x, model_v, 0.0, ctx)
        else:
            ref = gvq_infer(y_seq, model_x, model_v, ctx, theta0=0.0,
                            max_outer=0)
        np.testing.assert_array_equal(diag["path_x"], ref.path_x)
        np.testing.assert_array_equal(diag["path_v"], ref.path_v)
        assert diag["logprob"] == ref.logprob

    def test_vq_baseline_equals_gvq_with_frozen_gains(self, framing,
                                                      trained_models,
                                                      mixture_setup):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 6.0)
        cb_a, cb_b = trained_models["cb_a"], trained_models["cb_b"]
        base_x, base_v, _ = separate(y, cb_a, cb_b, framing, method="vq")
        # gvq with theta frozen at 0 and the baseline gains, decoded and
        # masked by hand
        ctx = GainContext(g_y=BASELINE_GY_OVER_G0)
        res = gvq_infer(log_spectra(y, framing), cb_a, cb_b, ctx,
                        theta0=0.0, max_outer=0)
        masks_x, masks_v = path_masks(cb_a.codevectors, cb_b.codevectors,
                                      res.path_x, res.path_v, 0.0, ctx)
        same_x, same_v = apply_masks_and_reconstruct(y, masks_x, masks_v,
                                                     framing)
        np.testing.assert_array_equal(base_x.samples, same_x.samples)
        np.testing.assert_array_equal(base_v.samples, same_v.samples)

    @pytest.mark.parametrize("method, kind, fix_theta", [
        ("gfhmm", "hmm", None), ("gvq", "cb", None), ("gfhmm", "hmm", 3.0),
        ("gvq", "cb", -2.0), ("fhmm", "hmm", None), ("vq", "cb", None)])
    def test_objective_trace_has_one_score_per_decode(
            self, framing, trained_models, mixture_setup, method, kind,
            fix_theta):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 6.0)
        _, _, diag = separate(y, trained_models[f"{kind}_a"],
                              trained_models[f"{kind}_b"], framing,
                              method=method, fix_theta=fix_theta)
        trace = diag["objective_trace"]
        estimated = method in ("gfhmm", "gvq") and fix_theta is None
        assert len(trace) == (diag["iterations"] + 1 if estimated else 1)
        assert trace[-1] == diag["logprob"]

    @pytest.mark.parametrize("method, kind, options, calls", [
        ("gfhmm", "hmm", {}, 2), ("fhmm", "hmm", {}, 2), ("vq", "cb", {}, 4),
        # theta settles in the third round: 4 decodes of one window
        ("gvq", "cb", {}, 10),
        # the benchmark's options: 3 fixed rounds, 1 s windows (one window
        # on this 1.5 s mixture)
        ("gvq", "cb", {"outer_tol": 0.0, "max_outer": 3,
                       "mega_frame_seconds": 1.0}, 10)])
    def test_models_validated_by_the_fit_check_and_each_gvq_score(
            self, framing, trained_models, mixture_setup, monkeypatch,
            method, kind, options, calls):
        # separate() validates neither model itself; the decoder's fit check
        # validates both, and every gvq_score call both codebooks again
        validated = []
        for cls in (HmmModel, Codebook):
            def counted(self, validate=cls.validate):
                validated.append(self)
                validate(self)
            monkeypatch.setattr(cls, "validate", counted)
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 6.0)
        _, _, diag = separate(y, trained_models[f"{kind}_a"],
                              trained_models[f"{kind}_b"], framing,
                              method=method, **options)
        assert len(validated) == calls
        scores = (len(diag["objective_trace"]) * len(diag["theta_per_chunk"])
                  if kind == "cb" else 0)
        assert calls == 2 + 2 * scores

    def test_fix_theta_skips_estimation(self, framing, trained_models,
                                        mixture_setup):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 6.0)
        _, _, diag = separate(y, trained_models["hmm_a"],
                              trained_models["hmm_b"], framing,
                              method="gfhmm", fix_theta=6.0)
        assert diag["theta_hat"] == 6.0
        assert diag["iterations"] == 1

    def test_fix_theta_outside_search_interval_rejected(
            self, framing, trained_models, mixture_setup, monkeypatch):
        # the baselines decode at 0 dB, but refuse the setting too
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 6.0)
        with monkeypatch.context() as patch:
            patch_out_decoding(patch)
            for method, kind in EVERY_METHOD:
                for bad in (20.0, -15.5, float("nan"), 99.0, "3", True):
                    with pytest.raises(ValueError, match="fix_theta"):
                        separate(y, trained_models[f"{kind}_a"],
                                 trained_models[f"{kind}_b"], framing,
                                 method=method, fix_theta=bad)
        _, _, diag = separate(y, trained_models["cb_a"],
                              trained_models["cb_b"], framing,
                              method="gvq", fix_theta=-15.0)
        assert diag["theta_hat"] == -15.0

    @pytest.mark.parametrize("method, kind, options", [
        ("fhmm", "hmm", {"max_outer": -1}),
        ("gfhmm", "hmm", {"fix_theta": 2.0, "max_outer": 2.5}),
        ("vq", "cb", {"max_outer": True}),
    ], ids=repr)
    def test_bad_max_outer_rejected_when_theta_is_fixed(
            self, framing, trained_models, mixture_setup, method, kind,
            options):
        # a fixed theta runs no rounds, but the setting is still refused
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 6.0)
        with pytest.raises(ValueError, match="max_outer must be an integer"):
            separate(y, trained_models[f"{kind}_a"],
                     trained_models[f"{kind}_b"], framing, method=method,
                     **options)

    def test_nonfinite_theta0_rejected(self, framing, trained_models,
                                       mixture_setup, monkeypatch):
        # a fixed theta and the baselines ignore theta0, but refuse it too
        patch_out_decoding(monkeypatch)
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 6.0)
        for method, kind in EVERY_METHOD:
            for fixed in ({}, {"fix_theta": 2.0}):
                for bad in (float("nan"), float("inf"), "3", True, None):
                    with pytest.raises(ValueError, match="theta0"):
                        separate(y, trained_models[f"{kind}_a"],
                                 trained_models[f"{kind}_b"], framing,
                                 method=method, theta0=bad, **fixed)

    def test_mega_frames_on_long_mixture(self, framing, speaker_generators,
                                         trained_models):
        gen_a, gen_b = speaker_generators
        sx = synth_source("hmm_sample", model=gen_a, seed=31, duration=4.5,
                          cfg=framing)
        sv = synth_source("hmm_sample", model=gen_b, seed=32, duration=4.5,
                          cfg=framing)
        x, v = normalize_equal_power(sx, sv)
        y, _, _ = mix_at_tir(x, v, 6.0)
        _, _, diag = separate(y, trained_models["hmm_a"],
                              trained_models["hmm_b"], framing,
                              method="gfhmm")
        assert len(diag["theta_per_chunk"]) == 2
        for th in diag["theta_per_chunk"]:
            assert -15.0 <= th <= 15.0
        # the decoder's mask reads each window's theta over that window
        window = round(MEGA_FRAME_SECONDS * y.sample_rate / framing.hop)
        chunks = mega_frame_slices(diag["n_frames"], window)
        want_x, _ = mask_pair(trained_models["hmm_a"].means[diag["path_x"]],
                              trained_models["hmm_b"].means[diag["path_v"]],
                              chunks, diag["theta_per_chunk"],
                              GainContext(g_y=diag["g_y"]))
        np.testing.assert_array_equal(diag["mask_x"], want_x)

    def test_kind_mismatch_rejected(self, framing, trained_models,
                                    mixture_setup):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 0.0)
        with pytest.raises(ModelMismatchError, match="HmmModel"):
            separate(y, trained_models["cb_a"], trained_models["cb_b"],
                     framing, method="gfhmm")

    def test_dimension_mismatch_rejected(self, framing, trained_models):
        rng = np.random.default_rng(4)
        bad = random_hmm(rng, K=4, dim=10)
        y = AudioSignal(rng.standard_normal(4000) * 0.1)
        with pytest.raises(ModelMismatchError, match="dimension"):
            separate(y, bad, bad, framing, method="gfhmm")

    @pytest.mark.parametrize("key, value", [
        ("sample_rate", 16000), ("frame_len", 200), ("hop", 100),
        ("dft_size", 512)])
    def test_recorded_setting_mismatch_rejected(
            self, framing, trained_models, mixture_setup, key, value):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 0.0)
        meta = {"sample_rate": 8000, **dataclasses.asdict(framing),
                key: value}
        hmm_v = dataclasses.replace(trained_models["hmm_b"], meta=meta)
        cb_v = dataclasses.replace(trained_models["cb_b"], meta=meta)
        for method, model_x, model_v in (
                ("gfhmm", trained_models["hmm_a"], hmm_v),
                ("vq", trained_models["cb_a"], cb_v)):
            with pytest.raises(ModelMismatchError, match=f"{key}={value}"):
                separate(y, model_x, model_v, framing, method=method)

    @pytest.mark.parametrize("value, message", [
        (10 ** 400, "interference model was trained with sample_rate="
                    f"1{'0' * 39}... (401 characters) but the mixture is "
                    "separated with sample_rate=8000"),
        (-10 ** 400, f"interference model recorded sample_rate=-1{'0' * 38}"
                     "... (402 characters) is not a positive integer")],
        ids=["huge", "negative_huge"])
    def test_huge_recorded_setting_shown_short(
            self, framing, trained_models, mixture_setup, value, message):
        # a model file's JSON meta may hold an integer of any size
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 0.0)
        model_v = dataclasses.replace(trained_models["cb_b"],
                                      meta={"sample_rate": value})
        with pytest.raises(ModelMismatchError) as excinfo:
            separate(y, trained_models["cb_a"], model_v, framing,
                     method="gvq")
        assert str(excinfo.value) == message
        assert len(message) <= 200

    @pytest.mark.parametrize("method, x_key, v_key", [
        ("gfhmm", "hmm_a", "hmm_b"), ("gvq", "cb_a", "cb_b")])
    def test_array_setting_rejected(self, framing, trained_models,
                                    mixture_setup, method, x_key, v_key):
        # an in-memory meta may hold what no model file can; an array
        # cannot be compared with the mixture's setting as one truth value
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 0.0)
        model_v = dataclasses.replace(trained_models[v_key],
                                      meta={"hop": np.array([80, 80])})
        with pytest.raises(ModelMismatchError,
                           match=r"interference model recorded hop=array"):
            separate(y, trained_models[x_key], model_v, framing,
                     method=method)

    @pytest.mark.parametrize("defect", MODEL_DEFECTS)
    def test_malformed_model_rejected(self, framing, trained_models,
                                      mixture_setup, defect):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 0.0)
        pairs = []
        if defect in HMM_DEFECTS:
            pairs.append(("gfhmm", trained_models["hmm_a"],
                          trained_models["hmm_b"]))
        if defect in CODEBOOK_DEFECTS:
            pairs.append(("gvq", trained_models["cb_a"],
                          trained_models["cb_b"]))
        for method, model_x, model_v in pairs:
            with pytest.raises(ModelMismatchError):
                separate(y, model_x, malformed(model_v, defect), framing,
                         method=method)

    @pytest.mark.parametrize("method", ["gfhmm", "fhmm", "gvq", "vq"])
    def test_models_of_different_sizes(self, framing, trained_models,
                                       k4_models, mixture_setup, method):
        # K=4 target models against the K=8 interference models
        small, big = ((k4_models[1], trained_models["hmm_b"])
                      if method in ("gfhmm", "fhmm")
                      else (k4_models[0], trained_models["cb_b"]))
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 3.0)
        x_hat, v_hat, diag = separate(y, small, big, framing, method=method,
                                      max_outer=2)
        assert diag["path_x"].max() < 4 and diag["path_v"].max() < 8
        assert np.isfinite(diag["logprob"])
        xs, vs = x_hat.samples, v_hat.samples
        assert np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))
        inner = slice(framing.frame_len, len(xs) - framing.frame_len)
        np.testing.assert_allclose(xs[inner] + vs[inner], y.samples[inner],
                                   rtol=0, atol=1e-9)

    def test_nonfinite_decoder_score_raises(self, framing, trained_models,
                                            mixture_setup):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 0.0)
        hmm = (trained_models["hmm_a"], overflowing(trained_models["hmm_b"]))
        vq = (trained_models["cb_a"], overflowing(trained_models["cb_b"]))
        # with both codebooks overflowing, every VQ pair maximum overflows
        # when squared
        vq_both = (overflowing(trained_models["cb_a"]), vq[1])
        # the baselines and a fixed theta decode once and never estimate
        for models, method, options in (
                (hmm, "fhmm", {}), (hmm, "gfhmm", {"fix_theta": 3.0}),
                (hmm, "gfhmm", {}), (vq, "vq", {}),
                (vq, "gvq", {"fix_theta": 3.0}), (vq, "gvq", {}),
                (vq[::-1], "gvq", {}), (vq_both, "vq", {}),
                (vq_both, "gvq", {})):
            with pytest.raises(NumericError, match="non-finite decoder"):
                separate(y, *models, framing, method=method, **options)

    def test_degenerate_state_variance_raises(self, framing, trained_models,
                                              mixture_setup):
        # one state with variances of 1e-308, below the floor training
        # applies: 1/v overflows, so the model is rejected before decoding
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 0.0)
        hmm_b = trained_models["hmm_b"]
        variances = hmm_b.vars.copy()
        variances[0] = 1e-308
        degenerate = dataclasses.replace(hmm_b, vars=variances)
        with pytest.raises(ModelMismatchError, match="vars"):
            degenerate.validate()
        for method in ("fhmm", "gfhmm"):
            with pytest.raises(ModelMismatchError, match="vars"):
                separate(y, trained_models["hmm_a"], degenerate, framing,
                         method=method)

    def test_mega_frame_window_checked(self, framing, trained_models,
                                       mixture_setup):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 0.0)
        models = (trained_models["cb_a"], trained_models["cb_b"])
        # None and 0 are one window; False is a bool, not 0
        for bad in (0.004, -1.0, math.inf, math.nan, "2", True, False):
            with pytest.raises(ValueError, match="mega_frame_seconds"):
                separate(y, *models, framing, method="gvq", max_outer=1,
                         mega_frame_seconds=bad)
        for seconds, n_windows in ((None, 1), (0, 1), (0.5, 2)):
            _, _, diag = separate(y, *models, framing, method="gvq",
                                  max_outer=1, mega_frame_seconds=seconds)
            assert len(diag["theta_per_chunk"]) == n_windows

    @pytest.mark.parametrize("method, kind", [
        ("gfhmm", "hmm"), ("fhmm", "hmm"), ("gvq", "cb"), ("vq", "cb")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_mixture_sample_rejected(self, framing, trained_models,
                                               mixture_setup, method, kind,
                                               bad):
        # one error for every method, raised before any decode
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 0.0)
        samples = y.samples.copy()
        samples[1234] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"mixture sample 1234 is {bad}, not a finite number")):
            separate(AudioSignal(samples, y.sample_rate),
                     trained_models[f"{kind}_a"], trained_models[f"{kind}_b"],
                     framing, method=method)

    def test_silent_input_rejected(self, framing, trained_models):
        y = AudioSignal(np.zeros(4000))
        with pytest.raises(ValueError, match="silent"):
            separate(y, trained_models["hmm_a"], trained_models["hmm_b"],
                     framing, method="gfhmm")

    def test_unknown_method_rejected(self, framing, trained_models,
                                     mixture_setup):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 0.0)
        with pytest.raises(ValueError, match="unknown method"):
            separate(y, trained_models["hmm_a"], trained_models["hmm_b"],
                     framing, method="magic")


def random_models(rng, source, K, cfg):
    """(HmmModel, Codebook) of K states with random parameters: each mean
    is a random frame of the source's log spectra plus Gaussian noise, so
    that theta is estimated inside the search interval."""
    feats = log_spectra(source, cfg)
    hmm = dataclasses.replace(
        random_hmm(rng, K, cfg.n_bins, 0.05, 0.5),
        means=(feats[rng.integers(0, len(feats), K)]
               + rng.normal(0.0, 0.1, (K, cfg.n_bins))))
    return hmm, Codebook(hmm.means, hmm.vars, rng.integers(1, 20, K))


def random_case(seed, k_x, k_v, duration, theta, cfg):
    """A mixture of two unit-RMS filtered noises at theta dB and, per model
    kind, a random (target, interference) model pair."""
    rng = np.random.default_rng(seed)
    x, v = normalize_equal_power(
        *(synth_source("filtered_noise", seed=seed + s, speaker=s,
                       duration=duration, cfg=cfg) for s in (0, 1)))
    y, _, _ = mix_at_tir(x, v, theta)
    (hmm_x, cb_x), (hmm_v, cb_v) = (random_models(rng, x, k_x, cfg),
                                    random_models(rng, v, k_v, cfg))
    return y, {"hmm": (hmm_x, hmm_v), "cb": (cb_x, cb_v)}


def metamorphic(test):
    """A property over random_case's arguments, 8 derandomized draws.
    Every parameter is drawn from a continuous distribution, so no two
    candidate paths, pair maxima or mask bins tie exactly: the tie rules
    (to the target, to the smallest index) would break the swap and the
    permutation properties by design."""
    return settings(derandomize=True, max_examples=8, deadline=None)(
        given(seed=st.integers(0, 2 ** 32 - 2), k_x=st.integers(2, 8),
              k_v=st.integers(2, 8), duration=st.floats(0.25, 1.0),
              theta=st.floats(-9.0, 9.0))(test))


def decoded(y, models, cfg, method):
    return separate(y, *models, cfg, method=method)[2]


class TestMetamorphicProperties:
    """Changes to the input with a known effect on a correct separation of
    Y = g_x X + g_v V, checked through separate() on random models (K <= 8)
    and mixtures of at most 1 s."""

    @metamorphic
    def test_level(self, framing, seed, k_x, k_v, duration, theta):
        # the log spectra and log10 g_y shift together; theta_hat moves by
        # rounding, which the parabolic steps amplify.  In 600 random
        # draws gfhmm's moved by at most 1.0e-8 dB (median 4e-14) and gvq's
        # by 8.2e-7 dB, where the vertex of a flat stretch of Q pins it
        # least; either lies far below the search's resolution,
        # THETA_STEP_TOL_DB
        y, models = random_case(seed, k_x, k_v, duration, theta, framing)
        for method, kind, moves in (("gfhmm", "hmm", 1e-8),
                                    ("gvq", "cb", 1e-5)):
            base = decoded(y, models[kind], framing, method)
            for c in (0.25, 3.7):
                scaled = decoded(AudioSignal(c * y.samples), models[kind],
                                 framing, method)
                for key in ("path_x", "path_v", "mask_x"):
                    np.testing.assert_array_equal(scaled[key], base[key])
                assert abs(scaled["theta_hat"] - base["theta_hat"]) <= moves

    @metamorphic
    def test_speaker_swap(self, framing, seed, k_x, k_v, duration, theta):
        y, models = random_case(seed, k_x, k_v, duration, theta, framing)
        for method, kind in EVERY_METHOD:
            base = decoded(y, models[kind], framing, method)
            swapped = decoded(y, models[kind][::-1], framing, method)
            assert swapped["theta_hat"] == -base["theta_hat"]
            np.testing.assert_array_equal(swapped["path_x"], base["path_v"])
            np.testing.assert_array_equal(swapped["path_v"], base["path_x"])
            np.testing.assert_array_equal(swapped["mask_x"],
                                          1 - base["mask_x"])

    @metamorphic
    def test_target_state_permutation(self, framing, seed, k_x, k_v,
                                      duration, theta):
        y, models = random_case(seed, k_x, k_v, duration, theta, framing)
        hmm_x, cb_x = models["hmm"][0], models["cb"][0]
        perm = np.random.default_rng(seed + 1).permutation(k_x)
        if np.array_equal(perm, np.arange(k_x)):
            perm = perm[::-1]            # a relabelling that moves states
        permuted = {
            "hmm": HmmModel(pi=hmm_x.pi[perm],
                            trans=hmm_x.trans[perm][:, perm],
                            means=hmm_x.means[perm], vars=hmm_x.vars[perm]),
            "cb": Codebook(cb_x.codevectors[perm],
                           cb_x.cluster_variances[perm],
                           cb_x.occupancy[perm])}
        for method, kind in (("gfhmm", "hmm"), ("gvq", "cb")):
            base = decoded(y, models[kind], framing, method)
            relabeled = decoded(y, (permuted[kind], models[kind][1]),
                                framing, method)
            # new state j is old state perm[j]
            np.testing.assert_array_equal(perm[relabeled["path_x"]],
                                          base["path_x"])
            np.testing.assert_array_equal(relabeled["path_v"],
                                          base["path_v"])
            np.testing.assert_array_equal(relabeled["mask_x"],
                                          base["mask_x"])
            assert relabeled["theta_hat"] == base["theta_hat"]
            if method == "gfhmm":
                assert relabeled["logprob"] == base["logprob"]

    def test_baselines_depend_on_level(self, framing):
        # fhmm and vq decode at the training loudness whatever the
        # mixture's: the premise of gain adaptation
        y, models = random_case(0, 6, 6, 1.0, 3.0, framing)
        for method, kind in (("fhmm", "hmm"), ("vq", "cb")):
            base = decoded(y, models[kind], framing, method)
            quiet = decoded(AudioSignal(0.25 * y.samples), models[kind],
                            framing, method)
            assert not np.array_equal(quiet["mask_x"], base["mask_x"])
