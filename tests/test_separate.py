import math

import numpy as np
import pytest

from specsep import (AudioSignal, GainContext, ModelMismatchError,
                     apply_masks_and_reconstruct, build_masks, frame_signal,
                     g_of_theta, mix_at_tir, normalize_equal_power,
                     separate, snr, synth_source)

from conftest import random_hmm


@pytest.fixture
def ctx():
    return GainContext(g_y=1.0)


def path_masks(proto_x, proto_v, path_x, path_v, theta, ctx):
    """build_masks over one whole-sequence chunk of decoded prototypes."""
    return build_masks(proto_x[np.asarray(path_x)],
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
        masks_x, masks_v = build_masks(proto_x, proto_v, chunks, thetas, ctx)
        for sl, th in zip(chunks, thetas):
            want_x, want_v = build_masks(proto_x[sl], proto_v[sl],
                                         [slice(0, sl.stop - sl.start)],
                                         [th], ctx)
            np.testing.assert_array_equal(masks_x[sl], want_x)
            np.testing.assert_array_equal(masks_v[sl], want_v)
        np.testing.assert_array_equal(masks_x + masks_v, 1)
        assert masks_x.dtype == masks_v.dtype == np.uint8


@pytest.fixture(scope="module")
def mixture_setup(framing, speaker_generators):
    gen_a, gen_b = speaker_generators
    sx = synth_source("hmm_sample", model=gen_a, seed=3007, duration=1.5,
                      cfg=framing)
    sv = synth_source("hmm_sample", model=gen_b, seed=4007, duration=1.5,
                      cfg=framing)
    x, v = normalize_equal_power(sx, sv)
    return x, v


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
        masks_x, masks_v = build_masks(
            trained_models["cb_a"].codevectors[diag["path_x"]],
            trained_models["cb_b"].codevectors[diag["path_v"]],
            [slice(0, diag["n_frames"])], diag["theta_per_chunk"],
            GainContext(g_y=diag["g_y"]))
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

    def test_vq_baseline_equals_gvq_with_frozen_gains(self, framing,
                                                      trained_models,
                                                      mixture_setup):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 6.0)
        cb_a, cb_b = trained_models["cb_a"], trained_models["cb_b"]
        base_x, base_v, _ = separate(y, cb_a, cb_b, framing, method="vq")
        same_x, same_v, _ = separate(y, cb_a, cb_b, framing, method="gvq",
                                     fix_theta=0.0,
                                     gy_over_g0=math.sqrt(2.0))
        np.testing.assert_array_equal(base_x.samples, same_x.samples)
        np.testing.assert_array_equal(base_v.samples, same_v.samples)

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
            self, framing, trained_models, mixture_setup):
        x, v = mixture_setup
        y, _, _ = mix_at_tir(x, v, 6.0)
        for method, kind in (("gfhmm", "hmm"), ("gvq", "cb")):
            for bad in (20.0, -15.5, float("nan")):
                with pytest.raises(ValueError, match="fix_theta"):
                    separate(y, trained_models[f"{kind}_a"],
                             trained_models[f"{kind}_b"], framing,
                             method=method, fix_theta=bad)
        _, _, diag = separate(y, trained_models["cb_a"],
                              trained_models["cb_b"], framing,
                              method="gvq", fix_theta=-15.0)
        assert diag["theta_hat"] == -15.0

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
