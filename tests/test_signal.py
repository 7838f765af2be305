from dataclasses import asdict

import numpy as np
import pytest

from specsep import (AudioSignal, FramingConfig, apply_masks_and_reconstruct,
                     frame_signal, read_wav, write_wav)
from specsep.evaluate import snr
from specsep.signal import LOG_FLOOR, log_spectra


@pytest.fixture
def cfg():
    return FramingConfig()


def noise_signal(n, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return AudioSignal(scale * rng.standard_normal(n))


class TestFraming:
    def test_exactly_one_window(self, cfg):
        frames = frame_signal(noise_signal(256), cfg)
        assert frames.shape == (1, 256)

    def test_three_frames_from_416_samples(self, cfg):
        # floor((416 - 256) / 80) + 1
        frames = frame_signal(noise_signal(416), cfg)
        assert frames.shape == (3, 256)

    def test_short_signal_zero_padded(self, cfg):
        sig = noise_signal(100)
        frames = frame_signal(sig, cfg)
        assert frames.shape == (1, 256)
        np.testing.assert_array_equal(frames[0, :100], sig.samples)
        assert np.all(frames[0, 100:] == 0.0)

    def test_empty_signal_rejected(self, cfg):
        with pytest.raises(ValueError, match="empty input"):
            frame_signal(AudioSignal(np.zeros(0)), cfg)

    def test_frame_indexing_identity(self, cfg):
        # frame r covers samples [r*hop, r*hop + frame_len)
        sig = noise_signal(1000, seed=5)
        frames = frame_signal(sig, cfg)
        for r in range(frames.shape[0]):
            start = r * cfg.hop
            np.testing.assert_array_equal(
                frames[r], sig.samples[start:start + cfg.frame_len])


class TestFramingFromMeta:
    def test_missing_fields_keep_defaults(self):
        assert FramingConfig.from_meta({}) == FramingConfig()
        assert (FramingConfig.from_meta({"sample_rate": 8000, "hop": 40})
                == FramingConfig(hop=40))

    def test_round_trips_model_meta(self):
        cfg = FramingConfig(frame_len=200, hop=100, dft_size=512)
        meta = {"sample_rate": 8000, **asdict(cfg)}
        assert FramingConfig.from_meta(meta) == cfg


def log_spectrum(frame, cfg):
    """log_spectra of a one-frame (frame_len-sample) signal."""
    return log_spectra(AudioSignal(frame), cfg)[0]


class TestLogSpectrum:
    def test_zero_frame_hits_floor(self, cfg):
        out = log_spectrum(np.zeros(256), cfg)
        np.testing.assert_allclose(out, np.log10(LOG_FLOOR))

    def test_output_dimension_129(self, cfg):
        out = log_spectra(AudioSignal(np.ones(256)), cfg)
        assert out.shape == (1, 129)

    def test_sinusoid_peaks_at_its_bin(self, cfg):
        n = np.arange(256)
        frame = np.sin(2.0 * np.pi * 8.0 * n / 256.0)
        out = log_spectrum(frame, cfg)
        assert int(np.argmax(out)) == 8

    def test_always_finite(self, cfg):
        rng = np.random.default_rng(1)
        for _ in range(5):
            frame = rng.standard_normal(256) * rng.uniform(0, 1e-8)
            assert np.all(np.isfinite(log_spectrum(frame, cfg)))


class TestMaskingReconstruction:
    def test_unity_masks_round_trip(self, cfg):
        sig = noise_signal(8000, seed=2)
        frames = frame_signal(sig, cfg)
        ones = np.ones((frames.shape[0], cfg.n_bins))
        x_hat, _ = apply_masks_and_reconstruct(sig, ones, ones, cfg)
        lo, hi = cfg.frame_len // 2, len(x_hat) - cfg.frame_len // 2
        ref = AudioSignal(sig.samples[lo:hi])
        est = AudioSignal(x_hat.samples[lo:hi])
        assert snr(ref, est) >= 30.0

    def test_zero_masks_give_silence(self, cfg):
        sig = noise_signal(2000, seed=3)
        frames = frame_signal(sig, cfg)
        zeros = np.zeros((frames.shape[0], cfg.n_bins))
        x_hat, v_hat = apply_masks_and_reconstruct(sig, zeros, zeros, cfg)
        assert np.all(x_hat.samples == 0.0)
        assert np.all(v_hat.samples == 0.0)

    def test_complementary_masks_sum_to_unity_output(self, cfg):
        rng = np.random.default_rng(4)
        sig = noise_signal(3000, seed=4)
        R = frame_signal(sig, cfg).shape[0]
        mask = (rng.random((R, cfg.n_bins)) < 0.5).astype(float)
        ones = np.ones_like(mask)
        x_hat, v_hat = apply_masks_and_reconstruct(sig, mask, 1.0 - mask, cfg)
        full, _ = apply_masks_and_reconstruct(sig, ones, ones, cfg)
        np.testing.assert_allclose(x_hat.samples + v_hat.samples,
                                   full.samples, atol=1e-10)

    def test_frame_count_mismatch_rejected(self, cfg):
        sig = noise_signal(1000)
        bad = np.ones((2, cfg.n_bins))
        with pytest.raises(ValueError, match="frame count"):
            apply_masks_and_reconstruct(sig, bad, bad, cfg)


class TestWavIO:
    def test_round_trip_within_quantization_step(self, tmp_path):
        rng = np.random.default_rng(7)
        sig = AudioSignal(rng.uniform(-1.0, 1.0, 4000))
        path = tmp_path / "x.wav"
        write_wav(path, sig)
        back = read_wav(path)
        assert back.sample_rate == sig.sample_rate
        assert np.max(np.abs(back.samples - sig.samples)) <= 2.0 ** -15

    def test_stereo_rejected(self, tmp_path):
        import wave as wave_mod
        path = tmp_path / "stereo.wav"
        with wave_mod.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(b"\x00\x00" * 200)
        with pytest.raises(ValueError, match="mono required"):
            read_wav(path)

    def test_rate_mismatch_rejected(self, tmp_path):
        path = tmp_path / "fast.wav"
        write_wav(path, AudioSignal(np.zeros(100), sample_rate=16000))
        with pytest.raises(ValueError, match="sample rate mismatch"):
            read_wav(path, expected_rate=8000)
        # without the expectation the rate is accepted as-is
        assert read_wav(path).sample_rate == 16000

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "absent.wav")

    def test_unsupported_bit_depth(self, tmp_path):
        import wave as wave_mod
        path = tmp_path / "w8.wav"
        with wave_mod.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(8000)
            w.writeframes(b"\x00" * 100)
        with pytest.raises(ValueError, match="bit depth"):
            read_wav(path)


class TestConfigValidation:
    def test_bad_hop_rejected(self):
        with pytest.raises(ValueError):
            FramingConfig(frame_len=256, hop=0)

    def test_frame_longer_than_dft_rejected(self):
        with pytest.raises(ValueError):
            FramingConfig(frame_len=512, hop=80, dft_size=256)

    def test_log_spectra_matches_per_frame(self, cfg):
        sig = noise_signal(1200, seed=9)
        frames = frame_signal(sig, cfg)
        stacked = log_spectra(sig, cfg)
        for r in range(frames.shape[0]):
            np.testing.assert_allclose(stacked[r],
                                       log_spectrum(frames[r], cfg),
                                       atol=1e-12)
