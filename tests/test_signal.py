import wave
from dataclasses import asdict

import numpy as np
import pytest

from specsep import (AudioSignal, FramingConfig, apply_masks_and_reconstruct,
                     frame_signal, read_wav, write_wav)
from specsep.evaluate import snr
from specsep.signal import LOG_FLOOR, log_spectra, overlap_add

from conftest import BAD_WAVS, loop_overlap_add, save_bad_wav


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

    # (leading axes, R, L, hop): L not a multiple of hop, a multiple, L ==
    # hop, a single frame, a leading batch axis, two of them
    @pytest.mark.parametrize("lead, R, L, hop", [
        ((), 197, 256, 80), ((), 9, 160, 80), ((), 7, 50, 50),
        ((), 1, 256, 80), ((2,), 197, 256, 80), ((3, 2), 11, 10, 3)],
        ids=repr)
    def test_overlap_add_bit_identical_to_frame_loop(self, lead, R, L, hop):
        # magnitudes over 16 decades, so that any other order of addition
        # rounds differently; -0.0 checks the sign of exact zeros
        rng = np.random.default_rng(R * L + hop)
        frames = (rng.standard_normal(lead + (R, L))
                  * 10.0 ** rng.uniform(-8, 8, lead + (R, L)))
        frames.flat[::7] = -0.0
        got, ref = overlap_add(frames, hop), loop_overlap_add(frames, hop)
        assert got.shape == ref.shape == lead + ((R - 1) * hop + L,)
        assert np.ascontiguousarray(got).tobytes() == ref.tobytes()

    def test_bin_count_mismatch_rejected(self, cfg):
        sig = noise_signal(1000)
        R = frame_signal(sig, cfg).shape[0]
        bad = np.ones((R, cfg.n_bins - 1))
        with pytest.raises(ValueError, match="DFT bins"):
            apply_masks_and_reconstruct(sig, bad, bad, cfg)
        # a 1-D mask of the frame count has no bin axis at all
        flat = np.ones(R)
        with pytest.raises(ValueError, match=r"\(frames, bins\) arrays"):
            apply_masks_and_reconstruct(sig, flat, flat, cfg)

    def test_frame_count_mismatch_rejected(self, cfg):
        sig = noise_signal(1000)
        bad = np.ones((2, cfg.n_bins))
        with pytest.raises(ValueError, match="frame count"):
            apply_masks_and_reconstruct(sig, bad, bad, cfg)


class TestAudioSignal:
    @pytest.mark.parametrize("samples, rate, match", [
        (np.zeros((2, 10)), 8000, "mono required"),
        (np.zeros(10), 0, "sample_rate must be positive"),
        (np.zeros(10), -8000, "sample_rate must be positive"),
        (np.zeros(10), "8000", "sample_rate must be positive"),
        (np.zeros(10), True, "sample_rate must be positive"),
        (np.zeros(10), None, "sample_rate must be positive"),
        (np.zeros(10), 8000.5, "sample_rate must be positive"),
    ])
    def test_bad_signal_rejected(self, samples, rate, match):
        with pytest.raises(ValueError, match=match):
            AudioSignal(samples, rate)

    def test_duration_is_seconds_of_samples(self):
        assert noise_signal(12_000).duration == 1.5
        assert AudioSignal(np.zeros(441), sample_rate=44_100).duration == 0.01

    def test_empty_signal_lasts_zero_seconds(self):
        sig = AudioSignal(np.zeros(0))
        assert len(sig) == 0
        assert sig.duration == 0.0


class TestWavIO:
    def test_round_trip_within_quantization_step(self, tmp_path):
        rng = np.random.default_rng(7)
        sig = AudioSignal(rng.uniform(-1.0, 1.0, 4000))
        path = tmp_path / "x.wav"
        write_wav(path, sig)
        back = read_wav(path)
        assert back.sample_rate == sig.sample_rate
        assert np.max(np.abs(back.samples - sig.samples)) <= 2.0 ** -15

    # cast to int16, a NaN would be written as silence and +-inf as full
    # scale
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_refused(self, tmp_path, bad):
        samples = np.full(10, 0.1)
        samples[7] = bad
        path = tmp_path / "bad.wav"
        with pytest.raises(ValueError) as excinfo:
            write_wav(path, AudioSignal(samples))
        assert str(excinfo.value) == f"sample 7 is {bad}, not a finite number"
        assert not path.exists()

    def test_finite_samples_beyond_full_scale_clip(self, tmp_path):
        path = tmp_path / "loud.wav"
        write_wav(path, AudioSignal(np.array([0.1, 1.5, -2.0])))
        back = read_wav(path).samples
        assert back[0] == pytest.approx(0.1, abs=2.0 ** -15)
        assert back[1:].tolist() == [32767 / 32768, -1.0]

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

    @pytest.mark.parametrize("defect", BAD_WAVS)
    def test_unreadable_file_named(self, tmp_path, defect):
        # the first three raised a bare EOFError, which named nothing and
        # which no exit code mapped
        path = tmp_path / f"{defect}.wav"
        save_bad_wav(path, defect)
        with pytest.raises(wave.Error) as excinfo:
            read_wav(path)
        assert str(excinfo.value) == f"{path}: {BAD_WAVS[defect]}"

    def test_refused_wav_named(self, tmp_path):
        path = tmp_path / "fast.wav"
        write_wav(path, AudioSignal(np.zeros(100), sample_rate=16000))
        with pytest.raises(ValueError) as excinfo:
            read_wav(path, expected_rate=8000)
        assert str(excinfo.value) == (f"{path}: sample rate mismatch: file "
                                      "is 16000 Hz, expected 8000 Hz")

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

    # hop=True would frame at hop 1, 3,745 frames from 0.5 s at 8 kHz
    @pytest.mark.parametrize("setting", [
        {"hop": "80"}, {"hop": True}, {"hop": None}, {"hop": 80.0},
        {"frame_len": "256"}, {"hop": 1, "frame_len": True},
        {"frame_len": None}, {"dft_size": "256"},
        {"hop": 1, "frame_len": 1, "dft_size": True}, {"dft_size": None},
    ], ids=repr)
    def test_setting_that_is_no_count_rejected(self, setting):
        with pytest.raises(ValueError, match="need 0 < hop <= frame_len"):
            FramingConfig(**setting)

    def test_log_spectra_matches_per_frame(self, cfg):
        sig = noise_signal(1200, seed=9)
        frames = frame_signal(sig, cfg)
        stacked = log_spectra(sig, cfg)
        for r in range(frames.shape[0]):
            np.testing.assert_allclose(stacked[r],
                                       log_spectrum(frames[r], cfg),
                                       atol=1e-12)
