"""Time-domain framing, log-spectral analysis, binary-mask filtering with
overlap-add synthesis, and 16-bit PCM mono WAV I/O."""

import wave
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_SAMPLE_RATE = 8000
# magnitude floor before log10, so every log spectrum is finite
LOG_FLOOR = 1e-10


@dataclass
class AudioSignal:
    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("mono required")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self):
        return self.samples.size

    @property
    def duration(self):
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class FramingConfig:
    """Analysis/synthesis parameters.

    Defaults follow 8 kHz operation: 32 ms Hamming analysis frames with a
    10 ms hop, a 256-point DFT (129 retained bins), and Hann synthesis
    windows for overlap-add.
    """

    frame_len: int = 256
    hop: int = 80
    dft_size: int = 256

    def __post_init__(self):
        if not (0 < self.hop <= self.frame_len <= self.dft_size):
            raise ValueError("need 0 < hop <= frame_len <= dft_size")

    @classmethod
    def from_meta(cls, meta):
        """Framing recorded in a model's meta or a manifest's "framing";
        a field the dict does not record keeps its default."""
        return cls(**{f.name: int(meta[f.name]) for f in fields(cls)
                      if f.name in meta})

    @property
    def n_bins(self):
        return self.dft_size // 2 + 1

    def analysis_window(self):
        return np.hamming(self.frame_len)

    def synthesis_window(self):
        return np.hanning(self.frame_len)


def frame_signal(signal, cfg):
    """Split a signal into overlapping frames.

    Frame r (0-based) covers samples [r*hop, r*hop + frame_len).  A signal
    shorter than one frame is zero-padded to a single frame.  Returns an
    (R, frame_len) array.
    """
    x = np.asarray(signal.samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty input")
    if x.size < cfg.frame_len:
        padded = np.zeros(cfg.frame_len)
        padded[: x.size] = x
        return padded[None, :]
    return sliding_window_view(x, cfg.frame_len)[::cfg.hop].copy()


def log_spectra(signal, cfg):
    """Frame a signal and return its (R, D/2+1) log-spectral matrix."""
    frames = frame_signal(signal, cfg)
    win = cfg.analysis_window()
    spec = np.fft.rfft(frames * win, n=cfg.dft_size, axis=1)
    mag = np.maximum(np.abs(spec), LOG_FLOOR)
    return np.log10(mag)


def apply_masks_and_reconstruct(mixture, masks_x, masks_v, cfg):
    """Filter the mixture with per-frame binary masks and resynthesize.

    Each analysis frame is Hamming-windowed and transformed; the mask
    (defined on bins 0..D/2) multiplies the half spectrum, which the inverse
    real DFT mirrors conjugate-symmetrically onto the upper bins.  Frames
    are Hann-windowed and overlap-added, then divided by the accumulated
    analysis*synthesis window envelope (floored at 1e-3) so that all-ones
    masks reconstruct the input essentially exactly away from the edges.

    Returns (x_hat, v_hat) as AudioSignals of length (R-1)*hop + frame_len.
    """
    frames = frame_signal(mixture, cfg)
    R = frames.shape[0]
    masks_x = np.asarray(masks_x, dtype=np.float64)
    masks_v = np.asarray(masks_v, dtype=np.float64)
    if masks_x.shape[0] != R or masks_v.shape[0] != R:
        raise ValueError(
            f"mask count ({masks_x.shape[0]}, {masks_v.shape[0]}) does not "
            f"match frame count {R}")
    if masks_x.shape[1] != cfg.n_bins or masks_v.shape[1] != cfg.n_bins:
        raise ValueError("mask dimension does not match DFT bins")

    win_a = cfg.analysis_window()
    win_s = cfg.synthesis_window()
    spec = np.fft.rfft(frames * win_a, n=cfg.dft_size, axis=1)

    # inverse DFT of a masked half spectrum is real by construction
    masked = np.fft.irfft(spec * np.stack([masks_x, masks_v]),
                          n=cfg.dft_size, axis=2)
    out_x, out_v = overlap_add(masked[..., : cfg.frame_len] * win_s, cfg.hop)
    envelope = overlap_add(np.broadcast_to(win_a * win_s, frames.shape),
                           cfg.hop)
    envelope = np.maximum(envelope, 1e-3)
    return (AudioSignal(out_x / envelope, mixture.sample_rate),
            AudioSignal(out_v / envelope, mixture.sample_rate))


def overlap_add(frames, hop):
    """Sum (..., R, L) frames placed hop samples apart into (..., n)
    signals, n = (R-1)*hop + L, adding frame by frame in order."""
    R, L = frames.shape[-2:]
    out = np.zeros(frames.shape[:-2] + ((R - 1) * hop + L,))
    for r in range(R):
        out[..., r * hop : r * hop + L] += frames[..., r, :]
    return out


def read_wav(path, expected_rate=None):
    """Read a 16-bit PCM mono WAV file, scaling samples to [-1, 1].

    With expected_rate set, a file at any other rate is rejected; pass
    expected_rate=None to accept whatever rate the file carries.
    """
    with wave.open(str(path), "rb") as w:
        if w.getnchannels() != 1:
            raise ValueError("mono required")
        if w.getsampwidth() != 2:
            raise ValueError(
                f"unsupported bit depth: {8 * w.getsampwidth()}-bit "
                "(16-bit PCM required)")
        rate = w.getframerate()
        if expected_rate is not None and rate != expected_rate:
            raise ValueError(
                f"sample rate mismatch: file is {rate} Hz, "
                f"expected {expected_rate} Hz")
        raw = w.readframes(w.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioSignal(samples, rate)


def write_wav(path, signal):
    """Write an AudioSignal as 16-bit PCM mono WAV (clipped to [-1, 1])."""
    x = np.clip(signal.samples, -1.0, 1.0)
    # scale by 2^15 and clip the top code so the round trip stays within
    # one quantization step everywhere, including x = +/-1
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(signal.sample_rate)
        w.writeframes(pcm.tobytes())
