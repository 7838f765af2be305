"""Time-domain framing, log-spectral analysis, binary-mask filtering with
overlap-add synthesis, and 16-bit PCM mono WAV I/O."""

import numbers
import sys
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
        if not _is_count(self.sample_rate, 1):
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
        if not (_is_count(self.hop, 1) and _is_count(self.frame_len, self.hop)
                and _is_count(self.dft_size, self.frame_len)):
            raise ValueError("need 0 < hop <= frame_len <= dft_size")

    @classmethod
    def from_meta(cls, meta):
        """Framing recorded in a model's meta or a manifest's "framing";
        a field the dict does not record keeps its default."""
        return cls(**{f.name: meta[f.name] for f in fields(cls)
                      if f.name in meta})

    @property
    def n_bins(self):
        return self.dft_size // 2 + 1

    def analysis_window(self):
        return np.hamming(self.frame_len)

    def synthesis_window(self):
        return np.hanning(self.frame_len)


def _check_settings(recorded, what, error=ValueError):
    """Raise error unless sample_rate and each FramingConfig field that the
    dict recorded holds is a positive integer (not a bool, not None), as
    in a model's meta or a manifest; what starts the message."""
    for key in ("sample_rate", *(f.name for f in fields(FramingConfig))):
        value = recorded.get(key, 1)
        if not _is_count(value, 1):
            raise error(f"{what} {key}={_shown(value)} is not a positive "
                        "integer")


def _is_count(value, least):
    """Whether value is an integer >= least: a count setting.  A numpy
    integer is one; a bool, a string and None are not."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= least)


def _is_real(value, least=-sys.float_info.max, most=sys.float_info.max):
    """Whether value is a real number in [least, most]: a real setting.
    The default bounds are the finite floats, so inf is refused unless a
    bound admits it.  A numpy scalar is a real number; a bool, a string,
    None and NaN are not.  The comparisons are exact: an integer beyond a
    float's range, which JSON reads, lies beyond every finite bound,
    without overflow."""
    # a numpy scalar as the Python number it holds, so that a float32 meets
    # the float64 bounds without an overflowing cast
    value = value.item() if isinstance(value, np.generic) else value
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and least <= value <= most)


def _shown(value):
    """repr(value) as a message shows a value read from a file: cut to its
    first 40 characters, with its full length stated, when longer.  JSON
    reads an integer of any size, which would be echoed digit by digit."""
    text = repr(value)
    return (text if len(text) <= 40
            else f"{text[:40]}... ({len(text)} characters)")


def _check_finite(values, what):
    """ValueError naming the first entry of values that is not a finite
    number: training on one would return NaN parameters, and a separated
    or written signal would carry it."""
    finite = np.isfinite(values)
    if not finite.all():
        at = tuple(int(i) for i in np.argwhere(~finite)[0])
        # a position in a 1-D array is named by its bare index
        raise ValueError(f"{what} {at[0] if len(at) == 1 else at} is "
                         f"{values[at]}, not a finite number")


def frame_signal(signal, cfg):
    """Split a signal into overlapping frames.

    Frame r (0-based) covers samples [r*hop, r*hop + frame_len).  A signal
    shorter than one frame is zero-padded to a single frame.  Returns an
    (R, frame_len) array.
    """
    x = np.asarray(signal.samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty input")
    x = np.pad(x, (0, max(0, cfg.frame_len - x.size)))
    return sliding_window_view(x, cfg.frame_len)[::cfg.hop].copy()


def _analyze(signal, cfg):
    """The (R, D/2+1) half spectra of a signal's Hamming-windowed frames:
    the analysis path of both the features and the mask filtering."""
    frames = frame_signal(signal, cfg)
    return np.fft.rfft(frames * cfg.analysis_window(), n=cfg.dft_size, axis=1)


def synthesize(spec, cfg):
    """Overlap-add (..., R, D/2+1) half spectra back into (..., n) signals,
    n = (R-1)*hop + frame_len: the inverse real DFT of each frame, cut to
    frame_len samples and Hann-windowed.  The one synthesis path of mask
    filtering and of synthetic sources."""
    frames = np.fft.irfft(spec, n=cfg.dft_size, axis=-1)[..., :cfg.frame_len]
    # windowed in place: the caller's spectra stay alive during this call,
    # so one more frame-sized temporary would raise the peak memory
    frames *= cfg.synthesis_window()
    return overlap_add(frames, cfg.hop)


def log_spectra(signal, cfg):
    """Frame a signal and return its (R, D/2+1) log-spectral matrix."""
    mag = np.maximum(np.abs(_analyze(signal, cfg)), LOG_FLOOR)
    return np.log10(mag)


def apply_masks_and_reconstruct(mixture, masks_x, masks_v, cfg):
    """Filter the mixture with per-frame binary masks and resynthesize.

    Each analysis frame is Hamming-windowed and transformed; the mask
    (defined on bins 0..D/2) multiplies the half spectrum, which the inverse
    real DFT mirrors conjugate-symmetrically onto the upper bins.  Frames
    are Hann-windowed and overlap-added, then divided by the accumulated
    analysis*synthesis window envelope (floored at 1e-3) so that all-ones
    masks reconstruct the input essentially exactly away from the edges.

    Masks that are not 2-D, or whose frame or bin count does not match,
    raise ValueError.  Returns (x_hat, v_hat) as AudioSignals of length
    (R-1)*hop + frame_len.
    """
    spec = _analyze(mixture, cfg)
    R = spec.shape[0]
    masks_x = np.asarray(masks_x, dtype=np.float64)
    masks_v = np.asarray(masks_v, dtype=np.float64)
    if masks_x.ndim != 2 or masks_v.ndim != 2:
        raise ValueError(f"masks must be (frames, bins) arrays, got shapes "
                         f"{masks_x.shape} and {masks_v.shape}")
    if masks_x.shape[0] != R or masks_v.shape[0] != R:
        raise ValueError(
            f"mask count ({masks_x.shape[0]}, {masks_v.shape[0]}) does not "
            f"match frame count {R}")
    if masks_x.shape[1] != cfg.n_bins or masks_v.shape[1] != cfg.n_bins:
        raise ValueError("mask dimension does not match DFT bins")

    # inverse DFT of a masked half spectrum is real by construction
    out_x, out_v = synthesize(spec * np.stack([masks_x, masks_v]), cfg)
    window = cfg.analysis_window() * cfg.synthesis_window()
    envelope = overlap_add(np.broadcast_to(window, (R, cfg.frame_len)),
                           cfg.hop)
    envelope = np.maximum(envelope, 1e-3)
    return (AudioSignal(out_x / envelope, mixture.sample_rate),
            AudioSignal(out_v / envelope, mixture.sample_rate))


def overlap_add(frames, hop):
    """Sum (..., R, L) frames placed hop samples apart into (..., n)
    signals, n = (R-1)*hop + L, each output sample adding its frames in
    increasing frame order.

    Each frame is cut into S = ceil(L/hop) segments of hop samples (the
    last one possibly shorter), and segment s of every frame is added as
    one shifted (R, hop) slab into the output viewed as (R+S-1, hop) rows.
    Output row q receives segment s of frame q-s, so adding the segments
    from the last to the first adds each sample's frames in frame order.
    """
    R, L = frames.shape[-2:]
    S = -(-L // hop)
    out = np.zeros(frames.shape[:-2] + (R + S - 1, hop))
    for s in range(S - 1, -1, -1):
        segment = frames[..., s * hop:(s + 1) * hop]
        out[..., s:s + R, :segment.shape[-1]] += segment
    return out.reshape(frames.shape[:-2] + (-1,))[..., :(R - 1) * hop + L]


def read_wav(path, expected_rate=None):
    """Read a 16-bit PCM mono WAV file, scaling samples to [-1, 1].

    With expected_rate set, a file at any other rate is rejected; pass
    expected_rate=None to accept whatever rate the file carries.  A file
    that is not a readable WAV (empty, cut inside its header or its data,
    or foreign) raises wave.Error, and a WAV that is not 16-bit mono at
    the expected rate ValueError; both messages start with the path.  A
    path that cannot be opened raises OSError.
    """
    try:
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
            n_frames = w.getnframes()
            raw = w.readframes(n_frames)
            if len(raw) < 2 * n_frames:
                raise wave.Error(f"data ends after {len(raw) // 2} of "
                                 f"{n_frames} frames")
    # the wave module reads a header that ends early as a bare EOFError
    except EOFError:
        raise wave.Error(f"{path}: file ends inside its header") from None
    except (ValueError, wave.Error) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioSignal(samples, rate)


def write_wav(path, signal):
    """Write an AudioSignal as 16-bit PCM mono WAV (clipped to [-1, 1]).  A
    sample that is not a finite number (NaN, +-inf) raises ValueError
    naming its index before the file is opened."""
    _check_finite(signal.samples, "sample")
    x = np.clip(signal.samples, -1.0, 1.0)
    # scale by 2^15 and clip the top code so the round trip stays within
    # one quantization step everywhere, including x = +/-1
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(signal.sample_rate)
        w.writeframes(pcm.tobytes())
