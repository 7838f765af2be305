"""End-to-end separation: infer state/codevector paths and the gain ratio,
build per-frame binary masks from the decoded spectral prototypes, and
reconstruct both sources from the mixture."""

import math
from dataclasses import asdict

import numpy as np

from . import decode as _decode
from .gain import GainContext, _check_theta, estimate_gy, gains_from_theta
from .mixmax import dominant
from .models import Codebook, HmmModel, ModelMismatchError
# perfbench's traced run patches this name here; keep it bound
from .quantize import gvq_score  # noqa: F401
from .signal import apply_masks_and_reconstruct, log_spectra

# method -> the model kind it decodes with ("hmm" or "vq")
METHODS = {"gfhmm": "hmm", "gvq": "vq", "fhmm": "hmm", "vq": "vq"}

# baseline (non-gain-adapted) runs force g_y/G0 = sqrt(2) at theta = 0,
# which makes both source gains exactly 1
BASELINE_GY_OVER_G0 = math.sqrt(2.0)

MEGA_FRAME_SECONDS = 2.0


def build_masks(proto_x, proto_v, chunks, thetas, ctx):
    """Per-frame binary masks from the decoded spectral prototypes.

    Within each chunk of frames, a bin goes to the target wherever its
    gain-shifted prototype dominates the interference's at that chunk's
    theta (mixmax.dominant: ties go to the target).  The two masks are
    complementary.
    """
    masks_x = np.empty(proto_x.shape, dtype=np.uint8)
    for sl, th in zip(chunks, thetas):
        masks_x[sl], _ = dominant(proto_x[sl], proto_v[sl],
                                  gains_from_theta(th, ctx))
    return masks_x, 1 - masks_x


def model_kind(method):
    """The model kind, "hmm" or "vq", that a method decodes with."""
    if method not in METHODS:
        raise ValueError(
            f"unknown method '{method}' (one of {', '.join(METHODS)})")
    return METHODS[method]


def separate(mixture, model_x, model_v, cfg, method="gfhmm", theta0=0.0,
             fix_theta=None, gy_over_g0=None, outer_tol=None,
             max_outer=None, mega_frame_seconds=MEGA_FRAME_SECONDS):
    """Separate a two-speaker mixture into target and interference.

    Parameters
    ----------
    mixture : AudioSignal
    model_x, model_v : HmmModel (gfhmm/fhmm) or Codebook (gvq/vq)
    cfg : FramingConfig
    method : "gfhmm" | "gvq" | "fhmm" | "vq"; the latter two are the
        non-gain-adapted baselines, realized as the same decoders with
        theta frozen at 0 and both gains forced to 1
    theta0 : starting theta for the alternating estimation (dB); the
        decoders reject a non-finite one with ValueError and clamp a
        finite one into [THETA_MIN_DB, THETA_MAX_DB]; unused when theta is
        fixed
    fix_theta : skip theta estimation and decode once at this value (dB);
        it must lie in [THETA_MIN_DB, THETA_MAX_DB], i.e. +/-15 dB
    gy_over_g0 : override the estimated g_y/G0 ratio (testing hook; the
        baselines set it to sqrt(2) internally)
    mega_frame_seconds : loudness-constancy window; utterances shorter
        than twice this get a single theta, and None or 0 means one
        window; a non-finite one, or one that rounds to no whole hop, raises
        ValueError

    Both models must be of the method's class, pass their validate() and
    have cfg.n_bins bins, and every setting a model's meta records
    (sample_rate, frame_len, hop, dft_size) must match the mixture and
    cfg, else ModelMismatchError.  The two models may differ in size.
    A non-finite decoder score raises decode.NumericError.

    Returns (x_hat, v_hat, diagnostics); diagnostics carries theta_hat,
    iterations, the decoder score, and the decoded index paths.
    """
    hmm_based = model_kind(method) == "hmm"
    cls = HmmModel if hmm_based else Codebook
    n_bins = cfg.n_bins
    setting = {"sample_rate": mixture.sample_rate, **asdict(cfg)}
    for role, m in (("target", model_x), ("interference", model_v)):
        if not isinstance(m, cls):
            raise ModelMismatchError(
                f"method '{method}' needs a {cls.__name__} for the {role} "
                f"speaker, got {type(m).__name__}")
        m.validate()
        if m.dim != n_bins:
            raise ModelMismatchError(
                f"{role} model dimension {m.dim} does not match "
                f"configured {n_bins} bins")
        for key, value in setting.items():
            recorded = m.meta.get(key)
            if recorded is not None and int(recorded) != value:
                raise ModelMismatchError(
                    f"{role} model was trained with {key}={recorded} but "
                    f"the mixture is separated with {key}={value}")

    y_seq = log_spectra(mixture, cfg)
    g_y = estimate_gy(mixture)

    baseline = method in ("fhmm", "vq")
    if baseline:
        ctx = GainContext(g_y=BASELINE_GY_OVER_G0, G0=1.0)
        fix_theta = 0.0
    else:
        ratio = gy_over_g0 if gy_over_g0 is not None else g_y
        ctx = GainContext(g_y=float(ratio), G0=1.0)

    R = y_seq.shape[0]
    frames_per_chunk = None
    if mega_frame_seconds:
        frames = mega_frame_seconds * mixture.sample_rate / cfg.hop
        if not (math.isfinite(frames) and round(frames) >= 1):
            raise ValueError(
                f"mega_frame_seconds {mega_frame_seconds} gives {frames} "
                "frames per window; need at least 1 after rounding")
        frames_per_chunk = int(round(frames))
    if fix_theta is not None:
        _check_theta(fix_theta, "fix_theta")
        # a fixed theta is one whole-sequence decode with no outer rounds
        theta0, max_outer, frames_per_chunk = fix_theta, 0, None
    chunks = _decode.mega_frame_slices(R, frames_per_chunk)

    infer = _decode.gfhmm_infer if hmm_based else _decode.gvq_infer
    result = infer(
        y_seq, model_x, model_v, ctx, theta0=theta0, mega_frames=chunks,
        outer_tol=_decode.OUTER_TOL_DB if outer_tol is None else outer_tol,
        max_outer=_decode.MAX_OUTER_ITERS if max_outer is None else max_outer)
    proto = "means" if hmm_based else "codevectors"
    masks_x, masks_v = build_masks(getattr(model_x, proto)[result.path_x],
                                   getattr(model_v, proto)[result.path_v],
                                   chunks, result.theta_per_chunk, ctx)
    x_hat, v_hat = apply_masks_and_reconstruct(mixture, masks_x, masks_v, cfg)

    diagnostics = {
        "method": method,
        "theta_hat": result.theta_hat,
        "theta_per_chunk": list(result.theta_per_chunk),
        # the single decode at a fixed theta is reported as one iteration
        "iterations": result.iterations if fix_theta is None else 1,
        "logprob": result.logprob,
        "g_y": g_y,
        "path_x": result.path_x,
        "path_v": result.path_v,
        "n_frames": R,
    }
    return x_hat, v_hat, diagnostics
