"""End-to-end separation: infer state/codevector paths, the gain ratio and
the binary target mask they give, and reconstruct both sources from the
mixture."""

import math
from dataclasses import asdict

from . import decode as _decode
from .gain import GainContext, _check_theta, estimate_gy
from .models import Codebook, HmmModel, ModelMismatchError, _check_finite
# perfbench's traced run patches this name here; keep it bound
from .quantize import gvq_score  # noqa: F401
from .signal import (_check_settings, _is_real, _shown,
                     apply_masks_and_reconstruct, log_spectra)

# method -> (the model kind it decodes with, whether theta is estimated);
# the fixed-gain baselines fhmm and vq decode once at theta 0
METHODS = {"gfhmm": ("hmm", True), "gvq": ("vq", True),
           "fhmm": ("hmm", False), "vq": ("vq", False)}

# model kind -> (model class, decoder)
_KINDS = {"hmm": (HmmModel, _decode.gfhmm_infer),
          "vq": (Codebook, _decode.gvq_infer)}

# the baselines decode at theta 0 with g_y/G0 = sqrt(2), which makes both
# source gains 1 up to rounding: log10 gains of 2.8e-17 (no float g_y
# gives exactly 0)
BASELINE_GY_OVER_G0 = math.sqrt(2.0)

MEGA_FRAME_SECONDS = 2.0


def model_kind(method):
    """The model kind, "hmm" or "vq", that a method decodes with."""
    if method not in METHODS:
        raise ValueError(
            f"unknown method '{method}' (one of {', '.join(METHODS)})")
    return METHODS[method][0]


def separate(mixture, model_x, model_v, cfg, method="gfhmm", theta0=0.0,
             fix_theta=None, outer_tol=_decode.OUTER_TOL_DB,
             max_outer=_decode.MAX_OUTER_ITERS,
             mega_frame_seconds=MEGA_FRAME_SECONDS):
    """Separate a two-speaker mixture into target and interference.

    Parameters
    ----------
    mixture : AudioSignal
    model_x, model_v : HmmModel (gfhmm/fhmm) or Codebook (gvq/vq)
    cfg : FramingConfig
    method : "gfhmm" | "gvq" | "fhmm" | "vq"; the latter two are the
        non-gain-adapted baselines, realized as the same decoders with
        theta frozen at 0 and g_y/G0 at BASELINE_GY_OVER_G0
    theta0 : starting theta for the alternating estimation (dB); one that
        is not a finite number raises ValueError, and a finite one is
        clamped into [THETA_MIN_DB, THETA_MAX_DB]; checked for every
        method, but unused when theta is fixed, and so by the baselines
    fix_theta : skip theta estimation and decode once at this value (dB);
        it must lie in [THETA_MIN_DB, THETA_MAX_DB], i.e. +/-15 dB; the
        baselines check it, then decode at 0
    outer_tol, max_outer : the decoders' stopping rule for the
        alternating estimation, checked for every method
    mega_frame_seconds : loudness-constancy window; utterances shorter
        than twice this get a single theta, and None or 0 means one
        window; any other value that is not a finite number giving at
        least one hop after rounding raises ValueError

    Both models must be of the method's class, and every setting a
    model's meta records (sample_rate, frame_len, hop, dft_size) must be
    a positive integer that matches the mixture and cfg, else
    ModelMismatchError naming the setting; the decoder's fit
    check (models._check_fit) then requires, before any decode, that both
    pass their validate() and have the frames' cfg.n_bins bins.  The two
    models may differ in size.  A mixture with a sample that is not a
    finite number (NaN or inf) raises ValueError before any decode, for
    every method.
    A non-finite decoder score raises decode.NumericError.

    The target keeps the bins of the decoder's mask_x and the
    interference the rest.

    Returns (x_hat, v_hat, diagnostics); diagnostics holds the decoder's
    DecodeResult fields (paths, logprob, theta_hat, theta_per_chunk,
    objective_trace, one score per decode, and mask_x) with the method,
    the measured g_y and the frame count; a fixed theta counts as one
    iteration.
    """
    cls, infer = _KINDS[model_kind(method)]
    estimated = METHODS[method][1]
    setting = {"sample_rate": mixture.sample_rate, **asdict(cfg)}
    for role, m in (("target", model_x), ("interference", model_v)):
        if not isinstance(m, cls):
            raise ModelMismatchError(
                f"method '{method}' needs a {cls.__name__} for the {role} "
                f"speaker, got {type(m).__name__}")
        # each recorded setting a positive integer first, so that the
        # comparison below cannot raise (a numpy array would)
        _check_settings(m.meta, f"{role} model recorded", ModelMismatchError)
        for key, value in setting.items():
            recorded = m.meta.get(key)
            if recorded is not None and recorded != value:
                raise ModelMismatchError(
                    f"{role} model was trained with {key}={_shown(recorded)}"
                    f" but the mixture is separated with {key}={value}")

    _check_finite(mixture.samples, "mixture sample")

    # None and 0 seconds mean one window
    frames_per_chunk = None
    if not (mega_frame_seconds is None or _is_real(mega_frame_seconds, 0, 0)):
        frames = (mega_frame_seconds * mixture.sample_rate / cfg.hop
                  if _is_real(mega_frame_seconds) else math.nan)
        if not (_is_real(frames) and round(frames) >= 1):
            raise ValueError(
                f"mega_frame_seconds {mega_frame_seconds} gives {frames} "
                "frames per window; need at least 1 after rounding")
        frames_per_chunk = int(round(frames))
    # checked here for every method, as the decoders check them, because a
    # fixed theta below replaces theta0 and max_outer
    _decode._check_loop(theta0, outer_tol, max_outer)
    if fix_theta is not None:
        _check_theta(fix_theta, "fix_theta")
    fix_theta = fix_theta if estimated else 0.0
    if fix_theta is not None:
        # a fixed theta is one whole-sequence decode with no outer rounds
        theta0, max_outer, frames_per_chunk = fix_theta, 0, None

    y_seq = log_spectra(mixture, cfg)
    g_y = estimate_gy(mixture)
    ctx = GainContext(g_y=g_y if estimated else BASELINE_GY_OVER_G0)

    result = infer(y_seq, model_x, model_v, ctx, theta0=theta0,
                   outer_tol=outer_tol, max_outer=max_outer,
                   frames_per_chunk=frames_per_chunk)
    x_hat, v_hat = apply_masks_and_reconstruct(
        mixture, result.mask_x, 1 - result.mask_x, cfg)

    diagnostics = {
        **vars(result), "method": method, "g_y": g_y, "n_frames": len(y_seq),
        # the single decode at a fixed theta is reported as one iteration
        "iterations": result.iterations if fix_theta is None else 1,
    }
    return x_hat, v_hat, diagnostics
