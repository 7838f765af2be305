"""Gain algebra: the observation-energy relation, the target-to-interference
ratio theta (dB), and the mapping from theta to per-source log10 gains.

Convention: training utterances are normalized to unit RMS, so the nominal
source level G0 is 1 and all loudness information in a test mixture is
carried by the observation RMS g_y and by theta.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .signal import _is_real

# the interval over which theta is searched and a fixed theta may lie
THETA_MIN_DB = -15.0
THETA_MAX_DB = 15.0
# below this theta, 1 + 10^(-theta/10) rounds to 10^(-theta/10), and a gain
# at theta is taken from that asymptote, which cannot overflow
ASYMPTOTE_BELOW_DB = -160.0


@dataclass(frozen=True)
class GainContext:
    """Observation gain g_y and nominal source gain G0, both finite and
    positive (ValueError otherwise)."""

    g_y: float
    G0: float = 1.0

    def __post_init__(self):
        # an infinite gain would only surface later, as a non-finite score
        for name in ("g_y", "G0"):
            value = getattr(self, name)
            # math.ulp(0.0) is the least positive float
            if not _is_real(value, math.ulp(0.0)):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value}")


@dataclass(frozen=True)
class GainPair:
    """log10 gains of the target and interference for one theta."""

    log10_gx: float
    log10_gv: float


def _check_theta(theta, name):
    """Raise ValueError, naming the setting name, unless theta lies in
    [THETA_MIN_DB, THETA_MAX_DB], the interval a fixed theta must lie in
    (a value that is not a real number lies in none)."""
    if not _is_real(theta, THETA_MIN_DB, THETA_MAX_DB):
        raise ValueError(f"{name} {theta} dB is outside "
                         f"[{THETA_MIN_DB}, {THETA_MAX_DB}] dB")


def g_of_theta(theta, ctx):
    """log10 gain of the target at ratio theta dB.

    g(theta) = log10[ (g_y/G0) * (1 + 10^(-theta/10))^(-1/2) ].  The
    interference gain is the same map evaluated at -theta.  Below
    ASYMPTOTE_BELOW_DB (-160 dB), g is computed as log10(g_y/G0) + theta/20.
    """
    ratio = ctx.g_y / ctx.G0
    if theta < ASYMPTOTE_BELOW_DB:
        return np.log10(ratio) + theta / 20.0
    return np.log10(ratio) - 0.5 * np.log10(1.0 + 10.0 ** (-theta / 10.0))


def gains_from_theta(theta, ctx):
    """Both log10 gains for one theta: (g(theta), g(-theta)).

    Satisfies gx^2 + gv^2 = (g_y/G0)^2 and 10*log10(gx^2/gv^2) = theta.
    A theta that is not a finite real number raises ValueError.
    """
    if not _is_real(theta):
        raise ValueError(f"theta {theta} dB is not a finite number")
    return GainPair(log10_gx=float(g_of_theta(theta, ctx)),
                    log10_gv=float(g_of_theta(-theta, ctx)))


def estimate_gy(signal):
    """RMS of the observation signal.

    The mean square is taken as it is when it is a normal float.  When the
    squares overflow or underflow instead (samples beyond about 1e154 or
    below about 1e-154), the samples are first divided by their peak
    magnitude, so that any finite signal that is not all zeros has a
    finite, positive RMS.  Empty and all-zero samples raise ValueError.
    """
    samples = np.asarray(signal.samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("empty input")
    with np.errstate(over="ignore"):
        power = float(np.mean(samples ** 2))
    if not sys.float_info.min <= power < math.inf:
        peak = float(np.max(np.abs(samples)))
        if peak == 0.0:
            raise ValueError("silent observation")
        if math.isfinite(peak):          # else a sample is inf or NaN
            return peak * float(np.sqrt(np.mean((samples / peak) ** 2)))
    return float(np.sqrt(power))

