"""Gain algebra: the observation-energy relation, the target-to-interference
ratio theta (dB), and the mapping from theta to per-source log10 gains.

Convention: training utterances are normalized to unit RMS, so the nominal
source level G0 is 1 and all loudness information in a test mixture is
carried by the observation RMS g_y and by theta.
"""

from dataclasses import dataclass

import numpy as np

THETA_MIN_DB = -15.0
THETA_MAX_DB = 15.0


@dataclass(frozen=True)
class GainContext:
    """Observation gain g_y, nominal source gain G0, and the theta search
    interval in dB."""

    g_y: float
    G0: float = 1.0
    theta_min: float = THETA_MIN_DB
    theta_max: float = THETA_MAX_DB

    def __post_init__(self):
        if not (self.g_y > 0.0):
            raise ValueError("g_y must be positive")
        if not (self.G0 > 0.0):
            raise ValueError("G0 must be positive")
        if not (self.theta_min < self.theta_max):
            raise ValueError("theta interval is degenerate")


@dataclass(frozen=True)
class GainPair:
    """log10 gains of the target and interference for one theta."""

    log10_gx: float
    log10_gv: float


def g_of_theta(theta, ctx):
    """log10 gain of the target at ratio theta dB.

    g(theta) = log10[ (g_y/G0) * (1 + 10^(-theta/10))^(-1/2) ].  The
    interference gain is the same map evaluated at -theta.
    """
    ratio = ctx.g_y / ctx.G0
    return np.log10(ratio) - 0.5 * np.log10(1.0 + 10.0 ** (-theta / 10.0))


def gains_from_theta(theta, ctx):
    """Both log10 gains for one theta: (g(theta), g(-theta)).

    Satisfies gx^2 + gv^2 = (g_y/G0)^2 and 10*log10(gx^2/gv^2) = theta.
    """
    return GainPair(log10_gx=float(g_of_theta(theta, ctx)),
                    log10_gv=float(g_of_theta(-theta, ctx)))


def estimate_gy(signal):
    """RMS of the observation signal."""
    samples = np.asarray(signal.samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("empty input")
    power = float(np.mean(samples ** 2))
    if power == 0.0:
        raise ValueError("silent observation")
    return float(np.sqrt(power))

