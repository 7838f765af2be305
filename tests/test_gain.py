import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsep import (AudioSignal, GainContext, estimate_gy, g_of_theta,
                     gains_from_theta)
from specsep.gain import THETA_MAX_DB, THETA_MIN_DB


@pytest.fixture
def unit_ctx():
    return GainContext(g_y=1.0)


class TestGOfTheta:
    def test_symmetry_at_zero(self, unit_ctx):
        # g_x = g_v = 1/sqrt(2) when both sources contribute equally
        assert g_of_theta(0.0, unit_ctx) == pytest.approx(
            math.log10(1.0 / math.sqrt(2.0)), abs=1e-12)

    def test_theta_15_closed_form(self, unit_ctx):
        expected = math.log10((1.0 + 10.0 ** -1.5) ** -0.5)
        assert g_of_theta(15.0, unit_ctx) == pytest.approx(expected, abs=1e-12)
        assert g_of_theta(15.0, unit_ctx) == pytest.approx(-0.00676, abs=1e-4)

    def test_scales_linearly_with_gy(self):
        ctx = GainContext(g_y=2.0)
        assert g_of_theta(0.0, ctx) == pytest.approx(
            math.log10(math.sqrt(2.0)), abs=1e-12)


class TestGainsFromTheta:
    def test_zero_theta_gains_equal(self, unit_ctx):
        gp = gains_from_theta(0.0, unit_ctx)
        assert gp.log10_gx == gp.log10_gv

    def test_large_theta_limit(self, unit_ctx):
        gp = gains_from_theta(200.0, unit_ctx)
        assert 10.0 ** gp.log10_gx == pytest.approx(1.0, abs=1e-9)
        assert 10.0 ** gp.log10_gv < 1e-9

    def test_identities_at_6db(self):
        ctx = GainContext(g_y=1.0)
        gp = gains_from_theta(6.0, ctx)
        gx, gv = 10.0 ** gp.log10_gx, 10.0 ** gp.log10_gv
        assert gx ** 2 + gv ** 2 == pytest.approx(1.0, rel=1e-12)
        assert 10.0 * math.log10(gx ** 2 / gv ** 2) == pytest.approx(
            6.0, abs=1e-9)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(g_y=st.floats(1e-3, 1e3), G0=st.floats(1e-3, 1e3),
           theta=st.floats(THETA_MIN_DB, THETA_MAX_DB))
    @example(g_y=1.7, G0=0.8, theta=THETA_MIN_DB)
    @example(g_y=1.7, G0=0.8, theta=THETA_MAX_DB)
    def test_identities_across_sweep(self, g_y, G0, theta):
        ctx = GainContext(g_y=g_y, G0=G0)
        target = (ctx.g_y / ctx.G0) ** 2
        gp = gains_from_theta(theta, ctx)
        gx, gv = 10.0 ** gp.log10_gx, 10.0 ** gp.log10_gv
        assert gx ** 2 + gv ** 2 == pytest.approx(target, rel=1e-12)
        assert 10.0 * math.log10(gx ** 2 / gv ** 2) == pytest.approx(
            theta, abs=1e-9)

    def test_antisymmetry_swaps_pair(self, unit_ctx):
        gp = gains_from_theta(4.2, unit_ctx)
        swapped = gains_from_theta(-4.2, unit_ctx)
        assert gp.log10_gx == swapped.log10_gv
        assert gp.log10_gv == swapped.log10_gx

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf, "3", True,
                                       None])
    def test_nonfinite_theta_rejected(self, unit_ctx, theta):
        with pytest.raises(ValueError, match=f"theta {theta} dB"):
            gains_from_theta(theta, unit_ctx)

    @pytest.mark.parametrize("theta", [-4000.0, -161.0, 161.0, 4000.0,
                                       -1e308, 1e308])
    def test_huge_theta_without_overflow(self, theta):
        ctx = GainContext(g_y=1.7, G0=0.8)
        gp = gains_from_theta(theta, ctx)
        loud, quiet = sorted((gp.log10_gx, gp.log10_gv), reverse=True)
        # the louder source takes all of g_y/G0, the quieter |theta|/20 less
        assert loud == pytest.approx(math.log10(1.7 / 0.8), abs=1e-15)
        assert quiet == pytest.approx(loud - abs(theta) / 20.0, rel=1e-15)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(g_y=st.floats(1e-3, 1e3), theta=st.floats(-160.0, 160.0))
    @example(g_y=1.0, theta=-160.0)
    @example(g_y=1.0, theta=160.0)
    def test_g_of_theta_unchanged_within_160_db(self, g_y, theta):
        ctx = GainContext(g_y=g_y)
        closed_form = (np.log10(g_y)
                       - 0.5 * np.log10(1.0 + 10.0 ** (-theta / 10.0)))
        assert g_of_theta(theta, ctx) == closed_form

    def test_g_of_theta_continuous_at_minus_160_db(self, unit_ctx):
        below = g_of_theta(np.nextafter(-160.0, -np.inf), unit_ctx)
        assert below == pytest.approx(g_of_theta(-160.0, unit_ctx),
                                      rel=1e-15)

    def test_monotonicity(self, unit_ctx):
        thetas = np.arange(-15.0, 15.01, 0.5)
        gx = np.array([gains_from_theta(t, unit_ctx).log10_gx
                       for t in thetas])
        gv = np.array([gains_from_theta(t, unit_ctx).log10_gv
                       for t in thetas])
        assert np.all(np.diff(gx) > 0)
        assert np.all(np.diff(gv) < 0)


class TestEstimateGy:
    def test_constant_signal(self):
        sig = AudioSignal(np.full(1000, 0.5))
        assert estimate_gy(sig) == pytest.approx(0.5, abs=1e-12)

    def test_unit_rms_noise(self):
        rng = np.random.default_rng(42)
        sig = AudioSignal(rng.standard_normal(16000))
        assert estimate_gy(sig) == pytest.approx(1.0, rel=0.02)

    def test_self_concatenation_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500) * 0.3
        once = estimate_gy(AudioSignal(x))
        twice = estimate_gy(AudioSignal(np.concatenate([x, x])))
        assert once == pytest.approx(twice, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e300, 1e-200, 1e-300])
    def test_levels_whose_squares_overflow_or_underflow(self, scale):
        # the plain mean square overflows to inf or underflows to 0 here;
        # measured relative to the peak, the RMS scales with the samples
        x = np.random.default_rng(5).standard_normal(2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g_y = estimate_gy(AudioSignal(scale * x))
        assert g_y / scale == pytest.approx(estimate_gy(AudioSignal(x)),
                                            rel=1e-14)

    def test_silent_signal_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            estimate_gy(AudioSignal(np.zeros(100)))

    def test_least_subnormal_sample_is_not_silent(self):
        assert estimate_gy(AudioSignal([0.0, 5e-324])) > 0.0

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_sample_gives_nonfinite_rms(self, bad):
        # no peak to divide by: the plain mean square's root, unwarned
        g_y = estimate_gy(AudioSignal([bad, 1.0]))
        assert g_y == bad or (math.isnan(g_y) and math.isnan(bad))

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_gy(AudioSignal(np.zeros(0)))


class TestGainContext:
    def test_rejects_nonpositive_gy(self):
        with pytest.raises(ValueError):
            GainContext(g_y=0.0)

    @pytest.mark.parametrize("name", ["g_y", "G0"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0, -1.0,
                                     "1.0", True, None])
    def test_rejects_nonfinite_or_nonpositive_gains(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GainContext(**{"g_y": 1.0, "G0": 1.0, name: bad})

    def test_accepts_large_finite_gains(self):
        ctx = GainContext(g_y=1e308, G0=1e-300)
        assert (ctx.g_y, ctx.G0) == (1e308, 1e-300)
