import math

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

    def test_silent_signal_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            estimate_gy(AudioSignal(np.zeros(100)))

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_gy(AudioSignal(np.zeros(0)))


class TestGainContext:
    def test_rejects_nonpositive_gy(self):
        with pytest.raises(ValueError):
            GainContext(g_y=0.0)
