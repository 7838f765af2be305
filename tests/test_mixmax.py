import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsep import (GainContext, GainPair, gains_from_theta, log_b_table,
                     mixmax_combine)
from specsep.mixmax import LOG_2PI, dominant, log_gauss_table

from conftest import log_b_jk, random_hmm


@pytest.fixture
def ctx():
    return GainContext(g_y=1.0)


class TestMixmaxCombine:
    def test_identical_sources_equal_gains(self, ctx):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 12)
        gp = gains_from_theta(0.0, ctx)
        np.testing.assert_allclose(mixmax_combine(x, x, gp),
                                   x + gp.log10_gx, atol=1e-15)

    def test_floored_interference_masked_out(self, ctx):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 12)
        v = np.full(12, -100.0)
        gp = gains_from_theta(3.0, ctx)
        np.testing.assert_allclose(mixmax_combine(x, v, gp),
                                   x + gp.log10_gx, atol=1e-15)

    def test_matches_elementwise_recomputation(self, ctx):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 20)
        v = rng.normal(0, 1, 20)
        gp = gains_from_theta(6.0, ctx)
        got = mixmax_combine(x, v, gp)
        for d in range(20):
            want = max(x[d] + gp.log10_gx, v[d] + gp.log10_gv)
            assert got[d] == want

    def test_idempotent_per_element(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, 15)
        b = rng.normal(0, 1, 15)
        gp = GainPair(0.0, 0.0)
        once = mixmax_combine(a, b, gp)
        twice = mixmax_combine(a, once, gp)
        np.testing.assert_array_equal(once, twice)

    def test_dimension_mismatch_rejected(self, ctx):
        gp = gains_from_theta(0.0, ctx)
        with pytest.raises(ValueError, match="dimension"):
            mixmax_combine(np.zeros(3), np.zeros(4), gp)


class TestDominant:
    def test_ties_go_to_target(self, ctx):
        mean = np.array([0.5, -1.0, 2.0])
        gp = gains_from_theta(0.0, ctx)
        target_wins, winner = dominant(mean, mean.copy(), gp)
        assert np.all(target_wins)
        np.testing.assert_array_equal(winner, mean + gp.log10_gx)

    def test_winning_mean_is_the_max_combination(self, ctx):
        rng = np.random.default_rng(10)
        mx = rng.normal(0, 1, (3, 1, 6))
        mv = rng.normal(0, 1, (1, 4, 6))
        gp = gains_from_theta(-2.5, ctx)
        target_wins, winner = dominant(mx, mv, gp)
        assert target_wins.shape == winner.shape == (3, 4, 6)
        want = np.maximum(mx + gp.log10_gx, mv + gp.log10_gv)
        np.testing.assert_array_equal(winner, want)
        np.testing.assert_array_equal(target_wins,
                                      mx + gp.log10_gx >= mv + gp.log10_gv)


class TestLogBjk:
    """The per-pair reference in conftest; (mean, var) tuples are states."""

    def test_at_dominant_mean_unit_sigma(self, ctx):
        gp = gains_from_theta(2.0, ctx)
        sx = (np.zeros(129), np.ones(129))
        sv = (-5.0 * np.ones(129), np.ones(129))
        y = np.maximum(sx[0] + gp.log10_gx, sv[0] + gp.log10_gv)
        expected = -0.5 * 129 * math.log(2.0 * math.pi)
        assert log_b_jk(y, *sx, *sv, gp) == pytest.approx(expected,
                                                          rel=1e-12)

    def test_swap_symmetry(self, ctx):
        rng = np.random.default_rng(4)
        sx = (rng.normal(0, 1, 8), rng.uniform(0.2, 1, 8))
        sv = (rng.normal(0, 1, 8), rng.uniform(0.2, 1, 8))
        y = rng.normal(0, 1, 8)
        gp = gains_from_theta(5.0, ctx)
        swapped = GainPair(gp.log10_gv, gp.log10_gx)
        assert log_b_jk(y, *sx, *sv, gp) == pytest.approx(
            log_b_jk(y, *sv, *sx, swapped), rel=1e-12)

    def test_matches_hand_computation_dim4(self, ctx):
        gp = gains_from_theta(4.0, ctx)
        sx = (np.array([1.0, -1.0, 0.5, 2.0]),
              np.array([0.5, 1.0, 2.0, 0.25]))
        sv = (np.array([0.0, 1.5, 0.4, -3.0]),
              np.array([1.0, 0.5, 0.3, 1.0]))
        y = np.array([0.8, 1.2, 0.1, 1.9])
        total = 0.0
        for d in range(4):
            mx = sx[0][d] + gp.log10_gx
            mv = sv[0][d] + gp.log10_gv
            if mx >= mv:
                m, s2 = mx, sx[1][d]
            else:
                m, s2 = mv, sv[1][d]
            total += (-0.5 * (y[d] - m) ** 2 / s2
                      - 0.5 * math.log(s2) - 0.5 * math.log(2 * math.pi))
        assert log_b_jk(y, *sx, *sv, gp) == pytest.approx(total, rel=1e-12)

    def test_tie_uses_target_variance(self, ctx):
        gp = GainPair(0.0, 0.0)
        sx = (np.array([1.0]), np.array([0.5]))
        sv = (np.array([1.0]), np.array([2.0]))  # same mean
        y = np.array([1.3])
        want = -0.5 * 0.09 / 0.5 - 0.5 * math.log(0.5) \
            - 0.5 * math.log(2 * math.pi)
        assert log_b_jk(y, *sx, *sv, gp) == pytest.approx(want, rel=1e-10)

    def test_maximized_at_dominant_mean(self, ctx):
        rng = np.random.default_rng(5)
        sx = (rng.normal(0, 1, 5), rng.uniform(0.2, 1, 5))
        sv = (rng.normal(0, 1, 5), rng.uniform(0.2, 1, 5))
        gp = gains_from_theta(3.0, ctx)
        m_max = np.maximum(sx[0] + gp.log10_gx, sv[0] + gp.log10_gv)
        best = log_b_jk(m_max, *sx, *sv, gp)
        for d in range(5):
            y = m_max.copy()
            y[d] += 0.05
            assert log_b_jk(y, *sx, *sv, gp) < best

    def test_shift_equivariance(self, ctx):
        rng = np.random.default_rng(6)
        sx = (rng.normal(0, 1, 7), rng.uniform(0.2, 1, 7))
        sv = (rng.normal(0, 1, 7), rng.uniform(0.2, 1, 7))
        y = rng.normal(0, 1, 7)
        gp = gains_from_theta(5.0, ctx)
        c = 0.37
        shifted = GainPair(gp.log10_gx + c, gp.log10_gv + c)
        assert log_b_jk(y, *sx, *sv, gp) == pytest.approx(
            log_b_jk(y + c, *sx, *sv, shifted), rel=1e-12)

    def test_interference_ignored_at_large_theta(self, ctx):
        rng = np.random.default_rng(7)
        sx = (rng.normal(0, 1, 6), rng.uniform(0.2, 1, 6))
        sv1 = (rng.normal(0, 1, 6), rng.uniform(0.2, 1, 6))
        sv2 = (rng.normal(0, 1, 6), rng.uniform(0.2, 1, 6))
        y = rng.normal(0, 1, 6)
        gp = gains_from_theta(200.0, ctx)
        assert log_b_jk(y, *sx, *sv1, gp) == log_b_jk(y, *sx, *sv2, gp)

    def test_nonpositive_variance_rejected(self, ctx):
        gp = gains_from_theta(0.0, ctx)
        with pytest.raises(ValueError, match="variance"):
            log_b_jk(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3),
                     np.ones(3), gp)


class TestLogBTable:
    def test_matches_per_pair_evaluation(self, ctx):
        rng = np.random.default_rng(8)
        mx = random_hmm(rng, K=3, dim=5)
        mv = random_hmm(rng, K=4, dim=5)
        y = rng.normal(0, 1, (6, 5))
        gp = gains_from_theta(4.0, ctx)
        table = log_b_table(y, mx, mv, gp)
        assert table.shape == (6, 3, 4)
        for r in (0, 3, 5):
            for j in range(3):
                for k in range(4):
                    want = log_b_jk(y[r], mx.means[j], mx.vars[j],
                                    mv.means[k], mv.vars[k], gp)
                    assert table[r, j, k] == pytest.approx(want, rel=1e-10)


class TestLogGaussTable:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(R=st.integers(1, 40), K_x=st.integers(1, 6), K_v=st.integers(0, 6),
           dim=st.integers(1, 140), case=st.sampled_from(
               ["spread", "tiny_var", "on_means"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(R=1, K_x=3, K_v=2, dim=129, case="spread", seed=0)
    @example(R=13, K_x=40, K_v=0, dim=129, case="tiny_var", seed=1)
    @example(R=8, K_x=5, K_v=3, dim=129, case="on_means", seed=2)
    def test_within_expansion_tolerance(self, R, K_x, K_v, dim, case, seed):
        # the GEMM expands the square, so it matches the naive broadcast
        # only up to rounding: per entry within 4 (dim + 2) eps S, where S
        # is half the sum of the absolute expanded terms (fixed from the
        # dtype before measuring; the worst seen was 0.74 (dim + 2) eps S)
        rng = np.random.default_rng(seed)
        shape = (K_x, K_v, dim) if K_v else (K_x, dim)
        means = rng.normal(0.0, 2.0, shape)
        var = rng.uniform(0.05, 2.0, shape)
        frames = rng.normal(0.0, 2.0, (R, dim))
        if case == "tiny_var":
            # means near -5 (a log floor) with variances of 1e-4 in places
            means = -5.0 + rng.normal(0.0, 0.05, shape)
            var = np.where(rng.random(shape) < 0.5, 1e-4, var)
            frames = -5.0 + rng.normal(0.0, 0.05, (R, dim))
        elif case == "on_means":
            # frames that equal a center exactly, where the terms cancel
            means = -5.0 + rng.normal(0.0, 1.0, shape)
            var = np.where(rng.random(shape) < 0.5, 1e-4, var)
            flat = means.reshape(-1, dim)
            frames = flat[rng.integers(0, len(flat), R)]
        f = frames.reshape((R,) + (1,) * (len(shape) - 1) + (dim,))
        want = -0.5 * ((f - means) ** 2 / var + np.log(var)
                       + LOG_2PI).sum(axis=-1)
        scale = 0.5 * (f * f / var + 2.0 * np.abs(f * means) / var
                       + means * means / var + np.abs(np.log(var))
                       + LOG_2PI).sum(axis=-1)
        got = log_gauss_table(frames, means, var)
        assert got.shape == (R,) + shape[:-1]
        bound = 4 * (dim + 2) * np.finfo(np.float64).eps * scale
        assert np.all(np.abs(got - want) <= bound)
