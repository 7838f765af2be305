import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsep import (GainContext, GainPair, gains_from_theta, log_b_table,
                     mixmax_combine)
from specsep.mixmax import LOG_2PI, dominant, log_gauss_table

from conftest import log_b_jk, random_hmm, whole_table


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

    def test_equals_dominant_winner(self, ctx):
        # mixmax_combine skips dominant's comparison; its values, NaN, inf
        # and ties included, are dominant's winning means bit for bit
        rng = np.random.default_rng(4)
        mx = rng.normal(0, 1, (5, 1, 7))
        mv = rng.normal(0, 1, (1, 6, 7))
        mx[0, 0, :3] = [np.nan, np.inf, -np.inf]
        mv[0, 1, :3] = [np.nan, -np.inf, np.inf]
        mv[0, 2] = mx[1, 0]
        for theta in (-6.0, 0.0, 6.0):
            gp = gains_from_theta(theta, ctx)
            got = mixmax_combine(mx, mv, gp)
            want = dominant(mx, mv, gp)[1]
            assert got.shape == want.shape == (5, 6, 7)
            # NaNs must sit in the same places
            np.testing.assert_array_equal(got, want)


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


class TestLogBTableBlocks:
    """log_b_table scores blocks of target states straight into its table,
    and every value is the whole-table product's, bit for bit.  That is a
    property of the BLAS: OpenBLAS splits a block of a power-of-two number
    of columns as it splits the whole table, while a product of 2 frames
    can take its small-matrix kernel and round otherwise, so the frames
    here number a window's worth."""

    # the target states of each block at 129 bins: the whole table at
    # K=16, 8 at K=64, two blocks at K_x=64, K_v=16, and at K_x=38 (not a
    # power of two) several blocks and a shorter one
    @pytest.mark.parametrize("K_x, K_v, blocks", [
        (16, 16, [16]), (64, 64, [8] * 8), (64, 16, [32, 32]),
        (38, 64, [10, 10, 10, 8])])
    def test_bit_identical_to_whole_table(self, ctx, monkeypatch, K_x, K_v,
                                          blocks):
        dim, R = 129, 40
        rng = np.random.default_rng(K_x * K_v)
        mx, mv = random_hmm(rng, K_x, dim), random_hmm(rng, K_v, dim)
        y = rng.normal(0.0, 1.5, (R, dim))
        gp = gains_from_theta(-4.5, ctx)
        want = whole_table(y, mx, mv, gp)
        # a window of a larger table, as a multi-window decode fills it
        b = np.full((R + 9, K_x, K_v), np.nan)
        seen = []

        def spy(frames, means, var, out=None):
            seen.append(out.shape[1])
            return log_gauss_table(frames, means, var, out=out)

        monkeypatch.setattr("specsep.mixmax.log_gauss_table", spy)
        got = log_b_table(y, mx, mv, gp, out=b[5:5 + R])
        monkeypatch.undo()
        assert seen == blocks
        assert got.base is b
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(b[5:5 + R], want)
        assert np.isnan(b[:5]).all() and np.isnan(b[5 + R:]).all()
        np.testing.assert_array_equal(log_b_table(y, mx, mv, gp), want)

    @pytest.mark.parametrize("bad", ["columns_strided", "rows_strided",
                                     "shape", "float32"])
    def test_out_that_cannot_take_the_product_rejected(self, ctx, bad):
        # a reshape of out that copied would leave out unwritten
        rng = np.random.default_rng(3)
        mx, mv = random_hmm(rng, 3, 5), random_hmm(rng, 4, 5)
        out = {"columns_strided": np.empty((6, 3, 8))[:, :, ::2],
               "rows_strided": np.empty((6, 6, 4))[:, ::2],
               "shape": np.empty((6, 4, 3)),
               "float32": np.empty((6, 3, 4), np.float32)}[bad]
        with pytest.raises(ValueError, match="out must be a float64 array "
                           r"of shape \(6, 3, 4\) with contiguous rows"):
            log_b_table(rng.normal(0, 1, (6, 5)), mx, mv,
                        gains_from_theta(0.0, ctx), out=out)

    @pytest.mark.parametrize("K", [64, 128])
    def test_peak_bounded_beside_the_table(self, ctx, K):
        # into an existing 197-frame table (2 s) the blocks hold about
        # 2.7 MB; a whole-table build held K^2 dim temporaries and its
        # result, a 23.9 MB peak at K=64 and 94.0 MB at K=128
        rng = np.random.default_rng(K)
        mx, mv = random_hmm(rng, K, 129), random_hmm(rng, K, 129)
        y = rng.normal(0.0, 1.5, (197, 129))
        gp = gains_from_theta(2.0, ctx)
        b = np.empty((197, K, K))
        log_b_table(y, mx, mv, gp, out=b)
        tracemalloc.start()
        try:
            log_b_table(y, mx, mv, gp, out=b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


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
