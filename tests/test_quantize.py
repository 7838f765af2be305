import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsep import GainContext, gains_from_theta, gvq_score, mixmax_combine
from specsep.quantize import Codebook, VARIANCE_FLOOR, train_lbg

from conftest import broadcast_gvq_costs


@pytest.fixture
def ctx():
    return GainContext(g_y=1.0)


def random_codebook(rng, K, dim):
    return Codebook(codevectors=rng.normal(0.0, 1.0, (K, dim)),
                    cluster_variances=np.full((K, dim), 0.1),
                    occupancy=np.full(K, 10))


def decode_frame(y_r, cb_x, cb_v, theta, ctx):
    """gvq_score over a one-frame sequence, as (i, j, cost)."""
    idx_x, idx_v, q = gvq_score(np.asarray(y_r)[None, :], cb_x, cb_v,
                                theta, ctx)
    return int(idx_x[0]), int(idx_v[0]), -q


class TestTrainLbg:
    def test_k1_is_global_mean(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(0.0, 1.0, (200, 5))
        cb = train_lbg(vecs, 1)
        np.testing.assert_allclose(cb.codevectors[0], vecs.mean(axis=0),
                                   atol=1e-12)
        assert cb.occupancy.sum() == 200

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(1)
        blob_a = rng.normal(0.0, 0.1, (400, 4))
        blob_b = rng.normal(3.0, 0.1, (400, 4))
        vecs = np.vstack([blob_a, blob_b])
        cb = train_lbg(vecs, 2)
        sample_means = sorted([blob_a.mean(axis=0), blob_b.mean(axis=0)],
                              key=lambda m: m[0])
        found = sorted(cb.codevectors, key=lambda m: m[0])
        for got, want in zip(found, sample_means):
            assert np.max(np.abs(got - want)) < 0.05

    def test_distortion_non_increasing_per_phase(self):
        rng = np.random.default_rng(2)
        vecs = rng.normal(0.0, 1.0, (300, 6))
        traces = []
        train_lbg(vecs, 8, distortion_trace=traces)
        assert traces, "no Lloyd phases recorded"
        for phase in traces:
            diffs = np.diff(phase)
            assert np.all(diffs <= 1e-12), phase

    def test_occupancy_and_variance_floor(self):
        rng = np.random.default_rng(3)
        vecs = rng.normal(0.0, 1.0, (128, 3))
        cb = train_lbg(vecs, 16)
        assert cb.occupancy.sum() == 128
        assert np.all(cb.cluster_variances >= VARIANCE_FLOOR)

    def test_degenerate_duplicates_handled(self):
        # duplicated points force empty cells through the splitting path
        vecs = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 3)
        cb = train_lbg(vecs, 4)
        assert cb.K == 4
        assert cb.occupancy.sum() == 6
        assert np.all(cb.cluster_variances >= VARIANCE_FLOOR)

    def test_too_few_vectors_rejected(self):
        with pytest.raises(ValueError, match="too few"):
            train_lbg(np.zeros((3, 2)), 4)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            train_lbg(np.zeros((10, 2)), 3)


class TestGvqFrameDecode:
    """Single-frame decoding: gvq_score on a one-frame sequence."""

    def test_planted_pair_recovered(self, ctx):
        rng = np.random.default_rng(4)
        cb_x = random_codebook(rng, 6, 8)
        cb_v = random_codebook(rng, 6, 8)
        theta = 4.0
        gp = gains_from_theta(theta, ctx)
        y = np.maximum(cb_x.codevectors[3] + gp.log10_gx,
                       cb_v.codevectors[5] + gp.log10_gv)
        i, j, cost = decode_frame(y, cb_x, cb_v, theta, ctx)
        assert (i, j) == (3, 5)
        assert cost == pytest.approx(0.0, abs=1e-18)

    def test_matches_independent_brute_force(self, ctx):
        # definitionally exhaustive: recompute with explicit loops
        rng = np.random.default_rng(5)
        cb_x = random_codebook(rng, 2, 5)
        cb_v = random_codebook(rng, 2, 5)
        y = rng.normal(0.0, 1.0, 5)
        theta = -3.0
        gp = gains_from_theta(theta, ctx)
        best = None
        for i in range(2):
            for j in range(2):
                combined = np.maximum(cb_x.codevectors[i] + gp.log10_gx,
                                      cb_v.codevectors[j] + gp.log10_gv)
                cost = float(((y - combined) ** 2).sum())
                if best is None or cost < best[2]:
                    best = (i, j, cost)
        got = decode_frame(y, cb_x, cb_v, theta, ctx)
        assert got[:2] == best[:2]
        assert got[2] == pytest.approx(best[2], rel=1e-12)

    def test_masked_interference_ties_to_first_index(self, ctx):
        # the matrix products alone added exactly tied costs in an order
        # that depends on the output column, and chose another index at
        # sizes such as 7, 9, 63 and 65
        rng = np.random.default_rng(6)
        for K_v, _ in itertools.product((4, 7, 8, 9, 63, 64, 65), range(20)):
            cb_x = random_codebook(rng, 4, 129)
            cb_v = random_codebook(rng, K_v, 129)
            # 50 log10 units down, the interference wins no bin at 15 dB,
            # so every interference index ties with every other
            cb_v.codevectors -= 50.0
            y = rng.normal(0.0, 1.0, (5, 129))
            _, idx_v, q = gvq_score(y, cb_x, cb_v, 15.0, ctx)
            assert np.all(idx_v == 0), K_v
            for k in (0, K_v - 1):
                alone = Codebook(cb_v.codevectors[[k]],
                                 cb_v.cluster_variances[[k]],
                                 cb_v.occupancy[[k]])
                q_k = gvq_score(y, cb_x, alone, 15.0, ctx)[2]
                assert q == pytest.approx(q_k, rel=1e-12)

    def test_dimension_mismatch_rejected(self, ctx):
        rng = np.random.default_rng(7)
        cb = random_codebook(rng, 2, 5)
        with pytest.raises(ValueError, match="dimension"):
            decode_frame(np.zeros(4), cb, cb, 0.0, ctx)

    def test_cost_invariant_to_codevector_permutation(self, ctx):
        rng = np.random.default_rng(8)
        cb_x = random_codebook(rng, 4, 6)
        cb_v = random_codebook(rng, 4, 6)
        y = rng.normal(0.0, 1.0, 6)
        _, _, cost = decode_frame(y, cb_x, cb_v, 2.0, ctx)
        perm = np.array([2, 0, 3, 1])
        cb_x_p = Codebook(cb_x.codevectors[perm],
                          cb_x.cluster_variances[perm], cb_x.occupancy[perm])
        _, _, cost_p = decode_frame(y, cb_x_p, cb_v, 2.0, ctx)
        assert cost == pytest.approx(cost_p, rel=1e-12)


class TestGvqScore:
    def test_single_frame_is_negated_cost(self, ctx):
        rng = np.random.default_rng(9)
        cb_x = random_codebook(rng, 3, 4)
        cb_v = random_codebook(rng, 3, 4)
        y = rng.normal(0.0, 1.0, (1, 4))
        idx_x, idx_v, q = gvq_score(y, cb_x, cb_v, 1.0, ctx)
        gp = gains_from_theta(1.0, ctx)
        combined = np.maximum(cb_x.codevectors[idx_x[0]] + gp.log10_gx,
                              cb_v.codevectors[idx_v[0]] + gp.log10_gv)
        cost = float(((y[0] - combined) ** 2).sum())
        assert q == pytest.approx(-cost, rel=1e-12)

    def test_q_is_frame_order_sum_of_chosen_costs(self, ctx):
        rng = np.random.default_rng(31)
        cb_x, cb_v = random_codebook(rng, 8, 129), random_codebook(rng, 4, 129)
        y = rng.normal(0.0, 1.0, (300, 129))
        idx_x, idx_v, q = gvq_score(y, cb_x, cb_v, 3.0, ctx)
        gp = gains_from_theta(3.0, ctx)
        total = 0.0
        for r in range(300):
            pair = mixmax_combine(cb_x.codevectors[idx_x[r]],
                                  cb_v.codevectors[idx_v[r]], gp)
            total += float(((y[r] - pair) ** 2).sum())
        assert q == -total

    def test_planted_sequence_peaks_at_true_theta(self, ctx):
        rng = np.random.default_rng(10)
        cb_x = random_codebook(rng, 4, 6)
        cb_v = random_codebook(rng, 4, 6)
        theta_true = 5.0
        gp = gains_from_theta(theta_true, ctx)
        idx_x = rng.integers(0, 4, 12)
        idx_v = rng.integers(0, 4, 12)
        y = np.maximum(cb_x.codevectors[idx_x] + gp.log10_gx,
                       cb_v.codevectors[idx_v] + gp.log10_gv)
        _, _, q_true = gvq_score(y, cb_x, cb_v, theta_true, ctx)
        assert q_true == pytest.approx(0.0, abs=1e-18)
        for theta in np.arange(-15.0, 15.5, 1.0):
            _, _, q = gvq_score(y, cb_x, cb_v, float(theta), ctx)
            assert q_true >= q

    def test_appending_frame_never_increases_q(self, ctx):
        rng = np.random.default_rng(11)
        cb_x = random_codebook(rng, 3, 4)
        cb_v = random_codebook(rng, 3, 4)
        y = rng.normal(0.0, 1.0, (6, 4))
        qs = [gvq_score(y[:r], cb_x, cb_v, 2.0, ctx)[2]
              for r in range(1, 7)]
        assert np.all(np.diff(qs) <= 1e-15)

    def test_q_never_positive(self, ctx):
        rng = np.random.default_rng(12)
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            cb_x = random_codebook(rng, 4, 5)
            cb_v = random_codebook(rng, 4, 5)
            y = rng.normal(0.0, 1.0, (8, 5))
            _, _, q = gvq_score(y, cb_x, cb_v, float(rng.uniform(-15, 15)),
                                ctx)
            assert q <= 0.0

    def test_swap_symmetry(self, ctx):
        rng = np.random.default_rng(13)
        cb_x = random_codebook(rng, 3, 5)
        cb_v = random_codebook(rng, 3, 5)
        y = rng.normal(0.0, 1.0, (7, 5))
        sx, sv, q = gvq_score(y, cb_x, cb_v, 4.0, ctx)
        sv2, sx2, q2 = gvq_score(y, cb_v, cb_x, -4.0, ctx)
        assert q == pytest.approx(q2, rel=1e-12)
        np.testing.assert_array_equal(sx, sx2)
        np.testing.assert_array_equal(sv, sv2)

    def test_empty_sequence_rejected(self, ctx):
        rng = np.random.default_rng(14)
        cb = random_codebook(rng, 2, 3)
        with pytest.raises(ValueError, match="empty"):
            gvq_score(np.zeros((0, 3)), cb, cb, 0.0, ctx)


class TestGvqKernel:
    """gvq_score's two masked matrix products against the exact broadcast
    (conftest.broadcast_gvq_costs)."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(K_x=st.integers(1, 70), K_v=st.integers(1, 70),
           dim=st.integers(1, 140), R=st.integers(1, 60),
           duplicates=st.sampled_from(["none", "x", "v", "both"]),
           masked=st.booleans(),
           theta=st.floats(-15.0, 15.0), g_y=st.floats(0.05, 20.0),
           seed=st.integers(0, 2 ** 32 - 1))
    # the larger codebook sets the frame block: 64 codevectors of 129 bins
    # give blocks of 3 frames, 5 of them blocks of 50
    @example(K_x=64, K_v=64, dim=129, R=20, duplicates="both", masked=False,
             theta=0.0, g_y=1.0, seed=0)
    @example(K_x=64, K_v=16, dim=129, R=33, duplicates="v", masked=False,
             theta=7.5, g_y=1.0, seed=1)
    @example(K_x=3, K_v=5, dim=129, R=1, duplicates="x", masked=False,
             theta=-4.0, g_y=1.0, seed=2)
    # sizes that are not powers of two, where the products' summation
    # order differs between output columns
    @example(K_x=4, K_v=65, dim=129, R=5, duplicates="none", masked=True,
             theta=15.0, g_y=1.0, seed=3)
    @example(K_x=63, K_v=7, dim=129, R=7, duplicates="both", masked=False,
             theta=-2.0, g_y=1.0, seed=4)
    @example(K_x=9, K_v=63, dim=129, R=9, duplicates="x", masked=True,
             theta=-15.0, g_y=1.0, seed=5)
    def test_matches_broadcast(self, K_x, K_v, dim, R, duplicates, masked,
                               theta, g_y, seed):
        rng = np.random.default_rng(seed)
        cb_x, cb_v = random_codebook(rng, K_x, dim), random_codebook(
            rng, K_v, dim)
        # a duplicated codevector makes pairs that tie exactly
        for cb, role in ((cb_x, "x"), (cb_v, "v")):
            if duplicates in (role, "both") and cb.K > 1:
                cb.codevectors[-1] = cb.codevectors[0]
        # 50 log10 units down, the interference wins no bin, so every
        # interference index ties exactly with every other
        if masked:
            cb_v.codevectors -= 50.0
        ctx = GainContext(g_y=g_y)
        y = rng.normal(0.0, 1.5, (R, dim))
        ref = broadcast_gvq_costs(y, cb_x, cb_v, theta, ctx).reshape(R, -1)
        idx_x, idx_v, q = gvq_score(y, cb_x, cb_v, theta, ctx)
        eps = np.finfo(float).eps
        best = ref.min(axis=1)
        # the chosen pair is a best pair up to rounding; where the best two
        # costs differ by more than rounding it is the reference's choice
        chosen = ref[np.arange(R), idx_x * K_v + idx_v]
        assert np.all(chosen <= best * (1 + 8 * dim * eps))
        if K_x * K_v > 1:
            second = np.partition(ref, 1, axis=1)[:, 1]
            clear = second - best > 8 * dim * eps * best
            flat = np.argmin(ref, axis=1)
            np.testing.assert_array_equal(idx_x[clear], flat[clear] // K_v)
            np.testing.assert_array_equal(idx_v[clear], flat[clear] % K_v)
        # exact ties go to the smallest flat (i, j): never to a duplicate
        # over its first copy, never past index 0 of a masked codebook
        if duplicates in ("x", "both") and K_x > 1:
            assert np.all(idx_x != K_x - 1)
        if duplicates in ("v", "both") and K_v > 1:
            assert np.all(idx_v != K_v - 1)
        if masked:
            assert np.all(idx_v == 0)
        q_ref = -float(np.add.accumulate(best)[-1])
        assert abs(q - q_ref) <= 4 * dim * eps * abs(q_ref)
        assert q <= 0.0

        # frames built exactly from pairs score exactly 0
        pi, pj = rng.integers(0, K_x, R), rng.integers(0, K_v, R)
        planted = mixmax_combine(cb_x.codevectors[pi], cb_v.codevectors[pj],
                                 gains_from_theta(theta, ctx))
        assert gvq_score(planted, cb_x, cb_v, theta, ctx)[2] == 0.0
