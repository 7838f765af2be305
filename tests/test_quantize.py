import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsep import (GainContext, g_of_theta, gains_from_theta, gvq_score,
                     mixmax_combine)
from specsep import quantize
from specsep.quantize import Codebook, VARIANCE_FLOOR, _nearest, train_lbg

from conftest import broadcast_gvq_costs


@pytest.fixture
def ctx():
    return GainContext(g_y=1.0)


@pytest.fixture
def tile_dtypes(monkeypatch):
    """The dtype of _nearest's tiles in each call, in call order."""
    seen = []
    precision = quantize._tile_precision

    def spy(*args):
        dt, slack = precision(*args)
        seen.append(dt)
        return dt, slack

    monkeypatch.setattr(quantize, "_tile_precision", spy)
    return seen


def random_codebook(rng, K, dim):
    return Codebook(codevectors=rng.normal(0.0, 1.0, (K, dim)),
                    cluster_variances=np.full((K, dim), 0.1),
                    occupancy=np.full(K, 10))


def decode_frame(y_r, cb_x, cb_v, theta, ctx):
    """gvq_score over a one-frame sequence, as (i, j, cost)."""
    idx_x, idx_v, q = gvq_score(np.asarray(y_r)[None, :], cb_x, cb_v,
                                theta, ctx)
    return int(idx_x[0]), int(idx_v[0]), -q


def assert_naive_argmin(frames, centers, index, dist):
    """index and dist are the first np.argmin of the naive broadcast
    distances and that distance, bit for bit; the broadcast runs a few
    frames at a time to keep it small."""
    for s in range(0, len(frames), 10):
        d2 = ((frames[s:s + 10, None, :] - centers) ** 2).sum(axis=-1)
        want = np.argmin(d2, axis=1)
        np.testing.assert_array_equal(index[s:s + 10], want)
        np.testing.assert_array_equal(
            dist[s:s + 10], d2[np.arange(len(want)), want])


def assert_streamed_as_materialized(y, cb_x, cb_v, theta, ctx):
    """gvq_score's indices and Q are, bit for bit, those of _nearest on the
    materialized (K_x K_v, dim) pair maxima of mixmax_combine, the array
    that gvq_score forms a tile at a time and never holds whole."""
    pair_max = mixmax_combine(cb_x.codevectors[:, None, :],
                              cb_v.codevectors[None, :, :],
                              gains_from_theta(theta, ctx))
    flat, best = _nearest(y, pair_max.reshape(-1, y.shape[1]))
    idx_x, idx_v, q = gvq_score(y, cb_x, cb_v, theta, ctx)
    np.testing.assert_array_equal(idx_x, flat // cb_v.K)
    np.testing.assert_array_equal(idx_v, flat % cb_v.K)
    want = -float(np.add.accumulate(best)[-1])
    assert np.float64(q).tobytes() == np.float64(want).tobytes()


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

    # models._check_fit's messages, the fit check of every decoder
    @pytest.mark.parametrize("vectors, message", [
        (np.zeros((0, 2)), "empty input"),
        (np.zeros(5),
         r"frames must be an \(R, dim\) array, got shape \(5,\)")],
        ids=["no_rows", "one_dimensional"])
    def test_empty_vectors_rejected(self, vectors, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_lbg(vectors, 1)

    def test_too_few_vectors_rejected(self):
        with pytest.raises(ValueError, match="too few"):
            train_lbg(np.zeros((3, 2)), 4)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            train_lbg(np.zeros((10, 2)), 3)

    @pytest.mark.parametrize("options, match", [
        ({"K": 2.0}, "K must be"), ({"K": True}, "K must be"),
        ({"K": "4"}, "K must be"), ({"max_iters": 0}, "max_iters"),
        ({"max_iters": -1}, "max_iters"), ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": True}, "max_iters"), ({"rel_tol": np.nan}, "rel_tol"),
        ({"rel_tol": -1e-4}, "rel_tol"), ({"rel_tol": "1e-4"}, "rel_tol"),
        ({"rel_tol": True}, "rel_tol"), ({"rel_tol": None}, "rel_tol"),
    ], ids=repr)
    def test_bad_settings_rejected_before_lloyd(self, monkeypatch, options,
                                                match):
        # max_iters=0 would return a codebook of barely split copies of the
        # global mean
        def no_search(*args):
            raise AssertionError("searched before checking the settings")

        monkeypatch.setattr("specsep.quantize._nearest", no_search)
        vecs = np.random.default_rng(4).normal(0.0, 1.0, (40, 5))
        with pytest.raises(ValueError, match=match):
            train_lbg(vecs, **{"K": 4, **options})

    def test_numpy_integer_settings_accepted(self):
        vecs = np.random.default_rng(4).normal(0.0, 1.0, (40, 5))
        cb = train_lbg(vecs, np.int64(4), max_iters=np.int32(5))
        ref = train_lbg(vecs, 4, max_iters=5)
        np.testing.assert_array_equal(cb.codevectors, ref.codevectors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_vectors_rejected(self, bad):
        # a NaN vector would otherwise end in a NaN codebook, an infinite
        # one in inf - inf
        vecs = np.random.default_rng(4).normal(0.0, 1.0, (200, 8))
        vecs[57, 3] = bad
        with pytest.raises(ValueError, match=r"\(57, 3\) is .*not a finite"):
            train_lbg(vecs, 4)


class TestNearest:
    """The nearest-center search that LBG and gvq_score share, against the
    first np.argmin of the naive broadcast distances, bit for bit."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(R=st.integers(1, 40), K=st.integers(1, 40),
           dim=st.integers(1, 140),
           case=st.sampled_from(["spread", "ties", "far", "late"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(R=1, K=3, dim=129, case="spread", seed=0)
    @example(R=1, K=2, dim=129, case="spread", seed=1)
    @example(R=13, K=40, dim=129, case="spread", seed=2)
    @example(R=40, K=320, dim=129, case="spread", seed=3)
    # a frame block holds about 256 KiB of costs, 8 * K bytes a frame: at
    # K=64 one whole block of 512 frames, one frame into the second, and
    # three blocks; one center puts every frame in one block
    @example(R=512, K=64, dim=129, case="ties", seed=4)
    @example(R=513, K=64, dim=129, case="far", seed=5)
    @example(R=1100, K=64, dim=129, case="ties", seed=6)
    @example(R=40, K=1, dim=129, case="far", seed=7)
    # beyond 256 KiB of centers the search tiles them too: 700 centers of
    # 129 bins make 3 blocks of 234, 234 and 232, and 300 frames 3 blocks
    # of 140, 140 and 20.  Each of the tied duplicates i and i + 350 lies
    # in another block than its twin, and each late center's near copy in
    # an earlier block than it
    @example(R=300, K=700, dim=129, case="ties", seed=8)
    @example(R=300, K=700, dim=129, case="late", seed=9)
    @example(R=300, K=700, dim=129, case="far", seed=10)
    def test_equals_naive_argmin(self, R, K, dim, case, seed):
        rng = np.random.default_rng(seed)
        if case == "far":
            # eighths on a common offset of 1e7: the exact distances are
            # exact sums of eighths squared and tie often, while the
            # product's terms near 1e14 round by whole units, so only the
            # exact rescoring within the slack orders them
            frames = 1e7 + 0.1 + rng.integers(-4, 5, (R, dim)) / 8
            centers = 1e7 + 0.1 + rng.integers(-4, 5, (K, dim)) / 8
        else:
            frames = rng.normal(0.0, 2.0, (R, dim))
            centers = rng.normal(0.0, 2.0, (K, dim))
        if case == "late":
            # each of the first K // 2 centers sits 1e-8 to 1e-4 off one of
            # the last ones in every bin, and the frames on a late center
            # find its earlier copy nearly as near: within the slack, or
            # just above it, of a best that only a later tile reaches
            centers[:K // 2] = (centers[K - K // 2:] + 10.0 ** rng.integers(
                -8, -3, (K // 2, 1)) * rng.choice([-1.0, 1.0], (K // 2, dim)))
            frames[::2] = centers[rng.integers(K // 2, K, R)[::2]]
        elif case != "spread":
            # duplicated centers tie exactly, and frames on a center score
            # exactly 0
            centers[K // 2:] = centers[:K - K // 2]
            frames[::2] = centers[rng.integers(0, K, R)[::2]]
        index, dist = _nearest(frames, centers)
        assert_naive_argmin(frames, centers, index, dist)
        if case != "spread":
            assert np.all(dist[::2] == 0.0)

    # the float32 tiles' edge cases, each against the naive argmin, with
    # the dtype that _tile_precision picks for it
    @pytest.mark.parametrize("case, dtype", [
        ("ulp", np.float32), ("subnormal", np.float32),
        ("below_guard", np.float32), ("frame_above_guard", np.float64),
        ("center_above_guard", np.float64), ("nonfinite", np.float32),
        ("far", np.float64)])
    def test_float32_edges_equal_naive_argmin(self, tile_dtypes, case,
                                              dtype):
        rng = np.random.default_rng(40)
        R, K, dim = 40, 30, 129
        frames = rng.normal(0.0, 2.0, (R, dim))
        centers = rng.normal(0.0, 2.0, (K, dim))
        if case == "ulp":
            # the first 8 centers are one float32 value moved in bin 0 by
            # quarters of its float32 ulp: distinct in float64, but the
            # quarter steps round back to it, so their float32 costs tie
            base = centers[0].astype(np.float32).astype(np.float64)
            ulp = float(np.spacing(np.float32(base[0])))
            centers[:8] = base
            centers[:8, 0] += ulp * np.array([0, 0.25, -0.25, 1, 0.75, 2,
                                              -1, 1])
            frames[::2] = base
            frames[::2, 0] += rng.integers(-8, 17, (R + 1) // 2) * ulp / 8
        elif case == "subnormal":
            # bins below float32's normal range, below its smallest
            # subnormal and below float64's normal range, and two
            # centers and some frames made of such values alone
            tiny = np.array([1e-40, -3e-42, 1e-46, 5e-310])
            frames[:, :4] = tiny * rng.choice([-1.0, 1.0], (R, 4))
            centers[:, :4] = tiny * rng.choice([-1.0, 1.0], (K, 4))
            centers[:2] = 1e-40 * rng.normal(0.0, 1.0, (2, dim))
            frames[1::4] = 1e-41 * rng.normal(0.0, 1.0, (R // 4, dim))
            frames[::4] = centers[rng.integers(0, K, R // 4)]
        elif case.endswith("guard"):
            # the largest sum of squares just below 2^80, or one frame or
            # one center just above it
            frames[::2] = centers[rng.integers(0, K, R // 2)]
            sq = lambda a: np.einsum("rd,rd->r", a, a)
            scale = np.sqrt(2.0 ** 80 * (1 - 1e-9)
                            / max(sq(frames).max(), sq(centers).max()))
            frames, centers = frames * scale, centers * scale
            above = np.sqrt(2.0 ** 80 * (1 + 1e-9))
            if case == "frame_above_guard":
                frames[1] *= above / np.sqrt(sq(frames[1:2])[0])
            elif case == "center_above_guard":
                centers[1] *= above / np.sqrt(sq(centers[1:2])[0])
        elif case == "nonfinite":
            # frames whose sums of squares are NaN or inf keep every
            # center beside finite frames that take the float32 tiles
            frames[3, 5], frames[5, 0] = np.nan, np.inf
            frames[9, 128] = -np.inf
            frames[7] = 1e160
            frames[::2] = centers[rng.integers(0, K, R // 2)]
        else:
            # on a common offset of 1e7 the float32 slack would keep every
            # center, so the float64 tiles run
            frames = 1e7 + 0.1 + rng.integers(-4, 5, (R, dim)) / 8
            centers = 1e7 + 0.1 + rng.integers(-4, 5, (K, dim)) / 8
        with np.errstate(over="ignore", invalid="ignore"):
            index, dist = _nearest(frames, centers)
            assert_naive_argmin(frames, centers, index, dist)
        assert tile_dtypes == [dtype]


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

    @pytest.mark.parametrize("theta", [-4000.0, 4000.0, -1e200, 1e200,
                                       -1e308, 1e308])
    def test_huge_theta_gives_every_bin_to_louder_source(self, ctx, theta):
        # beyond about 1e200 the quieter source's unclamped shift squares
        # to inf, and its 0 mask made the cost NaN
        rng = np.random.default_rng(9)
        cb_x = random_codebook(rng, 3, 6)
        cb_v = random_codebook(rng, 3, 6)
        y = rng.normal(0.0, 1.0, (4, 6))
        idx_x, idx_v, q = gvq_score(y, cb_x, cb_v, theta, ctx)
        assert np.isfinite(q)
        # the quieter source wins no bin, so its index ties to 0
        assert np.all((idx_v if theta > 0 else idx_x) == 0)
        loud = cb_x if theta > 0 else cb_v
        shift = g_of_theta(abs(theta), ctx)
        alone = ((y[:, None, :] - loud.codevectors - shift) ** 2).sum(axis=2)
        assert q == pytest.approx(-alone.min(axis=1).sum(), rel=1e-12)
        # the quieter source's rows lie beyond float32's range, though the
        # maxima do not
        assert_streamed_as_materialized(y, cb_x, cb_v, theta, ctx)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_frame_gives_nonfinite_q(self, ctx, bad):
        # a frame whose product costs are NaN must keep its pairs, so that
        # Q reports it (the decoders raise NumericError on it) rather than
        # the frame going without a pair; the decoders score under the
        # same errstate.  64 x 64 pairs of 129 bins make 17 blocks of pairs
        rng = np.random.default_rng(15)
        for K_x, K_v, dim in ((3, 4, 6), (64, 64, 129)):
            cb_x = random_codebook(rng, K_x, dim)
            cb_v = random_codebook(rng, K_v, dim)
            y = rng.normal(0.0, 1.0, (5, dim))
            clean = gvq_score(y, cb_x, cb_v, 2.0, ctx)
            y[2, 3] = bad
            with np.errstate(over="ignore", invalid="ignore"):
                idx_x, idx_v, q = gvq_score(y, cb_x, cb_v, 2.0, ctx)
            assert len(idx_x) == len(idx_v) == 5
            assert not np.isfinite(q)
            # every pair's exact cost is NaN or inf, so the frame keeps
            # every pair through the last block and ties to the first; the
            # others keep their pairs
            assert idx_x[2] == idx_v[2] == 0
            others = [0, 1, 3, 4]
            np.testing.assert_array_equal(idx_x[others], clean[0][others])
            np.testing.assert_array_equal(idx_v[others], clean[1][others])

    @pytest.mark.parametrize("theta", [np.nan, np.inf])
    def test_nonfinite_theta_rejected(self, ctx, theta):
        rng = np.random.default_rng(10)
        cb = random_codebook(rng, 2, 5)
        with pytest.raises(ValueError, match="theta"):
            gvq_score(np.zeros((3, 5)), cb, cb, theta, ctx)

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

    def test_near_ties_resolved_by_exact_sums(self, ctx):
        # target codevectors 1..4 are codevector 0 with bin 0 moved up by
        # 1..4 ulps, and codevector 5 is a copy of it; with the
        # interference 50 log10 units down, their pairs' exact costs differ
        # by far less than the matrix product's rounding, which without the
        # slack would pick another pair in some frames and sum to another Q
        dim, K_x, K_v, R = 129, 6, 3, 40
        rng = np.random.default_rng(32)
        eps = np.finfo(float).eps
        gp = gains_from_theta(0.0, ctx)
        gaps = []
        for _ in range(10):
            base = rng.normal(3.0, 1.0, dim)
            codevectors = np.tile(base, (K_x, 1))
            codevectors[1:K_x - 1, 0] += (np.arange(1, K_x - 1)
                                          * np.spacing(base[0]))
            cb_x = Codebook(codevectors, np.full((K_x, dim), 0.1),
                            np.full(K_x, 10))
            cb_v = random_codebook(rng, K_v, dim)
            cb_v.codevectors -= 50.0
            y = base + rng.normal(0.0, 1e-3, (R, dim))
            y[:, 0] = base[0] + (rng.integers(-8, 16, R)
                                 * np.spacing(base[0]) / 2)
            idx_x, idx_v, q = gvq_score(y, cb_x, cb_v, 0.0, ctx)
            pair_max = mixmax_combine(cb_x.codevectors[:, None, :],
                                      cb_v.codevectors[None, :, :],
                                      gp).reshape(-1, dim)
            total = 0.0
            for r in range(R):
                exact = np.array([((y[r] - m) ** 2).sum() for m in pair_max])
                gaps.append(abs(exact[0] - exact[K_v]))
                assert gaps[-1] < dim * eps * (y[r] ** 2).sum()
                # argmin: the smallest exact cost, ties to the first pair
                flat = int(np.argmin(exact))
                assert (idx_x[r], idx_v[r]) == divmod(flat, K_v)
                total += float(exact[flat])
            assert q == -total
        # some near-ties are exact ties, others are not
        assert 0.0 in gaps and max(gaps) > 0.0

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
    """gvq_score's product against the pair maxima and its exact rescoring
    against the exact broadcast (conftest.broadcast_gvq_costs)."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(K_x=st.integers(1, 70), K_v=st.integers(1, 70),
           dim=st.integers(1, 140), R=st.integers(1, 60),
           duplicates=st.sampled_from(["none", "x", "v", "both"]),
           masked=st.booleans(),
           theta=st.floats(-15.0, 15.0), g_y=st.floats(0.05, 20.0),
           seed=st.integers(0, 2 ** 32 - 1))
    # a frame block holds about 256 KiB of pair costs, 8 * K_x * K_v bytes
    # a frame, whatever dim: 64 x 64 codevectors give blocks of 8 frames,
    # 64 x 16 blocks of 32, 65 x 64 blocks of 7
    @example(K_x=64, K_v=64, dim=129, R=20, duplicates="both", masked=False,
             theta=0.0, g_y=1.0, seed=0)
    # a whole block, one frame into the second, and one frame into the
    # third, whose shorter last block must score alike
    @example(K_x=64, K_v=64, dim=129, R=8, duplicates="both", masked=True,
             theta=-6.0, g_y=1.0, seed=10)
    @example(K_x=64, K_v=64, dim=129, R=9, duplicates="v", masked=False,
             theta=12.0, g_y=1.0, seed=11)
    @example(K_x=64, K_v=64, dim=129, R=17, duplicates="x", masked=True,
             theta=1.5, g_y=1.0, seed=12)
    # several blocks, the last of them 7, 8 or 1 frames long
    @example(K_x=64, K_v=64, dim=129, R=63, duplicates="both", masked=False,
             theta=3.0, g_y=1.0, seed=6)
    @example(K_x=64, K_v=64, dim=129, R=64, duplicates="v", masked=True,
             theta=15.0, g_y=1.0, seed=7)
    @example(K_x=64, K_v=64, dim=129, R=65, duplicates="x", masked=False,
             theta=-9.0, g_y=1.0, seed=8)
    # codebooks of different sizes, across the edges of 7- and 32-frame
    # blocks
    @example(K_x=65, K_v=64, dim=129, R=70, duplicates="both", masked=True,
             theta=-15.0, g_y=1.0, seed=9)
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
        assert_streamed_as_materialized(y, cb_x, cb_v, theta, ctx)

        # frames built exactly from pairs score exactly 0
        pi, pj = rng.integers(0, K_x, R), rng.integers(0, K_v, R)
        planted = mixmax_combine(cb_x.codevectors[pi], cb_v.codevectors[pj],
                                 gains_from_theta(theta, ctx))
        assert gvq_score(planted, cb_x, cb_v, theta, ctx)[2] == 0.0


class TestGvqMemory:
    """The tracemalloc peak of one gvq_score call over 197 frames of 129
    bins (2 s of audio at the default framing) stays within 6 MB at K=64,
    within 1.07 MB at K=16 and within 4 MB at K=256, also when a masked
    interference codebook has every frame's pairs rescored: the pair
    maxima are formed a tile at a time, where a (K * K, dim) array of them
    would take 4.2 MB at K=64 and 67.6 MB at K=256, no tile's costs or
    rescoring temporaries outlive it, and a frame holds only the pairs
    within the slack of its best so far."""

    @pytest.mark.parametrize("K, limit", [(64, 6e6), (16, 1.07e6),
                                          (256, 4e6)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_peak_bounded(self, ctx, K, limit, masked):
        rng = np.random.default_rng(K)
        cb_x, cb_v = random_codebook(rng, K, 129), random_codebook(rng, K, 129)
        if masked:
            cb_v.codevectors -= 50.0
        y = rng.normal(0.0, 1.5, (197, 129))
        gvq_score(y, cb_x, cb_v, 6.0, ctx)
        tracemalloc.start()
        try:
            gvq_score(y, cb_x, cb_v, 6.0, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit

    def test_float64_tiles_peak_bounded(self, ctx, tile_dtypes):
        # codebooks and frames of order 2^41 have sums of squares above
        # 2^80, where float32 tiles could overflow: the search takes the
        # float64 tiles, whose costs and operands take twice the bytes
        rng = np.random.default_rng(64)
        cb_x, cb_v = random_codebook(rng, 64, 129), random_codebook(rng, 64,
                                                                    129)
        cb_x.codevectors *= 2.0 ** 41
        cb_v.codevectors *= 2.0 ** 41
        y = 2.0 ** 41 * rng.normal(0.0, 1.5, (197, 129))
        gvq_score(y, cb_x, cb_v, 6.0, ctx)
        tracemalloc.start()
        try:
            gvq_score(y, cb_x, cb_v, 6.0, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tile_dtypes == [np.float64] * 2
        assert peak <= 6e6
        assert_streamed_as_materialized(y, cb_x, cb_v, 6.0, ctx)

    # a NaN frame's best is NaN; a frame of 1e160 has a finite best but an
    # infinite slack, as sum y^2 overflows
    @pytest.mark.parametrize("bad", [np.nan, 1e160])
    def test_frames_keeping_every_pair_peak_bounded(self, ctx, bad):
        # such a frame keeps all 4096 pairs; holding them for all 25 such
        # frames until the last tile peaked at 10.7 MB
        rng = np.random.default_rng(64)
        cb_x, cb_v = random_codebook(rng, 64, 129), random_codebook(rng, 64,
                                                                    129)
        y = rng.normal(0.0, 1.5, (197, 129))
        y[::8, 3] = bad
        tracemalloc.start()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(gvq_score(y, cb_x, cb_v, 6.0, ctx)[2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6
        with np.errstate(over="ignore", invalid="ignore"):
            assert_streamed_as_materialized(y, cb_x, cb_v, 6.0, ctx)
