"""LBG codebook training over log-spectral vectors, and the gain-adapted
VQ decoder that matches each observed frame against the gain-shifted
maxima of all codevector pairs.  Both find each frame's nearest center by
squared error with one search (_nearest): one matrix product per tile of
centers by frames, near 256 KiB each, with the centers as the outer loop,
so each center is read once; each frame keeps the centers within a slack
of its running best product cost, and an exact rescoring orders those
that the product's rounding leaves in doubt."""

import itertools

import numpy as np

from .gain import gains_from_theta
from .mixmax import mixmax_combine
from .models import VARIANCE_FLOOR, Codebook, _check_finite, _check_fit
from .signal import _is_count, _is_real

SPLIT_DELTA = 0.01
DEFAULT_REL_TOL = 1e-4


def _frame_blocks(n_frames, frame_bytes):
    """Slices that cover n_frames frames in blocks whose temporaries stay
    near 256 KiB, given the bytes that one frame's temporaries take (at
    least one frame per block)."""
    # blocks that fit a per-core L2 cache: larger ones are bound by memory
    # traffic, smaller ones by call overhead
    step = max(1, (1 << 18) // frame_bytes)
    return [slice(s, s + step) for s in range(0, n_frames, step)]


def _nearest(frames, centers):
    """Each (R, dim) frame's nearest (K, dim) center by squared error, as
    (index, exact distance): the smallest exact sum over bins of
    (y - c)^2, ties to the smallest index, the first np.argmin of the
    naive broadcast distances on finite input.

    The search runs over tiles of centers by frames whose costs take about
    256 KiB: ceil(K dim 8 / 2^18) blocks of equal size split the centers,
    so each block's rows stay near 256 KiB too, and _frame_blocks sizes
    the frame blocks by the center block's rows.  The center blocks are
    the outer loop, so each center is read once per call.  Each tile is
    scored by one matrix product, sum c^2 - 2 y . c: the distance less
    the frame's own sum y^2.  Each frame keeps its best product cost so
    far and the centers within its slack of it,
    8 (dim + 2) eps (sum y^2 + 2 max sum c^2), which bounds the rounding
    of both the product and the exact sums.  The best only falls, so a
    center dropped or never kept lies above the slack of the final best
    too; after the last tile a frame keeps exactly the centers within
    its slack of its best over all of them.  These are rescored by the
    exact sum of (y - c)^2, so no center outside the slack can win and
    exact ties resolve by the rule above whatever the BLAS, its thread
    count and the number of centers.  A frame equal to a center scores
    exactly 0.  A frame whose final best plus slack is NaN or inf (a NaN
    or inf in the frame, or an overflow) keeps every center, and is
    rescored against all of them on its own after the last tile, so that
    no more than one such frame's K candidates are held at once.
    """
    dim = frames.shape[1]
    sq_c = np.einsum("kd,kd->k", centers, centers)
    slack = (8 * (dim + 2) * np.finfo(np.float64).eps
             * (np.einsum("rd,rd->r", frames, frames) + 2 * sq_c.max()))
    n_blocks = max(1, -(-len(centers) * dim * 8 // (1 << 18)))
    step = -(-len(centers) // n_blocks)
    blocks = _frame_blocks(len(frames), 8 * step)
    best = np.full(len(frames), np.inf)
    # per frame block: each kept center's frame within the block, its
    # index and its product cost
    kept = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))
            for _ in blocks]
    for c0 in range(0, len(centers), step):
        for b, sl in enumerate(blocks):
            # sq_c - 2.0 * (y . c) bit for bit, in one tile
            cost = frames[sl] @ centers[c0:c0 + step].T
            cost *= -2.0
            cost += sq_c[c0:c0 + step]
            best[sl] = np.minimum(best[sl], cost.min(axis=1))
            limit = best[sl] + slack[sl]
            # a NaN or inf limit keeps every center: the frame holds none
            # (a NaN best and an infinite slack stay, and costs that are
            # all +inf so far lie above any finite limit a later tile sets)
            limit[~(limit < np.inf)] = np.nan
            which, cand, held = kept[b]
            stay = held <= limit[which]
            # flat indices: np.nonzero on the 2-D mask takes 10 times as long
            near = np.flatnonzero(cost <= limit[:, None])
            r, c = np.divmod(near, cost.shape[1])
            kept[b] = (np.concatenate((which[stay], r)),
                       np.concatenate((cand[stay], c0 + c)),
                       np.concatenate((held[stay], cost.ravel()[near])))
    keep_all = np.flatnonzero(~(best + slack < np.inf))
    # the frames that keep every center come one at a time, after the
    # blocks' kept centers; a NaN frame's exact distance, and with it
    # gvq_score's Q, comes out NaN
    groups = itertools.chain(
        ((sl, which, cand) for sl, (which, cand, _) in zip(blocks, kept)),
        ((slice(f, f + 1), np.zeros(len(centers), np.intp),
          np.arange(len(centers))) for f in keep_all))
    index = np.empty(len(frames), dtype=np.intp)
    dist = np.empty(len(frames))
    for sl, which, cand in groups:
        rows = frames[sl]
        exact = np.empty(len(cand))
        # about four (candidates, dim) float64 temporaries per part
        for part in _frame_blocks(len(cand), 32 * dim):
            terms = rows[which[part]] - centers[cand[part]]
            terms **= 2
            exact[part] = terms.sum(axis=1)
        # per frame: the smallest exact distance, then the smallest index
        order = np.lexsort((cand, exact, which))
        at, first = np.unique(which[order], return_index=True)
        index[sl][at], dist[sl][at] = cand[order[first]], exact[order[first]]
    return index, dist


def _lloyd(vectors, codevectors, max_iters, rel_tol, distortion_trace=None):
    """Lloyd iterations at fixed codebook size; distortion never increases.

    Empty cells are repaired by moving their centroid to the vector
    farthest from the centroid of the most populous cluster.  When
    distortion_trace is a list, appends one list to it, the mean
    distortion at each iteration.
    """
    level = []
    if distortion_trace is not None:
        distortion_trace.append(level)
    prev = np.inf
    for _ in range(max_iters):
        labels, dist = _nearest(vectors, codevectors)
        distortion = float(np.mean(dist))
        level.append(distortion)
        counts = np.bincount(labels, minlength=codevectors.shape[0])
        new_cb = codevectors.copy()
        for i in range(codevectors.shape[0]):
            if counts[i]:
                new_cb[i] = vectors[labels == i].mean(axis=0)
            else:
                big = labels == np.argmax(counts)
                new_cb[i] = vectors[big][np.argmax(dist[big])]
        codevectors = new_cb
        if prev < np.inf and prev > 0 and (prev - distortion) < rel_tol * prev:
            break
        prev = distortion
    return codevectors


def _check_size(K):
    """ValueError unless K is an integer power of two (a bool is no
    integer, a numpy integer is one): train_lbg's codebook size, checked by
    train_lbg and, before it reads any clip, by `specsep train`."""
    if not _is_count(K, 1) or (K & (K - 1)) != 0:
        raise ValueError(f"K must be an integer power of two, got {K!r}")


def train_lbg(vectors, K, max_iters=100, rel_tol=DEFAULT_REL_TOL,
              distortion_trace=None):
    """Train a K-entry codebook with binary splitting + Lloyd refinement.

    Parameters
    ----------
    vectors : (N, dim) array of log-spectral training vectors
    K : target codebook size; an integer power of two
    max_iters : Lloyd iteration cap per splitting level; an integer >= 1
    rel_tol : stop a Lloyd phase when relative distortion improvement
        drops below this; a number >= 0, inf included
    distortion_trace : optional list; appends one per-level list of the
        mean distortion at each Lloyd iteration

    Starts from the global centroid and doubles the codebook by perturbing
    each codevector by +/-SPLIT_DELTA until K entries exist.  Per-cluster
    diagonal variances (floored) and occupancy counts are recorded from the
    final assignment.  Vectors that models._check_fit refuses (not 2-D,
    or none), a K, max_iters or rel_tol outside the ranges above (a bool
    is no integer, a numpy integer is one) or a vector value that is not
    a finite number raise ValueError before any Lloyd iteration.
    """
    vectors = _check_fit(vectors)
    _check_size(K)
    if not _is_count(max_iters, 1):
        raise ValueError("max_iters must be an integer >= 1, "
                         f"got {max_iters!r}")
    if not _is_real(rel_tol, 0.0, np.inf):
        raise ValueError(f"rel_tol {rel_tol} must be a number >= 0")
    if vectors.shape[0] < K:
        raise ValueError(f"too few vectors ({vectors.shape[0]}) for K={K}")
    _check_finite(vectors, "training vector, bin")

    # refine each level, then split it until K entries exist
    codevectors = vectors.mean(axis=0, keepdims=True)
    while True:
        codevectors = _lloyd(vectors, codevectors, max_iters, rel_tol,
                             distortion_trace)
        if codevectors.shape[0] == K:
            break
        codevectors = np.vstack([codevectors + SPLIT_DELTA,
                                 codevectors - SPLIT_DELTA])

    labels, _ = _nearest(vectors, codevectors)
    variances = np.empty_like(codevectors)
    occupancy = np.zeros(K, dtype=np.int64)
    for i in range(K):
        members = vectors[labels == i]
        occupancy[i] = len(members)
        variances[i] = members.var(axis=0) if len(members) else VARIANCE_FLOOR
    variances = np.maximum(variances, VARIANCE_FLOOR)
    return Codebook(codevectors, variances, occupancy)


def gvq_score(y_seq, cb_x, cb_v, theta, ctx):
    """Decode every frame independently and score the whole sequence.

    Each frame gets the codevector pair whose gain-shifted elementwise
    maximum is nearest in squared error; ties pick the smallest target
    index, then the smallest interference index.  Returns (idx_x, idx_v, Q)
    where Q is the negated total cost; Q <= 0, with equality only when
    every frame is exactly representable.  Before any scoring,
    models._check_fit checks the codebooks and the frames: a codebook that
    fails Codebook.validate or does not match the frames' bin count raises
    ModelMismatchError, and frames that are not 2-D or empty ValueError.

    The (K_x * K_v, dim) pair maxima m are formed once (mixmax_combine),
    and each frame's nearest is found among them by the search LBG uses
    (_nearest): one matrix product per tile of pairs by frames, near
    256 KiB each (at K_x = K_v = 64 and 129 bins, 17 blocks of 241 pairs
    by 135 frames), over which each pair is read once, and an exact
    rescoring of every pair within the frame's slack of its best product
    cost over all pairs: the frame's running best only falls, so a pair
    it drops lies above that slack too.  Exact ties thus resolve by the
    rule above whatever the BLAS and the codebook sizes.  A frame equal
    to a pair's maximum scores exactly 0.
    Both gains are at most g_y / G0 and the louder one at least
    g_y / (sqrt(2) G0), so every pair maximum, and with it the score,
    stays finite at any finite theta.
    """
    y_seq = _check_fit(y_seq, cb_x, cb_v)
    pair_max = mixmax_combine(cb_x.codevectors[:, None, :],
                              cb_v.codevectors[None, :, :],
                              gains_from_theta(theta, ctx))
    flat, best = _nearest(y_seq, pair_max.reshape(-1, y_seq.shape[1]))
    idx_x, idx_v = np.divmod(flat, cb_v.K)
    # a frame-order running total; np.sum and sum() may add in another order
    return idx_x, idx_v, -float(np.add.accumulate(best)[-1])
