"""LBG codebook training over log-spectral vectors, and the gain-adapted
VQ decoder that matches each observed frame against the gain-shifted
maxima of all codevector pairs: one matrix product per block of frames,
then an exact rescoring of the pairs that its rounding leaves in doubt."""

import numpy as np

from .gain import gains_from_theta
from .mixmax import _check_pair, _frame_blocks, mixmax_combine, sq_dist
from .models import VARIANCE_FLOOR, Codebook

SPLIT_DELTA = 0.01
DEFAULT_REL_TOL = 1e-4


def _assign(vectors, codevectors):
    """Nearest-codevector index and per-vector squared distance."""
    d2 = sq_dist(vectors, codevectors)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(vectors)), labels]


def _lloyd(vectors, codevectors, max_iters, rel_tol, trace=None):
    """Lloyd iterations at fixed codebook size; distortion never increases.

    Empty cells are repaired by moving their centroid to the vector
    farthest from the centroid of the most populous cluster.
    """
    prev = np.inf
    for _ in range(max_iters):
        labels, dist = _assign(vectors, codevectors)
        distortion = float(np.mean(dist))
        if trace is not None:
            trace.append(distortion)
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


def train_lbg(vectors, K, max_iters=100, rel_tol=DEFAULT_REL_TOL,
              distortion_trace=None):
    """Train a K-entry codebook with binary splitting + Lloyd refinement.

    Parameters
    ----------
    vectors : (N, dim) array of log-spectral training vectors
    K : target codebook size; must be a power of two
    max_iters : Lloyd iteration cap per splitting level
    rel_tol : stop a Lloyd phase when relative distortion improvement
        drops below this
    distortion_trace : optional list; appends one per-level list of the
        mean distortion at each Lloyd iteration

    Starts from the global centroid and doubles the codebook by perturbing
    each codevector by +/-SPLIT_DELTA until K entries exist.  Per-cluster
    diagonal variances (floored) and occupancy counts are recorded from the
    final assignment.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("need a non-empty (N, dim) array of vectors")
    if K < 1 or (K & (K - 1)) != 0:
        raise ValueError("K must be a power of two")
    if vectors.shape[0] < K:
        raise ValueError(f"too few vectors ({vectors.shape[0]}) for K={K}")

    def level_trace():
        if distortion_trace is None:
            return None
        distortion_trace.append([])
        return distortion_trace[-1]

    codevectors = vectors.mean(axis=0, keepdims=True)
    codevectors = _lloyd(vectors, codevectors, max_iters, rel_tol,
                         level_trace())
    while codevectors.shape[0] < K:
        codevectors = np.vstack([codevectors + SPLIT_DELTA,
                                 codevectors - SPLIT_DELTA])
        codevectors = _lloyd(vectors, codevectors, max_iters, rel_tol,
                             level_trace())

    labels, _ = _assign(vectors, codevectors)
    variances = np.empty_like(codevectors)
    occupancy = np.zeros(K, dtype=np.int64)
    for i in range(K):
        members = vectors[labels == i]
        occupancy[i] = len(members)
        variances[i] = members.var(axis=0) if len(members) else VARIANCE_FLOOR
    variances = np.maximum(variances, VARIANCE_FLOOR)
    return Codebook(codevectors, variances, occupancy)


def _best_pairs(rows, cost, pair_max, slack):
    """Each frame's best flat (i, j) index and exact cost, from its row of
    the (n_frames, K_x * K_v) product costs: the smallest exact cost, ties
    to the smallest flat index.

    A product cost can be off from the exact sum by its rounding, so every
    pair whose product cost lies within the frame's slack of the frame's
    smallest is rescored by the exact sum over bins of
    (y - pair_max[p])^2, and the best is taken among those.
    """
    # not "<=": a frame whose costs are NaN keeps all its pairs, and its
    # exact cost, and with it Q, comes out NaN
    near = ~(cost > (cost.min(axis=1) + slack)[:, None])
    which, pairs = np.nonzero(near)     # by frame, then by flat index
    exact = np.empty(len(pairs))
    # about four (pairs, dim) float64 temporaries per block
    for part in _frame_blocks(len(pairs), 32 * rows.shape[1]):
        terms = rows[which[part]] - pair_max[pairs[part]]
        terms **= 2
        exact[part] = terms.sum(axis=1)
    # per frame: the smallest exact cost, then the smallest flat index
    order = np.lexsort((pairs, exact, which))
    _, first = np.unique(which[order], return_index=True)
    return pairs[order[first]], exact[order[first]]


def gvq_score(y_seq, cb_x, cb_v, theta, ctx):
    """Decode every frame independently and score the whole sequence.

    Each frame gets the codevector pair whose gain-shifted elementwise
    maximum is nearest in squared error; ties pick the smallest target
    index, then the smallest interference index.  Returns (idx_x, idx_v, Q)
    where Q is the negated total cost; Q <= 0, with equality only when
    every frame is exactly representable.  Frames that are empty or do not
    match the codebooks' dimension raise ValueError.

    The (K_x * K_v, dim) pair maxima m are formed once (mixmax_combine),
    and each block of frames is scored against all of them by one matrix
    product, sum m^2 - 2 y . m: the cost less the frame's own sum y^2.
    Every pair within the frame's slack of its best product cost,
    8 (dim + 2) eps (sum y^2 + 2 max sum m^2), which bounds the rounding of
    both the product and the exact sums, is rescored by the exact sum of
    (y - m)^2 (_best_pairs), so no pair outside the slack can win and
    exact ties resolve by the rule above whatever the BLAS and the
    codebook sizes.  A frame equal to a pair's maximum scores exactly 0.
    Both gains are at most g_y / G0 and the louder one at least
    g_y / (sqrt(2) G0), so every pair maximum, and with it the score,
    stays finite at any finite theta.
    """
    y_seq = _check_pair(y_seq, cb_x, cb_v)
    pair_max = mixmax_combine(cb_x.codevectors[:, None, :],
                              cb_v.codevectors[None, :, :],
                              gains_from_theta(theta, ctx))
    pair_max = pair_max.reshape(-1, y_seq.shape[1])
    sq_max = np.einsum("pd,pd->p", pair_max, pair_max)
    rounding = 8 * (y_seq.shape[1] + 2) * np.finfo(np.float64).eps
    R = y_seq.shape[0]
    flat = np.empty(R, dtype=np.intp)
    best = np.empty(R)
    for sl in _frame_blocks(R, 8 * len(pair_max)):
        rows = y_seq[sl]
        slack = rounding * (np.einsum("rd,rd->r", rows, rows)
                            + 2 * sq_max.max())
        # the block's costs live only as long as this call
        flat[sl], best[sl] = _best_pairs(
            rows, sq_max - 2.0 * (rows @ pair_max.T), pair_max, slack)
    idx_x, idx_v = np.divmod(flat, cb_v.K)
    # a frame-order running total; np.sum and sum() may add in another order
    return idx_x, idx_v, -float(np.add.accumulate(best)[-1])
