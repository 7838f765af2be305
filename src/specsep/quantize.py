"""LBG codebook training over log-spectral vectors, and the gain-adapted
VQ decoder that matches each observed frame against all codevector pairs."""

import numpy as np

from .gain import gains_from_theta
from .mixmax import _check_pair, _frame_blocks, _target_wins, sq_dist
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


def _best_pairs(rows, cost, shifted_x, shifted_v):
    """Each frame's best flat (i, j) index and cost, from its row of the
    (n_frames, K_x * K_v) pair costs of the matrix products: the smallest
    cost, ties to the smallest flat index.

    A product adds a cost's terms in an order that depends on the output
    column, so pairs whose costs are equal can differ by an ulp.  In each
    frame whose second-best cost lies within 8 * dim * eps of its best,
    relative to it, the pairs that near are rescored by a fixed-order sum
    of their exact terms, (y - max(x_i, v_j))^2 per bin: the winning
    source's term, the same number whichever source a tie goes to.  The
    best is taken among those.
    """
    flat = np.argmin(cost, axis=1)      # first occurrence: smallest (i, j)
    best = cost[np.arange(len(rows)), flat]
    limit = best * (1.0 + 8 * rows.shape[1] * np.finfo(np.float64).eps)
    # costs are >= 0, so a frame's best pair is always near its best, and
    # the frame has a near-tie when a second pair is.  The redone rows are
    # taken from this 0/1 comparison: a float copy would be 8x larger
    near = cost <= limit[:, None]
    redo = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
    which, pairs = np.nonzero(near[redo])
    exact = np.empty(len(pairs))
    # about four (pairs, dim) float64 temporaries per block
    for part in _frame_blocks(len(pairs), 32 * rows.shape[1]):
        i, j = np.divmod(pairs[part], shifted_v.shape[0])
        terms = rows[redo[which[part]]] - np.maximum(shifted_x[i],
                                                     shifted_v[j])
        terms **= 2
        exact[part] = np.add.accumulate(terms, axis=1)[:, -1]
    # per frame: the smallest exact cost, then the smallest flat index
    order = np.lexsort((pairs, exact, which))
    _, first = np.unique(which[order], return_index=True)
    flat[redo] = pairs[order[first]]
    best[redo] = exact[order[first]]
    return flat, best


def _block_costs(rows, shifted_x, shifted_v, wins, loses, cost):
    """Write the (n_frames, K_x, K_v) pair costs of a block of frames into
    cost: per target codevector i, its exact squared terms times the 0/1
    slice wins[i], written into cost[:, i, :]; per interference codevector
    j, its terms times loses[j], added into cost[:, :, j].  Each slice is
    copied into a float buffer once per block, and its buffer and the
    terms are freed before the block's pairs are chosen."""
    terms = np.empty_like(rows)
    mask = np.empty(wins.shape[1:])                     # (dim, K_v)
    for i, codevector in enumerate(shifted_x):
        np.copyto(mask, wins[i])
        np.subtract(rows, codevector, out=terms)
        terms **= 2
        np.matmul(terms, mask, out=cost[:, i, :])
    mask = np.empty(loses.shape[1:])                    # (dim, K_x)
    for j, codevector in enumerate(shifted_v):
        np.copyto(mask, loses[j])
        np.subtract(rows, codevector, out=terms)
        terms **= 2
        cost[:, :, j] += terms @ mask


def gvq_score(y_seq, cb_x, cb_v, theta, ctx):
    """Decode every frame independently and score the whole sequence.

    Each frame gets the codevector pair whose gain-shifted elementwise
    maximum is nearest in squared error; ties pick the smallest target
    index, then the smallest interference index.  Returns (idx_x, idx_v, Q)
    where Q is the negated total cost; Q <= 0, with equality only when
    every frame is exactly representable.  Frames that are empty or do not
    match the codebooks' dimension raise ValueError.

    Which source wins bin d of pair (i, j) depends on the gains only, so
    the cost is sum_d (y - x_i)^2 wins + sum_d (y - v_j)^2 (1 - wins), with
    x and v gain-shifted: per block of frames, one matrix product of exact
    squared terms with a 0/1 mask slice per codevector, the target's
    written into the block's costs and the interference's added to them.
    Every term is >= 0, and a frame equal to a pair's maximum scores
    exactly 0.  The pairs that tie with a frame's best up to the products'
    rounding are rescored by a fixed-order exact sum (_best_pairs), so
    exact ties resolve by the rule above whatever the BLAS and the
    codebook sizes.  Any finite theta scores finitely: beyond the
    codebooks' value span, the quieter source's gain is clamped, which
    changes no winner, cost or pair.
    """
    y_seq = _check_pair(y_seq, cb_x, cb_v)
    gp = gains_from_theta(theta, ctx)
    # once the gain gap exceeds the codebooks' value span, one source wins
    # every bin; the quieter source's gain then only drives its masked-out
    # terms to overflow, so it is clamped to just beyond that span
    span = (max(cb_x.codevectors.max(), cb_v.codevectors.max())
            - min(cb_x.codevectors.min(), cb_v.codevectors.min()))
    shifted_x = cb_x.codevectors + max(gp.log10_gx, gp.log10_gv - span - 1.0)
    shifted_v = cb_v.codevectors + max(gp.log10_gv, gp.log10_gx - span - 1.0)
    wins = _target_wins(shifted_x[:, :, None],          # (K_x, dim, K_v)
                        shifted_v.T[None, :, :])
    loses = (~wins).transpose(2, 1, 0).copy()           # (K_v, dim, K_x)
    R, K_x, K_v = y_seq.shape[0], cb_x.K, cb_v.K
    flat = np.empty(R, dtype=np.intp)
    best = np.empty(R)
    # each codevector's mask slice is copied and read once per block, so
    # blocks are as large as a per-core L2 cache holds the block's costs
    # across the K_x + K_v products that write them
    blocks = _frame_blocks(R, 8 * K_x * K_v, 1 << 21)
    # one cost buffer for all blocks; a shorter last block uses its leading
    # rows
    cost_buf = np.empty((min(R, blocks[0].stop), K_x, K_v))
    for sl in blocks:
        rows = y_seq[sl]
        cost = cost_buf[:len(rows)]
        _block_costs(rows, shifted_x, shifted_v, wins, loses, cost)
        flat[sl], best[sl] = _best_pairs(rows, cost.reshape(len(rows), -1),
                                         shifted_x, shifted_v)
    idx_x, idx_v = np.divmod(flat, K_v)
    # a frame-order running total; np.sum and sum() may add in another order
    return idx_x, idx_v, -float(np.add.accumulate(best)[-1])
