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


def _best_pairs(rows, cost, shifted_x, shifted_v, wins):
    """Each frame's best flat (i, j) index and cost, from its row of the
    (n_frames, K_x * K_v) pair costs of the matrix products: the smallest
    cost, ties to the smallest flat index.

    A product adds a cost's terms in an order that depends on the output
    column, so pairs whose costs are equal can differ by an ulp.  In each
    frame whose second-best cost lies within 8 * dim * eps of its best,
    relative to it, the pairs that near are rescored by a fixed-order sum
    of their exact terms, and the best is taken among those.  cost is
    overwritten.
    """
    frames = np.arange(len(rows))
    flat = np.argmin(cost, axis=1)      # first occurrence: smallest (i, j)
    best = cost[frames, flat]
    limit = best * (1.0 + 8 * rows.shape[1] * np.finfo(np.float64).eps)
    cost[frames, flat] = np.inf
    redo = np.flatnonzero(cost.min(axis=1) <= limit)
    if not redo.size:
        return flat, best
    cost[frames, flat] = best
    which, pairs = np.nonzero(cost[redo] <= limit[redo, None])
    exact = np.empty(len(pairs))
    # about four (pairs, dim) float64 temporaries per block
    for part in _frame_blocks(len(pairs), 32 * rows.shape[1]):
        i, j = np.divmod(pairs[part], shifted_v.shape[0])
        y_c = rows[redo[which[part]]]
        terms = np.where(wins[i, :, j], (y_c - shifted_x[i]) ** 2,
                         (y_c - shifted_v[j]) ** 2)
        exact[part] = np.add.accumulate(terms, axis=1)[:, -1]
    # per frame: the smallest exact cost, then the smallest flat index
    order = np.lexsort((pairs, exact, which))
    _, first = np.unique(which[order], return_index=True)
    flat[redo] = pairs[order[first]]
    best[redo] = exact[order[first]]
    return flat, best


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
    x and v gain-shifted: two batched matrix products of exact squared
    terms with 0/1 masks.  Every term is >= 0, and a frame equal to a
    pair's maximum scores exactly 0.  The pairs that tie with a frame's
    best up to the products' rounding are rescored by a fixed-order exact
    sum (_best_pairs), so exact ties resolve by the rule above
    whatever the BLAS and the codebook sizes.
    """
    y_seq = _check_pair(y_seq, cb_x, cb_v)
    gp = gains_from_theta(theta, ctx)
    shifted_x = cb_x.codevectors + gp.log10_gx
    shifted_v = cb_v.codevectors + gp.log10_gv
    wins = _target_wins(shifted_x[:, :, None],          # (K_x, dim, K_v)
                        shifted_v.T[None, :, :])
    mask_x = wins.astype(np.float64)
    mask_v = (~wins).transpose(2, 1, 0).astype(np.float64, order="C")
    R, K_x, K_v = y_seq.shape[0], cb_x.K, cb_v.K
    flat = np.empty(R, dtype=np.intp)
    best = np.empty(R)
    # one block's squared terms for one codebook, the operand of one
    # product, take about as much memory as sq_dist's difference block
    for sl in _frame_blocks(R, max(shifted_x.nbytes, shifted_v.nbytes)):
        rows = y_seq[sl]
        cost = np.empty((len(rows), K_x, K_v))
        np.matmul((rows - shifted_x[:, None, :]) ** 2, mask_x,   # [i, r, j]
                  out=cost.transpose(1, 0, 2))
        cost += ((rows - shifted_v[:, None, :]) ** 2             # [j, r, i]
                 @ mask_v).transpose(1, 2, 0)
        flat[sl], best[sl] = _best_pairs(rows, cost.reshape(len(rows), -1),
                                         shifted_x, shifted_v, wins)
    idx_x, idx_v = np.divmod(flat, K_v)
    # a frame-order running total; np.sum and sum() may add in another order
    return idx_x, idx_v, -float(np.add.accumulate(best)[-1])
