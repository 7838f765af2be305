"""LBG codebook training over log-spectral vectors, and the gain-adapted
VQ decoder that matches each observed frame against all codevector pairs."""

from dataclasses import dataclass, field

import numpy as np

from .gain import gains_from_theta

VARIANCE_FLOOR = 1e-4
SPLIT_DELTA = 0.01
DEFAULT_REL_TOL = 1e-4


@dataclass
class Codebook:
    """K codevectors with per-cluster diagonal variances and occupancy
    counts (the variances and counts seed HMM initialization)."""

    codevectors: np.ndarray        # (K, dim)
    cluster_variances: np.ndarray  # (K, dim)
    occupancy: np.ndarray          # (K,)
    meta: dict = field(default_factory=dict)

    @property
    def K(self):
        return self.codevectors.shape[0]

    @property
    def dim(self):
        return self.codevectors.shape[1]


def _assign(vectors, codevectors):
    """Nearest-codevector index and per-vector squared distance."""
    # (N, K) distance table; N*K*dim stays small at desk scale
    d2 = ((vectors[:, None, :] - codevectors[None, :, :]) ** 2).sum(axis=2)
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
                big = int(np.argmax(counts))
                big_members = vectors[labels == big]
                far = np.argmax(
                    ((big_members - codevectors[big]) ** 2).sum(axis=1))
                new_cb[i] = big_members[far]
        codevectors = new_cb
        if prev < np.inf and prev > 0 and (prev - distortion) < rel_tol * prev:
            break
        prev = distortion
    labels, _ = _assign(vectors, codevectors)
    return codevectors, labels


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
    codevectors, labels = _lloyd(vectors, codevectors, max_iters, rel_tol,
                                 level_trace())
    while codevectors.shape[0] < K:
        codevectors = np.vstack([codevectors + SPLIT_DELTA,
                                 codevectors - SPLIT_DELTA])
        codevectors, labels = _lloyd(vectors, codevectors, max_iters, rel_tol,
                                     level_trace())

    variances = np.empty_like(codevectors)
    occupancy = np.zeros(K, dtype=np.int64)
    for i in range(K):
        members = vectors[labels == i]
        occupancy[i] = len(members)
        variances[i] = members.var(axis=0) if len(members) else VARIANCE_FLOOR
    variances = np.maximum(variances, VARIANCE_FLOOR)
    return Codebook(codevectors, variances, occupancy)


def _pair_cost_tables(cb_x, cb_v, gp):
    """(K, K, dim) gain-shifted max-combined codevector pairs."""
    shifted_x = cb_x.codevectors + gp.log10_gx
    shifted_v = cb_v.codevectors + gp.log10_gv
    return np.maximum(shifted_x[:, None, :], shifted_v[None, :, :])


def gvq_score(y_seq, cb_x, cb_v, theta, ctx):
    """Decode every frame independently and score the whole sequence.

    Each frame gets the codevector pair whose gain-shifted elementwise
    maximum is nearest in squared error; ties pick the smallest target
    index, then the smallest interference index.  Returns (idx_x, idx_v, Q)
    where Q is the negated total cost; Q <= 0, with equality only when
    every frame is exactly representable.
    """
    y_seq = np.asarray(y_seq, dtype=np.float64)
    if y_seq.ndim != 2 or y_seq.shape[0] == 0:
        raise ValueError("empty input")
    if cb_x.dim != y_seq.shape[1] or cb_v.dim != y_seq.shape[1]:
        raise ValueError("codebook dimension does not match frames")
    gp = gains_from_theta(theta, ctx)
    combined = _pair_cost_tables(cb_x, cb_v, gp)
    R = y_seq.shape[0]
    idx_x = np.empty(R, dtype=np.int64)
    idx_v = np.empty(R, dtype=np.int64)
    total = 0.0
    for r in range(R):
        cost = ((y_seq[r][None, None, :] - combined) ** 2).sum(axis=2)
        flat = int(np.argmin(cost))        # first occurrence: smallest (i, j)
        i, j = divmod(flat, cb_v.K)
        idx_x[r] = i
        idx_v[r] = j
        total += float(cost[i, j])
    return idx_x, idx_v, -total
