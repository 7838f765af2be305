"""The max-combination observation model for log spectra: combining clean
log-spectral frames under gains, the per-bin dominance rule (the larger
gain-shifted mean wins, ties to the target), and the joint emission
likelihood of a mixture frame given one state from each speaker model."""

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def mixmax_combine(x, v, gp):
    """Elementwise maximum of the two gain-shifted log spectra.

    Works on single frames, (R, dim) stacks of frames, or any shapes that
    broadcast against each other with the same number of bins.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape[-1] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape} vs {v.shape}")
    return np.maximum(x + gp.log10_gx, v + gp.log10_gv)


def dominant(mean_x, mean_v, gp):
    """Per-bin dominance of two gain-shifted means (broadcasting).

    Returns (target_wins, winning mean); exact ties go to the target.
    Every production path that assigns a bin to a source uses this rule.
    """
    m_x = mean_x + gp.log10_gx
    m_v = mean_v + gp.log10_gv
    target_wins = m_x >= m_v
    return target_wins, np.where(target_wins, m_x, m_v)


def log_b_jk(y, state_x, state_v, gp):
    """Joint emission log-likelihood of mixture frame y for one state pair.

    Per bin, the larger gain-shifted state mean wins and contributes its
    own variance; the observation is scored against that dominant Gaussian.
    Exact ties go to the target state.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != state_x.mean.shape or y.shape != state_v.mean.shape:
        raise ValueError("dimension mismatch between frame and state means")
    if np.any(state_x.var <= 0.0) or np.any(state_v.var <= 0.0):
        raise ValueError("non-positive variance")
    m_x = state_x.mean + gp.log10_gx
    m_v = state_v.mean + gp.log10_gv
    target_wins = m_x >= m_v
    m_max = np.where(target_wins, m_x, m_v)
    var_max = np.where(target_wins, state_x.var, state_v.var)
    terms = -0.5 * ((y - m_max) ** 2 / var_max + np.log(var_max) + LOG_2PI)
    return float(terms.sum())


def sq_dist(frames, centers, var=None):
    """Squared distances of every frame to every center, summed over bins.

    frames is (R, dim); centers is (K, dim) or (K_x, K_v, dim), and var,
    when given, has the shape of centers and divides each squared
    difference.  Returns (R, K) or (R, K_x, K_v).  This is the one
    frame-against-prototype-table kernel.  It scores a block of frames
    against the whole table at a time, with blocks sized so that the
    temporaries stay near 256 KiB (at least one frame per block).
    """
    rows = np.expand_dims(frames, tuple(range(1, centers.ndim)))
    out = np.empty(rows.shape[:1] + centers.shape[:-1])
    # blocks that fit a per-core L2 cache: larger ones (a whole R x K x dim
    # broadcast) are bound by memory traffic, smaller ones by call overhead
    step = max(1, (1 << 18) // centers.nbytes)
    for s in range(0, len(rows), step):
        terms = (rows[s:s + step] - centers) ** 2
        if var is not None:
            terms /= var
        out[s:s + step] = terms.sum(axis=-1)
    return out


def log_gauss_table(frames, means, var):
    """Diagonal-Gaussian natural-log densities of every frame under every
    (mean, var) center; shapes as in sq_dist."""
    const = (np.log(var) + LOG_2PI).sum(axis=-1)
    return -0.5 * (sq_dist(frames, means, var) + const)


def log_b_table(y_seq, model_x, model_v, gp):
    """(R, K_x, K_v) emission log-likelihoods for each frame and state pair.

    The dominant-mean/variance choice per (j, k, d) depends only on the
    gains, so it is made once for all frames.
    """
    target_wins, m_max = dominant(model_x.means[:, None, :],  # (K, K, dim)
                                  model_v.means[None, :, :], gp)
    var_max = np.where(target_wins, model_x.vars[:, None, :],
                       model_v.vars[None, :, :])
    return log_gauss_table(y_seq, m_max, var_max)


def path_emission_loglik(y_seq, mean_x, var_x, mean_v, var_v, gp):
    """Sum over frames of the joint emission log-likelihood along fixed
    paths, given the per-frame state means and variances of each chain."""
    target_wins, m_max = dominant(mean_x, mean_v, gp)
    var_max = np.where(target_wins, var_x, var_v)
    terms = (y_seq - m_max) ** 2 / var_max + np.log(var_max) + LOG_2PI
    return float(-0.5 * terms.sum())
