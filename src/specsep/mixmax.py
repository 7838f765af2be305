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


def log_b_table(y_seq, model_x, model_v, gp):
    """(R, K, K) emission log-likelihoods for every frame and state pair.

    The dominant-mean/variance choice per (j, k, d) depends only on the
    gains, so it is precomputed once and reused across frames.
    """
    y_seq = np.asarray(y_seq, dtype=np.float64)
    target_wins, m_max = dominant(model_x.means[:, None, :],  # (K, K, dim)
                                  model_v.means[None, :, :], gp)
    var_max = np.where(target_wins, model_x.vars[:, None, :],
                       model_v.vars[None, :, :])
    inv_var = 1.0 / var_max
    const = -0.5 * (np.log(var_max) + LOG_2PI).sum(axis=2)  # (K, K)

    R = y_seq.shape[0]
    K_x, K_v = model_x.means.shape[0], model_v.means.shape[0]
    table = np.empty((R, K_x, K_v))
    for r in range(R):
        diff = y_seq[r][None, None, :] - m_max
        table[r] = -0.5 * (diff ** 2 * inv_var).sum(axis=2) + const
    return table


def path_emission_loglik(y_seq, mean_x, var_x, mean_v, var_v, gp):
    """Sum over frames of the joint emission log-likelihood along fixed
    paths, given the per-frame state means and variances of each chain."""
    target_wins, m_max = dominant(mean_x, mean_v, gp)
    var_max = np.where(target_wins, var_x, var_v)
    terms = (y_seq - m_max) ** 2 / var_max + np.log(var_max) + LOG_2PI
    return float(-0.5 * terms.sum())
