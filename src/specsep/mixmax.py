"""The max-combination observation model for log spectra: the check that
mixture frames fit a model pair, combining clean log-spectral frames under
gains, the per-bin dominance rule (the larger gain-shifted mean wins, ties
to the target), the frame-block size of the blocked kernels, the two
frame-against-table kernels (exact squared distances for LBG,
diagonal-Gaussian log-densities as one GEMM for the HMM tables and
Baum-Welch), and the joint emission log-likelihoods of mixture frames for
every state pair (log_b_table) or along fixed paths.  The VQ pair costs
(quantize.gvq_score) take their tie rule and frame blocks from here."""

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def _check_pair(y_seq, model_x, model_v):
    """y_seq as a float64 (R, dim) array, R >= 1, whose dim both models
    share; ValueError otherwise."""
    y_seq = np.asarray(y_seq, dtype=np.float64)
    if y_seq.ndim != 2 or y_seq.shape[0] == 0:
        raise ValueError("empty input")
    if model_x.dim != y_seq.shape[1] or model_v.dim != y_seq.shape[1]:
        raise ValueError("model dimension does not match frames")
    return y_seq


def mixmax_combine(x, v, gp):
    """Elementwise maximum of the two gain-shifted log spectra.

    Works on single frames, (R, dim) stacks of frames, or any shapes that
    broadcast against each other with the same number of bins.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape[-1] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape} vs {v.shape}")
    return dominant(x, v, gp)[1]


def dominant(mean_x, mean_v, gp):
    """Per-bin dominance of two gain-shifted means (broadcasting).

    Returns (target_wins, winning mean); exact ties go to the target, and
    a NaN mean makes the winning mean NaN.  Every production path that
    assigns a bin to a source uses this rule (_target_wins).
    """
    m_x = mean_x + gp.log10_gx
    m_v = mean_v + gp.log10_gv
    return _target_wins(m_x, m_v), np.maximum(m_x, m_v)


def _target_wins(m_x, m_v):
    """The tie rule on already gain-shifted means (broadcasting): the
    target wins a bin unless the interference is strictly larger."""
    return m_x >= m_v


def _dominant_gaussian(mean_x, var_x, mean_v, var_v, gp):
    """Per-bin winning gain-shifted mean and the winning source's
    variance (broadcasting)."""
    target_wins, m_max = dominant(mean_x, mean_v, gp)
    return m_max, np.where(target_wins, var_x, var_v)


def _frame_blocks(n_frames, frame_bytes):
    """Slices that cover n_frames frames in blocks whose temporaries stay
    near 256 KiB, given the bytes that one frame's temporaries take (at
    least one frame per block)."""
    # blocks that fit a per-core L2 cache: larger ones (a whole R x K x dim
    # broadcast) are bound by memory traffic, smaller ones by call overhead
    step = max(1, (1 << 18) // frame_bytes)
    return [slice(s, s + step) for s in range(0, n_frames, step)]


def sq_dist(frames, centers):
    """(R, K) squared distances of every (R, dim) frame to every (K, dim)
    center, summed over bins.

    This is the exact kernel for LBG: a frame equal to a center scores
    exactly 0, which an expanded square would not guarantee.  It scores a
    block of frames against all centers at a time (_frame_blocks).
    """
    out = np.empty((len(frames), len(centers)))
    for sl in _frame_blocks(len(frames), centers.nbytes):
        out[sl] = ((frames[sl, None, :] - centers) ** 2).sum(axis=-1)
    return out


def log_gauss_table(frames, means, var):
    """Diagonal-Gaussian natural-log densities of every frame under every
    (mean, var) center, as one matrix product.

    frames is (R, dim); means and var are (K, dim) or (K_x, K_v, dim), and
    the result is (R, K) or (R, K_x, K_v).  The square is expanded,
    sum (f - m)^2 / v = f^2 . (1/v) - 2 f . (m/v) + sum m^2 / v, so the
    frame operand [f^2 | f] meets the stacked center operand [1/v | -2m/v]
    in one GEMM, to which the per-center constant is added.  The values
    agree with the direct sum to within a few ulps of the terms'
    magnitudes, not bit for bit.
    """
    dim = means.shape[-1]
    w = np.empty(means.shape[:-1] + (2 * dim,))
    inv, cross = w[..., :dim], w[..., dim:]
    np.divide(1.0, var, out=inv)
    np.multiply(means, inv, out=cross)                      # m / v
    const = (np.einsum("...d,...d->...", means, cross)
             + np.log(var).sum(axis=-1) + dim * LOG_2PI)
    cross *= -2.0
    stacked_frames = np.concatenate([frames * frames, frames], axis=1)
    out = stacked_frames @ w.reshape(-1, 2 * dim).T
    out += const.reshape(-1)
    out *= -0.5
    return out.reshape(frames.shape[:1] + means.shape[:-1])


def log_b_table(y_seq, model_x, model_v, gp):
    """(R, K_x, K_v) emission log-likelihoods for each frame and state pair.

    The dominant-mean/variance choice per (j, k, d) depends only on the
    gains, so it is made once for all frames.
    """
    m_max, var_max = _dominant_gaussian(                      # (K, K, dim)
        model_x.means[:, None, :], model_x.vars[:, None, :],
        model_v.means[None, :, :], model_v.vars[None, :, :], gp)
    return log_gauss_table(y_seq, m_max, var_max)


def path_emission_loglik(y_seq, mean_x, var_x, mean_v, var_v, gp):
    """Sum over frames of the joint emission log-likelihood along fixed
    paths, given the per-frame state means and variances of each chain."""
    m_max, var_max = _dominant_gaussian(mean_x, var_x, mean_v, var_v, gp)
    # (y - m)^2 / v + log v + log 2 pi, in place: the theta search calls
    # this many times per window, and a fresh array per step costs more
    # than the arithmetic
    terms = y_seq - m_max
    terms **= 2
    terms /= var_max
    terms += np.log(var_max, out=var_max)
    terms += LOG_2PI
    return float(-0.5 * terms.sum())
