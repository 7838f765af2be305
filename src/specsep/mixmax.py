"""The max-combination observation model for log spectra: combining clean
log-spectral frames under gains, the per-bin dominance rule (the larger
gain-shifted mean wins, ties to the target), the Gaussian kernel
(diagonal-Gaussian log-densities of frames against a table of centers as
one GEMM, for the HMM tables and Baum-Welch), and the joint emission
log-likelihoods of mixture frames for every state pair (log_b_table) or
along fixed paths.  The VQ pair costs
(quantize.gvq_score) score frames against the pair maxima of
mixmax_combine with quantize's nearest-center search."""

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def mixmax_combine(x, v, gp):
    """Elementwise maximum of the two gain-shifted log spectra.

    Works on single frames, (R, dim) stacks of frames, or any shapes that
    broadcast against each other with the same number of bins.  The
    values are dominant's winning means, NaN included, without its
    target-wins comparison.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape[-1] != v.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape} vs {v.shape}")
    return np.maximum(x + gp.log10_gx, v + gp.log10_gv)


def dominant(mean_x, mean_v, gp):
    """Per-bin dominance of two gain-shifted means (broadcasting).

    Returns (target_wins, winning mean); exact ties go to the target, which
    wins a bin unless the interference is strictly larger, and a NaN mean
    makes the winning mean NaN.  Every production path that assigns a bin
    to a source uses this rule.
    """
    m_x = mean_x + gp.log10_gx
    m_v = mean_v + gp.log10_gv
    return m_x >= m_v, np.maximum(m_x, m_v)


def _dominant_gaussian(mean_x, var_x, mean_v, var_v, gp):
    """Per-bin winning gain-shifted mean and the winning source's
    variance (broadcasting)."""
    target_wins, m_max = dominant(mean_x, mean_v, gp)
    return m_max, np.where(target_wins, var_x, var_v)


def _table(out, shape):
    """out, or a fresh float64 table of the given shape when out is None.

    A given out must have that shape, hold float64 and have contiguous
    rows (out[r] C-contiguous), so that its (R, -1) reshape is a view and
    a matrix product lands in it; anything else raises ValueError rather
    than fill a copy.
    """
    if out is None:
        return np.empty(shape)
    if (out.shape != shape or out.dtype != np.float64
            or not out[:1].flags.c_contiguous):
        raise ValueError(f"out must be a float64 array of shape {shape} "
                         f"with contiguous rows, got {out.dtype} {out.shape}")
    return out


def log_gauss_table(frames, means, var, out=None):
    """Diagonal-Gaussian natural-log densities of every frame under every
    (mean, var) center, as one matrix product.

    frames is (R, dim); means and var are (K, dim) or (K_x, K_v, dim), and
    the result is (R, K) or (R, K_x, K_v), written into out when given
    (_table).  The square is expanded,
    sum (f - m)^2 / v = f^2 . (1/v) - 2 f . (m/v) + sum m^2 / v, so the
    frame operand [f^2 | f] (_frame_operand) meets the stacked center
    operand [1/v | -2m/v] in one GEMM (_log_gauss_product), to which the
    per-center constant is added.  The values agree with the direct sum
    to within a few ulps of the terms' magnitudes, not bit for bit.
    """
    return _log_gauss_product(_frame_operand(frames), means, var, out)


def _frame_operand(frames):
    """The (R, 2 dim) frame operand [f^2 | f] of log_gauss_table, built in
    one buffer with no other temporary."""
    dim = frames.shape[1]
    lhs = np.empty((len(frames), 2 * dim), frames.dtype)
    np.multiply(frames, frames, out=lhs[:, :dim])
    lhs[:, dim:] = frames
    return lhs


def _log_gauss_product(lhs, means, var, out):
    """log_gauss_table from its frame operand lhs (_frame_operand), so
    that one operand serves several blocks of centers."""
    dim = means.shape[-1]
    w = np.empty(means.shape[:-1] + (2 * dim,))
    inv, cross = w[..., :dim], w[..., dim:]
    np.divide(1.0, var, out=inv)
    np.multiply(means, inv, out=cross)                      # m / v
    const = (np.einsum("...d,...d->...", means, cross)
             + np.log(var).sum(axis=-1) + dim * LOG_2PI)
    cross *= -2.0
    centers = w.reshape(-1, 2 * dim)
    out = _table(out, lhs.shape[:1] + means.shape[:-1])
    flat = out.reshape(len(lhs), len(centers))
    np.matmul(lhs, centers.T, out=flat)
    flat += const.reshape(-1)
    flat *= -0.5
    return out


# log_b_table's blocks of target states: the largest power-of-two number of
# blocks whose stacked center operands take at least 1 MiB each, so 8
# states at K_v=64 and 129 bins and the whole table at K <= 16.  Blocks of
# 256 KiB were slower at K=64
_CENTER_BLOCK_BYTES = 1 << 20


def log_b_table(y_seq, model_x, model_v, gp, out=None):
    """(R, K_x, K_v) emission log-likelihoods for each frame and state pair,
    written into out when given (_table) and returned.

    The dominant-mean/variance choice per (j, k, d) depends only on the
    gains, so it is made once for all frames.  The table is scored in
    blocks of target states (_CENTER_BLOCK_BYTES), each block's GEMM
    written straight into its columns of the table, so no K_x x K_v x dim
    temporary is held; the frame operand is built once per call, for
    every block.  With power-of-two K_x and K_v, as training gives,
    every block spans a power-of-two number of columns (512 or more at 129
    bins), and under OpenBLAS each value is then the one a single
    whole-table log_gauss_table gives, bit for bit, but for a product of
    2 frames, which OpenBLAS's small-matrix kernel for AVX-512 rounds
    otherwise.
    """
    K_x, K_v = model_x.K, model_v.K
    out = _table(out, (len(y_seq), K_x, K_v))
    n_blocks = K_x * K_v * 16 * y_seq.shape[1] // _CENTER_BLOCK_BYTES
    step = -(-K_x // (1 << max(0, n_blocks.bit_length() - 1)))
    lhs = _frame_operand(y_seq)
    for j in range(0, K_x, step):
        m_max, var_max = _dominant_gaussian(
            model_x.means[j:j + step, None, :],
            model_x.vars[j:j + step, None, :],
            model_v.means[None, :, :], model_v.vars[None, :, :], gp)
        _log_gauss_product(lhs, m_max, var_max, out[:, j:j + step])
    return out


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
