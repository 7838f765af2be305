"""Joint inference over two hidden Markov chains: parallel Viterbi decoding
of the best state-pair path, a brute-force oracle, one-dimensional
maximization of the gain ratio theta, and the alternating decode/optimize
loop that the HMM- and VQ-based separators share, which maximizes each
window's path-conditioned objective over theta."""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .gain import THETA_MAX_DB, THETA_MIN_DB, gains_from_theta
from .mixmax import log_b_table, mixmax_combine, path_emission_loglik
from .quantize import gvq_score

OUTER_TOL_DB = 0.25
MAX_OUTER_ITERS = 10
THETA_STEP_TOL_DB = 0.1
MAX_THETA_EVALS = 20

GOLDEN = 0.3819660112501051  # 2 - golden ratio


class NumericError(RuntimeError):
    """A numeric computation produced a non-finite value."""


@dataclass
class DecodeResult:
    """Decoded state/codevector index paths with their score.

    logprob is the joint path log-likelihood P(theta) for HMM decoding, or
    the negated total cost Q(theta) for VQ decoding.  theta_per_chunk has
    one entry per mega-frame; theta_hat is the single estimate when there
    is one chunk, otherwise the frame-weighted mean.
    """

    path_x: np.ndarray
    path_v: np.ndarray
    logprob: float
    theta_hat: float
    iterations: int
    theta_per_chunk: tuple = ()
    objective_trace: list = field(default_factory=list)


def mega_frame_slices(n_frames, frames_per_chunk):
    """Split R frames into mega-frames of roughly frames_per_chunk.

    Sequences shorter than two chunks stay whole; otherwise the final
    chunk absorbs the remainder so no chunk is shorter than
    frames_per_chunk.
    """
    if frames_per_chunk is None or n_frames < 2 * frames_per_chunk:
        return [slice(0, n_frames)]
    n_chunks = n_frames // frames_per_chunk
    bounds = [c * frames_per_chunk for c in range(n_chunks)] + [n_frames]
    return [slice(bounds[c], bounds[c + 1]) for c in range(n_chunks)]


def _check_pair(y_seq, lambda_x, lambda_v):
    y_seq = np.asarray(y_seq, dtype=np.float64)
    if y_seq.ndim != 2 or y_seq.shape[0] == 0:
        raise ValueError("empty input")
    if lambda_x.dim != y_seq.shape[1] or lambda_v.dim != y_seq.shape[1]:
        raise ValueError("model dimension does not match frames")
    return y_seq


def _viterbi_from_table(b, log_pi_x, log_pi_v, log_a_x, log_a_v,
                        delta_trace=None):
    """Max-product decoding over the K_x*K_v product state space.

    The per-frame max over predecessor pairs (i, l) is taken in two
    stages, first over i for each (j, l), then over l for each (j, k),
    which costs O(K_x K_v (K_x + K_v)) per frame yet reproduces the naive
    O(K_x^2 K_v^2) double maximum bit for bit.  Argmax ties resolve to the
    smallest index at each stage, and to the lexicographically smallest
    (j, k) at termination.  delta_trace, when a list, collects a copy of every
    per-frame score table for equivalence testing.
    """
    R, K_x, K_v = b.shape
    delta = log_pi_x[:, None] + log_pi_v[None, :] + b[0]
    if delta_trace is not None:
        delta_trace.append(delta.copy())
    psi_i = np.zeros((R, K_x, K_v), dtype=np.int32)
    psi_l = np.zeros((R, K_x, K_v), dtype=np.int32)
    for r in range(1, R):
        tmp = delta[:, None, :] + log_a_x[:, :, None]        # (i, j, l)
        i_star = tmp.argmax(axis=0)                          # (j, l)
        t1 = np.take_along_axis(tmp, i_star[None, :, :], axis=0)[0]
        tmp2 = t1[:, :, None] + log_a_v[None, :, :]          # (j, l, k)
        l_star = tmp2.argmax(axis=1)                         # (j, k)
        t2 = np.take_along_axis(tmp2, l_star[:, None, :], axis=1)[:, 0, :]
        delta = t2 + b[r]
        if delta_trace is not None:
            delta_trace.append(delta.copy())
        psi_l[r] = l_star
        psi_i[r] = np.take_along_axis(i_star, l_star, axis=1)

    flat = int(np.argmax(delta))          # first occurrence: smallest (j, k)
    j, k = divmod(flat, K_v)
    logprob = float(delta[j, k])
    path_x = np.empty(R, dtype=np.int64)
    path_v = np.empty(R, dtype=np.int64)
    path_x[R - 1], path_v[R - 1] = j, k
    for r in range(R - 1, 0, -1):
        j, k = psi_i[r, j, k], psi_l[r, j, k]
        path_x[r - 1], path_v[r - 1] = j, k
    return path_x, path_v, logprob


def parallel_viterbi(y_seq, lambda_x, lambda_v, theta, ctx):
    """Best joint state-pair path for a known theta.

    Returns a DecodeResult whose theta_hat echoes the input and whose
    logprob is the exact maximum of the joint path likelihood.
    """
    y_seq = _check_pair(y_seq, lambda_x, lambda_v)
    gp = gains_from_theta(theta, ctx)
    b = log_b_table(y_seq, lambda_x, lambda_v, gp)
    path_x, path_v, logprob = _viterbi_from_table(
        b, lambda_x.pi, lambda_v.pi, lambda_x.trans, lambda_v.trans)
    return DecodeResult(path_x, path_v, logprob, theta_hat=float(theta),
                        iterations=1, theta_per_chunk=(float(theta),),
                        objective_trace=[logprob])


def brute_force_decode(y_seq, lambda_x, lambda_v, theta, ctx,
                       max_instances=10_000_000):
    """Exhaustive oracle over every joint path pair.

    Intended for tests on tiny instances; refuses anything with more than
    max_instances path pairs.  Ties resolve to the lexicographically
    smallest (path_x, path_v).
    """
    y_seq = _check_pair(y_seq, lambda_x, lambda_v)
    R = y_seq.shape[0]
    if float(lambda_x.K * lambda_v.K) ** R > max_instances:
        raise ValueError(
            f"instance too large for brute force: K_x={lambda_x.K}, "
            f"K_v={lambda_v.K}, R={R}")
    gp = gains_from_theta(theta, ctx)
    b = log_b_table(y_seq, lambda_x, lambda_v, gp)

    def chain(model):
        """Every path of one chain (lexicographic) and its prior score."""
        paths = np.array(list(itertools.product(range(model.K), repeat=R)),
                         dtype=np.int64)
        s = model.pi[paths[:, 0]].copy()
        for r in range(1, R):
            s += model.trans[paths[:, r - 1], paths[:, r]]
        return paths, s

    paths_x, score_x = chain(lambda_x)
    paths_v, score_v = chain(lambda_v)
    score = score_x[:, None] + score_v[None, :]
    for r in range(R):
        score += b[r][paths_x[:, r][:, None], paths_v[:, r][None, :]]
    flat = int(np.argmax(score))
    p, q = divmod(flat, paths_v.shape[0])
    return DecodeResult(paths_x[p].copy(), paths_v[q].copy(),
                        float(score[p, q]), theta_hat=float(theta),
                        iterations=1, theta_per_chunk=(float(theta),))


def _parabola_vertex(a, b, c, fa, fb, fc):
    """Vertex of the parabola through three points, or None when the fit
    is degenerate (collinear) or does not open downward."""
    s_left = (fb - fa) / (b - a)
    s_right = (fc - fb) / (c - b)
    if not (s_right < s_left):          # needs strictly concave fit
        return None
    num = (b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)
    den = (b - a) * (fb - fc) - (b - c) * (fb - fa)
    if den == 0.0:
        return None
    return b - 0.5 * num / den


def maximize_theta(objective, interval, tol=THETA_STEP_TOL_DB,
                   max_evals=MAX_THETA_EVALS):
    """Maximize a scalar objective over an interval.

    Successive parabolic interpolation seeded at the endpoints and
    midpoint: fit a parabola through the best evaluated point and its
    bracketing neighbors, jump to the vertex (clamped to the interval),
    and re-evaluate.  When the fit degenerates (non-concave or collinear),
    escapes the bracket, or lands on an already-evaluated point, a
    golden-section step subdivides the wider flank instead.  Stops once
    both neighbors pin the best point within tol (no further step of at
    least tol is possible) or after max_evals evaluations.  Returns
    (argmax, value) over everything evaluated.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("degenerate interval")

    points = {}

    def evaluate(x):
        val = float(objective(x))
        if not np.isfinite(val):
            raise NumericError(f"objective returned non-finite value at {x}")
        points[x] = val
        return val

    for x in (lo, 0.5 * (lo + hi), hi):
        evaluate(x)

    span = hi - lo
    while len(points) < max_evals:
        xs = sorted(points)
        fs = [points[x] for x in xs]
        i_best = int(np.argmax(fs))
        x_best = xs[i_best]
        left = xs[i_best - 1] if i_best > 0 else lo
        right = xs[i_best + 1] if i_best < len(xs) - 1 else hi
        if max(x_best - left, right - x_best) < tol:
            break                        # estimate pinned within tol

        # triple around the best point; shift inward at the boundary
        i0 = min(max(i_best - 1, 0), len(xs) - 3)
        a, b, c = xs[i0], xs[i0 + 1], xs[i0 + 2]
        u = _parabola_vertex(a, b, c, points[a], points[b], points[c])
        if u is not None:
            u = min(max(u, lo), hi)
            if not (left < u < right) and lo < left and right < hi:
                u = None                 # escaped a proper interior bracket
        if u is None or any(abs(u - x) < 1e-12 * span for x in xs):
            # golden-section step into the wider flank of the best point
            if x_best - left >= right - x_best:
                u = x_best - GOLDEN * (x_best - left)
            else:
                u = x_best + GOLDEN * (right - x_best)
            if any(abs(u - x) < 1e-12 * span for x in xs):
                break                    # bracket exhausted
        evaluate(u)

    x_star = max(points, key=points.get)
    return x_star, points[x_star]


def _alternate(decode, objective, R, theta0, outer_tol, max_outer,
               mega_frames):
    """The alternating decode/estimate loop shared by both model kinds.

    decode(chunks, thetas) returns (path_x, path_v, score) for one theta
    per chunk; objective(sl, path_x, path_v) returns the chunk's
    path-conditioned objective t -> value.  Each round decodes at the
    current thetas, then maximizes each chunk's objective over theta, never
    moving to a worse theta, until no theta moves by outer_tol or max_outer
    rounds have run.  A final decode makes the paths and score match the
    returned thetas; with max_outer=0 that is the only decode, at theta0.
    A non-finite decoder score raises NumericError.
    """
    chunks = list(mega_frames) if mega_frames else [slice(0, R)]
    interval = (THETA_MIN_DB, THETA_MAX_DB)
    thetas = [min(max(float(theta0), THETA_MIN_DB), THETA_MAX_DB)
              for _ in chunks]

    trace = []

    def decode_checked(thetas):
        # overflow only drives scores towards -inf; a non-finite score
        # raises below
        with np.errstate(over="ignore"):
            path_x, path_v, score = decode(chunks, thetas)
        if not np.isfinite(score):
            raise NumericError(
                f"non-finite decoder score {score} at theta {thetas} dB")
        trace.append(score)
        return path_x, path_v, score

    iterations = 0
    converged = False
    while iterations < max_outer and not converged:
        iterations += 1
        path_x, path_v, score = decode_checked(thetas)

        new_thetas = []
        for sl, th in zip(chunks, thetas):
            chunk_obj = objective(sl, path_x, path_v)
            th_new, val_new = maximize_theta(chunk_obj, interval)
            if chunk_obj(th) > val_new:
                th_new = th              # never move to a worse theta
            new_thetas.append(th_new)
        converged = max(abs(new - old)
                        for new, old in zip(new_thetas, thetas)) < outer_tol
        thetas = new_thetas

    path_x, path_v, score = decode_checked(thetas)
    if iterations and len(chunks) > 1:
        weights = np.array([sl.stop - sl.start for sl in chunks], dtype=float)
        theta_hat = float(np.average(thetas, weights=weights))
    else:
        theta_hat = thetas[0]            # one window, or all hold theta0
    return DecodeResult(path_x, path_v, score, theta_hat=theta_hat,
                        iterations=iterations,
                        theta_per_chunk=tuple(thetas),
                        objective_trace=trace)


def gfhmm_infer(y_seq, lambda_x, lambda_v, ctx, theta0=0.0,
                outer_tol=OUTER_TOL_DB, max_outer=MAX_OUTER_ITERS,
                mega_frames=None):
    """Alternating joint decoding and gain-ratio estimation.

    Repeats (a) parallel Viterbi at the current theta and (b) parabolic
    maximization of the path-conditioned likelihood over theta, until the
    theta update falls below outer_tol or max_outer rounds have run.  The
    decoded objective is non-decreasing across rounds because each half
    step maximizes with the other argument held fixed.

    mega_frames, when given, is a list of frame slices; theta is estimated
    independently per slice while the Viterbi pass always spans the full
    sequence.
    """
    y_seq = _check_pair(y_seq, lambda_x, lambda_v)
    R = y_seq.shape[0]

    def decode(chunks, thetas):
        b = np.empty((R, lambda_x.K, lambda_v.K))
        for sl, th in zip(chunks, thetas):
            b[sl] = log_b_table(y_seq[sl], lambda_x, lambda_v,
                                gains_from_theta(th, ctx))
        return _viterbi_from_table(b, lambda_x.pi, lambda_v.pi,
                                   lambda_x.trans, lambda_v.trans)

    def objective(sl, path_x, path_v):
        mu_x, var_x = lambda_x.means[path_x[sl]], lambda_x.vars[path_x[sl]]
        mu_v, var_v = lambda_v.means[path_v[sl]], lambda_v.vars[path_v[sl]]
        return lambda t: path_emission_loglik(
            y_seq[sl], mu_x, var_x, mu_v, var_v, gains_from_theta(t, ctx))

    return _alternate(decode, objective, R, theta0, outer_tol, max_outer,
                      mega_frames)


def gvq_infer(y_seq, cb_x, cb_v, ctx, theta0=0.0, outer_tol=OUTER_TOL_DB,
              max_outer=MAX_OUTER_ITERS, mega_frames=None):
    """VQ counterpart of gfhmm_infer.

    The decode step picks the best codevector pair per frame; the theta
    step maximizes the negated total cost with the picked pairs fixed.
    """
    y_seq = _check_pair(y_seq, cb_x, cb_v)
    R = y_seq.shape[0]

    def decode(chunks, thetas):
        idx_x = np.empty(R, dtype=np.int64)
        idx_v = np.empty(R, dtype=np.int64)
        q = 0.0
        for sl, th in zip(chunks, thetas):
            idx_x[sl], idx_v[sl], q_chunk = gvq_score(y_seq[sl], cb_x, cb_v,
                                                      th, ctx)
            q += q_chunk
        return idx_x, idx_v, q

    def objective(sl, idx_x, idx_v):
        cx = cb_x.codevectors[idx_x[sl]]
        cv = cb_v.codevectors[idx_v[sl]]
        return lambda t: -float(((y_seq[sl] - mixmax_combine(
            cx, cv, gains_from_theta(t, ctx))) ** 2).sum())

    return _alternate(decode, objective, R, theta0, outer_tol, max_outer,
                      mega_frames)
