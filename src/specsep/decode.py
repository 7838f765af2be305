"""Joint inference over two hidden Markov chains: parallel Viterbi decoding
of the best state-pair path, a brute-force oracle, one-dimensional
maximization of the gain ratio theta, and the alternating decode/optimize
loop that the HMM- and VQ-based separators share, which maximizes one
path objective, the emission log-likelihood of each window along its
decoded paths, over theta for both model kinds."""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .gain import THETA_MAX_DB, THETA_MIN_DB, _check_theta, gains_from_theta
from .mixmax import _check_pair, log_b_table, path_emission_loglik
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


def _viterbi_from_table(b, log_pi_x, log_pi_v, log_a_x, log_a_v,
                        delta_trace=None):
    """Max-product decoding over the K_x*K_v product state space.

    The per-frame max over predecessor pairs (i, l) is taken in two
    stages, first over i for each (j, l), then over l for each (j, k),
    which costs O(K_x K_v (K_x + K_v)) per frame yet reproduces the naive
    O(K_x^2 K_v^2) double maximum bit for bit.  The forward pass keeps
    every frame's score table and no backpointers; the backtrace recomputes
    the two-stage argmax for the one (j, k) on the path, from the same
    sums, in O(K_x K_v) per frame.  Argmax ties resolve to the smallest
    index at each stage, and to the lexicographically smallest (j, k) at
    termination.  delta_trace, when a list, collects a copy of every
    per-frame score table for equivalence testing.
    """
    R, K_x, K_v = b.shape
    deltas = np.empty((R, K_x, K_v))
    deltas[0] = log_pi_x[:, None] + log_pi_v[None, :] + b[0]
    for r in range(1, R):
        t1 = (deltas[r - 1][:, None, :] + log_a_x[:, :, None]).max(axis=0)
        t2 = (t1[:, :, None] + log_a_v[None, :, :]).max(axis=1)
        np.add(t2, b[r], out=deltas[r])
    if delta_trace is not None:
        delta_trace.extend(d.copy() for d in deltas)

    flat = int(np.argmax(deltas[-1]))     # first occurrence: smallest (j, k)
    j, k = divmod(flat, K_v)
    logprob = float(deltas[-1, j, k])
    path_x = np.empty(R, dtype=np.int64)
    path_v = np.empty(R, dtype=np.int64)
    path_x[R - 1], path_v[R - 1] = j, k
    cols = np.arange(K_v)
    for r in range(R - 1, 0, -1):
        tmp = deltas[r - 1] + log_a_x[:, j, None]            # (i, l)
        i_star = tmp.argmax(axis=0)                          # (l,)
        prev_v = int((tmp[i_star, cols] + log_a_v[:, k]).argmax())
        j, k = int(i_star[prev_v]), prev_v
        path_x[r - 1], path_v[r - 1] = j, k
    return path_x, path_v, logprob


def parallel_viterbi(y_seq, lambda_x, lambda_v, theta, ctx):
    """Best joint state-pair path for a known theta: gfhmm_infer with no
    outer rounds, so one Viterbi pass over the whole sequence.

    theta must be finite and lie in [THETA_MIN_DB, THETA_MAX_DB], else
    ValueError.  Returns a DecodeResult whose theta_hat echoes the input,
    whose logprob is the exact maximum of the joint path likelihood, and
    whose iterations is 0, as for every zero-round decode.
    """
    _check_theta(theta, "theta")
    return gfhmm_infer(y_seq, lambda_x, lambda_v, ctx, theta0=theta,
                       max_outer=0)


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


def _path_objective(y_seq, path_x, path_v, prototypes, ctx):
    """The path objective theta -> emission log-likelihood of y_seq along
    fixed state paths (mixmax.path_emission_loglik), given each chain's
    per-state prototypes ((mean_x, var_x), (mean_v, var_v))."""
    (mean_x, var_x), (mean_v, var_v) = prototypes
    args = (y_seq, mean_x[path_x], var_x[path_x], mean_v[path_v],
            var_v[path_v])
    return lambda t: path_emission_loglik(*args, gains_from_theta(t, ctx))


def _alternate(decode, prototypes, y_seq, ctx, theta0, outer_tol, max_outer,
               mega_frames):
    """The alternating decode/estimate loop shared by both model kinds.

    decode(chunks, thetas) returns (path_x, path_v, score) for one theta
    per chunk; prototypes holds each chain's per-state means and variances,
    ((mean_x, var_x), (mean_v, var_v)).  Each round decodes at the current
    thetas, then maximizes each chunk's path objective (_path_objective)
    over theta, never moving to a worse theta, until no theta moves by
    outer_tol or max_outer rounds have run.  A final decode makes the paths
    and score match the returned thetas; with max_outer=0 that is the only
    decode, at theta0.  A non-finite theta0 raises ValueError before any
    decode, and a finite one is clamped into [THETA_MIN_DB, THETA_MAX_DB].
    A non-finite decoder score raises NumericError.
    """
    if not np.isfinite(float(theta0)):
        raise ValueError(f"theta0 {theta0} dB is not a finite number")
    chunks = list(mega_frames) if mega_frames else [slice(0, len(y_seq))]
    interval = (THETA_MIN_DB, THETA_MAX_DB)
    thetas = [min(max(float(theta0), THETA_MIN_DB), THETA_MAX_DB)
              for _ in chunks]

    trace = []

    def decode_checked(thetas):
        # overflow drives scores towards -inf, or to NaN where the emission
        # GEMM meets inf - inf; a non-finite score raises below
        with np.errstate(over="ignore", invalid="ignore"):
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
            chunk_obj = _path_objective(y_seq[sl], path_x[sl], path_v[sl],
                                        prototypes, ctx)
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
    maximization of the path-conditioned likelihood over theta (the state
    means and variances along the decoded paths), until the
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

    prototypes = tuple((m.means, m.vars) for m in (lambda_x, lambda_v))
    return _alternate(decode, prototypes, y_seq, ctx, theta0, outer_tol,
                      max_outer, mega_frames)


def gvq_infer(y_seq, cb_x, cb_v, ctx, theta0=0.0, outer_tol=OUTER_TOL_DB,
              max_outer=MAX_OUTER_ITERS, mega_frames=None):
    """VQ counterpart of gfhmm_infer.

    The decode step picks the best codevector pair per frame (gvq_score,
    which also checks the frames against the codebooks); the theta step
    maximizes the path objective along the picked pairs with the
    codevectors as means and unit variances.  That objective is
    -0.5 * (cost + const), the negated total squared-error cost up to a
    positive scale and a constant, so its argmax over theta is the cost's.
    """
    y_seq = np.asarray(y_seq, dtype=np.float64)
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

    prototypes = tuple((cb.codevectors, np.ones_like(cb.codevectors))
                       for cb in (cb_x, cb_v))
    return _alternate(decode, prototypes, y_seq, ctx, theta0, outer_tol,
                      max_outer, mega_frames)
