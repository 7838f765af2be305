"""Joint inference over two hidden Markov chains: parallel Viterbi decoding
of the best state-pair path, a brute-force oracle, one-dimensional
maximization of the gain ratio theta, and the alternating decode/optimize
loop that the HMM- and VQ-based separators share, which maximizes one
path objective, the emission log-likelihood of each window along its
decoded paths, over theta for both model kinds and ends with the binary
target mask that those paths and thetas give."""

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .gain import THETA_MAX_DB, THETA_MIN_DB, _check_theta, gains_from_theta
from .mixmax import dominant, log_b_table, path_emission_loglik
from .models import _check_fit
from .quantize import gvq_score
from .signal import _is_count, _is_real

OUTER_TOL_DB = 0.25
MAX_OUTER_ITERS = 10
THETA_STEP_TOL_DB = 0.1
MAX_THETA_EVALS = 20
BRUTE_FORCE_MAX_INSTANCES = 10_000_000

GOLDEN = 0.3819660112501051  # 2 - golden ratio

# the Viterbi forward pass runs on two threads from this many cells per
# frame, K_x K_v (K_x + K_v): below it the per-frame sync costs more than the
# second core saves (break-even near K_x = K_v = 50)
_SPLIT_MIN_CELLS = 2 ** 18


class NumericError(RuntimeError):
    """A numeric computation produced a non-finite value."""


@dataclass
class DecodeResult:
    """Decoded state/codevector index paths with their score and mask.

    logprob is the joint path log-likelihood P(theta) for HMM decoding, or
    the negated total cost Q(theta) for VQ decoding.  theta_per_chunk has
    one entry per mega-frame; theta_hat is the single estimate when there
    is one chunk, otherwise the frame-weighted mean.  mask_x is the
    (R, dim) uint8 target mask: 1 where the target's prototype along
    path_x dominates the interference's along path_v at the frame's
    window theta (_target_mask); the interference mask is 1 - mask_x.
    """

    path_x: np.ndarray
    path_v: np.ndarray
    logprob: float
    theta_hat: float
    iterations: int
    mask_x: np.ndarray
    theta_per_chunk: tuple = ()
    objective_trace: list = field(default_factory=list)


def mega_frame_slices(n_frames, frames_per_chunk):
    """Split R frames into mega-frames of roughly frames_per_chunk.

    Sequences shorter than two chunks stay whole, as do all sequences when
    frames_per_chunk is None; otherwise the final chunk absorbs the
    remainder so no chunk is shorter than frames_per_chunk.  A
    frames_per_chunk that is neither None nor a positive int raises
    ValueError.
    """
    if frames_per_chunk is not None and not _is_count(frames_per_chunk, 1):
        raise ValueError("frames_per_chunk must be None or a positive int, "
                         f"got {frames_per_chunk!r}")
    if frames_per_chunk is None or n_frames < 2 * frames_per_chunk:
        return [slice(0, n_frames)]
    n_chunks = n_frames // frames_per_chunk
    bounds = [c * frames_per_chunk for c in range(n_chunks)] + [n_frames]
    return [slice(bounds[c], bounds[c + 1]) for c in range(n_chunks)]


def _target_mask(proto_x, proto_v, chunks, thetas, ctx):
    """uint8 (R, dim) target mask from per-frame prototypes: within each
    chunk of frames, 1 wherever the target's gain-shifted prototype
    dominates the interference's at that chunk's theta (mixmax.dominant:
    ties go to the target)."""
    mask_x = np.empty(proto_x.shape, dtype=np.uint8)
    for sl, th in zip(chunks, thetas):
        mask_x[sl], _ = dominant(proto_x[sl], proto_v[sl],
                                 gains_from_theta(th, ctx))
    return mask_x


def _max_stage(scores, tile, cube=None, out=None):
    """max over a of scores[a, b] + tile[a, b, c], as a (b, c) table.

    The sum is built as a contiguous cube, scores repeated along c plus the
    contiguous tile, and reduced over its leading axis: numpy runs one
    long add and an elementwise max of whole rows, where a broadcast add
    would run one short inner loop per (a, b).  The cube is freed on
    return; given cube, a flat float64 buffer of at least tile.size, the
    sum is built in it instead, and the maximum goes to out when given.
    """
    if cube is None:
        cube = scores.repeat(tile.shape[2]).reshape(tile.shape)
    else:
        cube = cube[:tile.size].reshape(tile.shape)
        np.copyto(cube, scores[..., None])
    cube += tile
    return cube.max(axis=0, out=out)


def _usable_cpus():
    """The CPUs this process may run on, or the machine's count where the
    platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _forward_split(b, deltas, log_a_x, tile_v):
    """deltas[1:] from deltas[0] and b, as the one-thread loop in
    _viterbi_from_table computes them, on the calling thread and one
    helper thread.

    Thread p owns one half L_p of the interference states l, the columns
    of every score table.  Per frame it takes stage 1 over its own
    columns, then the partial stage-2 maximum over its own l,
    partial[p][j, k] = max over l in L_p of t1[l, j] + a_v[l, k], waits at
    the one barrier of the frame, and writes its columns of the next score
    table, max(partial[0], partial[1]) + b[r].  The partial tables
    alternate by frame parity, so neither thread writes one that the
    other may still read.  The sums are the one-thread loop's and a
    maximum is exact in any order, so every table is the same bit for bit.
    The caller allocates every buffer, so the helper allocates no array
    memory.  The helper is joined before return, and an error on either
    thread breaks the barrier and is raised here.
    """
    R, K_x, K_v = b.shape
    halves = (slice(0, K_v // 2), slice(K_v // 2, K_v))
    # one stage-1 tile (i, l, j) as wide as the wider half, of which each
    # thread reads a view of its own width
    tile_x = np.repeat(log_a_x[:, None, :], K_v - K_v // 2, axis=1)
    t1s = [np.empty((c.stop - c.start, K_x)) for c in halves]  # (l, j)
    cubes = np.empty((2, K_x * (K_v - K_v // 2) * max(K_x, K_v)))
    partial = np.empty((2, 2, K_x, K_v))      # [frame parity, thread]
    barrier = threading.Barrier(2)

    def columns(p):
        cols, t1 = halves[p], t1s[p]
        tile = tile_x[:, :len(t1)]
        try:
            for r in range(1, R):
                part = partial[r % 2]
                _max_stage(deltas[r - 1][:, cols], tile, cubes[p], t1)
                _max_stage(t1, tile_v[cols], cubes[p], part[p])
                barrier.wait()
                mine = part[p][:, cols]
                np.maximum(mine, part[1 - p][:, cols], out=mine)
                np.add(mine, b[r][:, cols], out=deltas[r][:, cols])
        except BaseException:
            barrier.abort()
            raise

    # numpy's error state lives in a context variable: the helper runs in a
    # copy of the caller's context, so np.errstate covers both threads
    with ThreadPoolExecutor(1, thread_name_prefix="specsep-viterbi") as pool:
        helper = pool.submit(contextvars.copy_context().run, columns, 1)
        try:
            columns(0)
        except threading.BrokenBarrierError:
            helper.result()              # the helper's error broke it
            raise
    helper.result()


def _emissions(y_seq, lambda_x, lambda_v, chunks, thetas, ctx):
    """A fresh (R, K_x, K_v) emission table, each window's rows scored by
    log_b_table at that window's theta: the one way the HMM decoders get
    their emissions."""
    b = np.empty((len(y_seq), lambda_x.K, lambda_v.K))
    for sl, th in zip(chunks, thetas):
        log_b_table(y_seq[sl], lambda_x, lambda_v, gains_from_theta(th, ctx),
                    out=b[sl])
    return b


def _viterbi_from_table(b, log_pi_x, log_pi_v, log_a_x, log_a_v,
                        delta_trace=None, overwrite_b=False):
    """Max-product decoding over the K_x*K_v product state space.

    The per-frame max over predecessor pairs (i, l) is taken in two
    stages, first over i for each (l, j), then over l for each (j, k),
    which costs O(K_x K_v (K_x + K_v)) per frame yet reproduces the naive
    O(K_x^2 K_v^2) double maximum bit for bit: every score is the same
    sum (delta[i, l] + a_x[i, j]) + a_v[l, k], and a maximum is exact in
    any order.  Each stage (_max_stage) reduces a contiguous cube over its
    leading axis: (i, l, j) with the transitions tiled once per call as
    tile_x[i, l, j] = log_a_x[i, j], then (l, j, k) with
    tile_v[l, j, k] = log_a_v[l, k].  Besides the R x K_x x K_v score
    tables, a call holds the two tiles and one stage's cube with its
    repeated scores, about three K^3 float64 cubes (2 MB each at K=64).

    From _SPLIT_MIN_CELLS cells per frame, K_x K_v (K_x + K_v), the
    forward pass runs on the calling thread and one helper thread when
    two CPUs are usable and the caller is the process's only thread
    (_forward_split): each thread owns half of the interference states l,
    the columns of every score table, runs stage 1 on its columns and
    stage 2 over its own l, and the two partial stage-2 maxima meet at
    one barrier per frame.  The sums are the same, so the tables are bit
    for bit those of the one-thread pass, and the helper is joined before
    the call returns.

    The forward pass keeps every frame's score table and no backpointers;
    the backtrace recomputes the two-stage argmax for the one (j, k) on
    the path, from the same sums, in O(K_x K_v) per frame.  Argmax ties
    resolve to the smallest index at each stage, and to the
    lexicographically smallest (j, k) at termination.  delta_trace, when a
    list, collects a copy of every per-frame score table for equivalence
    testing.

    With overwrite_b, the score tables are written over b, so the call
    allocates no R x K_x x K_v table of its own and leaves the score
    tables in b: frame r reads b[r] and the score table in slot r - 1,
    then writes slot r, and the backtrace reads only score tables.  By
    default b is left as it was given.
    """
    R, K_x, K_v = b.shape
    deltas = b if overwrite_b else np.empty((R, K_x, K_v))
    deltas[0] = log_pi_x[:, None] + log_pi_v[None, :] + b[0]
    tile_v = np.repeat(log_a_v[:, None, :], K_x, axis=1)   # (l, j, k)
    # a second core only while no other thread may want it: beside a second
    # decode, splitting one of them made both slower
    if (R > 1 and K_v > 1 and K_x * K_v * (K_x + K_v) >= _SPLIT_MIN_CELLS
            and threading.active_count() == 1 and _usable_cpus() > 1):
        _forward_split(b, deltas, log_a_x, tile_v)
    else:
        tile_x = np.repeat(log_a_x[:, None, :], K_v, axis=1)   # (i, l, j)
        for r in range(1, R):
            t1 = _max_stage(deltas[r - 1], tile_x)              # (l, j)
            np.add(_max_stage(t1, tile_v), b[r], out=deltas[r])
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
    ValueError, and a model that fails its validate() raises
    ModelMismatchError, before any decode.  Returns a DecodeResult whose
    theta_hat echoes the input, whose logprob is the exact maximum of the
    joint path likelihood, and whose iterations is 0, as for every
    zero-round decode.
    """
    _check_theta(theta, "theta")
    return gfhmm_infer(y_seq, lambda_x, lambda_v, ctx, theta0=theta,
                       max_outer=0)


def brute_force_decode(y_seq, lambda_x, lambda_v, theta, ctx):
    """Exhaustive oracle over every joint path pair.

    Intended for tests on tiny instances; refuses anything with more than
    BRUTE_FORCE_MAX_INSTANCES path pairs.  Ties resolve to the
    lexicographically smallest (path_x, path_v).  Only the search over
    paths differs from parallel_viterbi's: the same emission table
    (_emissions) is searched, and the same zero-round loop (_alternate)
    checks the input (a theta outside [THETA_MIN_DB, THETA_MAX_DB] raises
    ValueError, a malformed model ModelMismatchError) and returns the mask
    along the paths and 0 iterations.
    """
    _check_theta(theta, "theta")

    def decode(y_seq, chunks, thetas):
        R = len(y_seq)
        if float(lambda_x.K * lambda_v.K) ** R > BRUTE_FORCE_MAX_INSTANCES:
            raise ValueError(
                f"instance too large for brute force: K_x={lambda_x.K}, "
                f"K_v={lambda_v.K}, R={R}")
        b = _emissions(y_seq, lambda_x, lambda_v, chunks, thetas, ctx)
        paths_x, score_x = _every_path(lambda_x, R)
        paths_v, score_v = _every_path(lambda_v, R)
        score = score_x[:, None] + score_v[None, :]
        for r in range(R):
            score += b[r][paths_x[:, r][:, None], paths_v[:, r][None, :]]
        p, q = divmod(int(np.argmax(score)), paths_v.shape[0])
        return paths_x[p].copy(), paths_v[q].copy(), float(score[p, q])

    return _alternate(decode, (lambda_x, lambda_v),
                      lambda m: (m.means, m.vars), y_seq, ctx, theta,
                      outer_tol=0.0, max_outer=0, frames_per_chunk=None)


def _every_path(model, R):
    """Every R-frame path of one chain, one per row in lexicographic order,
    and its prior score."""
    paths = np.indices((model.K,) * R).reshape(R, -1).T
    s = model.pi[paths[:, 0]].copy()
    for r in range(1, R):
        s += model.trans[paths[:, r - 1], paths[:, r]]
    return paths, s


def _parabola_vertex(a, b, c, fa, fb, fc):
    """Vertex of the parabola through three points, or None when the fit
    is degenerate (collinear), does not open downward, or overflows to a
    vertex that is not a finite number."""
    s_left = (fb - fa) / (b - a)
    s_right = (fc - fb) / (c - b)
    if not (s_right < s_left):          # needs strictly concave fit
        return None
    num = (b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)
    den = (b - a) * (fb - fc) - (b - c) * (fb - fa)
    if den == 0.0:
        return None
    u = b - 0.5 * num / den
    return u if np.isfinite(u) else None


def maximize_theta(objective, interval):
    """Maximize a scalar objective over an interval.

    Successive parabolic interpolation seeded at the endpoints and
    midpoint: fit a parabola through the best evaluated point and its
    bracketing neighbors, jump to the vertex (clamped to the interval),
    and re-evaluate.  When there is no usable fit (_parabola_vertex gives
    None) or the vertex lands on an already-evaluated point, a
    golden-section step subdivides the wider flank instead.  Stops once
    both neighbors pin the best point within THETA_STEP_TOL_DB (no further
    step of at least that is possible) or when the MAX_THETA_EVALS
    evaluations are spent.  Returns (argmax, value) over everything
    evaluated, the ends as given.  An interval that is empty or has an end
    that is not a finite number raises ValueError before any evaluation.
    """
    tol = THETA_STEP_TOL_DB
    lo, hi = interval
    if not (_is_real(lo) and _is_real(hi) and lo < hi):
        raise ValueError(f"degenerate interval ({lo}, {hi}): the ends must "
                         "be finite numbers with lo < hi")

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
    # one step per evaluation left in the budget.  Each step that does not
    # stop adds a new point (a vertex is kept only off every evaluated
    # point; a golden step lands 0.38 of a flank >= tol inside it), unless
    # the ends are so large that such a step rounds onto a point
    for _ in range(MAX_THETA_EVALS - len(points)):
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
        if u is None or any(abs(u - x) < 1e-12 * span for x in xs):
            # golden-section step into the wider flank of the best point
            if x_best - left >= right - x_best:
                u = x_best - GOLDEN * (x_best - left)
            else:
                u = x_best + GOLDEN * (right - x_best)
        evaluate(u)

    x_star = max(points, key=points.get)
    return x_star, points[x_star]


def _estimate_theta(y_seq, path_x, path_v, prototypes, ctx, theta):
    """The theta half-step for one window: maximize_theta of the emission
    log-likelihood of y_seq along fixed state paths
    (mixmax.path_emission_loglik), given each chain's per-state prototypes
    ((mean_x, var_x), (mean_v, var_v)), over [THETA_MIN_DB, THETA_MAX_DB].
    Returns the argmax, or theta itself when the argmax scores below it,
    so the path objective never gets worse."""
    (mean_x, var_x), (mean_v, var_v) = prototypes
    args = (y_seq, mean_x[path_x], var_x[path_x], mean_v[path_v],
            var_v[path_v])

    def objective(t):
        return path_emission_loglik(*args, gains_from_theta(t, ctx))

    th_new, val_new = maximize_theta(objective, (THETA_MIN_DB, THETA_MAX_DB))
    return theta if objective(theta) > val_new else th_new


def _check_loop(theta0, outer_tol, max_outer):
    """ValueError unless theta0 is a finite number, outer_tol a number >= 0
    (inf included) and max_outer an integer >= 0: _alternate's settings,
    which separate() also checks where a fixed theta replaces them."""
    if not _is_real(theta0):
        raise ValueError(f"theta0 {theta0} dB is not a finite number")
    if not _is_real(outer_tol, 0.0, np.inf):
        raise ValueError(f"outer_tol {outer_tol} dB must be a number >= 0")
    if not _is_count(max_outer, 0):
        raise ValueError("max_outer must be an integer >= 0, "
                         f"got {max_outer!r}")


def _alternate(decode, models, prototype, y_seq, ctx, theta0, outer_tol,
               max_outer, frames_per_chunk):
    """The alternating decode/estimate loop shared by both model kinds.

    decode(y_seq, chunks, thetas) returns (path_x, path_v, score) for one
    theta per chunk, the chunks being mega_frame_slices(R,
    frames_per_chunk); models is the (target, interference) pair and
    prototype(model) gives one model's per-state means and variances,
    making prototypes ((mean_x, var_x), (mean_v, var_v)).  The loop
    decodes once at theta0, then runs at most max_outer rounds: each sets
    every window's theta along the current paths (_estimate_theta) and
    decodes once at the new thetas, and the rounds stop after the first
    one in which no theta moved by outer_tol or more.  So a run of n
    rounds makes n + 1 decodes, and the paths and score always belong to
    the returned thetas.  The target mask is built from the means along
    the final paths at the final thetas (_target_mask).  Before any
    decode, models._check_fit checks the models and the frames (a model
    that fails its validate() or does not match the frames' bin count
    raises ModelMismatchError, frames that are not 2-D or empty
    ValueError), then settings that _check_loop or mega_frame_slices
    refuses raise ValueError; theta0 is clamped into [THETA_MIN_DB,
    THETA_MAX_DB].  A non-finite decoder score raises NumericError.
    """
    y_seq = _check_fit(y_seq, *models)
    prototypes = tuple(prototype(m) for m in models)
    _check_loop(theta0, outer_tol, max_outer)
    chunks = mega_frame_slices(len(y_seq), frames_per_chunk)
    thetas = [min(max(float(theta0), THETA_MIN_DB), THETA_MAX_DB)
              for _ in chunks]

    trace = []

    def decode_checked(thetas):
        # overflow drives scores towards -inf, or to NaN where the emission
        # GEMM meets inf - inf; a non-finite score raises below
        with np.errstate(over="ignore", invalid="ignore"):
            path_x, path_v, score = decode(y_seq, chunks, thetas)
        if not np.isfinite(score):
            raise NumericError(
                f"non-finite decoder score {score} at theta {thetas} dB")
        trace.append(score)
        return path_x, path_v, score

    path_x, path_v, score = decode_checked(thetas)
    iterations = 0
    while iterations < max_outer:
        iterations += 1
        old = thetas
        thetas = [_estimate_theta(y_seq[sl], path_x[sl], path_v[sl],
                                  prototypes, ctx, th)
                  for sl, th in zip(chunks, old)]
        path_x, path_v, score = decode_checked(thetas)
        if max(abs(new - th) for new, th in zip(thetas, old)) < outer_tol:
            break
    if iterations and len(chunks) > 1:
        weights = np.array([sl.stop - sl.start for sl in chunks], dtype=float)
        theta_hat = float(np.average(thetas, weights=weights))
    else:
        theta_hat = thetas[0]            # one window, or all hold theta0
    (mean_x, _), (mean_v, _) = prototypes
    mask_x = _target_mask(mean_x[path_x], mean_v[path_v], chunks, thetas, ctx)
    return DecodeResult(path_x, path_v, score, theta_hat=theta_hat,
                        iterations=iterations, mask_x=mask_x,
                        theta_per_chunk=tuple(thetas), objective_trace=trace)


def gfhmm_infer(y_seq, lambda_x, lambda_v, ctx, theta0=0.0,
                outer_tol=OUTER_TOL_DB, max_outer=MAX_OUTER_ITERS,
                frames_per_chunk=None):
    """Alternating joint decoding and gain-ratio estimation.

    Decodes once by parallel Viterbi at theta0, then repeats rounds of
    (a) parabolic maximization of the path-conditioned likelihood over
    theta (the state means and variances along the current paths) and
    (b) parallel Viterbi at the new theta, until a round moves theta by
    less than outer_tol or max_outer rounds have run (_alternate).  The
    decoded objective is non-decreasing across rounds because each half
    step maximizes with the other argument held fixed.

    frames_per_chunk, when given, splits the frames into windows of about
    that many (mega_frame_slices); theta is estimated independently per
    window while the Viterbi pass always spans the full sequence.  The
    result's mask_x compares the state means along the final paths.  A
    model that fails HmmModel.validate or does not match the frames' bin
    count raises ModelMismatchError before any decode.
    """
    def decode(y_seq, chunks, thetas):
        # the Viterbi pass writes its score tables over the emissions, so a
        # decode holds one R x K_x x K_v table, and the table goes with the
        # decode: the theta step and the mask run without it
        b = _emissions(y_seq, lambda_x, lambda_v, chunks, thetas, ctx)
        return _viterbi_from_table(b, lambda_x.pi, lambda_v.pi, lambda_x.trans,
                                   lambda_v.trans, overwrite_b=True)

    return _alternate(decode, (lambda_x, lambda_v),
                      lambda m: (m.means, m.vars), y_seq, ctx, theta0,
                      outer_tol, max_outer, frames_per_chunk)


def gvq_infer(y_seq, cb_x, cb_v, ctx, theta0=0.0, outer_tol=OUTER_TOL_DB,
              max_outer=MAX_OUTER_ITERS, frames_per_chunk=None):
    """VQ counterpart of gfhmm_infer.

    The frames and the codebooks (models._check_fit: Codebook.validate and
    the bin count, else ModelMismatchError) are checked before anything
    else.
    The decode step picks the best codevector pair per frame (gvq_score);
    the theta step maximizes the path objective along the picked pairs
    with the codevectors as means and unit variances.  That objective is
    -0.5 * (cost + const), the negated total squared-error cost up to a
    positive scale and a constant, so its argmax over theta is the cost's.
    The result's mask_x compares the codevectors along the final paths.
    """
    def decode(y_seq, chunks, thetas):
        idx_x = np.empty(len(y_seq), dtype=np.int64)
        idx_v = np.empty(len(y_seq), dtype=np.int64)
        q = 0.0
        for sl, th in zip(chunks, thetas):
            idx_x[sl], idx_v[sl], q_chunk = gvq_score(y_seq[sl], cb_x, cb_v,
                                                      th, ctx)
            q += q_chunk
        return idx_x, idx_v, q

    def prototype(cb):
        return cb.codevectors, np.ones_like(cb.codevectors)

    return _alternate(decode, (cb_x, cb_v), prototype, y_seq, ctx, theta0,
                      outer_tol, max_outer, frames_per_chunk)
