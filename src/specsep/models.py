"""Speaker models and their checks (well-formedness, and the fit of frames
to them): diagonal-Gaussian HMMs (VQ-based initialization, multi-utterance
Baum-Welch training), VQ codebooks, and persistence.

Log-probability convention: model parameters (pi, trans) and all
likelihoods are natural-log; the spectral features themselves stay in
log10-magnitude units.  The two bases never mix.
"""

import json
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .mixmax import log_gauss_table
from .signal import _check_finite, _check_settings, _is_count, _is_real

VARIANCE_FLOOR = 1e-4
PI_FLOOR = 1e-6
MODEL_MAGIC = "specsep-model"
MODEL_VERSION = 2

BW_DEFAULT_REL_TOL = 1e-5
BW_DEFAULT_MAX_ITERS = 15


class ModelMismatchError(ValueError):
    """A model file or object is malformed, or does not fit the job."""


def check_model(model, shapes, variances):
    """Raise ModelMismatchError unless every array named in shapes has that
    shape and finite values, the array named variances is >= VARIANCE_FLOOR
    (the floor training applies; below it 1/v can overflow), and each
    framing setting model.meta records is a positive integer."""
    for name, shape in shapes.items():
        a = np.asarray(getattr(model, name))
        if a.shape != shape:
            raise ModelMismatchError(
                f"{name} has shape {a.shape}, expected {shape}")
        if not np.all(np.isfinite(a)):
            raise ModelMismatchError(f"{name} has non-finite values")
    if np.any(getattr(model, variances) < VARIANCE_FLOOR):
        raise ModelMismatchError(
            f"{variances} has values below {VARIANCE_FLOOR:g}")
    _check_settings(model.meta, "recorded", ModelMismatchError)


def _check_fit(frames, *models):
    """frames as a float64 (R, dim) array, R >= 1, whose dim every model
    shares: the check before any decode or training pass.  A ValueError
    names the shape of frames that are not 2-D, or says "empty input" for
    R = 0; then, model by model, a model that fails its validate() or has
    another dimension raises ModelMismatchError, whose dimension message
    names the role of each model of a (target, interference) pair."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError(f"frames must be an (R, dim) array, got shape "
                         f"{frames.shape}")
    if frames.shape[0] == 0:
        raise ValueError("empty input")
    roles = ("target ", "interference ") if len(models) == 2 else ("",)
    for role, model in zip(roles, models):
        model.validate()
        if model.dim != frames.shape[1]:
            raise ModelMismatchError(f"{role}model dimension {model.dim} "
                                     f"does not match {frames.shape[1]} bins")
    return frames


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

    def validate(self):
        """Raise ModelMismatchError unless the codebook passes check_model
        (shapes, finite values, floored variances, recorded framing) and
        its occupancy is non-negative with a positive total."""
        K, dim = len(self.occupancy), np.shape(self.codevectors)[-1]
        check_model(self, {"codevectors": (K, dim),
                           "cluster_variances": (K, dim),
                           "occupancy": (K,)},
                    variances="cluster_variances")
        if np.any(self.occupancy < 0) or np.sum(self.occupancy) <= 0:
            raise ModelMismatchError(
                "occupancy must be non-negative with a positive total")


@dataclass
class HmmModel:
    """K-state HMM with diagonal-Gaussian emissions.

    pi is the (K,) natural-log initial distribution, trans the (K, K)
    natural-log transition matrix; means/vars are (K, dim) emission
    parameters in log10-feature units.
    """

    pi: np.ndarray
    trans: np.ndarray
    means: np.ndarray
    vars: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def K(self):
        return self.pi.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    def validate(self):
        """Raise ModelMismatchError unless the model is well formed: the
        check_model conditions on means and vars, and stochastic pi and
        trans rows (log-probabilities may be -inf, i.e. probability 0)."""
        K, dim = len(self.pi), np.shape(self.means)[-1]
        check_model(self, {"means": (K, dim), "vars": (K, dim)},
                    variances="vars")
        if np.shape(self.trans) != (K, K):
            raise ModelMismatchError(
                f"trans has shape {np.shape(self.trans)}, expected {(K, K)}")
        if not np.isclose(np.exp(self.pi).sum(), 1.0, atol=1e-6):
            raise ModelMismatchError("initial probabilities do not sum to 1")
        rows = np.exp(self.trans).sum(axis=1)
        if not np.allclose(rows, 1.0, atol=1e-6):
            raise ModelMismatchError("transition rows do not sum to 1")


def init_hmm_from_codebook(cb):
    """Seed an HMM from a trained codebook.

    State means/variances come from the codevectors and cluster variances;
    initial probabilities are occupancy fractions (floored at PI_FLOOR and
    renormalized); transitions start uniform at 1/K.  A codebook that
    fails Codebook.validate raises ModelMismatchError.
    """
    cb.validate()
    K = cb.K
    occ = np.asarray(cb.occupancy, dtype=np.float64)
    pi = occ / occ.sum()
    pi = np.maximum(pi, PI_FLOOR)
    pi /= pi.sum()
    trans = np.full((K, K), 1.0 / K)
    return HmmModel(
        pi=np.log(pi),
        trans=np.log(trans),
        means=cb.codevectors.copy(),
        vars=cb.cluster_variances.copy(),
        meta=dict(cb.meta),
    )


def _forward_backward(utterances, pi, trans, means, variances):
    """Scaled forward-backward pass over all utterances at once.

    The utterances are stably sorted by length, longest first, and their
    frames packed time-major: frame t's rows hold, back to back, the n_t
    utterances that have a frame t, in sorted order, so frame t-1's first
    n_t rows are the same utterances one frame earlier, and each step of
    either recursion is one (n_t, K) @ (K, K) product.  The emission,
    alpha and beta arrays are (N_frames, K) float64 each, N_frames being
    the total frame count.

    Emission likelihoods are renormalized by their per-frame maximum before
    exponentiation, and alpha is rescaled per frame, so probabilities on
    the order of exp(-460) never underflow.  Values below
    np.finfo(float).tiny in the three normalized quantities that feed a
    product (alpha after its rescaling, the backward operand B beta / c
    and gamma) are set to 0, because products that read subnormal operands
    run on the CPU's slow path.  No such row becomes all zero: alpha and
    gamma sum to 1, and the backward operand's dot product with the
    predicted alpha is 1.

    With alpha rescaled to sum 1 and beta divided by the next frame's
    scale, xi_t(i, j) = alpha_t(i) a_ij B_t+1(j) beta_t+1(j) / c_t+1 sums
    over j to alpha_t(i) beta_t(i), gamma_t(i) before its renormalization,
    and over (i, j) to 1.  So no frame's xi needs dividing by its sum, and
    the pooled xi_sum takes one matrix product per run of frames with the
    same n_t-1, at most one per distinct utterance length.

    Returns the per-frame state posteriors gamma, one (R_u, K) array per
    utterance in the order given, the expected transition counts xi_sum
    (K, K) pooled over all utterances, and their total natural-log
    likelihood.
    """
    tiny = np.finfo(np.float64).tiny
    lengths = np.array([u.shape[0] for u in utterances])
    order = np.argsort(-lengths, kind="stable")
    R, K = lengths[order[0]], pi.shape[0]
    # n_active[t] utterances have a frame t; frame t's rows are
    # start[t]:start[t + 1]
    n_active = len(lengths) - np.cumsum(np.bincount(lengths))[:R]
    start = np.concatenate(([0], np.cumsum(n_active)))
    # rows[u]: utterance u's rows, frame by frame
    rows = [None] * len(utterances)
    for n, u in enumerate(order):
        rows[u] = start[:lengths[u]] + n
    start = start.tolist()

    B = np.empty((start[-1], K))
    shift = 0.0
    for frames, r in zip(utterances, rows):
        logB = log_gauss_table(frames, means, variances)
        peak = logB.max(axis=1)
        B[r] = np.exp(logB - peak[:, None])
        shift += peak.sum()

    alpha = np.empty_like(B)
    scale = np.empty(start[-1])
    alpha[:start[1]] = pi * B[:start[1]]
    for t in range(R):
        lo, hi = start[t], start[t + 1]
        a = alpha[lo:hi]
        if t:
            prev = start[t - 1]
            np.matmul(alpha[prev:prev + hi - lo], trans, out=a)
            a *= B[lo:hi]
        scale[lo:hi] = a.sum(axis=1)
        a /= scale[lo:hi, None]
        np.copyto(a, 0.0, where=a < tiny)

    # B's rows become the backward operand B_t beta_t / c_t, frame by frame
    # from the last (frame 0's are not needed).  Beta is 1 at each
    # utterance's last frame, and the recursion overwrites the rest
    beta = np.ones_like(B)
    for t in range(R - 1, 0, -1):
        lo, hi = start[t], start[t + 1]
        op = B[lo:hi]
        op *= beta[lo:hi]
        op /= scale[lo:hi, None]
        np.copyto(op, 0.0, where=op < tiny)
        prev = start[t - 1]
        np.matmul(op, trans.T, out=beta[prev:prev + hi - lo])

    # row j of frame t follows row j - n_active[t - 1] of frame t-1, so
    # over a run of frames with the same n_active[t - 1] the rows before
    # one contiguous block of operands are one contiguous block of alpha;
    # runs holds the frames t >= 2 at which n_active[t - 1] changes
    xi_sum = np.zeros((K, K))
    runs = np.flatnonzero(np.diff(n_active[:-1])) + 2
    for t0, t1 in zip(np.concatenate(([1], runs)), np.append(runs, R)):
        lo, hi, back = start[t0], start[t1], n_active[t0 - 1]
        xi_sum += alpha[lo - back:hi - back].T @ B[lo:hi]
    xi_sum *= trans
    del B

    gamma = alpha
    gamma *= beta
    del beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    np.copyto(gamma, 0.0, where=gamma < tiny)

    # the posteriors are views of one array, utterance after utterance;
    # B and beta are released first, so the pass holds at most three
    # (N_frames, K) arrays
    gammas = np.split(gamma[np.concatenate(rows)], np.cumsum(lengths)[:-1])
    loglik = float(np.log(scale).sum() + shift)
    return gammas, xi_sum, loglik


def _check_em_settings(rel_tol, max_iters):
    """ValueError unless max_iters is an integer >= 0 (a bool is not one)
    and rel_tol a finite number >= 0: Baum-Welch's settings, checked by
    baum_welch and, before it trains the initial codebook, by
    `specsep train`."""
    if not _is_count(max_iters, 0):
        raise ValueError("max_iters must be an integer >= 0, "
                         f"got {max_iters!r}")
    if not _is_real(rel_tol, 0.0):
        raise ValueError(f"rel_tol {rel_tol} must be a finite number >= 0")


def baum_welch(utterances, init, rel_tol=BW_DEFAULT_REL_TOL,
               max_iters=BW_DEFAULT_MAX_ITERS):
    """EM reestimation of an HMM over multiple utterances.

    Parameters
    ----------
    utterances : list of (R_u, dim) frame arrays
    init : starting HmmModel
    rel_tol : terminate when |LL_t - LL_{t-1}| < rel_tol * |LL_{t-1}|;
        a finite number >= 0
    max_iters : iteration cap; an integer >= 0, and 0 runs no EM pass

    One _forward_backward pass over all utterances gives each EM
    iteration's pooled statistics; variances are floored after every
    update.  A state whose total occupancy is below np.finfo(float).tiny
    counts as unoccupied: it keeps its mean and variance.  A state whose
    occupancy before an utterance's last frame is below tiny gets a
    uniform transition row.  Returns (model, loglik_trace) where
    loglik_trace[t] is the total log-likelihood of the parameters entering
    iteration t; the trace is non-decreasing up to numerical slack.  A
    max_iters that is not an integer >= 0 (a bool is not one), a rel_tol
    that is not a finite number >= 0, an utterance that is not a 2-D
    array or a frame value that is not a finite number raises ValueError
    before any EM pass, as an init that fails HmmModel.validate or does not
    match the frames' dimension raises ModelMismatchError.
    """
    _check_em_settings(rel_tol, max_iters)
    utterances = [np.asarray(u, dtype=np.float64) for u in utterances]
    for u, frames in enumerate(utterances):
        if frames.ndim != 2:
            raise ValueError(f"utterance {u} has shape {frames.shape}, "
                             "not (frames, dim)")
        _check_finite(frames, f"utterance {u} frame, bin")
    utterances = [u for u in utterances if u.shape[0] > 0]
    if not utterances:
        raise ValueError("empty training set")
    dim = utterances[0].shape[1]
    if any(u.shape[1] != dim for u in utterances):
        raise ValueError("inconsistent frame dimensions across utterances")
    _check_fit(utterances[0], init)

    K = init.K
    tiny = np.finfo(np.float64).tiny
    pi = np.exp(init.pi)
    trans = np.exp(init.trans)
    means = init.means.copy()
    variances = init.vars.copy()

    trace = []
    prev_ll = None
    for _ in range(max_iters):
        gammas, xi_acc, total_ll = _forward_backward(
            utterances, pi, trans, means, variances)
        trace.append(total_ll)

        if (prev_ll is not None
                and abs(total_ll - prev_ll) < rel_tol * abs(prev_ll)):
            break
        prev_ll = total_ll

        pi_acc = np.zeros(K)
        gamma_acc = np.zeros(K)
        mean_acc = np.zeros((K, dim))
        sq_acc = np.zeros((K, dim))
        for gamma, frames in zip(gammas, utterances):
            pi_acc += gamma[0]
            gamma_acc += gamma.sum(axis=0)
            mean_acc += gamma.T @ frames
            sq_acc += gamma.T @ (frames ** 2)
        # release the posteriors before the next pass allocates its arrays
        del gammas, gamma

        pi = pi_acc / pi_acc.sum()
        row_mass = xi_acc.sum(axis=1, keepdims=True)
        trans = np.where(row_mass >= tiny,
                         xi_acc / np.maximum(row_mass, tiny), 1.0 / K)
        occupied = gamma_acc >= tiny
        denom = np.maximum(gamma_acc, tiny)[:, None]
        new_means = mean_acc / denom
        new_vars = sq_acc / denom - new_means ** 2
        means = np.where(occupied[:, None], new_means, means)
        variances = np.where(occupied[:, None], new_vars, variances)
        variances = np.maximum(variances, VARIANCE_FLOOR)

    model = HmmModel(
        pi=np.log(np.maximum(pi, 1e-300)),
        trans=np.log(np.maximum(trans, 1e-300)),
        means=means,
        vars=variances,
        meta=dict(init.meta),
    )
    return model, trace


# kind -> (model class, {file key: attribute}): the arrays of a .ssm file
_LAYOUT = {"hmm": (HmmModel, {"pi": "pi", "trans": "trans", "means": "means",
                              "variances": "vars"}),
           "vq": (Codebook, {"codevectors": "codevectors",
                             "cluster_variances": "cluster_variances",
                             "occupancy": "occupancy"})}


def _json_exact(value):
    """True if JSON loads value back equal and of the same types: dicts
    with string keys, lists, strings, ints, bools, None and floats other
    than NaN, checked by exact type (a subclass, such as a numpy scalar,
    loads back as its base type)."""
    if type(value) is dict:
        return all(type(k) is str and _json_exact(v)
                   for k, v in value.items())
    if type(value) is list:
        return all(_json_exact(v) for v in value)
    if type(value) is float:
        return not math.isnan(value)
    return value is None or type(value) in (str, int, bool)


def save_model(model, path):
    """Persist an HmmModel or Codebook to a versioned .npz container.

    Layout (see README): magic, version, kind ("hmm" | "vq"), K, dim, the
    metadata as one JSON text, then the parameter arrays (_LAYOUT) as
    little-endian int64 counts or float64 values (exact round trip).
    Metadata that JSON would not load back equal and of the same types
    (NaN, tuples, keys that are not strings, numpy scalars) raises
    ValueError before anything is written; inf is written as Infinity.
    """
    kind = next((k for k, (cls, _) in _LAYOUT.items()
                 if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"cannot save object of type {type(model).__name__}")
    if not (type(model.meta) is dict and _json_exact(model.meta)):
        raise ValueError(f"model meta {model.meta!r} would not load back "
                         f"from JSON equal and of the same types")
    meta = json.dumps(model.meta)
    arrays = {key: np.asarray(getattr(model, attr))
              for key, attr in _LAYOUT[kind][1].items()}
    arrays = {key: a.astype("<i8" if a.dtype.kind in "iub" else "<f8")
              for key, a in arrays.items()}
    # write through a handle so numpy does not append ".npz" to the path
    with open(path, "wb") as f:
        np.savez(f,
                 magic=np.array(MODEL_MAGIC),
                 version=np.array(MODEL_VERSION, dtype="<i8"),
                 kind=np.array(kind),
                 K=np.array(model.K, dtype="<i8"),
                 dim=np.array(model.dim, dtype="<i8"),
                 meta=np.array(meta),
                 **arrays)


def load_model(path):
    """Load a model container (an HmmModel or a Codebook) of version
    MODEL_VERSION.  A file of any other version, or one that is not a
    model or cannot be read as one (an empty, truncated or foreign file, a
    missing entry, metadata that is not a JSON object), or a malformed
    model (see HmmModel.validate and Codebook.validate), raises
    ModelMismatchError naming the path."""
    try:
        # a zip of .npy entries, read without pickles; a lone .npy is foreign
        with np.lib.npyio.NpzFile(path) as data:
            if str(data.get("magic")) != MODEL_MAGIC:
                raise ModelMismatchError("not a model file")
            version = int(data["version"])
            if version != MODEL_VERSION:
                raise ModelMismatchError(
                    f"unsupported model version {version}; this release "
                    f"reads version {MODEL_VERSION}")
            meta = json.loads(str(data["meta"]))
            if not isinstance(meta, dict):
                raise ModelMismatchError("meta is not a JSON object")
            kind = str(data["kind"])
            if kind not in _LAYOUT:
                raise ModelMismatchError(f"unknown model kind '{kind}'")
            cls, keys = _LAYOUT[kind]
            model = cls(**{attr: data[key] for key, attr in keys.items()},
                        meta=meta)
            recorded = int(data["K"]), int(data["dim"])
        model.validate()
        if (model.K, model.dim) != recorded:
            raise ModelMismatchError(
                f"arrays hold K={model.K}, dim={model.dim} but the file "
                f"records K={recorded[0]}, dim={recorded[1]}")
    except ModelMismatchError as exc:
        raise ModelMismatchError(f"{path}: {exc}") from None
    except (KeyError, ValueError, TypeError, EOFError,
            zipfile.BadZipFile) as exc:
        # a damaged or foreign file; an OSError (a missing or unreadable
        # path) stays an I/O error
        raise ModelMismatchError(
            f"{path}: unreadable model file ({type(exc).__name__}: "
            f"{exc})") from None
    return model
