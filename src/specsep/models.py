"""Speaker models and their well-formedness checks: diagonal-Gaussian HMMs
(VQ-based initialization, multi-utterance Baum-Welch training), VQ
codebooks, and persistence.

Log-probability convention: model parameters (pi, trans) and all
likelihoods are natural-log; the spectral features themselves stay in
log10-magnitude units.  The two bases never mix.
"""

from dataclasses import dataclass, field

import numpy as np

from .mixmax import log_gauss_table
from .signal import _check_settings

VARIANCE_FLOOR = 1e-4
PI_FLOOR = 1e-6
MODEL_MAGIC = "specsep-model"
MODEL_VERSION = 1

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
        vars=np.maximum(cb.cluster_variances, VARIANCE_FLOOR),
        meta=dict(cb.meta),
    )


def _forward_backward(frames, pi, trans, means, variances):
    """Scaled forward-backward pass for one utterance.

    Emission likelihoods are renormalized by their per-frame maximum before
    exponentiation, and alpha is rescaled per frame, so probabilities on
    the order of exp(-460) never underflow.  Returns per-frame state
    posteriors gamma (R, K), expected transition counts xi_sum (K, K), and
    the utterance natural-log likelihood.

    With alpha rescaled to sum 1 and beta divided by the next frame's
    scale, xi_t(i, j) = alpha_t(i) a_ij B_t+1(j) beta_t+1(j) / c_t+1 sums
    over j to alpha_t(i) beta_t(i), gamma_t(i) before its renormalization,
    and over (i, j) to 1.  So no frame's xi needs dividing by its sum, and
    xi_sum is one matrix product.
    """
    R, K = frames.shape[0], pi.shape[0]
    logB = log_gauss_table(frames, means, variances)
    shift = logB.max(axis=1)
    B = np.exp(logB - shift[:, None])

    alpha = np.empty((R, K))
    scale = np.empty(R)
    alpha[0] = pi * B[0]
    scale[0] = alpha[0].sum()
    alpha[0] /= scale[0]
    for t in range(1, R):
        alpha[t] = (alpha[t - 1] @ trans) * B[t]
        scale[t] = alpha[t].sum()
        alpha[t] /= scale[t]

    beta = np.empty((R, K))
    beta[R - 1] = 1.0
    for t in range(R - 2, -1, -1):
        beta[t] = trans @ (B[t + 1] * beta[t + 1]) / scale[t + 1]

    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    xi_sum = trans * (alpha[:-1].T @ (B[1:] * beta[1:] / scale[1:, None]))

    loglik = float(np.log(scale).sum() + shift.sum())
    return gamma, xi_sum, loglik


def baum_welch(utterances, init, rel_tol=BW_DEFAULT_REL_TOL,
               max_iters=BW_DEFAULT_MAX_ITERS):
    """EM reestimation of an HMM over multiple utterances.

    Parameters
    ----------
    utterances : list of (R_u, dim) frame arrays
    init : starting HmmModel
    rel_tol : terminate when |LL_t - LL_{t-1}| < rel_tol * |LL_{t-1}|
    max_iters : iteration cap

    Per-utterance accumulators are pooled before each M-step; variances
    are floored after every update.  Returns (model, loglik_trace) where
    loglik_trace[t] is the total log-likelihood of the parameters entering
    iteration t; the trace is non-decreasing up to numerical slack.
    """
    utterances = [np.asarray(u, dtype=np.float64) for u in utterances]
    utterances = [u for u in utterances if u.shape[0] > 0]
    if not utterances:
        raise ValueError("empty training set")
    dim = utterances[0].shape[1]
    if any(u.shape[1] != dim for u in utterances):
        raise ValueError("inconsistent frame dimensions across utterances")
    if init.dim != dim:
        raise ModelMismatchError(
            f"model dimension {init.dim} does not match frames ({dim})")

    K = init.K
    pi = np.exp(init.pi)
    trans = np.exp(init.trans)
    means = init.means.copy()
    variances = init.vars.copy()

    trace = []
    prev_ll = None
    for _ in range(max_iters):
        pi_acc = np.zeros(K)
        xi_acc = np.zeros((K, K))
        gamma_acc = np.zeros(K)
        mean_acc = np.zeros((K, dim))
        sq_acc = np.zeros((K, dim))
        total_ll = 0.0
        for frames in utterances:
            gamma, xi_sum, ll = _forward_backward(
                frames, pi, trans, means, variances)
            total_ll += ll
            pi_acc += gamma[0]
            xi_acc += xi_sum
            gamma_acc += gamma.sum(axis=0)
            mean_acc += gamma.T @ frames
            sq_acc += gamma.T @ (frames ** 2)
        trace.append(total_ll)

        if prev_ll is not None and abs(total_ll - prev_ll) < rel_tol * abs(prev_ll):
            break
        prev_ll = total_ll

        pi = pi_acc / pi_acc.sum()
        # a state never occupied before an utterance's last frame gets a
        # uniform row
        row_mass = xi_acc.sum(axis=1, keepdims=True)
        trans = np.where(row_mass > 0, xi_acc / np.maximum(row_mass, 1e-300),
                         1.0 / K)
        occupied = gamma_acc > 0
        denom = np.maximum(gamma_acc, 1e-300)[:, None]
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


def _meta_to_arrays(meta):
    """meta's keys and values as two string arrays; ValueError for an entry
    that would not load back (_meta_from_arrays) equal and of its type."""
    keys = sorted(meta, key=str)
    # numpy sizes the string arrays, so nothing is cut short
    arrays = (np.array([str(k) for k in keys], dtype=str),
              np.array([str(meta[k]) for k in keys], dtype=str))
    loaded = _meta_from_arrays(*arrays)
    for key in keys:
        if type(key) is not str:
            raise ValueError(f"model meta key {key!r} is not a string")
        value, back = meta[key], loaded[key]
        if not (type(back) is type(value) and back == value):
            raise ValueError(
                f"model meta {key!r}: {value!r} ({type(value).__name__}) "
                f"would load back as {back!r} ({type(back).__name__})")
    return arrays


def _meta_from_arrays(keys, values):
    meta = {}
    for k, v in zip(keys.tolist(), values.tolist()):
        try:
            num = float(v)
            meta[k] = int(num) if num.is_integer() else num
        except ValueError:
            meta[k] = v
    return meta


def save_model(model, path):
    """Persist an HmmModel or Codebook to a versioned .npz container.

    Layout (see README): magic, version, kind ("hmm" | "vq"), K, dim,
    string-coded metadata, then the parameter arrays as little-endian
    float64 (exact round trip).  Metadata values load back by their text:
    an int, else a float, else a string.  A key that is not a string, or a
    value that would not load back equal and of the same type (True,
    "007", "1e3", 2.0, NaN), raises ValueError before anything is written.
    """
    if isinstance(model, HmmModel):
        kind = "hmm"
        arrays = dict(pi=model.pi, trans=model.trans,
                      means=model.means, variances=model.vars)
    elif isinstance(model, Codebook):
        kind = "vq"
        arrays = dict(codevectors=model.codevectors,
                      cluster_variances=model.cluster_variances,
                      occupancy=model.occupancy.astype("<i8"))
    else:
        raise TypeError(f"cannot save object of type {type(model).__name__}")
    meta_keys, meta_values = _meta_to_arrays(model.meta)
    arrays = {k: (v.astype("<f8") if v.dtype.kind == "f" else v)
              for k, v in arrays.items()}
    # write through a handle so numpy does not append ".npz" to the path
    with open(path, "wb") as f:
        np.savez(f,
                 magic=np.array(MODEL_MAGIC),
                 version=np.array(MODEL_VERSION, dtype="<i8"),
                 kind=np.array(kind),
                 K=np.array(model.K, dtype="<i8"),
                 dim=np.array(model.dim, dtype="<i8"),
                 meta_keys=meta_keys,
                 meta_values=meta_values,
                 **arrays)


def load_model(path):
    """Load a model container (an HmmModel or a Codebook).  A file that is
    not a model, or a malformed model (see HmmModel.validate and
    Codebook.validate), raises ModelMismatchError naming the path."""
    with np.load(path, allow_pickle=False) as data:
        if "magic" not in data or str(data["magic"]) != MODEL_MAGIC:
            raise ModelMismatchError(f"{path}: not a model file")
        version = int(data["version"])
        if version != MODEL_VERSION:
            raise ModelMismatchError(
                f"{path}: unsupported model version {version}")
        kind = str(data["kind"])
        dim = int(data["dim"])
        meta = _meta_from_arrays(data["meta_keys"], data["meta_values"])
        if kind == "hmm":
            model = HmmModel(pi=data["pi"], trans=data["trans"],
                             means=data["means"], vars=data["variances"],
                             meta=meta)
        elif kind == "vq":
            model = Codebook(codevectors=data["codevectors"],
                             cluster_variances=data["cluster_variances"],
                             occupancy=data["occupancy"], meta=meta)
        else:
            raise ModelMismatchError(f"{path}: unknown model kind '{kind}'")
        try:
            model.validate()
        except ModelMismatchError as exc:
            raise ModelMismatchError(f"{path}: {exc}") from None
        if (model.K, model.dim) != (int(data["K"]), dim):
            raise ModelMismatchError(
                f"{path}: arrays hold K={model.K}, dim={model.dim} but the "
                f"file records K={int(data['K'])}, dim={dim}")
        return model
