"""Shared builders for the test suite: random and structured HMMs, planted
sequences, and a session-scoped pair of tiny trained speaker models."""

import dataclasses

import numpy as np
import pytest

from specsep import (AudioSignal, FramingConfig, HmmModel, baum_welch,
                     init_hmm_from_codebook, sample_hmm_frames, synth_source,
                     train_lbg)
from specsep.signal import log_spectra


# defects that a model file can carry; trans_plus_one applies to HMMs only
MODEL_DEFECTS = ("nan_mean", "negative_variance", "trans_plus_one",
                 "hop_inf")


def malformed(model, defect):
    """A copy of an HmmModel or Codebook with one defect planted."""
    mean, var = (("means", "vars") if isinstance(model, HmmModel)
                 else ("codevectors", "cluster_variances"))
    if defect == "trans_plus_one":
        return dataclasses.replace(model, trans=model.trans + 1.0)
    if defect == "hop_inf":
        return dataclasses.replace(model, meta={**model.meta, "hop": "inf"})
    name, value = {"nan_mean": (mean, np.nan),
                   "negative_variance": (var, -0.1)}[defect]
    arr = getattr(model, name).copy()
    arr[0, 0] = value
    return dataclasses.replace(model, **{name: arr})


def overflowing(model):
    """A copy of an HmmModel or Codebook that passes validate() but whose
    decoder scores overflow: variances of 1e-308, or codevectors of 1e200."""
    if isinstance(model, HmmModel):
        return dataclasses.replace(model,
                                   vars=np.full_like(model.vars, 1e-308))
    return dataclasses.replace(
        model, codevectors=np.full_like(model.codevectors, 1e200))


def naive_viterbi_deltas(b, log_pi_x, log_pi_v, log_a_x, log_a_v):
    """O(K^4) reference recursion with the same summation association
    order as the production two-stage maximum."""
    R = b.shape[0]
    delta = log_pi_x[:, None] + log_pi_v[None, :] + b[0]
    deltas = [delta.copy()]
    for r in range(1, R):
        # (i, j, l, k): (delta[i, l] + ax[i, j]) + av[l, k]
        tmp = (delta[:, None, :, None] + log_a_x[:, :, None, None]) \
            + log_a_v[None, None, :, :]
        delta = tmp.max(axis=(0, 2)) + b[r]
        deltas.append(delta.copy())
    return deltas


def random_hmm(rng, K, dim, var_lo=0.2, var_hi=1.0):
    """Unstructured random model; emissions overlap freely."""
    pi = rng.random(K) + 0.1
    pi /= pi.sum()
    trans = rng.random((K, K)) + 0.1
    trans /= trans.sum(axis=1, keepdims=True)
    return HmmModel(pi=np.log(pi), trans=np.log(trans),
                    means=rng.normal(0.0, 1.0, (K, dim)),
                    vars=rng.uniform(var_lo, var_hi, (K, dim)))


def structured_hmm(rng, K=8, dim=33, sticky=0.8):
    """Trained-model stand-in: smooth distinct state means, small
    variances, sticky transitions."""
    bins = np.arange(dim)
    means = np.empty((K, dim))
    for j in range(K):
        centers = rng.uniform(0, dim, size=2)
        widths = rng.uniform(2, 5, size=2)
        amps = rng.uniform(1.0, 3.0, size=2)
        means[j] = sum(a * np.exp(-0.5 * ((bins - c) / w) ** 2)
                       for a, c, w in zip(amps, centers, widths)) - 2.0
    variances = rng.uniform(0.02, 0.08, (K, dim))
    trans = np.full((K, K), (1.0 - sticky) / (K - 1))
    np.fill_diagonal(trans, sticky)
    return HmmModel(pi=np.log(np.full(K, 1.0 / K)), trans=np.log(trans),
                    means=means, vars=variances)


def bump(bins, center, width, amp):
    return amp * np.exp(-0.5 * ((bins - center) / width) ** 2)


def speaker_generator_pair(dim=129, K=5):
    """Two generator HMMs for the time-domain experiments.

    State spectra are sparse (narrow formant peaks over a deep base) so
    that per bin one source usually dominates, which keeps the
    max-combination model of the mixture accurate.  The speakers share
    two confusable spectral states but visit them in different orders, so
    frame-wise decoding is ambiguous while temporal context disambiguates;
    the remaining states carry speaker-specific formant positions.
    """
    bins = np.arange(dim)
    base, width, amp = -2.5, 2.5, 3.0
    shared1 = bump(bins, 20, width, amp) + bump(bins, 45, width,
                                                amp * 0.7) + base
    shared2 = bump(bins, 30, width, amp * 0.9) + bump(bins, 60, width,
                                                      amp * 0.75) + base

    def states_for(offset):
        m = np.empty((K, dim))
        m[0] = shared1
        m[1] = shared2
        for j in range(2, K):
            c1 = 10 + offset + 12 * (j - 2)
            c2 = 40 + offset + 10 * (j - 2)
            m[j] = bump(bins, c1, width, amp) + bump(bins, c2, width,
                                                     amp * 0.7) + base
        return m

    def cyclic(order, stay=0.6):
        trans = np.full((K, K), 0.02)
        for i in range(K):
            trans[order[i], order[i]] += stay
            trans[order[i], order[(i + 1) % K]] += 1.0 - stay - 0.02 * K
        return trans / trans.sum(axis=1, keepdims=True)

    pi = np.log(np.full(K, 1.0 / K))
    variances = np.full((K, dim), 0.06)
    gen_a = HmmModel(pi.copy(), np.log(cyclic(list(range(K)))),
                     states_for(0), variances.copy())
    gen_b = HmmModel(pi.copy(), np.log(cyclic([0, 2, 1, 4, 3])),
                     states_for(5), variances.copy())
    return gen_a, gen_b


def train_speaker_models(generator, base_seed, cfg, K=16, n_clips=20,
                         duration=1.5, bw_iters=8):
    """Full training pipeline from synthesized audio: unit-RMS clips,
    log-spectral features, LBG codebook, VQ-initialized Baum-Welch."""
    utterances = []
    for i in range(n_clips):
        sig = synth_source("hmm_sample", model=generator, seed=base_seed + i,
                           duration=duration, cfg=cfg)
        rms = np.sqrt(np.mean(sig.samples ** 2))
        sig = AudioSignal(sig.samples / rms, sig.sample_rate)
        utterances.append(log_spectra(sig, cfg))
    codebook = train_lbg(np.vstack(utterances), K)
    hmm, _ = baum_welch(utterances, init_hmm_from_codebook(codebook),
                        max_iters=bw_iters)
    return codebook, hmm


@pytest.fixture(scope="session")
def framing():
    return FramingConfig()


@pytest.fixture(scope="session")
def speaker_generators():
    return speaker_generator_pair()


@pytest.fixture(scope="session")
def trained_models(framing, speaker_generators):
    """Small trained models (K=8) shared by the pipeline-level tests."""
    gen_a, gen_b = speaker_generators
    cb_a, hmm_a = train_speaker_models(gen_a, 100, framing, K=8, n_clips=10,
                                       duration=1.2, bw_iters=4)
    cb_b, hmm_b = train_speaker_models(gen_b, 200, framing, K=8, n_clips=10,
                                       duration=1.2, bw_iters=4)
    return {"cb_a": cb_a, "hmm_a": hmm_a, "cb_b": cb_b, "hmm_b": hmm_b}


def sampled_feature_mixture(model_x, model_v, theta, ctx, n_frames, seed):
    """Feature-domain planted instance: sample both chains and max-combine
    at the given theta."""
    from specsep import gains_from_theta, mixmax_combine

    rng = np.random.default_rng(seed)
    x, _ = sample_hmm_frames(model_x, n_frames, rng)
    v, _ = sample_hmm_frames(model_v, n_frames, rng)
    return mixmax_combine(x, v, gains_from_theta(theta, ctx))


def shared_variance_hmm(rng, K, dim, shared_var, sticky=0.9):
    """Model whose states all carry the same per-bin variance vector.

    With both chains built from the same vector, the dominant-source
    normalizer of the joint emission likelihood is independent of theta,
    which keeps planted path likelihoods quadratic-like and single-basin."""
    if K == 1:
        return HmmModel(np.zeros(1), np.zeros((1, 1)),
                        rng.normal(0.0, 1.0, (1, dim)),
                        np.tile(shared_var, (1, 1)))
    pi = np.log(np.full(K, 1.0 / K))
    trans = np.full((K, K), (1.0 - sticky) / (K - 1))
    np.fill_diagonal(trans, sticky)
    return HmmModel(pi, np.log(trans), rng.normal(0.0, 1.0, (K, dim)),
                    np.tile(shared_var, (K, 1)))


def planted_path_objective(seed, ctx, K=1):
    """A noiseless planted path-likelihood objective in theta.

    Both chains share per-bin variances and the mixture is built exactly
    from the gain-shifted state means along sampled paths, so the
    objective is dominated by a single quadratic-like basin around the
    planted theta.  Returns (objective, theta_true)."""
    from specsep import gains_from_theta, mixmax_combine, path_loglik

    rng = np.random.default_rng(seed)
    dim = int(rng.integers(16, 40))
    n_frames = int(rng.integers(20, 80))
    shared_var = rng.uniform(0.05, 0.3, dim)
    model_x = shared_variance_hmm(rng, K, dim, shared_var)
    model_v = shared_variance_hmm(rng, K, dim, shared_var)
    theta_true = float(rng.uniform(-12.0, 12.0))
    _, qx = sample_hmm_frames(model_x, n_frames, rng)
    _, qv = sample_hmm_frames(model_v, n_frames, rng)
    y = mixmax_combine(model_x.means[qx], model_v.means[qv],
                       gains_from_theta(theta_true, ctx))

    def objective(theta):
        return path_loglik((qx, qv), y, model_x, model_v, theta, ctx)

    return objective, theta_true
