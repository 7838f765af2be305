"""Shared builders for the test suite: random and structured HMMs, planted
sequences, a session-scoped pair of tiny trained speaker models, and the
reference implementations that production kernels are checked against."""

import dataclasses

import numpy as np
import pytest

from specsep import (AudioSignal, FramingConfig, HmmModel, baum_welch,
                     gains_from_theta, init_hmm_from_codebook,
                     mixmax_combine, sample_hmm_frames, save_model,
                     synth_source, train_lbg, write_wav)
from specsep.mixmax import LOG_2PI, log_gauss_table, path_emission_loglik
from specsep.models import _check_fit
from specsep.signal import log_spectra


# defects that a model file can carry; pi_plus_one and trans_plus_one apply
# to HMMs only and negative_occupancy to codebooks only
MODEL_DEFECTS = ("nan_mean", "negative_variance", "tiny_variance",
                 "pi_plus_one", "trans_plus_one", "negative_occupancy",
                 "hop_inf", "hop_text")
HMM_DEFECTS = tuple(d for d in MODEL_DEFECTS if d != "negative_occupancy")
CODEBOOK_DEFECTS = tuple(d for d in MODEL_DEFECTS
                         if d not in ("pi_plus_one", "trans_plus_one"))


def malformed(model, defect):
    """A copy of an HmmModel or Codebook with one defect planted."""
    mean, var = (("means", "vars") if isinstance(model, HmmModel)
                 else ("codevectors", "cluster_variances"))
    if defect in ("pi_plus_one", "trans_plus_one"):
        name = defect.partition("_")[0]
        return dataclasses.replace(model, **{name: getattr(model, name) + 1.0})
    # well formed, but one bin narrower than the frames it is meant for
    if defect == "one_bin_short":
        return dataclasses.replace(model, **{name: getattr(model, name)[:, :-1]
                                             for name in (mean, var)})
    if defect in ("hop_inf", "hop_text"):
        # JSON keeps each value's type: inf loads back as a float, "80" as
        # a string
        hop = float("inf") if defect == "hop_inf" else "80"
        return dataclasses.replace(model, meta={**model.meta, "hop": hop})
    name, value = {"nan_mean": (mean, np.nan),
                   "negative_variance": (var, -0.1),
                   "tiny_variance": (var, 1e-308),
                   "negative_occupancy": ("occupancy", -5)}[defect]
    arr = getattr(model, name).copy()
    arr.flat[0] = value
    return dataclasses.replace(model, **{name: arr})


def save_model_v1(model, path):
    """Write model in the version-1 .ssm layout, which held the metadata as
    two string arrays, the sorted keys and the text of each value."""
    if isinstance(model, HmmModel):
        kind, arrays = "hmm", dict(pi=model.pi, trans=model.trans,
                                   means=model.means, variances=model.vars)
    else:
        kind, arrays = "vq", dict(
            codevectors=model.codevectors,
            cluster_variances=model.cluster_variances,
            occupancy=model.occupancy.astype("<i8"))
    keys = sorted(model.meta)
    with open(path, "wb") as f:
        np.savez(f, magic=np.array("specsep-model"),
                 version=np.array(1, dtype="<i8"), kind=np.array(kind),
                 K=np.array(model.K, dtype="<i8"),
                 dim=np.array(model.dim, dtype="<i8"),
                 meta_keys=np.array(keys, dtype=str),
                 meta_values=np.array([str(model.meta[k]) for k in keys],
                                      dtype=str),
                 **{k: v.astype("<f8") if v.dtype.kind == "f" else v
                    for k, v in arrays.items()})


# damage that makes a .ssm file unreadable, whatever model it holds
BAD_FILES = ("empty", "truncated", "not_npz", "lone_npy", "missing_array",
             "missing_header", "meta_not_object", "meta_not_json",
             "unknown_kind", "wrong_K")


def save_bad_file(model, path, defect):
    """Save model to path, then plant one defect in the file itself."""
    save_model(model, path)
    raw = path.read_bytes()
    with np.load(path) as data:
        entries = dict(data)
    if defect in ("empty", "truncated"):
        path.write_bytes(raw[:len(raw) // 2 if defect == "truncated" else 0])
        return
    if defect == "not_npz":
        path.write_text('{"kind": "hmm", "K": 2}\n')
        return
    if defect == "lone_npy":
        with open(path, "wb") as f:
            np.save(f, entries["K"])
        return
    if defect == "missing_array":
        del entries["variances" if "variances" in entries else "occupancy"]
    elif defect == "missing_header":
        del entries["dim"]
    elif defect == "unknown_kind":
        entries["kind"] = np.array("gmm")
    elif defect == "wrong_K":
        entries["K"] = entries["K"] + 1
    else:
        entries["meta"] = np.array({"meta_not_object": "[8000, 80]",
                                    "meta_not_json": "{hop: 80}"}[defect])
    with open(path, "wb") as f:
        np.savez(f, **entries)


# damage that makes a WAV file unreadable, each with the message that
# read_wav gives after the path; wave.open reads the first three as a bare
# EOFError
BAD_WAVS = {**dict.fromkeys(("empty", "riff_only", "header_cut"),
                            "file ends inside its header"),
            "not_wav": "file does not start with RIFF id"}


def save_bad_wav(path, defect):
    """Write a short WAV file to path, then plant one defect in it."""
    write_wav(path, AudioSignal(np.full(100, 0.1)))
    raw = path.read_bytes()
    path.write_bytes({"empty": b"", "riff_only": raw[:4],
                      "header_cut": raw[:30],
                      "not_wav": b"not a WAV file\n"}[defect])


# signal._shown's text of -10**400 and 10**400, which json reads: an
# integer beyond a float's range is echoed cut to 40 characters
_HUGE_SHOWN = {"-": f"-1{'0' * 38}... (402 characters)",
               "+": f"1{'0' * 39}... (401 characters)"}
# manifests that run_experiment rejects before any run, each with the
# message it raises; BROKEN_SOURCES below adds a pair's broken sources
MANIFEST_DEFECTS = {
    "no_models": "manifest lacks required key 'models'",
    "no_theta_grid": "manifest lacks required key 'theta_grid'",
    "no_methods": "manifest lacks required key 'methods'",
    "no_pairs": "manifest lacks required key 'pairs'",
    "pair_without_id": "manifest 'pairs'[0] lacks required key 'id'",
    "scalar_theta_grid": "manifest 'theta_grid' must be an array, got int",
    "top_level_list": "manifest must be an object, got list",
    "mixed_pair_ids": "manifest pair ids mix strings and numbers",
    "mixed_methods": ("manifest 'methods'[1] must be one of gfhmm, gvq, "
                      "fhmm, vq, got 3"),
    "null_theta": "manifest 'theta_grid'[1] must be a finite number, got None",
    "scalar_framing": "manifest 'framing' must be an object, got int",
    "null_sample_rate": "manifest sample_rate=None is not a positive integer",
    "fractional_hop": "manifest hop=80.7 is not a positive integer",
    "boolean_hop": "manifest hop=True is not a positive integer",
    "fractional_sample_rate": ("manifest sample_rate=8000.5 is not a "
                               "positive integer"),
    "unknown_framing_key": ("manifest 'framing' has unknown key 'hopp' "
                            "(known: frame_len, hop, dft_size)"),
    "nan_theta": "manifest 'theta_grid'[1] must be a finite number, got nan",
    "infinite_theta": ("manifest 'theta_grid'[0] must be a finite number, "
                       "got -inf"),
    "boolean_theta0": "manifest 'theta0' must be a finite number, got True",
    "string_theta0": "manifest 'theta0' must be a finite number, got '5'",
    "nan_theta0": "manifest 'theta0' must be a finite number, got nan",
    "string_fix_theta": ("manifest 'fix_theta' must be a finite number or "
                         "null, got '5'"),
    "fractional_seed": ("manifest 'seed' must be a non-negative integer, "
                        "got 1.5"),
    "fractional_jobs": "manifest 'jobs' must be a positive integer, got 1.5",
    "negative_seed": "manifest 'seed' must be a non-negative integer, got -3",
    "zero_jobs": "manifest 'jobs' must be a positive integer, got 0",
    "huge_theta0": ("manifest 'theta0' must be a finite number, got "
                    f"{_HUGE_SHOWN['-']}"),
    "huge_theta": ("manifest 'theta_grid'[1] must be a finite number, got "
                   f"{_HUGE_SHOWN['+']}"),
    "huge_fix_theta": ("manifest 'fix_theta' must be a finite number or "
                       f"null, got {_HUGE_SHOWN['-']}"),
    "huge_sample_rate": (f"manifest sample_rate={_HUGE_SHOWN['-']} is not a "
                         "positive integer"),
    "huge_negative_hop": (f"manifest hop={_HUGE_SHOWN['-']} is not a "
                          "positive integer"),
    # a positive integer, but beyond frame_len
    "huge_hop": (f"manifest 'framing' {{'hop': 1{'0' * 31}... (410 "
                 "characters): need 0 < hop <= frame_len <= dft_size"),
    "huge_duplicate_pair_id": ("manifest has duplicate pair id "
                               f"{_HUGE_SHOWN['+']}"),
    "unknown_key": ("manifest has unknown key 'fix_thetaa' (known: "
                    "theta_grid, methods, models, pairs, sample_rate, "
                    "framing, seed, jobs, theta0, fix_theta)"),
    "long_unknown_key": (f"manifest has unknown key '{'k' * 39}... (10002 "
                         "characters) (known: theta_grid, methods, models, "
                         "pairs, sample_rate, framing, seed, jobs, theta0, "
                         "fix_theta)"),
    "unknown_method": ("manifest 'methods'[1] must be one of gfhmm, gvq, "
                       "fhmm, vq, got 'gfhm'"),
    "missing_model_key": ("manifest 'models' lacks 'hmm_x', which method "
                          "'fhmm' needs as a path string"),
    "non_string_model_path": ("manifest 'models' 'vq_x' must be a path "
                              "string, got ['a']"),
    "outside_fix_theta": ("manifest 'fix_theta' 20 dB is outside "
                          "[-15.0, 15.0] dB"),
    "nan_pair_id": ("manifest 'pairs'[1] 'id' must be a string or a number, "
                    "got nan"),
    "hop_beyond_frame_len": ("manifest 'framing' {'hop': 300}: need 0 < hop "
                             "<= frame_len <= dft_size"),
    "pair_level_seed": ("manifest 'pairs'[0] has unknown key 'seed' (known: "
                        "id, target, interf)"),
    "unknown_model_key": ("manifest 'models' has unknown key 'vq_z' (known: "
                          "hmm_x, hmm_v, vq_x, vq_v)"),
    "duplicate_pair_id": "manifest has duplicate pair id 'p0'",
    "repeated_theta": "manifest has duplicate theta 0",
    "repeated_method": "manifest has duplicate method 'vq'",
}

# a pair's interf source entry with one defect planted, and its message
# after the name of the entry; each would otherwise fail every row of the
# pair
_DURATION = ("'synth' duration must be a finite number of seconds giving at "
             "least one sample at 8000 Hz, got ")
BROKEN_SOURCES = {
    "source_without_wav_or_synth": (
        {"wave": "v.wav"},
        "has unknown key 'wave' (known: wav, synth)"),
    "source_with_wav_and_synth": (
        {"wav": "v.wav", "synth": {"kind": "tonal"}},
        "must hold exactly one of 'wav' and 'synth', got ['synth', 'wav']"),
    "non_string_wav": ({"wav": 3}, "'wav' must be a path string, got 3"),
    "scalar_synth": ({"synth": "tonal"},
                     "'synth' must be an object, got str"),
    "null_interf": (None, "must be an object, got NoneType"),
    "unknown_synth_kind": (
        {"synth": {"kind": "speech"}},
        "'synth' 'kind' must be one of hmm_sample, tonal, filtered_noise, "
        "got 'speech'"),
    "misspelt_synth_key": (
        {"synth": {"kind": "tonal", "duratoin": 1.0}},
        "'synth' has unknown key 'duratoin' (known: kind, duration, speaker, "
        "seed, model)"),
    "hmm_sample_without_model": (
        {"synth": {"kind": "hmm_sample"}},
        "'synth' lacks 'model', which kind 'hmm_sample' needs"),
    "non_string_synth_model": (
        {"synth": {"kind": "hmm_sample", "model": ["v.ssm"]}},
        "'synth' 'model' must be a path string, got ['v.ssm']"),
    "negative_synth_duration": ({"synth": {"kind": "tonal", "duration": -1}},
                                _DURATION + "-1"),
    "nan_synth_duration": ({"synth": {"kind": "tonal",
                                      "duration": float("nan")}},
                           _DURATION + "nan"),
    "boolean_synth_duration": ({"synth": {"kind": "tonal", "duration": True}},
                               _DURATION + "True"),
    # half a sample at the default 8 kHz rounds to none
    "sub_sample_synth_duration": ({"synth": {"kind": "tonal",
                                             "duration": 0.5 / 8000}},
                                  _DURATION + "6.25e-05"),
    "negative_synth_speaker": (
        {"synth": {"kind": "tonal", "speaker": -1}},
        "'synth' speaker must be an integer >= 0, got -1"),
    "fractional_synth_seed": (
        {"synth": {"kind": "tonal", "seed": 1.5}},
        "'synth' seed must be an integer >= 0, got 1.5"),
    "huge_synth_duration": ({"synth": {"kind": "tonal",
                                       "duration": 10 ** 400}},
                            _DURATION + _HUGE_SHOWN["+"]),
    "huge_synth_seed": (
        {"synth": {"kind": "tonal", "seed": -10 ** 400}},
        f"'synth' seed must be an integer >= 0, got {_HUGE_SHOWN['-']}"),
}
MANIFEST_DEFECTS.update((defect, f"manifest 'pairs'[0] 'interf' {message}")
                        for defect, (_, message) in BROKEN_SOURCES.items())


def patch_out_decoding(monkeypatch):
    """Patch both decode kernels to fail, for checks that must raise
    before any decode."""
    def no_decode(*args, **kwargs):
        raise AssertionError("decoded before checking the options")

    monkeypatch.setattr("specsep.decode._viterbi_from_table", no_decode)
    monkeypatch.setattr("specsep.decode.gvq_score", no_decode)


def broken_manifest(defect):
    """A small manifest with one defect planted."""
    manifest = {"theta_grid": [0], "methods": ["vq"],
                "models": {"vq_x": "x.ssm", "vq_v": "v.ssm"},
                "pairs": [{"id": "p0", "target": {"wav": "x.wav"},
                           "interf": {"wav": "v.wav"}}]}
    if defect == "top_level_list":
        return [manifest]
    if defect == "scalar_theta_grid":
        return {**manifest, "theta_grid": 0}
    if defect == "mixed_pair_ids":
        return {**manifest, "pairs": manifest["pairs"]
                + [{**manifest["pairs"][0], "id": 1}]}
    # rows sort by pair id, which NaN does not order
    if defect == "nan_pair_id":
        return {**manifest, "pairs": [{**manifest["pairs"][0], "id": i}
                                      for i in (0, float("nan"))]}
    if defect in BROKEN_SOURCES:
        return {**manifest, "pairs": [{**manifest["pairs"][0],
                                       "interf": BROKEN_SOURCES[defect][0]}]}
    if defect == "mixed_methods":
        return {**manifest, "methods": ["vq", 3]}
    if defect == "null_theta":
        return {**manifest, "theta_grid": [0, None]}
    # json reads (and writes) NaN and Infinity
    if defect == "nan_theta":
        return {**manifest, "theta_grid": [0, float("nan")]}
    if defect == "infinite_theta":
        return {**manifest, "theta_grid": [float("-inf"), 0]}
    # json reads an integer of any size; this one is beyond a float's range
    if defect == "huge_theta":
        return {**manifest, "theta_grid": [0, 10 ** 400]}
    # "<kind of value>_<run option>"
    kind, _, key = defect.partition("_")
    if key in ("theta0", "fix_theta", "seed", "jobs"):
        return {**manifest, key: {"boolean": True, "string": "5",
                                  "nan": float("nan"), "fractional": 1.5,
                                  "negative": -3, "zero": 0,
                                  "huge": -10 ** 400, "outside": 20}[kind]}
    if defect == "scalar_framing":
        return {**manifest, "framing": 3}
    if defect == "null_sample_rate":
        return {**manifest, "sample_rate": None}
    if defect == "fractional_hop":
        return {**manifest, "framing": {"hop": 80.7}}
    if defect == "boolean_hop":
        return {**manifest, "framing": {"hop": True}}
    # each setting a positive integer, but no FramingConfig has them
    if defect == "hop_beyond_frame_len":
        return {**manifest, "framing": {"hop": 300}}
    if defect == "huge_sample_rate":
        return {**manifest, "sample_rate": -10 ** 400}
    if defect in ("huge_hop", "huge_negative_hop"):
        return {**manifest, "framing": {
            "hop": 10 ** 400 if defect == "huge_hop" else -10 ** 400}}
    if defect == "huge_duplicate_pair_id":
        return {**manifest, "pairs": [{**manifest["pairs"][0], "id": 10 ** 400}
                                      for _ in range(2)]}
    # each would write rows that no reader can tell apart, and count twice
    # in summarize_rows's n
    if defect == "repeated_theta":
        return {**manifest, "theta_grid": [0, 0.0]}
    if defect == "repeated_method":
        return {**manifest, "methods": ["vq", "vq"]}
    if defect == "unknown_key":
        return {**manifest, "fix_thetaa": 3}
    # a json key may be of any length, and is echoed cut like a value
    if defect == "long_unknown_key":
        return {**manifest, "k" * 10000: 1}
    if defect == "unknown_method":
        return {**manifest, "methods": ["vq", "gfhm"]}
    # fhmm needs hmm_x and hmm_v, which the models object lacks
    if defect == "missing_model_key":
        return {**manifest, "methods": ["vq", "fhmm"]}
    # the paths vq needs are a list and a number
    if defect == "non_string_model_path":
        return {**manifest, "models": {"vq_x": ["a"], "vq_v": 5}}
    if defect == "unknown_framing_key":
        return {**manifest, "framing": {"hopp": 40}}
    if defect == "fractional_sample_rate":
        return {**manifest, "sample_rate": 8000.5}
    # keys that only a pair's own or the models object's schema knows
    if defect == "pair_level_seed":
        return {**manifest, "pairs": [{**manifest["pairs"][0], "seed": 5}]}
    if defect == "unknown_model_key":
        return {**manifest, "models": {**manifest["models"], "vq_z": 3}}
    # two pairs would write rows that no reader can tell apart
    if defect == "duplicate_pair_id":
        return {**manifest, "pairs": manifest["pairs"] * 2}
    if defect == "pair_without_id":
        return {**manifest, "pairs": [{"target": {"wav": "x.wav"},
                                       "interf": {"wav": "v.wav"}}]}
    del manifest[defect.removeprefix("no_")]
    return manifest


def overflowing(model):
    """A copy of an HmmModel or Codebook that passes validate() but whose
    decoder scores overflow: means or codevectors of 1e200."""
    mean = "means" if isinstance(model, HmmModel) else "codevectors"
    return dataclasses.replace(
        model, **{mean: np.full_like(getattr(model, mean), 1e200)})


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


def backpointer_viterbi(b, log_pi_x, log_pi_v, log_a_x, log_a_v):
    """Two-stage product-state Viterbi that stores its argmax tables, the
    reference for the production decoder, which keeps no backpointers.

    Each frame takes the max over i for every (j, l), then over l for every
    (j, k), ties to the smallest index at each stage, and records the
    winning (i, l) per (j, k); termination picks the lexicographically
    smallest best (j, k).  Returns (path_x, path_v, logprob).
    """
    R, K_x, K_v = b.shape
    delta = log_pi_x[:, None] + log_pi_v[None, :] + b[0]
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
        psi_l[r] = l_star
        psi_i[r] = np.take_along_axis(i_star, l_star, axis=1)
    j, k = divmod(int(np.argmax(delta)), K_v)
    logprob = float(delta[j, k])
    path_x = np.empty(R, dtype=np.int64)
    path_v = np.empty(R, dtype=np.int64)
    path_x[R - 1], path_v[R - 1] = j, k
    for r in range(R - 1, 0, -1):
        j, k = psi_i[r, j, k], psi_l[r, j, k]
        path_x[r - 1], path_v[r - 1] = j, k
    return path_x, path_v, logprob


def per_utterance_forward_backward(frames, pi, trans, means, variances):
    """Scaled forward-backward pass over one utterance, frame by frame: the
    reference for models._forward_backward, which runs every utterance at
    once and sets values below np.finfo(float).tiny to 0 where they feed a
    product.

    pi and trans are probabilities, not logs.  Returns the state posteriors
    gamma (R, K), the expected transition counts xi_sum (K, K) and the
    natural-log likelihood.
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


def per_frame_xi_counts(frames, pi, trans, means, variances):
    """Expected transition counts of one utterance summed frame by frame,
    each frame's K x K xi table divided by its own sum: the reference for
    models._forward_backward, which forms the pooled sum as one product.

    Same scaled forward-backward recursions as production; pi and trans are
    probabilities, not logs.
    """
    R, K = frames.shape[0], pi.shape[0]
    logB = log_gauss_table(frames, means, variances)
    B = np.exp(logB - logB.max(axis=1)[:, None])
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
    xi_sum = np.zeros((K, K))
    for t in range(R - 1):
        xi = (alpha[t][:, None] * trans) * (B[t + 1] * beta[t + 1])[None, :]
        xi /= xi.sum()
        xi_sum += xi
    return xi_sum


def loop_overlap_add(frames, hop):
    """Overlap-add of (..., R, L) frames, one frame at a time in frame
    order: the reference for signal.overlap_add, which adds one slab per
    hop-sized segment."""
    R, L = frames.shape[-2:]
    out = np.zeros(frames.shape[:-2] + ((R - 1) * hop + L,))
    for r in range(R):
        out[..., r * hop : r * hop + L] += frames[..., r, :]
    return out


def broadcast_gvq_costs(y_seq, cb_x, cb_v, theta, ctx):
    """(R, K_x, K_v) VQ pair costs by the exact broadcast, the reference for
    quantize.gvq_score: every pair's gain-shifted maximum, then each
    frame's squared error against it summed over bins."""
    combined = mixmax_combine(cb_x.codevectors[:, None, :],  # (K, K, dim)
                              cb_v.codevectors[None, :, :],
                              gains_from_theta(theta, ctx))
    return np.array([((y - combined) ** 2).sum(axis=-1) for y in y_seq])


def log_b_jk(y, mean_x, var_x, mean_v, var_v, gp):
    """Joint emission log-likelihood of mixture frame y for one state pair,
    the per-pair reference for mixmax.log_b_table.

    Per bin, the larger gain-shifted state mean wins and contributes its
    own variance; the observation is scored against that dominant Gaussian.
    Exact ties go to the target state.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != mean_x.shape or y.shape != mean_v.shape:
        raise ValueError("dimension mismatch between frame and state means")
    if np.any(var_x <= 0.0) or np.any(var_v <= 0.0):
        raise ValueError("non-positive variance")
    m_x = mean_x + gp.log10_gx
    m_v = mean_v + gp.log10_gv
    target_wins = m_x >= m_v
    m_max = np.where(target_wins, m_x, m_v)
    var_max = np.where(target_wins, var_x, var_v)
    terms = -0.5 * ((y - m_max) ** 2 / var_max + np.log(var_max) + LOG_2PI)
    return float(terms.sum())


def path_loglik(paths, y_seq, lambda_x, lambda_v, theta, ctx):
    """Joint log-likelihood of a fixed path pair as a function of theta,
    the reference for brute-force and Viterbi scores.

    Initial and transition terms do not depend on theta; for fixed paths
    this is the objective that the theta optimizer maximizes.
    """
    path_x, path_v = (np.asarray(p, dtype=np.int64) for p in paths)
    y_seq = _check_fit(y_seq, lambda_x, lambda_v)
    R = y_seq.shape[0]
    if path_x.shape != (R,) or path_v.shape != (R,):
        raise ValueError("path length does not match frame count")
    for p, K in ((path_x, lambda_x.K), (path_v, lambda_v.K)):
        if p.min() < 0 or p.max() >= K:
            raise ValueError("path contains invalid state indices")
    const = float(lambda_x.pi[path_x[0]] + lambda_v.pi[path_v[0]]
                  + lambda_x.trans[path_x[:-1], path_x[1:]].sum()
                  + lambda_v.trans[path_v[:-1], path_v[1:]].sum())
    emis = path_emission_loglik(
        y_seq, lambda_x.means[path_x], lambda_x.vars[path_x],
        lambda_v.means[path_v], lambda_v.vars[path_v],
        gains_from_theta(theta, ctx))
    return const + emis


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
