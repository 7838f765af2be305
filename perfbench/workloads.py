"""Seeded inputs, operations and output checks for the perfbench workloads.

Every input comes from the workload seed: the speaker generators are fixed
formant-style HMMs, and the seed picks the sampled clips and mixtures.  The
library sees only the generated signals and the models trained from them.
A workload's setup() builds its inputs; run_pass() makes one pass over its
operations, timing each one and checking its output before the next one
starts (one caller, closed loop).
"""

import csv
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from specsep import (AudioSignal, FramingConfig, HmmModel,
                     init_hmm_from_codebook, mix_at_tir, normalize_equal_power,
                     save_model, snr, synth_source, write_wav)
from specsep.gain import THETA_MAX_DB

CFG = FramingConfig()
SAMPLE_RATE = 8000
THETAS_DB = (-6.0, 0.0, 6.0, 12.0)
MIX_S = 2.0
MEGA_FRAME_S = 1.0
BATCH_PAIRS = 3
# Lloyd (per splitting level), Baum-Welch and the gfhmm/gvq outer loop run
# fixed iteration counts (tolerance 0), so the work per call does not
# depend on the seed and timings stay comparable across seeds
LLOYD_ITERS = 8
BW_ITERS = 4
OUTER_ROUNDS = 3
# each speaker trains on N_CLIPS clips of CLIP_S seconds
N_CLIPS = 8
CLIP_S = 1.5
TRAIN_AUDIO_S = N_CLIPS * CLIP_S
GAIN_ADAPTED = ("gfhmm", "gvq")
# x_hat + v_hat must give back the mixture away from the edges, since the
# two masks are complementary; the overlap-add error is below 1e-15
RECON_TOL = 1e-9
BATCH_JOBS = 2


def _bump(bins, center, width, amp):
    return amp * np.exp(-0.5 * ((bins - center) / width) ** 2)


def generator_pair():
    """Two fixed formant-style generator HMMs, one per speaker.

    States are pairs of narrow formant peaks over a deep base, so that in
    most bins one source dominates the mixture.  Two states are shared by
    both speakers and visited in different cyclic orders, which makes
    single frames ambiguous and leaves the temporal context to the decoder.
    """
    K, dim = 6, CFG.n_bins
    bins = np.arange(dim)
    base, width, amp = -2.5, 3.0, 3.0
    shared = [_bump(bins, 24, width, amp) + _bump(bins, 52, width, 0.7 * amp),
              _bump(bins, 34, width, 0.9 * amp) + _bump(bins, 70, width,
                                                        0.8 * amp)]

    def means(offset):
        m = np.empty((K, dim))
        m[:2] = shared
        for j in range(2, K):
            m[j] = (_bump(bins, 12 + offset + 11 * (j - 2), width, amp)
                    + _bump(bins, 44 + offset + 13 * (j - 2), width,
                            0.7 * amp))
        return m + base

    def cyclic(order, stay=0.6, leak=0.02):
        trans = np.full((K, K), leak)
        for i in range(K):
            trans[order[i], order[i]] += stay
            trans[order[i], order[(i + 1) % K]] += 1.0 - stay - leak * K
        return np.log(trans / trans.sum(axis=1, keepdims=True))

    pi = np.log(np.full(K, 1.0 / K))
    var = np.full((K, dim), 0.06)
    return (HmmModel(pi.copy(), cyclic(list(range(K))), means(0), var.copy()),
            HmmModel(pi.copy(), cyclic([0, 3, 1, 5, 2, 4]), means(6),
                     var.copy()))


def unit_rms(sig):
    return AudioSignal(sig.samples / np.sqrt(np.mean(sig.samples ** 2)),
                       sig.sample_rate)


def training_clips(seed):
    """Unit-RMS training clips for both speakers, sampled from their
    generators."""
    return [[unit_rms(synth_source("hmm_sample", model=gen,
                                   seed=10_000 * seed + 1000 * s + i,
                                   duration=CLIP_S, cfg=CFG))
             for i in range(N_CLIPS)]
            for s, gen in enumerate(generator_pair())]


@dataclass
class Trained:
    codebook: object
    hmm: object
    bw_trace: list
    n_frames: int
    wall_s: float

    @property
    def ll_per_frame(self):
        return self.bw_trace[-1] / self.n_frames


def train_speaker(api, clips, K):
    """What `specsep train` does for one speaker: features, LBG, then
    VQ-initialised Baum-Welch."""
    t0 = time.perf_counter()
    feats = [api.log_spectra(c, CFG) for c in clips]
    cb = api.train_lbg(np.vstack(feats), K, max_iters=LLOYD_ITERS,
                       rel_tol=0.0, distortion_trace=[])
    hmm, trace = api.baum_welch(feats, init_hmm_from_codebook(cb),
                                rel_tol=0.0, max_iters=BW_ITERS)
    return Trained(cb, hmm, trace, sum(f.shape[0] for f in feats),
                   time.perf_counter() - t0)


def check_trained(t, K):
    """Problems with one trained speaker (empty list when it is sound)."""
    problems = []
    cb, hmm = t.codebook, t.hmm
    if cb.K != K or hmm.K != K:
        problems.append(f"expected K={K}, got {cb.K}/{hmm.K}")
    arrays = (cb.codevectors, cb.cluster_variances, hmm.pi, hmm.trans,
              hmm.means, hmm.vars)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        problems.append("non-finite model parameter")
    elif np.any(hmm.vars <= 0) or np.any(cb.cluster_variances <= 0):
        problems.append("non-positive variance")
    elif not np.allclose(np.exp(hmm.trans).sum(axis=1), 1.0, atol=1e-6):
        problems.append("transition rows do not sum to 1")
    ll = np.asarray(t.bw_trace)
    if ll.size != BW_ITERS or not np.all(np.isfinite(ll)):
        problems.append(f"Baum-Welch trace {ll.tolist()} is not "
                        f"{BW_ITERS} finite values")
    elif np.any(np.diff(ll) < -1e-6 * np.abs(ll[:-1])):
        problems.append("Baum-Welch log-likelihood decreased")
    return problems


@dataclass
class Mixture:
    signal: AudioSignal
    ref_x: AudioSignal
    ref_v: AudioSignal
    theta: float

    @property
    def duration(self):
        return self.signal.duration


def make_mixture(gen_x, gen_v, seed, theta, duration):
    """Mix one seeded target/interference pair at theta dB, keeping the
    scaled sources as SNR references."""
    x = synth_source("hmm_sample", model=gen_x, seed=seed, duration=duration,
                     cfg=CFG)
    v = synth_source("hmm_sample", model=gen_v, seed=seed + 1,
                     duration=duration, cfg=CFG)
    x, v = normalize_equal_power(x, v)
    mix, gx, gv = mix_at_tir(x, v, theta)
    n = len(mix)
    return Mixture(mix, AudioSignal(gx * x.samples[:n], SAMPLE_RATE),
                   AudioSignal(gv * v.samples[:n], SAMPLE_RATE), theta)


def check_separation(mix, x_hat, v_hat, theta_hat):
    """Problems with one separation (empty list when it is sound).

    Besides finiteness and the theta bound, the two estimates must add
    back up to the mixture away from the edges (complementary masks), and
    each must lie nearer its own reference than the other source's, which
    catches a target/interference swap.
    """
    xs, vs, y = x_hat.samples, v_hat.samples, mix.signal.samples
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
        return ["non-finite output"]
    problems = []
    if not (np.isfinite(theta_hat) and abs(theta_hat) <= THETA_MAX_DB):
        problems.append(f"theta_hat {theta_hat} outside +/-{THETA_MAX_DB}")
    n = min(len(xs), len(vs), len(y))
    lo, hi = CFG.frame_len, n - CFG.frame_len
    err = np.max(np.abs(xs[lo:hi] + vs[lo:hi] - y[lo:hi]), initial=0.0)
    if err > RECON_TOL * np.max(np.abs(y)):
        problems.append(f"x_hat + v_hat misses the mixture by {err:.3g}")
    rx, rv = mix.ref_x.samples[:n], mix.ref_v.samples[:n]
    if (np.sum((xs[:n] - rx) ** 2) >= np.sum((xs[:n] - rv) ** 2)
            or np.sum((vs[:n] - rv) ** 2) >= np.sum((vs[:n] - rx) ** 2)):
        problems.append("estimates nearer the other source (swapped)")
    return problems


@dataclass
class Record:
    """What the timed passes of one run produced.

    rtf holds one real-time factor per mixture (the separate() seconds
    spent on it over all of the workload's methods, per second of audio)
    or per trained speaker; audio_s sums the audio of every operation.
    """

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    rtf: list = field(default_factory=list)
    audio_s: float = 0.0
    train_s: list = field(default_factory=list)
    train_ll: list = field(default_factory=list)
    snr_x: list = field(default_factory=list)
    snr_v: list = field(default_factory=list)
    theta_err: list = field(default_factory=list)

    def check(self, problems):
        """Count one operation; True when its output passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def fail(self, exc):
        self.check([f"{type(exc).__name__}: {exc}"])

    def separated(self, method, theta, snr_x, snr_v, theta_hat):
        self.snr_x.append(snr_x)
        self.snr_v.append(snr_v)
        if method in GAIN_ADAPTED:
            self.theta_err.append(abs(theta_hat - theta))

    def quality(self):
        """Mean quality guards; deterministic for a given seed."""
        out = {}
        for name, vals in (("snr_x_db", self.snr_x), ("snr_v_db", self.snr_v),
                           ("theta_err_db", self.theta_err),
                           ("train_ll_per_frame", self.train_ll)):
            if vals:
                out[name] = float(np.mean(vals))
        return out


def train_pair(api, seed, K):
    """Both speakers trained from their seeded clips."""
    return [train_speaker(api, clips, K) for clips in training_clips(seed)]


class SeparationWorkload:
    """separate() on seeded mixtures, one call per (mixture, method)."""

    def __init__(self, kind, methods, K):
        self.kind = kind                      # "hmm" or "vq"
        self.methods = methods
        self.K = K

    def setup(self, api, seed):
        gen_x, gen_v = generator_pair()
        mixtures = [make_mixture(gen_x, gen_v, 10_000 * seed + 5000 + 2 * i,
                                 th, MIX_S)
                    for i, th in enumerate(THETAS_DB)]
        return {"models": train_pair(api, seed, self.K),
                "mixtures": mixtures}

    def run_pass(self, api, state, rec):
        tx, tv = state["models"]
        pair = ((tx.hmm, tv.hmm) if self.kind == "hmm"
                else (tx.codebook, tv.codebook))
        for mix in state["mixtures"]:
            spent, ok = 0.0, True
            for method in self.methods:
                rec.audio_s += mix.duration
                try:
                    t0 = time.perf_counter()
                    x_hat, v_hat, diag = api.separate(
                        mix.signal, *pair, CFG, method=method,
                        outer_tol=0.0, max_outer=OUTER_ROUNDS,
                        mega_frame_seconds=MEGA_FRAME_S)
                    spent += time.perf_counter() - t0
                    problems = check_separation(mix, x_hat, v_hat,
                                                diag["theta_hat"])
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    rec.fail(exc)
                    ok = False
                    continue
                if rec.check(problems):
                    rec.separated(method, mix.theta, snr(mix.ref_x, x_hat),
                                  snr(mix.ref_v, v_hat), diag["theta_hat"])
                else:
                    ok = False
            if ok:
                rec.rtf.append(spent / mix.duration)


class TrainWorkload:
    """train_lbg then baum_welch for each speaker, as `specsep train`."""

    def __init__(self, K):
        self.K = K

    def setup(self, api, seed):
        return {"clips": training_clips(seed)}

    def run_pass(self, api, state, rec):
        for clips in state["clips"]:
            rec.audio_s += TRAIN_AUDIO_S
            try:
                trained = train_speaker(api, clips, self.K)
                problems = check_trained(trained, self.K)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                rec.fail(exc)
                continue
            if rec.check(problems):
                rec.rtf.append(trained.wall_s / TRAIN_AUDIO_S)
                rec.train_s.append(trained.wall_s)
                rec.train_ll.append(trained.ll_per_frame)


RESULT_FIELDS = ("theta_hat", "iterations", "snr_target_db", "snr_interf_db",
                 "logprob", "wall_ms")


def check_row(row):
    """Problems with one evaluate CSV row."""
    if row["error"]:
        return [f"row error: {row['error']}"]
    try:
        values = [float(row[k]) for k in RESULT_FIELDS]
    except ValueError as exc:
        return [f"unparsable row: {exc}"]
    if not all(np.isfinite(values)):
        return ["non-finite value in row"]
    if abs(values[0]) > THETA_MAX_DB:
        return [f"theta_hat {values[0]} outside +/-{THETA_MAX_DB}"]
    return []


class BatchWorkload:
    """evaluate.run_experiment over every method and theta with a thread
    pool, on models and clips written to disk in set-up."""

    METHODS = ("gfhmm", "gvq", "fhmm", "vq")

    def __init__(self, K, workdir):
        self.K = K
        self.workdir = workdir

    def setup(self, api, seed):
        tx, tv = train_pair(api, seed, self.K)
        os.makedirs(self.workdir, exist_ok=True)
        models = {}
        for key, model in (("hmm_x", tx.hmm), ("hmm_v", tv.hmm),
                           ("vq_x", tx.codebook), ("vq_v", tv.codebook)):
            models[key] = os.path.join(self.workdir, f"{key}.ssm")
            save_model(model, models[key])
        pairs = []
        for p in range(BATCH_PAIRS):
            entry = {"id": f"p{p}"}
            for off, (role, gen) in enumerate(zip(("target", "interf"),
                                                  generator_pair())):
                path = os.path.join(self.workdir, f"p{p}_{role}.wav")
                write_wav(path, synth_source(
                    "hmm_sample", model=gen,
                    seed=10_000 * seed + 5000 + 2 * p + off,
                    duration=MIX_S, cfg=CFG))
                entry[role] = {"wav": path}
            pairs.append(entry)
        manifest = {"sample_rate": SAMPLE_RATE, "theta_grid": list(THETAS_DB),
                    "methods": list(self.METHODS), "models": models,
                    "pairs": pairs}
        return {"manifest": manifest, "models": [tx, tv],
                "csv": os.path.join(self.workdir, "results.csv")}

    def run_pass(self, api, state, rec):
        manifest = state["manifest"]
        expected = (len(manifest["pairs"]) * len(THETAS_DB)
                    * len(self.METHODS))
        try:
            api.run_experiment(manifest, state["csv"], jobs=BATCH_JOBS)
            with open(state["csv"], newline="") as f:
                rows = list(csv.DictReader(f))
        except Exception as exc:  # noqa: BLE001 - counted as failed
            rec.fail(exc)
            return
        if len(rows) != expected:
            rec.fail(RuntimeError(f"{len(rows)} rows, expected {expected}"))
        spent, failed = defaultdict(float), set()
        for row in rows:
            rec.audio_s += MIX_S
            key = (row["pair_id"], row["theta_true"])
            if rec.check(check_row(row)):
                rec.separated(row["method"], float(row["theta_true"]),
                              float(row["snr_target_db"]),
                              float(row["snr_interf_db"]),
                              float(row["theta_hat"]))
                spent[key] += float(row["wall_ms"]) / 1e3
            else:
                failed.add(key)
        rec.rtf.extend(s / MIX_S for key, s in spent.items()
                       if key not in failed)


def workloads(workdir):
    """The benchmark's workloads by name (see BENCHMARK.json for why)."""
    return {
        "hmm_k64": SeparationWorkload("hmm", ("gfhmm", "fhmm"), K=64),
        "vq_k64": SeparationWorkload("vq", ("gvq", "vq"), K=64),
        "train_k64": TrainWorkload(K=64),
        "batch_k16": BatchWorkload(K=16, workdir=workdir),
    }


def median(values):
    return float(statistics.median(values)) if values else float("nan")
