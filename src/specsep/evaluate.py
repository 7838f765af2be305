"""Mixture fabrication at controlled target-to-interference ratios, SNR
scoring, synthetic source generation, and the batch experiment runner that
writes one CSV row per (pair, theta, method) run."""

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np

from .gain import estimate_gy
from .models import HmmModel, ModelMismatchError, load_model
from .separate import model_kind, separate
from .signal import (DEFAULT_SAMPLE_RATE, AudioSignal, FramingConfig,
                     _check_settings, read_wav, synthesize)

SNR_CAP_DB = 100.0

CSV_COLUMNS = ["pair_id", "method", "theta_true", "theta_hat", "iterations",
               "snr_target_db", "snr_interf_db", "logprob", "wall_ms",
               "error"]


def normalize_equal_power(x, v):
    """Scale both signals to unit RMS (the equal-power convention)."""
    out = []
    for sig in (x, v):
        rms = estimate_gy(sig)          # raises on silent input
        out.append(AudioSignal(sig.samples / rms, sig.sample_rate))
    return out[0], out[1]


def _tir_gain(theta):
    """(1 + 10^(-theta/10))^(-1/2), the target's gain at theta dB, without
    overflow: below -160 dB, 1 + 10^(-theta/10) rounds to 10^(-theta/10),
    and the gain is 10^(theta/20)."""
    if theta < -160.0:
        return 10.0 ** (theta / 20.0)
    return (1.0 + 10.0 ** (-theta / 10.0)) ** -0.5


def mix_at_tir(x, v, theta):
    """Mix two unit-RMS sources at a target-to-interference ratio (dB).

    Gains satisfy gx^2 + gv^2 = 1, so the mixture RMS stays near the
    nominal source level.  Returns (mixture, gx, gv); the scaled
    components gx*x and gv*v are the references for SNR scoring.  theta
    must be a finite number (ValueError otherwise); at a large |theta| the
    weaker source's gain may round to 0.
    """
    n = min(len(x), len(v))
    if n == 0:
        raise ValueError("empty input")
    if x.sample_rate != v.sample_rate:
        raise ValueError("sample rate mismatch between sources")
    if not np.isfinite(theta):
        raise ValueError(f"TIR {theta} dB is not a finite number")
    gx, gv = _tir_gain(theta), _tir_gain(-theta)
    y = gx * x.samples[:n] + gv * v.samples[:n]
    return AudioSignal(y, x.sample_rate), gx, gv


def snr(reference, estimate):
    """10*log10 of reference power over residual power, in dB.

    Signals are trimmed to the shorter length.  Capped at +100 dB once the
    residual drops below 1e-10 of the reference power.
    """
    n = min(len(reference), len(estimate))
    ref = reference.samples[:n]
    est = estimate.samples[:n]
    ref_power = float(np.sum(ref ** 2))
    if ref_power == 0.0:
        raise ValueError("silent reference")
    resid_power = float(np.sum((ref - est) ** 2))
    if resid_power < 1e-10 * ref_power:
        return SNR_CAP_DB
    return float(10.0 * np.log10(ref_power / resid_power))


def sample_hmm_frames(model, n_frames, rng):
    """Draw a state path from (pi, a) and one log-spectral frame per state
    from the state Gaussian.  Returns (frames, states)."""
    pi = np.exp(model.pi)
    trans = np.exp(model.trans)
    states = np.empty(n_frames, dtype=np.int64)
    states[0] = rng.choice(model.K, p=pi / pi.sum())
    for r in range(1, n_frames):
        row = trans[states[r - 1]]
        states[r] = rng.choice(model.K, p=row / row.sum())
    frames = (model.means[states]
              + rng.standard_normal((n_frames, model.dim))
              * np.sqrt(model.vars[states]))
    return frames, states


def _frames_to_signal(log_frames, cfg, sample_rate, rng):
    """Synthesize a waveform from log-spectral frames via random phase and
    Hann overlap-add."""
    phase = rng.uniform(0.0, 2.0 * np.pi, log_frames.shape)
    phase[:, [0, -1]] = 0.0             # DC and Nyquist stay real
    out = synthesize(10.0 ** log_frames * np.exp(1j * phase), cfg)
    peak = np.max(np.abs(out))
    if peak > 0:
        out = out / peak * 0.5
    return AudioSignal(out, sample_rate)


def synth_source(kind, model=None, seed=0, duration=2.0,
                 sample_rate=8000, cfg=None, speaker=0):
    """Deterministic synthetic test source.

    kind "hmm_sample": draw a state path from the model's (pi, a) and one
    log-spectral frame per state from its Gaussian, then synthesize with
    random phase and overlap-add (model must be an HmmModel, else
    ModelMismatchError).  kind "tonal": a sum of harmonics of a
    speaker-specific fundamental, so different speakers occupy disjoint
    DFT bins.  kind "filtered_noise": white noise shaped by a fixed
    speaker-specific spectral envelope.
    """
    rng = np.random.default_rng(seed)
    cfg = cfg or FramingConfig()
    n = int(round(duration * sample_rate))

    if kind == "hmm_sample":
        if not isinstance(model, HmmModel):
            raise ModelMismatchError("hmm_sample needs an HmmModel as its "
                                     f"model, got {type(model).__name__}")
        R = max(1, (n - cfg.frame_len) // cfg.hop + 1)
        frames, _ = sample_hmm_frames(model, R, rng)
        return _frames_to_signal(frames, cfg, sample_rate, rng)

    t = np.arange(n) / sample_rate
    if kind == "tonal":
        # speaker s uses bins (8 + 5s), 2*(8 + 5s), 3*(8 + 5s): disjoint
        # dominant bins across small speaker ids
        base_bin = 8 + 5 * speaker
        f0 = base_bin * sample_rate / cfg.dft_size
        x = np.zeros(n)
        for h, amp in ((1, 1.0), (2, 0.5), (3, 0.25)):
            phase = rng.uniform(0, 2 * np.pi)
            x += amp * np.sin(2 * np.pi * h * f0 * t + phase)
        # slow amplitude modulation keeps frames from being identical
        x *= 0.7 + 0.3 * np.sin(2 * np.pi * (1.0 + 0.3 * speaker) * t
                                + rng.uniform(0, 2 * np.pi))
        return AudioSignal(0.3 * x / np.max(np.abs(x)), sample_rate)

    if kind == "filtered_noise":
        noise = rng.standard_normal(n)
        spec = np.fft.rfft(noise)
        freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
        centers = 400.0 + 900.0 * speaker, 1400.0 + 900.0 * speaker
        envelope = np.full_like(freqs, 1e-3)
        for fc in centers:
            envelope += np.exp(-0.5 * ((freqs - fc) / 150.0) ** 2)
        shaped = np.fft.irfft(spec * envelope, n=n)
        peak = np.max(np.abs(shaped))
        return AudioSignal(0.3 * shaped / peak, sample_rate)

    raise ValueError(f"unknown source kind '{kind}'")


def _resolve_source(spec_entry, sample_rate, cfg, default_seed=0):
    """Materialize one manifest source entry (wav path or synth spec)."""
    if "wav" in spec_entry:
        return read_wav(spec_entry["wav"], expected_rate=sample_rate)
    if "synth" in spec_entry:
        s = dict(spec_entry["synth"])
        kind = s.pop("kind")
        s.setdefault("seed", default_seed)
        model = None
        if "model" in s:
            model = load_model(s.pop("model"))
        return synth_source(kind, model=model, sample_rate=sample_rate,
                            cfg=cfg, **s)
    raise ValueError(f"source entry needs 'wav' or 'synth': {spec_entry}")


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: a batch stores a failure and
    reports it in the rows it affects instead of stopping."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - failures become CSV rows
        return exc


def _separate_row(row, sources, models, theta, method, cfg, options):
    """Mix the pair's two sources at theta, separate the mixture with the
    method's two models and fill row's result columns."""
    (x, v), (model_x, model_v) = sources, models
    mixture, gx, gv = mix_at_tir(x, v, theta)
    x_hat, v_hat, diag = separate(mixture, model_x, model_v, cfg,
                                  method=method, **options)
    ref_x = AudioSignal(gx * x.samples[: len(mixture)], x.sample_rate)
    ref_v = AudioSignal(gv * v.samples[: len(mixture)], v.sample_rate)
    row["theta_hat"] = f"{diag['theta_hat']:.4f}"
    row["iterations"] = diag["iterations"]
    row["snr_target_db"] = f"{snr(ref_x, x_hat):.4f}"
    row["snr_interf_db"] = f"{snr(ref_v, v_hat):.4f}"
    row["logprob"] = f"{diag['logprob']:.6g}"


def _run_single(pair_id, sources, theta, method, models, cfg, options):
    """One (pair, theta, method) run; never raises, returns a row dict.
    sources (the pair's two signals) and models (the method's two models)
    may hold the exception that their resolution raised, which is not
    raised again: threads share it, and each raise extends its traceback."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(pair_id=pair_id, method=method, theta_true=theta)
    t0 = time.perf_counter()
    stored = [s for s in (sources, models) if isinstance(s, Exception)]
    error = stored[0] if stored else _attempt(
        _separate_row, row, sources, models, theta, method, cfg, options)
    if error is not None:
        row["error"] = f"{type(error).__name__}: {error}"
    row["wall_ms"] = f"{(time.perf_counter() - t0) * 1e3:.1f}"
    return row


def load_manifest(path):
    with open(path) as f:
        return json.load(f)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_manifest(manifest):
    """Raise ValueError unless manifest is an object whose required keys
    theta_grid (finite numbers), methods (strings) and pairs hold arrays and
    models an object, every pair is an object with an id, the ids are all
    strings or all numbers, the optional framing is an object holding only
    FramingConfig fields, sample_rate and each framing setting are positive
    integers, and seed and jobs are numbers."""
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object, got "
                         f"{type(manifest).__name__}")
    for key, kind, name in (("theta_grid", (list, tuple), "an array"),
                            ("methods", (list, tuple), "an array"),
                            ("models", dict, "an object"),
                            ("pairs", (list, tuple), "an array")):
        if key not in manifest:
            raise ValueError(f"manifest lacks required key '{key}'")
        if not isinstance(manifest[key], kind):
            raise ValueError(f"manifest '{key}' must be {name}, got "
                             f"{type(manifest[key]).__name__}")
    # json reads NaN and Infinity, which mix_at_tir would reject per run
    if not all(_is_number(t) and np.isfinite(t)
               for t in manifest["theta_grid"]):
        raise ValueError("manifest 'theta_grid' must hold only finite "
                         "numbers")
    if not all(isinstance(m, str) for m in manifest["methods"]):
        raise ValueError("manifest 'methods' must hold only strings")
    framing = manifest.get("framing", {})
    if not isinstance(framing, dict):
        raise ValueError("manifest 'framing' must be an object")
    # FramingConfig.from_meta would run a misspelt key at the default
    known = [f.name for f in fields(FramingConfig)]
    for key in framing:
        if key not in known:
            raise ValueError(f"manifest 'framing' has unknown key {key!r} "
                             f"(known: {', '.join(known)})")
    # int() would run a hop of 80.7 as 80 and one of true as 1
    _check_settings({**framing, "sample_rate": manifest.get(
        "sample_rate", DEFAULT_SAMPLE_RATE)}, "manifest")
    for key in ("seed", "jobs"):
        if key in manifest and not _is_number(manifest[key]):
            raise ValueError(f"manifest '{key}' must be a number")
    for idx, entry in enumerate(manifest["pairs"]):
        if not (isinstance(entry, dict) and "id" in entry):
            raise ValueError(f"manifest pair {idx} has no 'id'")
    # rows sort by pair id, so ids must compare with each other
    ids = [entry["id"] for entry in manifest["pairs"]]
    if not (all(isinstance(i, str) for i in ids)
            or all(_is_number(i) for i in ids)):
        raise ValueError("manifest pair ids must be all strings or all "
                         "numbers")


def run_experiment(manifest, out_csv, jobs=None):
    """Run the full (pairs x theta grid x methods) batch.

    manifest is a dict (or a path to a JSON file) with required keys
    theta_grid, methods, models {hmm_x, hmm_v, vq_x, vq_v} and pairs
    [{id, target, interf}], and optional keys sample_rate, framing
    {frame_len, hop, dft_size}, seed (the default synth seed of pair i's
    sources is seed + 2i and seed + 2i + 1), jobs (worker threads, when
    the jobs argument is not given) and the separate options theta0 and
    fix_theta.  A manifest that is not an object, lacks a required key,
    holds a value of the wrong kind (a theta that is not a finite number, a
    method that is not a string, ids that mix strings and numbers, a
    framing that is not an object or holds a key other than frame_len, hop
    and dft_size, a sample_rate or framing setting that is not a positive
    integer, a seed or jobs that is not a number) or a pair without an id
    raises ValueError before any run; failing runs land in the CSV with an
    error column rather than aborting the batch.  Returns a summary dict of
    per-(theta, method) means.
    """
    if isinstance(manifest, (str, bytes, os.PathLike)):
        manifest = load_manifest(manifest)
    _check_manifest(manifest)
    sample_rate = int(manifest.get("sample_rate", DEFAULT_SAMPLE_RATE))
    cfg = FramingConfig.from_meta(manifest.get("framing", {}))
    theta_grid = [float(t) for t in manifest["theta_grid"]]
    methods = list(manifest["methods"])
    options = {k: manifest[k] for k in ("theta0", "fix_theta")
               if k in manifest}

    cache = {}   # model path -> the model, or the exception its load raised

    def load_pair(method):
        kind = model_kind(method)
        paths = [manifest["models"][f"{kind}_{role}"] for role in "xv"]
        for path in paths:
            if path not in cache:
                cache[path] = _attempt(load_model, path)
        pair = tuple(cache[path] for path in paths)
        return next((m for m in pair if isinstance(m, Exception)), pair)

    # method -> (model_x, model_v), or the exception to report
    models = {method: _attempt(load_pair, method) for method in methods}

    default_seed = int(manifest.get("seed", 0))

    def load_sources(idx, entry):
        seed = default_seed + 2 * idx
        x = _resolve_source(entry["target"], sample_rate, cfg, seed)
        v = _resolve_source(entry["interf"], sample_rate, cfg, seed + 1)
        return normalize_equal_power(x, v)

    pairs = [(entry["id"], _attempt(load_sources, idx, entry))
             for idx, entry in enumerate(manifest["pairs"])]

    tasks = [(pair_id, sources, theta, method, models[method])
             for pair_id, sources in pairs
             for theta in theta_grid for method in methods]
    jobs = max(1, jobs or int(manifest.get("jobs", 1)))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        rows = list(pool.map(lambda t: _run_single(*t, cfg, options), tasks))

    rows.sort(key=lambda r: (r["pair_id"], float(r["theta_true"]),
                             r["method"]))
    with open(out_csv, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return summarize_rows(rows)


def summarize_rows(rows):
    """Per-(theta, method) means of the numeric result columns."""
    groups = {}
    for row in rows:
        if row["error"]:
            continue
        key = (float(row["theta_true"]), row["method"])
        groups.setdefault(key, []).append(row)
    columns = ("snr_target_db", "snr_interf_db", "theta_hat", "iterations")
    return {key: {"n": len(grp),
                  **{c: float(np.mean([float(r[c]) for r in grp]))
                     for c in columns}}
            for key, grp in sorted(groups.items())}


def write_report(results_csv, out_csv):
    """Aggregate a results CSV into mean-SNR-vs-theta and theta_hat-vs-theta
    series per method."""
    with open(results_csv, newline="") as f:
        rows = [row for row in csv.DictReader(f)]
    summary = summarize_rows(rows)
    n_errors = sum(1 for r in rows if r["error"])
    with open(out_csv, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "theta_true", "n", "mean_snr_target_db",
                         "mean_snr_interf_db", "mean_theta_hat",
                         "mean_iterations"])
        for (theta, method), stats in sorted(
                summary.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            writer.writerow([method, theta, stats["n"],
                             f"{stats['snr_target_db']:.4f}",
                             f"{stats['snr_interf_db']:.4f}",
                             f"{stats['theta_hat']:.4f}",
                             f"{stats['iterations']:.2f}"])
    return {"rows": len(rows), "errors": n_errors,
            "series": len(summary)}
