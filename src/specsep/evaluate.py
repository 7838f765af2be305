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

from .gain import ASYMPTOTE_BELOW_DB, _check_theta, estimate_gy
from .models import HmmModel, ModelMismatchError, load_model
from .separate import METHODS, model_kind, separate
from .signal import (DEFAULT_SAMPLE_RATE, AudioSignal, FramingConfig,
                     _check_settings, _is_count, _is_real, read_wav,
                     synthesize)

SNR_CAP_DB = 100.0

MANIFEST_KEYS = ("theta_grid", "methods", "models", "pairs", "sample_rate",
                 "framing", "seed", "jobs", "theta0", "fix_theta")

SOURCE_KINDS = ("hmm_sample", "tonal", "filtered_noise")
SYNTH_KEYS = ("kind", "duration", "speaker", "seed", "model")

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
    overflow: below gain.ASYMPTOTE_BELOW_DB (-160 dB), the gain is
    10^(theta/20)."""
    if theta < ASYMPTOTE_BELOW_DB:
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
    if not _is_real(theta):
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


def _check_synth_numbers(what, sample_rate, **synth):
    """ValueError unless synth's duration, where given, is a finite number
    of seconds that gives at least one sample at sample_rate, and its
    speaker and seed, where given, are integers >= 0 (a bool is not one);
    other keys are not checked.  The numbers of a synthetic source, checked
    by synth_source and, for each manifest source, by _check_manifest;
    what starts the message."""
    if "duration" in synth:
        duration = synth["duration"]
        n = duration * sample_rate if _is_real(duration) else np.nan
        if not (_is_real(n) and round(n) >= 1):
            raise ValueError(f"{what} duration must be a finite number of "
                             "seconds giving at least one sample at "
                             f"{sample_rate} Hz, got {duration!r}")
    for key in ("speaker", "seed"):
        if key in synth and not _is_count(synth[key], 0):
            raise ValueError(f"{what} {key} must be an integer >= 0, got "
                             f"{synth[key]!r}")


def synth_source(kind, model=None, seed=0, duration=2.0,
                 sample_rate=DEFAULT_SAMPLE_RATE, cfg=None, speaker=0):
    """Deterministic synthetic test source.

    kind "hmm_sample": draw a state path from the model's (pi, a) and one
    log-spectral frame per state from its Gaussian, then synthesize with
    random phase and overlap-add (model must be an HmmModel, else
    ModelMismatchError).  kind "tonal": a sum of harmonics of a
    speaker-specific fundamental, so different speakers occupy disjoint
    DFT bins.  kind "filtered_noise": white noise shaped by a fixed
    speaker-specific spectral envelope.  A duration, speaker or seed that
    _check_synth_numbers refuses raises ValueError before any sampling.
    """
    _check_synth_numbers("synth_source", sample_rate, duration=duration,
                         speaker=speaker, seed=seed)
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
    """Materialize one manifest source entry (wav path or synth spec,
    as _check_source admits)."""
    if "wav" in spec_entry:
        return read_wav(spec_entry["wav"], expected_rate=sample_rate)
    s = {"seed": default_seed, **spec_entry["synth"]}
    kind = s.pop("kind")
    model = load_model(s.pop("model")) if "model" in s else None
    return synth_source(kind, model=model, sample_rate=sample_rate, cfg=cfg,
                        **s)


def _check_source(entry, what, sample_rate):
    """ValueError unless entry is an object holding exactly one of "wav", a
    path string, and "synth", an object whose "kind" is one of
    SOURCE_KINDS, that holds no key outside SYNTH_KEYS, whose "model" is
    a path string, required for hmm_sample, and whose numbers
    _check_synth_numbers admits at sample_rate; what starts the message.
    A missing WAV file or an unreadable model is left to the run."""
    if not (isinstance(entry, dict) and len(entry) == 1
            and (isinstance(entry.get("wav"), str)
                 or isinstance(entry.get("synth"), dict))):
        raise ValueError(f"{what} must be an object holding exactly one key, "
                         "'wav' (a path string) or 'synth' (an object), got "
                         f"{entry!r}")
    if "wav" in entry:
        return
    synth = entry["synth"]
    if synth.get("kind") not in SOURCE_KINDS:
        raise ValueError(f"{what} synth kind {synth.get('kind')!r} is not "
                         f"one of {', '.join(SOURCE_KINDS)}")
    for key in synth:
        if key not in SYNTH_KEYS:
            raise ValueError(f"{what} synth has unknown key {key!r} (known: "
                             f"{', '.join(SYNTH_KEYS)})")
    if (("model" in synth or synth["kind"] == "hmm_sample")
            and not isinstance(synth.get("model"), str)):
        raise ValueError(f"{what} synth 'model' must be a path string, got "
                         f"{synth.get('model')!r}")
    _check_synth_numbers(what, sample_rate, **synth)


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


def _check_manifest(manifest):
    """Raise ValueError unless manifest is an object holding only
    MANIFEST_KEYS, whose required keys
    theta_grid (finite numbers), methods (strings) and pairs hold arrays and
    models an object, every pair is an object with an id and target and
    interf source entries that _check_source admits, the ids are all
    strings or all numbers (not NaN), the optional framing is an object
    holding only FramingConfig fields, sample_rate and each framing setting
    are positive integers, the framing makes a FramingConfig (0 < hop <=
    frame_len <= dft_size), theta0 is a finite number, fix_theta null or a
    number in [-15, 15] dB (gain._check_theta), seed a
    non-negative integer, jobs a positive integer, every method is
    one of separate.METHODS and models holds the two model paths of each
    method's kind as strings.  Returns its sample_rate and FramingConfig."""
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object, got "
                         f"{type(manifest).__name__}")
    # a misspelt "fix_thetaa" would otherwise run the batch at the default
    for key in manifest:
        if key not in MANIFEST_KEYS:
            raise ValueError(f"manifest has unknown key {key!r} "
                             f"(known: {', '.join(MANIFEST_KEYS)})")
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
    if not all(_is_real(t) for t in manifest["theta_grid"]):
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
    sample_rate = manifest.get("sample_rate", DEFAULT_SAMPLE_RATE)
    _check_settings({**framing, "sample_rate": sample_rate}, "manifest")
    try:
        cfg = FramingConfig.from_meta(framing)
    except ValueError as exc:
        raise ValueError(f"manifest 'framing' {framing}: {exc}") from None
    # int() would run a seed of 1.5 as 1, and a negative seed would fail
    # every synthesized source
    for key, valid, what in (
            ("theta0", _is_real, "a finite number"),
            ("fix_theta", lambda v: v is None or _is_real(v),
             "a finite number or null"),
            ("seed", lambda v: _is_count(v, 0), "a non-negative integer"),
            ("jobs", lambda v: _is_count(v, 1), "a positive integer")):
        if key in manifest and not valid(manifest[key]):
            raise ValueError(f"manifest '{key}' must be {what}, got "
                             f"{manifest[key]!r}")
    # one outside the search interval would fail every row
    if manifest.get("fix_theta") is not None:
        _check_theta(manifest["fix_theta"], "manifest 'fix_theta'")
    for idx, entry in enumerate(manifest["pairs"]):
        if not (isinstance(entry, dict) and "id" in entry):
            raise ValueError(f"manifest pair {idx} has no 'id'")
        # each would otherwise fail every row of the pair
        for role in ("target", "interf"):
            _check_source(entry.get(role), f"manifest pair {idx} {role}",
                          sample_rate)
    # rows sort by pair id, so ids must compare with each other
    ids = [entry["id"] for entry in manifest["pairs"]]
    if not (all(isinstance(i, str) for i in ids)
            or all(_is_real(i, -np.inf, np.inf) for i in ids)):
        raise ValueError("manifest pair ids must be all strings or all "
                         "numbers")
    # each would otherwise run the whole batch and fill its rows with errors
    for method in manifest["methods"]:
        if method not in METHODS:
            raise ValueError(f"manifest method {method!r} is unknown (one "
                             f"of {', '.join(METHODS)})")
        for key in (f"{model_kind(method)}_{role}" for role in "xv"):
            # a path that is not a string would fail every row of the method
            if not isinstance(manifest["models"].get(key), str):
                raise ValueError(f"manifest 'models' lacks {key!r}, which "
                                 f"method {method!r} needs as a path string")
    return sample_rate, cfg


def run_experiment(manifest, out_csv, jobs=None):
    """Run the full (pairs x theta grid x methods) batch.

    manifest is a dict (or a path to a JSON file) with required keys
    theta_grid, methods, models {hmm_x, hmm_v, vq_x, vq_v} and pairs
    [{id, target, interf}], and optional keys sample_rate, framing
    {frame_len, hop, dft_size}, seed (the default synth seed of pair i's
    sources is seed + 2i and seed + 2i + 1), jobs (worker threads; the
    jobs argument, when given, replaces it and is checked as it is) and
    the separate options theta0 and fix_theta.  A manifest that is not an
    object, holds any other key, lacks a required key, holds a value of
    the wrong kind (a theta, theta0 or fix_theta that is
    not a finite number, a fix_theta outside [-15, 15] dB,
    a method that is not a string, ids that mix strings and numbers or
    include NaN, a framing that is not an object, holds a key
    other than frame_len, hop and dft_size or breaks 0 < hop <= frame_len
    <= dft_size, a sample_rate or framing
    setting or jobs that is not a positive integer, a seed that is not a
    non-negative integer), a pair without an id, a method that is not one
    of separate.METHODS, a models object that lacks a path one of the
    methods needs, or holds one that is not a string, or a pair's target
    or interf source entry that is not one "wav" path string or one
    "synth" object (a kind of SOURCE_KINDS, no key outside SYNTH_KEYS, a
    "model" path string, which hmm_sample needs, a finite duration giving
    at least one sample, a speaker and seed that are integers >= 0)
    raises ValueError before any run; failing runs land in the CSV with
    an error column rather than aborting the batch.  Returns a summary dict of
    per-(theta, method) means.
    """
    if isinstance(manifest, (str, bytes, os.PathLike)):
        manifest = load_manifest(manifest)
    # the jobs argument is checked as the manifest's "jobs" key is
    if jobs is not None and isinstance(manifest, dict):
        manifest = {**manifest, "jobs": jobs}
    sample_rate, cfg = _check_manifest(manifest)
    theta_grid = [float(t) for t in manifest["theta_grid"]]
    methods = list(manifest["methods"])
    options = {k: manifest[k] for k in ("theta0", "fix_theta")
               if k in manifest}

    def load_pair(kind):
        return tuple(load_model(manifest["models"][f"{kind}_{role}"])
                     for role in "xv")

    # model kind -> (model_x, model_v), or the exception that the first
    # failing load raised; each kind loads once, in first-use order
    models = {kind: _attempt(load_pair, kind)
              for kind in dict.fromkeys(map(model_kind, methods))}

    default_seed = int(manifest.get("seed", 0))

    def load_sources(idx, entry):
        seed = default_seed + 2 * idx
        x = _resolve_source(entry["target"], sample_rate, cfg, seed)
        v = _resolve_source(entry["interf"], sample_rate, cfg, seed + 1)
        return normalize_equal_power(x, v)

    pairs = [(entry["id"], _attempt(load_sources, idx, entry))
             for idx, entry in enumerate(manifest["pairs"])]

    tasks = [(pair_id, sources, theta, method, models[model_kind(method)])
             for pair_id, sources in pairs
             for theta in theta_grid for method in methods]
    with ThreadPoolExecutor(max_workers=manifest.get("jobs", 1)) as pool:
        rows = list(pool.map(lambda t: _run_single(*t, cfg, options), tasks))

    rows.sort(key=lambda r: (r["pair_id"], float(r["theta_true"]),
                             r["method"]))
    with open(out_csv, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return summarize_rows(rows)


def _number(row, n, column):
    """float(row[column]); ValueError naming data row n and the column
    when the cell is empty, missing or not a number."""
    try:
        return float(row[column])
    except (TypeError, ValueError):
        raise ValueError(f"results row {n}: {column} {row[column]!r} is "
                         f"not a number") from None


def summarize_rows(rows):
    """Per-(theta, method) means of the numeric result columns.  Rows with
    an error are skipped; in any other row a numeric cell that does not
    parse raises ValueError naming the row (1 for the first data row) and
    the column."""
    columns = ("snr_target_db", "snr_interf_db", "theta_hat", "iterations")
    groups = {}
    for n, row in enumerate(rows, 1):
        if row["error"]:
            continue
        key = (_number(row, n, "theta_true"), row["method"])
        groups.setdefault(key, []).append(
            {c: _number(row, n, c) for c in columns})
    return {key: {"n": len(grp),
                  **{c: float(np.mean([r[c] for r in grp]))
                     for c in columns}}
            for key, grp in sorted(groups.items())}


def write_report(results_csv, out_csv):
    """Aggregate a results CSV into mean-SNR-vs-theta and theta_hat-vs-theta
    series per method.  A CSV whose header lacks any of CSV_COLUMNS, or a
    row without an error whose numeric cell does not parse, raises
    ValueError naming the missing columns or the row and the column,
    before out_csv is written."""
    with open(results_csv, newline="") as f:
        reader = csv.DictReader(f)
        header, rows = reader.fieldnames or [], list(reader)
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise ValueError("missing results columns: " + ", ".join(missing))
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
