"""Mixture fabrication at controlled target-to-interference ratios, SNR
scoring, synthetic source generation, and the batch experiment runner that
writes one CSV row per (pair, theta, method) run."""

import csv
import json
import os
import threading
import time
from collections import Counter
from dataclasses import fields

import numpy as np

from .gain import ASYMPTOTE_BELOW_DB, _check_theta, estimate_gy
from .models import HmmModel, ModelMismatchError, load_model
from .separate import METHODS, model_kind, separate
from .signal import (DEFAULT_SAMPLE_RATE, AudioSignal, FramingConfig,
                     _check_settings, _is_count, _is_real, _shown,
                     read_wav, synthesize)

SNR_CAP_DB = 100.0

SOURCE_KINDS = ("hmm_sample", "tonal", "filtered_noise")

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
                             f"{sample_rate} Hz, got {_shown(duration)}")
    for key in ("speaker", "seed"):
        if key in synth and not _is_count(synth[key], 0):
            raise ValueError(f"{what} {key} must be an integer >= 0, got "
                             f"{_shown(synth[key])}")


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
    as _check_manifest admits)."""
    if "wav" in spec_entry:
        return read_wav(spec_entry["wav"], expected_rate=sample_rate)
    s = {"seed": default_seed, **spec_entry["synth"]}
    if "model" in s:
        s["model"] = load_model(s["model"])
    return synth_source(sample_rate=sample_rate, cfg=cfg, **s)


def _attempt(fn, *args):
    """fn(*args), or the row text ("Type: message") of the exception it
    raised: a batch stores a failure and reports it in the rows it affects
    instead of stopping, and text crosses to a worker process where some
    exceptions could not be rebuilt from their pickle."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - failures become CSV rows
        return f"{type(exc).__name__}: {exc}"


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
    may instead hold the row text of the error that their resolution
    raised, which becomes the row's error."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(pair_id=pair_id, method=method, theta_true=float(theta))
    t0 = time.perf_counter()
    stored = [s for s in (sources, models) if isinstance(s, str)]
    error = stored[0] if stored else _attempt(
        _separate_row, row, sources, models, theta, method, cfg, options)
    if error is not None:
        row["error"] = error
    row["wall_ms"] = f"{(time.perf_counter() - t0) * 1e3:.1f}"
    return row


# a pool worker's batch: (tasks, cfg, options), set by _start_worker
_worker_batch = None


def _start_worker(*batch):
    """Pool initializer: hold the batch, which a fork worker inherits and
    a spawn worker unpickles once, so that a task crosses as its index."""
    global _worker_batch
    _worker_batch = batch


def _run_task(index):
    tasks, cfg, options = _worker_batch
    return _run_single(*tasks[index], cfg, options)


def _run_rows(tasks, jobs, cfg, options):
    """The row of each task, in task order: on the calling thread when
    there are fewer than two tasks or jobs is 1, else on min(jobs, tasks)
    worker processes.  The workers fork from the caller where the platform
    can and the caller is the process's only thread, and start a fresh
    interpreter otherwise.  Every worker has exited when this returns or
    raises; a worker that exits before its rows are done raises
    BrokenProcessPool."""
    workers = min(jobs, len(tasks))
    if workers < 2:
        return [_run_single(*task, cfg, options) for task in tasks]
    # imported here: they add about 1 MB to every process that imports
    # specsep, most of which run no pool
    import multiprocessing
    from concurrent.futures.process import (BrokenProcessPool,
                                            ProcessPoolExecutor)
    fork = ("fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1)
    context = multiprocessing.get_context("fork" if fork else "spawn")
    try:
        with ProcessPoolExecutor(workers, context, initializer=_start_worker,
                                 initargs=(tasks, cfg, options)) as pool:
            return list(pool.map(_run_task, range(len(tasks))))
    except BrokenProcessPool as exc:
        raise BrokenProcessPool("a batch worker exited before its rows "
                                "were done; no CSV was written") from exc


def _no_repeats(pairs, what="key"):
    """dict(pairs) for a list of (key, value) pairs: a JSON object's, as
    json reads them, or a manifest's pair ids, thetas or methods.
    ValueError names the first key that appears twice, of which dict()
    would keep the last value; what says what a key is."""
    for key, n in Counter(key for key, _ in pairs).items():
        if n > 1:
            raise ValueError(f"manifest has duplicate {what} {_shown(key)}")
    return dict(pairs)


def load_manifest(path):
    with open(path) as f:
        return json.load(f, object_pairs_hook=_no_repeats)


def _is_text(value):
    return isinstance(value, str)


def _setting(key):
    """The rule for sample_rate or a framing field: signal._check_settings,
    the check that model meta shares."""
    return lambda value: not _check_settings({key: value}, "manifest")


# One schema per manifest object: key -> (required, rule, what the value
# must be).  A rule is a predicate, which may instead raise the ValueError
# of the check that owns it; a schema, for an object; [rule], for an array
# whose items the rule admits; or None, for a value that a rule after the
# walk checks.  _check_object walks them, and _check_manifest then checks
# the rules that span keys.  README's manifest section lists them.
_PATH = (False, _is_text, "a path string")
MODELS_SCHEMA = dict.fromkeys(("hmm_x", "hmm_v", "vq_x", "vq_v"), _PATH)
FRAMING_SCHEMA = {f.name: (False, _setting(f.name), "a positive integer")
                  for f in fields(FramingConfig)}
SYNTH_SCHEMA = {
    "kind": (True, SOURCE_KINDS.__contains__,
             f"one of {', '.join(SOURCE_KINDS)}"),
    # at the manifest's sample rate, by _check_synth_numbers
    **dict.fromkeys(("duration", "speaker", "seed"), (False, None, None)),
    "model": _PATH}
SOURCE_SCHEMA = {"wav": _PATH, "synth": (False, SYNTH_SCHEMA, "an object")}
PAIR_SCHEMA = {
    "id": (True, lambda i: _is_text(i) or _is_real(i, -np.inf, np.inf),
           "a string or a number"),
    **dict.fromkeys(("target", "interf"), (True, SOURCE_SCHEMA, "a source"))}
MANIFEST_SCHEMA = {
    "theta_grid": (True, [_is_real], "a finite number"),
    "methods": (True, [lambda m: _is_text(m) and m in METHODS],
                f"one of {', '.join(METHODS)}"),
    "models": (True, MODELS_SCHEMA, "an object"),
    "pairs": (True, [PAIR_SCHEMA], "a pair"),
    "sample_rate": (False, _setting("sample_rate"), "a positive integer"),
    "framing": (False, FRAMING_SCHEMA, "an object"),
    "seed": (False, lambda v: _is_count(v, 0), "a non-negative integer"),
    "jobs": (False, lambda v: _is_count(v, 1), "a positive integer"),
    "theta0": (False, _is_real, "a finite number"),
    # one outside the search interval would fail every gain-adapted row
    "fix_theta": (False, lambda v: v is None or _is_real(v) and not
                  _check_theta(v, "manifest 'fix_theta'"),
                  "a finite number or null")}
# filled in after the walk; separate() keeps theta0's and fix_theta's
MANIFEST_DEFAULTS = {"sample_rate": DEFAULT_SAMPLE_RATE, "framing": {},
                     "seed": 0, "jobs": 1}


def _check_object(obj, schema, what):
    """Raise ValueError, starting with what, unless obj is an object that
    holds every required key of schema and no other key, and each value
    meets its rule, walked in schema order.  An array's items are named
    one by one, and an object or array that is refused is named by its
    type alone, since a batch's may be long."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {type(obj).__name__}")
    # a misspelt key would otherwise run the batch at its default
    for key in obj:
        if key not in schema:
            raise ValueError(f"{what} has unknown key {_shown(key)} (known: "
                             f"{', '.join(schema)})")
    for key, (required, rule, must) in schema.items():
        if key in obj:
            _check_value(obj[key], rule, must, f"{what} '{key}'")
        elif required:
            raise ValueError(f"{what} lacks required key '{key}'")


def _check_value(value, rule, must, name):
    """Raise ValueError, starting with name, unless value meets rule, one
    of a schema's rules."""
    if isinstance(rule, dict):
        _check_object(value, rule, name)
    elif isinstance(rule, list):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be an array, got "
                             f"{type(value).__name__}")
        for idx, item in enumerate(value):
            _check_value(item, rule[0], must, f"{name}[{idx}]")
    elif rule is not None and not rule(value):
        raise ValueError(f"{name} must be {must}, got {_shown(value)}")


def _check_manifest(manifest):
    """Raise ValueError unless manifest meets MANIFEST_SCHEMA and the
    schemas below it, and then the rules that span keys: the framing makes
    a FramingConfig, the pair ids are all strings or all numbers, no pair
    id, theta or method repeats, every source holds exactly one of "wav"
    and "synth", an hmm_sample synth names its model, _check_synth_numbers
    admits each synth's numbers at the manifest's sample rate, and every
    method has its two model paths in "models".  Returns the checked
    manifest with MANIFEST_DEFAULTS filled in and its "framing" a
    FramingConfig."""
    _check_object(manifest, MANIFEST_SCHEMA, "manifest")
    manifest = {**MANIFEST_DEFAULTS, **manifest}
    try:
        cfg = FramingConfig.from_meta(manifest["framing"])
    except ValueError as exc:
        raise ValueError(f"manifest 'framing' {_shown(manifest['framing'])}"
                         f": {exc}") from None
    # rows sort by pair id, so ids must compare with each other
    ids = [pair["id"] for pair in manifest["pairs"]]
    if len({_is_text(pair_id) for pair_id in ids}) > 1:
        raise ValueError("manifest pair ids mix strings and numbers")
    # a repeated one would write rows that no reader can tell apart, and
    # summarize_rows would count each of them twice
    for what, keys in (("pair id", ids), ("theta", manifest["theta_grid"]),
                       ("method", manifest["methods"])):
        _no_repeats([(key, None) for key in keys], what)
    # a missing WAV file or an unreadable model is left to the run
    for idx, pair in enumerate(manifest["pairs"]):
        for role in ("target", "interf"):
            entry, what = pair[role], f"manifest 'pairs'[{idx}] '{role}'"
            if len(entry) != 1:
                raise ValueError(f"{what} must hold exactly one of 'wav' and "
                                 f"'synth', got {sorted(entry)}")
            synth = entry.get("synth", {})
            if synth.get("kind") == "hmm_sample" and "model" not in synth:
                raise ValueError(f"{what} 'synth' lacks 'model', which kind "
                                 "'hmm_sample' needs")
            _check_synth_numbers(f"{what} 'synth'", manifest["sample_rate"],
                                 **synth)
    # each would otherwise run the whole batch and fill its rows with errors
    for method in manifest["methods"]:
        for key in (f"{model_kind(method)}_{role}" for role in "xv"):
            if key not in manifest["models"]:
                raise ValueError(f"manifest 'models' lacks {key!r}, which "
                                 f"method {method!r} needs as a path string")
    return {**manifest, "framing": cfg}


def run_experiment(manifest, out_csv, jobs=None):
    """Run the full (pairs x theta grid x methods) batch.

    manifest is a dict, or a path to a JSON file, that _check_manifest
    admits: MANIFEST_SCHEMA and the schemas below it give each key, and
    README's manifest section lists them.  The jobs argument, when given,
    replaces its "jobs" and is checked as it is.  The default synth seed
    of pair i's sources is seed + 2i and seed + 2i + 1.  A manifest that
    _check_manifest refuses raises ValueError before any run; failing runs
    land in the CSV with an error column rather than aborting the batch.

    The sources and models load once, on the calling thread; the rows
    run there too with jobs 1, and on up to jobs worker processes with
    more (_run_rows).  A worker that exits before its rows are done raises
    BrokenProcessPool, and no CSV is written.  Rows are sorted by (pair
    id, theta, method) before writing, so the CSV is the same, apart from
    wall_ms, whatever jobs is.  Returns a summary dict of per-(theta,
    method) means.
    """
    if isinstance(manifest, (str, bytes, os.PathLike)):
        manifest = load_manifest(manifest)
    # the jobs argument is checked as the manifest's "jobs" key is
    if jobs is not None and isinstance(manifest, dict):
        manifest = {**manifest, "jobs": jobs}
    manifest = _check_manifest(manifest)
    sample_rate, cfg = manifest["sample_rate"], manifest["framing"]
    options = {k: manifest[k] for k in ("theta0", "fix_theta")
               if k in manifest}

    def load_pair(kind):
        return tuple(load_model(manifest["models"][f"{kind}_{role}"])
                     for role in "xv")

    # model kind -> (model_x, model_v), or the row text of the first
    # failing load's error; each kind loads once, in first-use order
    models = {kind: _attempt(load_pair, kind)
              for kind in dict.fromkeys(map(model_kind, manifest["methods"]))}

    def load_sources(idx, entry):
        seed = manifest["seed"] + 2 * idx
        x = _resolve_source(entry["target"], sample_rate, cfg, seed)
        v = _resolve_source(entry["interf"], sample_rate, cfg, seed + 1)
        return normalize_equal_power(x, v)

    pairs = [(entry["id"], _attempt(load_sources, idx, entry))
             for idx, entry in enumerate(manifest["pairs"])]

    tasks = [(pair_id, sources, theta, method, models[model_kind(method)])
             for pair_id, sources in pairs for theta in manifest["theta_grid"]
             for method in manifest["methods"]]
    rows = _run_rows(tasks, manifest["jobs"], cfg, options)
    rows.sort(key=lambda r: (r["pair_id"], r["theta_true"], r["method"]))
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
