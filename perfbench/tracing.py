"""Spans and counts around the calls into each specsep layer.

A traced run replaces, for its timed part only, each library name in the
module that looks it up with a wrapper that records a span (layer name,
start, end, parent span) and the counts read from the call's public
arguments and return values.  The untraced run never installs anything.
A name that no longer exists is reported as an absent layer, not as zero.
"""

import csv
import importlib
import statistics
import threading
import time
from collections import defaultdict

from specsep.gain import THETA_MAX_DB

# (module, attribute) -> layer, for names the library looks up internally;
# `specsep.separate` is re-exported as a function, hence importlib
PATCHES = (
    ("specsep.decode", "log_b_table", "mixmax.log_b_table"),
    ("specsep.decode", "_viterbi_from_table", "decode.viterbi"),
    ("specsep.decode", "maximize_theta", "decode.maximize_theta"),
    ("specsep.decode", "gvq_score", "quantize.gvq_score"),
    ("specsep.separate", "gvq_score", "quantize.gvq_score"),
    ("specsep.separate", "log_spectra", "signal.log_spectra"),
    ("specsep.separate", "apply_masks_and_reconstruct", "signal.ola"),
    ("specsep.evaluate", "separate", "separate"),
)

# layers the benchmark calls itself, through the api it is handed
API_LAYERS = {
    "separate": "separate",
    "log_spectra": "signal.log_spectra",
    "train_lbg": "quantize.train_lbg",
    "baum_welch": "models.baum_welch",
    "run_experiment": "evaluate.run_experiment",
}

# per_layer metric -> (unit, layer that must be present for it)
PER_LAYER = {
    "mixmax.log_b_table.ms": ("ms", "mixmax.log_b_table"),
    "mixmax.log_b_table.calls": ("count", "mixmax.log_b_table"),
    "mixmax.cells": ("count", "mixmax.log_b_table"),
    "mixmax.ns_per_cell": ("ns", "mixmax.log_b_table"),
    "decode.viterbi.ms": ("ms", "decode.viterbi"),
    "decode.viterbi.calls": ("count", "decode.viterbi"),
    "decode.viterbi.frames": ("count", "decode.viterbi"),
    "decode.viterbi.ns_per_frame_k3": ("ns", "decode.viterbi"),
    "decode.maximize_theta.ms": ("ms", "decode.maximize_theta"),
    "decode.theta_evals": ("count", "decode.maximize_theta"),
    "decode.outer_rounds": ("count", "separate"),
    "decode.theta_clamped": ("count", "separate"),
    "quantize.gvq_score.ms": ("ms", "quantize.gvq_score"),
    "quantize.gvq_score.calls": ("count", "quantize.gvq_score"),
    "quantize.gvq_score.frames": ("count", "quantize.gvq_score"),
    "quantize.gvq_ns_per_cell": ("ns", "quantize.gvq_score"),
    "quantize.train_lbg.ms": ("ms", "quantize.train_lbg"),
    "quantize.lloyd_iters": ("count", "quantize.train_lbg"),
    "models.baum_welch.ms": ("ms", "models.baum_welch"),
    "models.bw_iters": ("count", "models.baum_welch"),
    "models.bw_frame_iters": ("count", "models.baum_welch"),
    "signal.log_spectra.ms": ("ms", "signal.log_spectra"),
    "signal.ola.ms": ("ms", "signal.ola"),
    "separate.ms": ("ms", "separate"),
    "separate.self_ms": ("ms", "separate"),
    "evaluate.run_experiment.ms": ("ms", "evaluate.run_experiment"),
    "evaluate.rows": ("count", "evaluate.run_experiment"),
    "evaluate.error_rows": ("count", "evaluate.run_experiment"),
    "evaluate.row_ms_p50": ("ms", "evaluate.run_experiment"),
    "evaluate.cpu_util": ("ratio", "evaluate.run_experiment"),
    "trace.audio_s_per_s": ("s/s", None),
}


class Tracer:
    """Spans kept in memory, plus counters, shared by all threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = []          # (layer, start, end, parent index or None)
        self.counts = defaultdict(float)
        self.row_ms = []
        self.absent = set()
        self._undo = []

    def add(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def wrap(self, layer, fn):
        """fn with a span named layer around every call."""
        hook = _HOOKS.get(layer)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            if layer == "decode.maximize_theta":
                args = (self._counted(args[0]),) + args[1:]
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1, cpu1 = time.perf_counter(), time.process_time()
                stack.pop()
                self.spans[index] = (layer, t0, t1, parent)
            if hook is not None:
                hook(self, args, kwargs, result, t1 - t0, cpu1 - cpu0)
            return result

        return traced

    def _counted(self, objective):
        def counted(theta):
            self.add("decode.theta_evals")
            return objective(theta)
        return counted

    def install(self):
        """Patch every name in PATCHES; record missing ones as absent."""
        for module_name, attr, layer in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(layer)
                continue
            setattr(module, attr, self.wrap(layer, original))
            self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def per_layer(self, audio_s, wall_s):
        """Every per_layer metric whose layer is present."""
        ms = defaultdict(float)
        calls = defaultdict(int)
        child_ms = defaultdict(float)
        for layer, t0, t1, parent in self.spans:
            ms[layer] += (t1 - t0) * 1e3
            calls[layer] += 1
            if parent is not None:
                child_ms[parent] += (t1 - t0) * 1e3
        sep_self = sum((t1 - t0) * 1e3 - child_ms[i]
                       for i, (layer, t0, t1, _) in enumerate(self.spans)
                       if layer == "separate")
        c = self.counts

        def per(ms_total, n, scale=1e6):
            return ms_total * scale / n if n else 0.0

        values = {
            "mixmax.log_b_table.ms": ms["mixmax.log_b_table"],
            "mixmax.log_b_table.calls": calls["mixmax.log_b_table"],
            "mixmax.cells": c["mixmax.cells"],
            "mixmax.ns_per_cell": per(ms["mixmax.log_b_table"],
                                      c["mixmax.cells"]),
            "decode.viterbi.ms": ms["decode.viterbi"],
            "decode.viterbi.calls": calls["decode.viterbi"],
            "decode.viterbi.frames": c["decode.viterbi.frames"],
            "decode.viterbi.ns_per_frame_k3": per(ms["decode.viterbi"],
                                                  c["decode.viterbi.k3"]),
            "decode.maximize_theta.ms": ms["decode.maximize_theta"],
            "decode.theta_evals": c["decode.theta_evals"],
            "decode.outer_rounds": c["decode.outer_rounds"],
            "decode.theta_clamped": c["decode.theta_clamped"],
            "quantize.gvq_score.ms": ms["quantize.gvq_score"],
            "quantize.gvq_score.calls": calls["quantize.gvq_score"],
            "quantize.gvq_score.frames": c["quantize.gvq_score.frames"],
            "quantize.gvq_ns_per_cell": per(ms["quantize.gvq_score"],
                                            c["quantize.gvq_score.cells"]),
            "quantize.train_lbg.ms": ms["quantize.train_lbg"],
            "quantize.lloyd_iters": c["quantize.lloyd_iters"],
            "models.baum_welch.ms": ms["models.baum_welch"],
            "models.bw_iters": c["models.bw_iters"],
            "models.bw_frame_iters": c["models.bw_frame_iters"],
            "signal.log_spectra.ms": ms["signal.log_spectra"],
            "signal.ola.ms": ms["signal.ola"],
            "separate.ms": ms["separate"],
            "separate.self_ms": sep_self,
            "evaluate.run_experiment.ms": ms["evaluate.run_experiment"],
            "evaluate.rows": c["evaluate.rows"],
            "evaluate.error_rows": c["evaluate.error_rows"],
            "evaluate.row_ms_p50": (statistics.median(self.row_ms)
                                    if self.row_ms else 0.0),
            "evaluate.cpu_util": per(c["evaluate.cpu_s"],
                                     c["evaluate.wall_s_x_jobs"], scale=1.0),
            "trace.audio_s_per_s": audio_s / wall_s,
        }
        return {name: values[name] for name, (_, layer) in PER_LAYER.items()
                if layer not in self.absent}


def _log_b_table(tr, args, kwargs, result, wall_s, cpu_s):
    tr.add("mixmax.cells", result.size)


def _viterbi(tr, args, kwargs, result, wall_s, cpu_s):
    R, K_x, K_v = args[0].shape
    tr.add("decode.viterbi.frames", R)
    tr.add("decode.viterbi.k3", R * K_x * K_v * max(K_x, K_v))


def _gvq_score(tr, args, kwargs, result, wall_s, cpu_s):
    frames = len(result[0])
    tr.add("quantize.gvq_score.frames", frames)
    tr.add("quantize.gvq_score.cells", frames * args[1].K * args[2].K)


def _separate(tr, args, kwargs, result, wall_s, cpu_s):
    diag = result[2]
    if diag["method"] in ("gfhmm", "gvq"):
        tr.add("decode.outer_rounds", diag["iterations"])
        tr.add("decode.theta_clamped", sum(
            abs(t) >= THETA_MAX_DB for t in diag["theta_per_chunk"]))


def _train_lbg(tr, args, kwargs, result, wall_s, cpu_s):
    levels = kwargs.get("distortion_trace") or []
    tr.add("quantize.lloyd_iters", sum(len(lv) for lv in levels))


def _baum_welch(tr, args, kwargs, result, wall_s, cpu_s):
    iters = len(result[1])
    tr.add("models.bw_iters", iters)
    tr.add("models.bw_frame_iters", iters * sum(len(u) for u in args[0]))


def _run_experiment(tr, args, kwargs, result, wall_s, cpu_s):
    with open(args[1], newline="") as f:
        rows = list(csv.DictReader(f))
    tr.add("evaluate.rows", len(rows))
    tr.add("evaluate.error_rows", sum(1 for r in rows if r["error"]))
    tr.add("evaluate.cpu_s", cpu_s)
    tr.add("evaluate.wall_s_x_jobs", wall_s * (kwargs.get("jobs") or 1))
    with tr._lock:
        tr.row_ms.extend(float(r["wall_ms"]) for r in rows)


_HOOKS = {
    "mixmax.log_b_table": _log_b_table,
    "decode.viterbi": _viterbi,
    "quantize.gvq_score": _gvq_score,
    "separate": _separate,
    "quantize.train_lbg": _train_lbg,
    "models.baum_welch": _baum_welch,
    "evaluate.run_experiment": _run_experiment,
}
