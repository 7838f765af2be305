"""Seeded stage-by-stage benchmark of specsep.

Run from the repository root:

    python3 perfbench/run.py --workload hmm_k64 --seed 1 --seconds 12 --trace 0

One process drives the library in a closed loop.  It sets the workload up
SETUP_REPEATS times from the seed, then runs whole passes over the
workload's operations until --seconds have elapsed, checking every output.
It prints a readable summary, then, as its last line, one JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# one BLAS thread: the workloads are elementwise numpy and the batch
# workload already runs two worker threads on a two-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
# set-up is repeated at least SETUP_REPEATS times and for SETUP_MIN_S
# seconds, and its median reported, so that short set-ups stay steady
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
WORKLOADS = ("hmm_k64", "vq_k64", "train_k64", "batch_k16")

END_TO_END_UNITS = {"setup_s": "s", "rtf_p50": "s/s", "audio_s_per_s": "s/s",
                    "peak_rss_mb": "MB"}


def make_api(specsep, tracer):
    """The library entry points the benchmark calls, traced or not."""
    from tracing import API_LAYERS
    fns = {name: getattr(specsep, name) for name in API_LAYERS}
    if tracer is not None:
        fns = {name: tracer.wrap(API_LAYERS[name], fn)
               for name, fn in fns.items()}
    return SimpleNamespace(**fns)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def run(name, seed, seconds, trace, workdir):
    """Set up, run the timed passes and measure.

    Returns (record, end-to-end metrics, per-layer metrics, summary lines).
    """
    import specsep
    from tracing import PER_LAYER, Tracer
    from workloads import Record, median, workloads

    wl = workloads(str(workdir))[name]
    plain = make_api(specsep, None)
    setup_s, trained = [], []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        t0 = time.perf_counter()
        state = wl.setup(plain, seed)
        setup_s.append(time.perf_counter() - t0)
        trained.extend(state.get("models", []))

    tracer = Tracer() if trace else None
    api = make_api(specsep, tracer)
    rec = Record()
    if tracer is not None:
        tracer.install()
    try:
        t_start = time.perf_counter()
        while True:
            wl.run_pass(api, state, rec)
            elapsed = time.perf_counter() - t_start
            if elapsed >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    e2e = {
        "setup_s": median(setup_s),
        "rtf_p50": median(rec.rtf),
        "audio_s_per_s": rec.audio_s / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    layers = tracer.per_layer(rec.audio_s, elapsed) if tracer else {}

    # the separation workloads train their models in set-up
    train_s = rec.train_s or [t.wall_s for t in trained]
    rec.train_ll.extend(t.ll_per_frame for t in trained)
    notes = {"setup_s": f"median of {len(setup_s)} set-ups",
             "rtf_p50": f"n={len(rec.rtf)}"}
    rows = [(m, v, END_TO_END_UNITS[m], notes.get(m, ""))
            for m, v in e2e.items()]
    rows.append(("train_s", median(train_s), "s",
                 f"median, n={len(train_s)}"))
    rows.append(("fail_frac", rec.failed / max(rec.attempted, 1), "",
                 f"{rec.failed}/{rec.attempted}"))
    rows.extend((m, v, "nats" if m == "train_ll_per_frame" else "dB", "")
                for m, v in rec.quality().items())
    rows.extend((m, v, PER_LAYER[m][0], "") for m, v in layers.items())
    lines = [f"perfbench {name} seed={seed} trace={trace} "
             f"env={json.dumps(environment())}"]
    lines.extend(f"  {m:<32} {v:14.6g} {u:<6} {note}".rstrip()
                 for m, v, u, note in rows)
    if tracer is not None and tracer.absent:
        lines.append(f"  absent layers: {', '.join(sorted(tracer.absent))}")
    lines.extend(f"  FAILED: {problem}" for problem in rec.problems[:20])
    return rec, e2e, layers, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specsep" / "__init__.py").is_file():
        print(f"perfbench: no specsep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    try:
        rec, e2e, layers, lines = run(
            args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    from tracing import PER_LAYER
    print("\n".join(lines))
    metrics = ({m: {"value": v, "unit": PER_LAYER[m][0]}
                for m, v in layers.items()} if args.trace else
               {m: {"value": v, "unit": END_TO_END_UNITS[m]}
                for m, v in e2e.items()})
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
