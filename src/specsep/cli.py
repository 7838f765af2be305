"""Command-line surface: mix, train, separate, evaluate, report.

Exit codes: 0 success, 1 usage or bad argument, 2 I/O failure, 3 model
mismatch, 4 numeric failure, 5 a batch worker process exited.
"""

import argparse
import sys
import wave
from concurrent.futures import BrokenExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .decode import NumericError
from .gain import estimate_gy
from .models import (BW_DEFAULT_MAX_ITERS, BW_DEFAULT_REL_TOL,
                     ModelMismatchError, _check_em_settings, baum_welch,
                     init_hmm_from_codebook, load_model, save_model)
from .quantize import _check_size, train_lbg
from .separate import METHODS, separate
from .signal import (DEFAULT_SAMPLE_RATE, AudioSignal, FramingConfig,
                     log_spectra, read_wav, write_wav)

EXIT_OK = 0
EXIT_USAGE = 1
# the first class that matches wins, so ModelMismatchError, a ValueError,
# comes first; BrokenExecutor covers the BrokenProcessPool of a batch
# that lost a worker
EXIT_CODES = ((ModelMismatchError, 3), (NumericError, 4), (OSError, 2),
              (wave.Error, 2), (ValueError, 1), (BrokenExecutor, 5))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the documented code is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def cmd_mix(args):
    x = read_wav(args.target)
    v = read_wav(args.interf)
    if x.sample_rate != v.sample_rate:
        raise ValueError("sample rate mismatch between target and interf")
    x, v = ev.normalize_equal_power(x, v)
    y, gx, gv = ev.mix_at_tir(x, v, args.tir)
    n = len(y)
    ref_x = AudioSignal(gx * x.samples[:n], x.sample_rate)
    ref_v = AudioSignal(gv * v.samples[:n], v.sample_rate)
    # one common scale for all three files so nothing clips and the TIR
    # is preserved exactly
    peak = max(np.max(np.abs(s.samples)) for s in (y, ref_x, ref_v))
    scale = 0.9 / peak if peak > 0 else 1.0
    out = Path(args.out)
    write_wav(out, AudioSignal(scale * y.samples, y.sample_rate))
    target_path = out.with_suffix(".target.wav")
    interf_path = out.with_suffix(".interf.wav")
    write_wav(target_path, AudioSignal(scale * ref_x.samples, x.sample_rate))
    write_wav(interf_path, AudioSignal(scale * ref_v.samples, v.sample_rate))
    print(f"wrote {out} (TIR {args.tir:+.1f} dB, gains {gx:.4f}/{gv:.4f}) "
          f"and ground truth {target_path}, {interf_path}")
    return EXIT_OK


def cmd_train(args):
    # before any clip is read and its log spectra computed
    _check_size(args.states)
    if args.kind == "hmm":
        # before the codebook, which takes as long as a whole VQ training
        _check_em_settings(args.tol, args.max_iters)
    wavs = sorted(Path(args.speaker_dir).glob("*.wav"))
    if not wavs:
        raise OSError(f"no WAV files found in {args.speaker_dir}")
    cfg = FramingConfig(frame_len=args.frame_len, hop=args.hop,
                        dft_size=args.dft_size)
    utterances = []
    for path in wavs:
        sig = read_wav(path, expected_rate=args.sample_rate)
        try:
            rms = estimate_gy(sig)
        except ValueError:
            continue                     # skip empty and silent files
        sig = AudioSignal(sig.samples / rms, sig.sample_rate)
        utterances.append(log_spectra(sig, cfg))
    if not utterances:
        raise OSError(f"no usable (non-empty, non-silent) WAV files in "
                      f"{args.speaker_dir}")
    vectors = np.vstack(utterances)
    print(f"training on {len(utterances)} utterances, "
          f"{vectors.shape[0]} frames, K={args.states}")

    model = train_lbg(vectors, args.states)
    # the HMM copies the codebook's meta
    model.meta.update(sample_rate=args.sample_rate, **asdict(cfg))
    what = f"VQ model ({args.states} codevectors)"
    if args.kind == "hmm":
        model, trace = baum_welch(utterances, init_hmm_from_codebook(model),
                                  rel_tol=args.tol, max_iters=args.max_iters)
        for i, ll in enumerate(trace, start=1):
            print(f"iteration {i}: log-likelihood {ll:.4f}")
        what = f"HMM model ({args.states} states)"
    save_model(model, args.out)
    print(f"wrote {what} to {args.out}")
    return EXIT_OK


def cmd_separate(args):
    model_x = load_model(args.model_x)
    model_v = load_model(args.model_v)
    # separate() checks both models' kind and recorded framing, and its
    # decoder their dimension; a recorded framing with no FramingConfig
    # (a hop beyond frame_len) is a bad model file
    try:
        cfg = FramingConfig.from_meta(model_x.meta)
    except ValueError as exc:
        raise ModelMismatchError(f"{args.model_x}: {exc}") from None
    x_hat, v_hat, diag = separate(
        read_wav(args.mixture), model_x, model_v, cfg, method=args.method,
        theta0=args.theta0, fix_theta=args.fix_theta)
    write_wav(args.out_x, x_hat)
    write_wav(args.out_v, v_hat)
    print(f"method={args.method} theta_hat={diag['theta_hat']:+.3f} dB "
          f"iterations={diag['iterations']} score={diag['logprob']:.6g}")
    print(f"wrote {args.out_x} and {args.out_v}")
    return EXIT_OK


def cmd_evaluate(args):
    manifest = ev.load_manifest(args.manifest)
    # anything but an object is rejected by run_experiment
    if args.seed is not None and isinstance(manifest, dict):
        manifest.setdefault("seed", args.seed)
    summary = ev.run_experiment(manifest, args.out, jobs=args.jobs)
    print(f"wrote {args.out} ({len(summary)} (theta, method) series)")
    for (theta, method), stats in sorted(summary.items()):
        print(f"  theta={theta:+5.1f} {method:6s} "
              f"snr_target={stats['snr_target_db']:7.2f} dB "
              f"snr_interf={stats['snr_interf_db']:7.2f} dB "
              f"theta_hat={stats['theta_hat']:+6.2f} "
              f"iters={stats['iterations']:.1f} (n={stats['n']})")
    return EXIT_OK


def cmd_report(args):
    stats = ev.write_report(args.in_csv, args.out)
    print(f"wrote {args.out}: {stats['series']} series from "
          f"{stats['rows']} rows ({stats['errors']} errored)")
    return EXIT_OK


def _add_framing_flags(p):
    p.add_argument("--sample-rate", type=int, default=DEFAULT_SAMPLE_RATE,
                   help="expected WAV sample rate (Hz)")
    p.add_argument("--frame-len", type=int, default=FramingConfig.frame_len,
                   help="analysis frame length in samples")
    p.add_argument("--hop", type=int, default=FramingConfig.hop,
                   help="frame shift in samples")
    p.add_argument("--dft-size", type=int, default=FramingConfig.dft_size,
                   help="DFT size in bins")


def build_parser():
    parser = _Parser(prog="specsep",
                     description="Two-speaker single-channel source "
                                 "separation with gain-adapted spectral "
                                 "models.")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for commands that synthesize data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mix", help="mix two sources at a controlled "
                                   "target-to-interference ratio")
    p.add_argument("--target", required=True, help="target WAV file")
    p.add_argument("--interf", required=True, help="interference WAV file")
    p.add_argument("--tir", type=float, required=True,
                   help="target-to-interference ratio in dB")
    p.add_argument("--out", required=True, help="output mixture WAV; the "
                   "scaled ground-truth components are written next to it")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("train", help="train a speaker model from a "
                                     "directory of WAV files")
    p.add_argument("--kind", choices=("vq", "hmm"), required=True)
    p.add_argument("--speaker-dir", required=True,
                   help="directory of training WAV files")
    p.add_argument("--states", type=int, default=64,
                   help="codebook size / HMM state count (power of two)")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--max-iters", type=int, default=BW_DEFAULT_MAX_ITERS,
                   help="EM iteration cap for HMM training")
    p.add_argument("--tol", type=float, default=BW_DEFAULT_REL_TOL,
                   help="relative log-likelihood termination threshold")
    _add_framing_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("separate", help="separate a two-speaker mixture")
    p.add_argument("--mixture", required=True, help="mixture WAV file")
    p.add_argument("--model-x", required=True, help="target speaker model")
    p.add_argument("--model-v", required=True,
                   help="interference speaker model")
    p.add_argument("--method", choices=METHODS, default="gfhmm")
    p.add_argument("--out-x", required=True, help="estimated target WAV")
    p.add_argument("--out-v", required=True,
                   help="estimated interference WAV")
    p.add_argument("--theta0", type=float, default=0.0,
                   help="initial gain-ratio guess in dB")
    p.add_argument("--fix-theta", type=float, default=None,
                   help="skip gain-ratio estimation and decode at this "
                        "value in dB (within the -15..15 dB search "
                        "interval)")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="run a batch experiment manifest")
    p.add_argument("--manifest", required=True, help="JSON manifest file")
    p.add_argument("--out", required=True, help="output results CSV")
    p.add_argument("--jobs", type=int, default=None,
                   help="concurrent separation jobs")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="aggregate results into per-method "
                                      "SNR and theta curves")
    p.add_argument("--in", dest="in_csv", required=True,
                   help="results CSV from 'evaluate'")
    p.add_argument("--out", required=True, help="output curves CSV")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
