import importlib
import json
import os
import shutil
import wave
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from specsep import (AudioSignal, Codebook, FramingConfig, GainContext,
                     apply_masks_and_reconstruct, gvq_infer,
                     load_model, log_spectra, read_wav, save_model,
                     synth_source, write_wav)
from specsep.cli import EXIT_CODES, build_parser, main
from specsep.decode import NumericError
from specsep.models import ModelMismatchError
from specsep.separate import BASELINE_GY_OVER_G0

from conftest import (BAD_FILES, BAD_WAVS, CODEBOOK_DEFECTS, HMM_DEFECTS,
                      MANIFEST_DEFECTS, MODEL_DEFECTS, broken_manifest,
                      malformed, overflowing, save_bad_file, save_bad_wav)


@pytest.fixture(scope="module")
def speaker_dirs(tmp_path_factory, framing, speaker_generators):
    """Two small directories of training WAVs plus one test clip each."""
    tmp = tmp_path_factory.mktemp("cli")
    gen_a, gen_b = speaker_generators
    dirs = {}
    for name, gen, base in (("a", gen_a, 100), ("b", gen_b, 200)):
        d = tmp / f"spk_{name}"
        d.mkdir()
        for i in range(8):
            sig = synth_source("hmm_sample", model=gen, seed=base + i,
                               duration=0.8, cfg=framing)
            write_wav(d / f"clip{i}.wav", sig)
        test_clip = synth_source("hmm_sample", model=gen, seed=base + 50,
                                 duration=1.2, cfg=framing)
        write_wav(tmp / f"test_{name}.wav", test_clip)
        dirs[name] = d
    return {"tmp": tmp, "dirs": dirs}


@pytest.fixture(scope="module")
def cli_models(speaker_dirs):
    tmp = speaker_dirs["tmp"]
    out = {}
    for name in ("a", "b"):
        for kind in ("vq", "hmm"):
            path = tmp / f"{kind}_{name}.ssm"
            rc = main(["train", "--kind", kind, "--speaker-dir",
                       str(speaker_dirs["dirs"][name]), "--states", "4",
                       "--out", str(path), "--max-iters", "3"])
            assert rc == 0
            out[f"{kind}_{name}"] = path
    return out


class TestParser:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for cmd in ("mix", "train", "separate", "evaluate", "report"):
            assert cmd in text

    def test_separate_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["separate", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--mixture", "--model-x", "--model-v", "--method",
                     "--out-x", "--out-v", "--theta0", "--fix-theta"):
            assert flag in text

    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["mix", "--bogus", "1"])
        assert exc.value.code == 1

    def test_missing_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 1

    def test_train_defaults_match_operating_point(self):
        args = build_parser().parse_args(
            ["train", "--kind", "hmm", "--speaker-dir", "x", "--out", "y"])
        assert args.states == 64
        assert args.max_iters == 15
        assert args.tol == 1e-5


class TestMix:
    def test_writes_mixture_and_ground_truth(self, speaker_dirs):
        tmp = speaker_dirs["tmp"]
        out = tmp / "mix6.wav"
        rc = main(["mix", "--target", str(tmp / "test_a.wav"),
                   "--interf", str(tmp / "test_b.wav"),
                   "--tir", "6", "--out", str(out)])
        assert rc == 0
        y = read_wav(out)
        ref_x = read_wav(tmp / "mix6.target.wav")
        ref_v = read_wav(tmp / "mix6.interf.wav")
        n = min(len(y), len(ref_x), len(ref_v))
        resid = y.samples[:n] - ref_x.samples[:n] - ref_v.samples[:n]
        assert np.max(np.abs(resid)) <= 3 * 2.0 ** -15   # quantization only
        p_x = np.sum(ref_x.samples ** 2)
        p_v = np.sum(ref_v.samples ** 2)
        assert 10 * np.log10(p_x / p_v) == pytest.approx(6.0, abs=0.1)

    def test_nonfinite_tir_exits_1(self, speaker_dirs, capsys):
        tmp = speaker_dirs["tmp"]
        for tir in ("nan", "inf", "-inf"):
            out = tmp / f"mix_{tir}.wav"
            rc = main(["mix", "--target", str(tmp / "test_a.wav"),
                       "--interf", str(tmp / "test_b.wav"),
                       f"--tir={tir}", "--out", str(out)])
            assert rc == 1
            assert "not a finite number" in capsys.readouterr().err
            assert not list(tmp.glob(f"mix_{tir}*"))

    def test_huge_tir_writes_target_only_mixture(self, speaker_dirs):
        tmp = speaker_dirs["tmp"]
        out = tmp / "mix_huge.wav"
        rc = main(["mix", "--target", str(tmp / "test_a.wav"),
                   "--interf", str(tmp / "test_b.wav"),
                   "--tir", "1e6", "--out", str(out)])
        assert rc == 0
        y = read_wav(out)
        np.testing.assert_array_equal(
            y.samples, read_wav(tmp / "mix_huge.target.wav").samples)
        assert not np.any(read_wav(tmp / "mix_huge.interf.wav").samples)

    def test_sample_rate_mismatch_exits_1(self, speaker_dirs, capsys):
        tmp = speaker_dirs["tmp"]
        fast = tmp / "fast.wav"
        write_wav(fast, AudioSignal(np.zeros(800), sample_rate=16000))
        rc = main(["mix", "--target", str(tmp / "test_a.wav"),
                   "--interf", str(fast), "--tir", "0",
                   "--out", str(tmp / "mix_rates.wav")])
        assert rc == 1
        assert "sample rate mismatch" in capsys.readouterr().err
        assert not list(tmp.glob("mix_rates*"))

    def test_missing_input_exits_2(self, speaker_dirs):
        tmp = speaker_dirs["tmp"]
        rc = main(["mix", "--target", str(tmp / "absent.wav"),
                   "--interf", str(tmp / "test_b.wav"),
                   "--tir", "0", "--out", str(tmp / "o.wav")])
        assert rc == 2


class TestTrain:
    def test_vq_model_file_round_trips(self, cli_models):
        model = load_model(cli_models["vq_a"])
        assert isinstance(model, Codebook)
        assert model.K == 4
        assert model.meta["sample_rate"] == 8000

    def test_hmm_prints_nondecreasing_ll(self, speaker_dirs, capsys):
        tmp = speaker_dirs["tmp"]
        rc = main(["train", "--kind", "hmm", "--speaker-dir",
                   str(speaker_dirs["dirs"]["a"]), "--states", "2",
                   "--out", str(tmp / "tiny_hmm.ssm"), "--max-iters", "4"])
        assert rc == 0
        lls = [float(line.rsplit(" ", 1)[1])
               for line in capsys.readouterr().out.splitlines()
               if line.startswith("iteration")]
        assert len(lls) >= 2
        assert all(b >= a - 1e-6 for a, b in zip(lls, lls[1:]))

    def test_empty_dir_exits_2(self, speaker_dirs):
        tmp = speaker_dirs["tmp"]
        empty = tmp / "empty"
        empty.mkdir(exist_ok=True)
        rc = main(["train", "--kind", "vq", "--speaker-dir", str(empty),
                   "--states", "4", "--out", str(tmp / "no.ssm")])
        assert rc == 2

    @staticmethod
    def blank_clips_dir(tmp, name):
        d = tmp / name
        d.mkdir()
        write_wav(d / "empty.wav", AudioSignal(np.zeros(0)))
        write_wav(d / "silent.wav", AudioSignal(np.zeros(4000)))
        return d

    def test_empty_and_silent_clips_skipped(self, speaker_dirs, capsys):
        tmp = speaker_dirs["tmp"]
        d = self.blank_clips_dir(tmp, "with_blanks")
        for clip in sorted(speaker_dirs["dirs"]["a"].glob("*.wav"))[:3]:
            shutil.copy(clip, d)
        rc = main(["train", "--kind", "hmm", "--speaker-dir", str(d),
                   "--states", "2", "--out", str(tmp / "blanks.ssm"),
                   "--max-iters", "2"])
        assert rc == 0
        assert "training on 3 utterances" in capsys.readouterr().out

    def test_only_empty_and_silent_clips_exits_2(self, speaker_dirs):
        tmp = speaker_dirs["tmp"]
        d = self.blank_clips_dir(tmp, "only_blanks")
        rc = main(["train", "--kind", "vq", "--speaker-dir", str(d),
                   "--states", "2", "--out", str(tmp / "no.ssm")])
        assert rc == 2

    @pytest.mark.parametrize("flag, value, name", [
        ("--max-iters", "-1", "max_iters"), ("--tol", "nan", "rel_tol")])
    def test_bad_em_setting_exits_1(self, speaker_dirs, capsys, monkeypatch,
                                    flag, value, name):
        # -1 would write the untrained initial HMM, nan run every iteration;
        # either is refused before the codebook is trained
        def no_codebook(*args, **kwargs):
            raise AssertionError("trained the codebook before checking")

        monkeypatch.setattr("specsep.cli.train_lbg", no_codebook)
        out = speaker_dirs["tmp"] / "bad_em.ssm"
        rc = main(["train", "--kind", "hmm", "--speaker-dir",
                   str(speaker_dirs["dirs"]["a"]), "--states", "2",
                   "--out", str(out), flag, value])
        assert rc == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_bad_states_exits_1(self, speaker_dirs, capsys, monkeypatch):
        # refused before any clip is read and its log spectra computed
        def no_read(*args, **kwargs):
            raise AssertionError("read a clip before checking K")

        monkeypatch.setattr("specsep.cli.read_wav", no_read)
        rc = main(["train", "--kind", "vq", "--speaker-dir",
                   str(speaker_dirs["dirs"]["a"]), "--states", "3",
                   "--out", str(speaker_dirs["tmp"] / "no.ssm")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: K must be an integer power of two, got 3\n")


@pytest.fixture(scope="module")
def mixture_file(speaker_dirs):
    tmp = speaker_dirs["tmp"]
    out = tmp / "sep_mix.wav"
    assert main(["mix", "--target", str(tmp / "test_a.wav"),
                 "--interf", str(tmp / "test_b.wav"),
                 "--tir", "3", "--out", str(out)]) == 0
    return out


class TestSeparate:
    def test_all_methods_run(self, speaker_dirs, cli_models, mixture_file):
        tmp = speaker_dirs["tmp"]
        for method, kind in (("gfhmm", "hmm"), ("fhmm", "hmm"),
                             ("gvq", "vq"), ("vq", "vq")):
            rc = main(["separate", "--mixture", str(mixture_file),
                       "--model-x", str(cli_models[f"{kind}_a"]),
                       "--model-v", str(cli_models[f"{kind}_b"]),
                       "--method", method,
                       "--out-x", str(tmp / f"{method}_x.wav"),
                       "--out-v", str(tmp / f"{method}_v.wav")])
            assert rc == 0
            assert (tmp / f"{method}_x.wav").exists()

    def test_vq_equals_gvq_with_baseline_gains(self, speaker_dirs,
                                               cli_models, mixture_file):
        tmp = speaker_dirs["tmp"]
        assert main(["separate", "--mixture", str(mixture_file),
                     "--model-x", str(cli_models["vq_a"]),
                     "--model-v", str(cli_models["vq_b"]), "--method", "vq",
                     "--out-x", str(tmp / "bl_x.wav"),
                     "--out-v", str(tmp / "bl_v.wav")]) == 0
        # gvq with theta frozen at 0 and the baseline gains, written by hand
        cb_a, cb_b = (load_model(cli_models[f"vq_{s}"]) for s in "ab")
        cfg = FramingConfig.from_meta(cb_a.meta)
        y = read_wav(mixture_file)
        ctx = GainContext(g_y=BASELINE_GY_OVER_G0)
        res = gvq_infer(log_spectra(y, cfg), cb_a, cb_b, ctx, theta0=0.0,
                        max_outer=0)
        fx_x, _ = apply_masks_and_reconstruct(y, res.mask_x, 1 - res.mask_x,
                                              cfg)
        write_wav(tmp / "fx_x.wav", fx_x)
        a = (tmp / "bl_x.wav").read_bytes()
        b = (tmp / "fx_x.wav").read_bytes()
        assert a == b

    def test_kind_mismatch_exits_3(self, speaker_dirs, cli_models,
                                   mixture_file):
        tmp = speaker_dirs["tmp"]
        rc = main(["separate", "--mixture", str(mixture_file),
                   "--model-x", str(cli_models["vq_a"]),
                   "--model-v", str(cli_models["vq_b"]),
                   "--method", "gfhmm",
                   "--out-x", str(tmp / "n_x.wav"),
                   "--out-v", str(tmp / "n_v.wav")])
        assert rc == 3

    def test_fix_theta_reported(self, speaker_dirs, cli_models,
                                mixture_file, capsys):
        tmp = speaker_dirs["tmp"]
        rc = main(["separate", "--mixture", str(mixture_file),
                   "--model-x", str(cli_models["hmm_a"]),
                   "--model-v", str(cli_models["hmm_b"]),
                   "--method", "gfhmm", "--fix-theta", "3",
                   "--out-x", str(tmp / "ft_x.wav"),
                   "--out-v", str(tmp / "ft_v.wav")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "theta_hat=+3.000" in out
        assert "iterations=1" in out

    @pytest.mark.parametrize("defect", MODEL_DEFECTS)
    def test_malformed_model_exits_3(self, speaker_dirs, cli_models,
                                     mixture_file, defect, capsys):
        tmp = speaker_dirs["tmp"]
        runs = []
        if defect in HMM_DEFECTS:
            runs.append(("gfhmm", "hmm"))
        if defect in CODEBOOK_DEFECTS:
            runs.append(("gvq", "vq"))
        for method, kind in runs:
            bad = tmp / f"bad_{defect}_{kind}.ssm"
            save_model(malformed(load_model(cli_models[f"{kind}_b"]), defect),
                       bad)
            rc = main(["separate", "--mixture", str(mixture_file),
                       "--model-x", str(cli_models[f"{kind}_a"]),
                       "--model-v", str(bad), "--method", method,
                       "--out-x", str(tmp / "bad_x.wav"),
                       "--out-v", str(tmp / "bad_v.wav")])
            assert rc == 3
            assert str(bad) in capsys.readouterr().err
            assert not (tmp / "bad_x.wav").exists()

    @pytest.mark.parametrize("defect", BAD_FILES)
    def test_unreadable_model_file_exits_3(self, speaker_dirs, cli_models,
                                           mixture_file, defect, capsys):
        tmp = speaker_dirs["tmp"]
        bad = tmp / f"unreadable_{defect}.ssm"
        save_bad_file(load_model(cli_models["hmm_b"]), bad, defect)
        rc = main(["separate", "--mixture", str(mixture_file),
                   "--model-x", str(cli_models["hmm_a"]),
                   "--model-v", str(bad), "--method", "gfhmm",
                   "--out-x", str(tmp / "unreadable_x.wav"),
                   "--out-v", str(tmp / "unreadable_v.wav")])
        assert rc == 3
        assert str(bad) in capsys.readouterr().err
        assert not (tmp / "unreadable_x.wav").exists()

    @pytest.mark.parametrize("method, kind", [("fhmm", "hmm"),
                                              ("vq", "vq")])
    def test_nonfinite_score_exits_4(self, speaker_dirs, cli_models,
                                     mixture_file, method, kind, capsys):
        tmp = speaker_dirs["tmp"]
        bad = tmp / f"overflowing_{kind}.ssm"
        save_model(overflowing(load_model(cli_models[f"{kind}_b"])), bad)
        rc = main(["separate", "--mixture", str(mixture_file),
                   "--model-x", str(cli_models[f"{kind}_a"]),
                   "--model-v", str(bad), "--method", method,
                   "--out-x", str(tmp / "inf_x.wav"),
                   "--out-v", str(tmp / "inf_v.wav")])
        assert rc == 4
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp / "inf_x.wav").exists()

    def test_fix_theta_outside_search_interval_exits_1(
            self, speaker_dirs, cli_models, mixture_file):
        tmp = speaker_dirs["tmp"]
        rc = main(["separate", "--mixture", str(mixture_file),
                   "--model-x", str(cli_models["hmm_a"]),
                   "--model-v", str(cli_models["hmm_b"]),
                   "--method", "gfhmm", "--fix-theta", "20",
                   "--out-x", str(tmp / "oor_x.wav"),
                   "--out-v", str(tmp / "oor_v.wav")])
        assert rc == 1
        assert not (tmp / "oor_x.wav").exists()

    def test_nonfinite_theta0_exits_1(self, speaker_dirs, cli_models,
                                      mixture_file, capsys):
        tmp = speaker_dirs["tmp"]
        rc = main(["separate", "--mixture", str(mixture_file),
                   "--model-x", str(cli_models["hmm_a"]),
                   "--model-v", str(cli_models["hmm_b"]),
                   "--method", "gfhmm", "--theta0", "nan",
                   "--out-x", str(tmp / "nan_x.wav"),
                   "--out-v", str(tmp / "nan_v.wav")])
        assert rc == 1
        assert "theta0" in capsys.readouterr().err
        assert not (tmp / "nan_x.wav").exists()


# one real refusal of each class in cli.EXIT_CODES: a `specsep separate`
# run with one thing broken, or an `evaluate` batch that loses a worker
EXIT_CODE_CASES = [(ModelMismatchError, 3, "hmm_model_for_gvq"),
                   (NumericError, 4, "overflowing_model"),
                   (OSError, 2, "missing_mixture"),
                   (wave.Error, 2, "not_wav_mixture"),
                   (ValueError, 1, "nan_theta0"),
                   (BrokenExecutor, 5, "lost_batch_worker")]


class TestExitCodes:
    def test_every_row_has_a_case(self):
        assert [(cls, code) for cls, code, _ in EXIT_CODE_CASES] == list(
            EXIT_CODES)

    @pytest.mark.parametrize("cls, code, broken", EXIT_CODE_CASES,
                             ids=[c[2] for c in EXIT_CODE_CASES])
    def test_refusal_exits_with_its_class_code(
            self, speaker_dirs, cli_models, mixture_file, tmp_path, capsys,
            monkeypatch, cls, code, broken):
        mixture, model_x = mixture_file, cli_models["vq_a"]
        model_v, extra = cli_models["vq_b"], []
        if broken == "hmm_model_for_gvq":
            model_x = cli_models["hmm_a"]
        elif broken == "overflowing_model":
            model_v = tmp_path / "overflowing.ssm"
            save_model(overflowing(load_model(cli_models["vq_b"])), model_v)
        elif broken == "missing_mixture":
            mixture = tmp_path / "absent.wav"
        elif broken == "not_wav_mixture":
            mixture = tmp_path / "not_wav.wav"
            save_bad_wav(mixture, "not_wav")
        else:
            extra = ["--theta0", "nan"]
        out_x = tmp_path / "x.wav"
        argv = ["separate", "--mixture", str(mixture),
                "--model-x", str(model_x), "--model-v", str(model_v),
                "--method", "gvq", "--out-x", str(out_x),
                "--out-v", str(tmp_path / "v.wav"), *extra]
        if broken == "lost_batch_worker":
            # each forked worker dies at its first row
            monkeypatch.setattr(importlib.import_module("specsep.evaluate"),
                                "_run_single", lambda *args: os._exit(3))
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({
                "theta_grid": [0, 6], "methods": ["vq"],
                "models": {f"vq_{r}": str(cli_models[f"vq_{n}"])
                           for r, n in (("x", "a"), ("v", "b"))},
                "pairs": [{"id": "p", **{role: {"wav": str(
                    speaker_dirs["tmp"] / f"test_{n}.wav")}
                    for role, n in (("target", "a"), ("interf", "b"))}}]}))
            argv = ["evaluate", "--manifest", str(manifest), "--out",
                    str(out_x), "--jobs", "2"]
        args = build_parser().parse_args(argv)
        with pytest.raises(cls):
            args.func(args)
        assert main(argv) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out_x.exists()


class TestUnreadableWav:
    """A file that is no readable WAV is an I/O failure named by its path;
    an empty or truncated one used to end in a traceback and exit 1."""

    @pytest.mark.parametrize("defect", BAD_WAVS)
    @pytest.mark.parametrize("command", ["mix", "separate", "train"])
    def test_exits_2_naming_the_file(self, speaker_dirs, cli_models,
                                     mixture_file, tmp_path, capsys,
                                     command, defect):
        bad, out = tmp_path / f"{defect}.wav", tmp_path / "out.wav"
        if command == "train":
            clips = tmp_path / "clips"
            clips.mkdir()
            for clip in sorted(speaker_dirs["dirs"]["a"].glob("*.wav"))[:2]:
                shutil.copy(clip, clips)
            bad, out = clips / f"{defect}.wav", tmp_path / "out.ssm"
        save_bad_wav(bad, defect)
        argv = {
            "mix": ["mix", "--target", str(mixture_file), "--interf",
                    str(bad), "--tir", "0", "--out", str(out)],
            "separate": ["separate", "--mixture", str(bad),
                         "--model-x", str(cli_models["vq_a"]),
                         "--model-v", str(cli_models["vq_b"]),
                         "--method", "gvq", "--out-x", str(out),
                         "--out-v", str(tmp_path / "out_v.wav")],
            "train": ["train", "--kind", "vq", "--speaker-dir",
                      str(bad.parent), "--states", "2", "--out", str(out)],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: {BAD_WAVS[defect]}\n"
        assert not list(tmp_path.glob("out*"))


class TestFramingCheck:
    @pytest.fixture(scope="class")
    def vq_200(self, speaker_dirs):
        path = speaker_dirs["tmp"] / "vq_b_200.ssm"
        assert main(["train", "--kind", "vq", "--speaker-dir",
                     str(speaker_dirs["dirs"]["b"]), "--states", "4",
                     "--frame-len", "200", "--hop", "100",
                     "--out", str(path)]) == 0
        return path

    def test_train_meta_round_trips_framing(self, cli_models, vq_200):
        assert (FramingConfig.from_meta(load_model(vq_200).meta)
                == FramingConfig(frame_len=200, hop=100))
        assert (FramingConfig.from_meta(load_model(cli_models["vq_a"]).meta)
                == FramingConfig())

    def test_models_framed_differently_exit_3(self, speaker_dirs, cli_models,
                                              mixture_file, vq_200, capsys):
        tmp = speaker_dirs["tmp"]
        for model_x, model_v in ((cli_models["vq_a"], vq_200),
                                 (vq_200, cli_models["vq_a"])):
            rc = main(["separate", "--mixture", str(mixture_file),
                       "--model-x", str(model_x), "--model-v", str(model_v),
                       "--method", "gvq",
                       "--out-x", str(tmp / "fr_x.wav"),
                       "--out-v", str(tmp / "fr_v.wav")])
            assert rc == 3
            assert "frame_len" in capsys.readouterr().err
            assert not (tmp / "fr_x.wav").exists()

    def test_impossible_recorded_framing_exits_3(self, speaker_dirs,
                                                 cli_models, mixture_file,
                                                 capsys):
        # each setting is a positive integer, so the file loads, but no
        # framing has a hop beyond its frame length
        tmp = speaker_dirs["tmp"]
        model = load_model(cli_models["vq_a"])
        model.meta["hop"] = 300
        bad = tmp / "vq_a_hop_300.ssm"
        save_model(model, bad)
        rc = main(["separate", "--mixture", str(mixture_file),
                   "--model-x", str(bad), "--model-v", str(cli_models["vq_b"]),
                   "--method", "gvq", "--out-x", str(tmp / "hop_x.wav"),
                   "--out-v", str(tmp / "hop_v.wav")])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {bad}: need 0 < hop <= frame_len <= dft_size"]
        assert not (tmp / "hop_x.wav").exists()


class TestEvaluateReport:
    def test_round_trip_single_pair(self, speaker_dirs, cli_models):
        tmp = speaker_dirs["tmp"]
        manifest = {
            "sample_rate": 8000,
            "theta_grid": [6],
            "methods": ["gvq"],
            "models": {"hmm_x": str(cli_models["hmm_a"]),
                       "hmm_v": str(cli_models["hmm_b"]),
                       "vq_x": str(cli_models["vq_a"]),
                       "vq_v": str(cli_models["vq_b"])},
            "pairs": [{"id": "pair0",
                       "target": {"wav": str(tmp / "test_a.wav")},
                       "interf": {"wav": str(tmp / "test_b.wav")}}],
        }
        mpath = tmp / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        results = tmp / "results.csv"
        assert main(["evaluate", "--manifest", str(mpath),
                     "--out", str(results)]) == 0
        lines = results.read_text().strip().splitlines()
        assert len(lines) == 2              # header + one row
        curves = tmp / "curves.csv"
        assert main(["report", "--in", str(results),
                     "--out", str(curves)]) == 0
        assert len(curves.read_text().strip().splitlines()) == 2

    def test_report_without_result_columns_exits_1(self, tmp_path, capsys):
        # a CSV that evaluate did not write used to end in a KeyError
        src = tmp_path / "x.csv"
        src.write_text("a,b\n1,2\n")
        rc = main(["report", "--in", str(src),
                   "--out", str(tmp_path / "curves.csv")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "missing results columns: pair_id" in err[0]
        assert not (tmp_path / "curves.csv").exists()

    def test_report_with_empty_numeric_cell_exits_1(self, tmp_path, capsys):
        # it used to exit 1 with "could not convert string to float: ''"
        src = tmp_path / "results.csv"
        src.write_text("pair_id,method,theta_true,theta_hat,iterations,"
                       "snr_target_db,snr_interf_db,logprob,wall_ms,error\n"
                       "p,vq,0,,1,5.0,4.0,0,1,\n")
        rc = main(["report", "--in", str(src),
                   "--out", str(tmp_path / "curves.csv")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: results row 1: theta_hat '' is not a number"]
        assert not (tmp_path / "curves.csv").exists()

    def test_missing_manifest_exits_2(self, speaker_dirs):
        tmp = speaker_dirs["tmp"]
        rc = main(["evaluate", "--manifest", str(tmp / "none.json"),
                   "--out", str(tmp / "r.csv")])
        assert rc == 2

    @pytest.mark.parametrize("defect", MANIFEST_DEFECTS)
    def test_malformed_manifest_exits_1(self, tmp_path, capsys, defect):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(broken_manifest(defect)))
        rc = main(["--seed", "3", "evaluate", "--manifest", str(mpath),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {MANIFEST_DEFECTS[defect]}"]
        assert not (tmp_path / "r.csv").exists()

    def test_duplicate_manifest_key_exits_1(self, tmp_path, capsys):
        mpath = tmp_path / "manifest.json"
        # json keeps the last value: this ran from -40 dB and exited 0
        mpath.write_text('{"theta_grid": [0], "methods": [], "models": {}, '
                         '"pairs": [], "theta0": 3, "theta0": -40}')
        rc = main(["evaluate", "--manifest", str(mpath),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: manifest has duplicate key 'theta0'"]
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_method_and_missing_models_exit_1(self, tmp_path,
                                                     capsys):
        # this manifest used to run, exit 0 and write only error rows
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({
            "theta_grid": [0], "methods": ["gfhm", "gvq"], "models": {},
            "pairs": [{"id": "p0", "target": {"wav": "x.wav"},
                       "interf": {"wav": "v.wav"}}]}))
        rc = main(["evaluate", "--manifest", str(mpath),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: manifest 'methods'[0] must be one of gfhmm, "
                       "gvq, fhmm, vq, got 'gfhm'"]
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("jobs", ["-2", "0"])
    def test_nonpositive_jobs_exits_1(self, tmp_path, capsys, jobs):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"theta_grid": [0], "methods": ["vq"],
                                     "models": {}, "pairs": []}))
        rc = main(["evaluate", "--manifest", str(mpath),
                   "--out", str(tmp_path / "r.csv"), f"--jobs={jobs}"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: manifest 'jobs' must be a positive integer, "
                       f"got {jobs}"]
        assert not (tmp_path / "r.csv").exists()
