import csv
import dataclasses
import faulthandler
import importlib
import json
import math
import multiprocessing
import os
import re
import threading
import concurrent.futures.process
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from specsep import (AudioSignal, mix_at_tir, normalize_equal_power,
                     run_experiment, sample_hmm_frames, snr, synth_source)
from specsep.evaluate import (CSV_COLUMNS, _check_manifest, summarize_rows,
                              write_report)
from specsep.models import save_model

from conftest import (BAD_FILES, BAD_WAVS, CODEBOOK_DEFECTS, HMM_DEFECTS,
                      MANIFEST_DEFECTS, MODEL_DEFECTS, broken_manifest,
                      malformed, overflowing, random_hmm, save_bad_file,
                      save_bad_wav)

# the module, which the package's separate() function shadows
separate_module = importlib.import_module("specsep.separate")
evaluate_module = importlib.import_module("specsep.evaluate")
decode_module = importlib.import_module("specsep.decode")


class TestNormalizeEqualPower:
    def test_unit_rms_inputs_unchanged(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(4000)
        a /= np.sqrt(np.mean(a ** 2))
        b = rng.standard_normal(4000)
        b /= np.sqrt(np.mean(b ** 2))
        x, v = normalize_equal_power(AudioSignal(a), AudioSignal(b))
        np.testing.assert_allclose(x.samples, a, atol=1e-12)
        np.testing.assert_allclose(v.samples, b, atol=1e-12)

    def test_scaling(self):
        a = np.full(100, 2.0)
        x, _ = normalize_equal_power(AudioSignal(a), AudioSignal(np.ones(100)))
        np.testing.assert_allclose(x.samples, 0.5 * a, atol=1e-12)

    def test_outputs_unit_rms(self):
        rng = np.random.default_rng(1)
        x, v = normalize_equal_power(
            AudioSignal(rng.standard_normal(3000) * 0.2),
            AudioSignal(rng.standard_normal(3000) * 7.0))
        for sig in (x, v):
            assert np.sqrt(np.mean(sig.samples ** 2)) == pytest.approx(
                1.0, abs=1e-9)

    def test_silent_input_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            normalize_equal_power(AudioSignal(np.zeros(100)),
                                  AudioSignal(np.ones(100)))


class TestMixAtTir:
    def test_zero_theta_is_symmetric_average(self):
        rng = np.random.default_rng(2)
        x = AudioSignal(rng.standard_normal(1000))
        v = AudioSignal(rng.standard_normal(1000))
        y, gx, gv = mix_at_tir(x, v, 0.0)
        assert gx == gv
        np.testing.assert_allclose(
            y.samples, (x.samples + v.samples) / math.sqrt(2.0), atol=1e-12)

    def test_gain_ratio_identity_at_15(self):
        x = AudioSignal(np.ones(10))
        y, gx, gv = mix_at_tir(x, x, 15.0)
        assert 20.0 * math.log10(gx / gv) == pytest.approx(15.0, abs=1e-9)
        assert gx ** 2 + gv ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_measured_component_powers(self):
        rng = np.random.default_rng(3)
        x = AudioSignal(rng.standard_normal(16000))
        v = AudioSignal(rng.standard_normal(16000))
        x, v = normalize_equal_power(x, v)
        for theta in (0.0, 6.0, 12.0):
            y, gx, gv = mix_at_tir(x, v, theta)
            p_x = np.sum((gx * x.samples) ** 2)
            p_v = np.sum((gv * v.samples) ** 2)
            assert 10.0 * np.log10(p_x / p_v) == pytest.approx(theta,
                                                               abs=0.05)

    def test_empty_after_trim_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mix_at_tir(AudioSignal(np.zeros(0)), AudioSignal(np.ones(5)), 0.0)

    def test_sample_rate_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sample rate mismatch"):
            mix_at_tir(AudioSignal(np.ones(10), 8000),
                       AudioSignal(np.ones(10), 16000), 0.0)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_nonfinite_theta_rejected(self, theta):
        x = AudioSignal(np.ones(10))
        with pytest.raises(ValueError, match="not a finite number"):
            mix_at_tir(x, x, theta)

    def test_gains_are_the_closed_form(self):
        # the benchmark mixes through mix_at_tir: ordinary gains stay bit
        # for bit what the closed form gives
        x = AudioSignal(np.ones(10))
        for theta in np.arange(-20.0, 20.25, 0.25):
            _, gx, gv = mix_at_tir(x, x, theta)
            assert gx == (1.0 + 10.0 ** (-theta / 10.0)) ** -0.5
            assert gv == (1.0 + 10.0 ** (theta / 10.0)) ** -0.5

    @pytest.mark.parametrize("theta", [200.0, 3100.0, 1e6, 1e300])
    def test_huge_theta_without_overflow(self, theta):
        x = AudioSignal(np.ones(10))
        v = AudioSignal(-np.ones(10))
        y, gx, gv = mix_at_tir(x, v, theta)
        assert gx == 1.0
        # 10^(-theta/20) itself underflows to 0 from about 6,500 dB
        assert gv == pytest.approx(10.0 ** (-theta / 20.0), rel=1e-12,
                                   abs=0.0)
        np.testing.assert_array_equal(y.samples, gx - gv)
        y, gx2, gv2 = mix_at_tir(x, v, -theta)
        assert (gx2, gv2) == (gv, gx)


class TestSnr:
    def test_identical_signals_capped(self):
        sig = AudioSignal(np.ones(100) * 0.3)
        assert snr(sig, sig) == 100.0

    def test_zero_estimate_gives_zero_db(self):
        sig = AudioSignal(np.ones(100) * 0.5)
        assert snr(sig, AudioSignal(np.zeros(100))) == pytest.approx(
            0.0, abs=1e-12)

    def test_additive_noise_at_minus_20db(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(16000)
        noise = rng.standard_normal(16000)
        noise *= math.sqrt(0.01 * np.sum(z ** 2) / np.sum(noise ** 2))
        got = snr(AudioSignal(z), AudioSignal(z + noise))
        assert got == pytest.approx(20.0, abs=0.1)

    def test_scalar_relative_error(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(2000)
        for delta in (0.1, 0.01, 0.003):
            got = snr(AudioSignal(z), AudioSignal(z * (1.0 + delta)))
            assert got == pytest.approx(20.0 * math.log10(1.0 / delta),
                                        abs=0.01)

    def test_silent_reference_rejected(self):
        with pytest.raises(ValueError, match="silent"):
            snr(AudioSignal(np.zeros(10)), AudioSignal(np.ones(10)))


class TestSynthSource:
    def test_deterministic_per_seed(self, framing, speaker_generators):
        gen_a, _ = speaker_generators
        for kind, kwargs in (("hmm_sample", {"model": gen_a}),
                             ("tonal", {"speaker": 1}),
                             ("filtered_noise", {"speaker": 0})):
            a = synth_source(kind, seed=9, duration=0.5, cfg=framing,
                             **kwargs)
            b = synth_source(kind, seed=9, duration=0.5, cfg=framing,
                             **kwargs)
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_hmm_sample_frame_statistics(self):
        # K = 1: every frame comes from a single Gaussian
        from specsep import HmmModel
        rng = np.random.default_rng(6)
        model = HmmModel(pi=np.zeros(1), trans=np.zeros((1, 1)),
                         means=rng.normal(0, 1, (1, 20)),
                         vars=rng.uniform(0.1, 0.5, (1, 20)))
        frames, states = sample_hmm_frames(model, 500,
                                           np.random.default_rng(7))
        assert np.all(states == 0)
        sigma = np.sqrt(model.vars[0])
        bound = 3.0 * sigma / math.sqrt(500.0)
        assert np.all(np.abs(frames.mean(axis=0) - model.means[0]) <= bound)

    def test_tonal_speakers_use_disjoint_bins(self, framing):
        from specsep.signal import log_spectra
        dominant = []
        for speaker in (0, 1):
            sig = synth_source("tonal", seed=8, duration=1.0, cfg=framing,
                               speaker=speaker)
            spectra = log_spectra(sig, framing)
            dominant.append(set(np.argmax(spectra, axis=1).tolist()))
        assert dominant[0].isdisjoint(dominant[1])

    def test_missing_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            synth_source("hmm_sample", seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown source kind"):
            synth_source("square_wave", seed=0)

    @pytest.mark.parametrize("options", [
        {"duration": True}, {"duration": -1}, {"duration": np.nan},
        {"duration": np.inf}, {"duration": 1e-5}, {"duration": "1"},
        {"speaker": -1}, {"speaker": 1.0}, {"seed": -1}, {"seed": True},
    ], ids=repr)
    def test_bad_numbers_rejected(self, options):
        # a duration of True would give a 1 s clip
        key = next(iter(options))
        with pytest.raises(ValueError, match=f"synth_source {key} must be"):
            synth_source("tonal", **options)


@pytest.fixture(scope="module")
def experiment_env(tmp_path_factory, framing, speaker_generators,
                   trained_models):
    tmp = tmp_path_factory.mktemp("exp")
    gen_a, gen_b = speaker_generators
    paths = {}
    for name, model in [("gen_a", gen_a), ("gen_b", gen_b),
                        ("hmm_x", trained_models["hmm_a"]),
                        ("hmm_v", trained_models["hmm_b"]),
                        ("vq_x", trained_models["cb_a"]),
                        ("vq_v", trained_models["cb_b"])]:
        p = tmp / f"{name}.ssm"
        save_model(model, p)
        paths[name] = str(p)

    def pair_entry(i, bad=False):
        if bad:
            return {"id": f"p{i}", "target": {"wav": str(tmp / "nope.wav")},
                    "interf": {"wav": str(tmp / "nope.wav")}}
        return {"id": f"p{i}",
                "target": {"synth": {"kind": "hmm_sample",
                                     "model": paths["gen_a"],
                                     "seed": 3000 + i * 7,
                                     "duration": 1.5}},
                "interf": {"synth": {"kind": "hmm_sample",
                                     "model": paths["gen_b"],
                                     "seed": 4000 + i * 7,
                                     "duration": 1.5}}}

    # the models object a manifest may hold: the generators are sources
    models = {k: paths[k] for k in ("hmm_x", "hmm_v", "vq_x", "vq_v")}
    return {"tmp": tmp, "paths": paths, "models": models,
            "pair_entry": pair_entry}


class TestRunExperiment:
    def test_full_grid_row_counts_and_summary(self, experiment_env):
        env = experiment_env
        manifest = {
            "sample_rate": 8000,
            "theta_grid": [0, 3, 6, 9, 12, 15],
            "methods": ["gfhmm", "gvq", "fhmm", "vq"],
            "models": {k: env["paths"][k]
                       for k in ("hmm_x", "hmm_v", "vq_x", "vq_v")},
            "pairs": [env["pair_entry"](1)],
        }
        out_csv = env["tmp"] / "full.csv"
        summary = run_experiment(manifest, out_csv)
        with open(out_csv, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6 * 4           # theta grid x methods per pair
        assert list(rows[0]) == CSV_COLUMNS
        assert all(r["error"] == "" for r in rows)
        assert len(summary) == 6 * 4
        for (theta, method), stats in summary.items():
            assert stats["n"] == 1

    def test_failing_pair_recorded_not_fatal(self, experiment_env):
        env = experiment_env
        manifest = {
            "sample_rate": 8000,
            "theta_grid": [0, 6],
            "methods": ["gvq"],
            "models": {k: env["paths"][k]
                       for k in ("hmm_x", "hmm_v", "vq_x", "vq_v")},
            "pairs": [env["pair_entry"](1), env["pair_entry"](2, bad=True)],
        }
        out_csv = env["tmp"] / "witherr.csv"
        run_experiment(manifest, out_csv)
        with open(out_csv, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 * 2 * 1       # every run is a row
        good = [r for r in rows if r["pair_id"] == "p1"]
        bad = [r for r in rows if r["pair_id"] == "p2"]
        assert all(r["error"] == "" for r in good)
        assert all(r["error"] != "" for r in bad)
        assert all(r["snr_target_db"] == "" for r in bad)

    @pytest.mark.parametrize("defect", BAD_WAVS)
    def test_unreadable_wav_gives_error_rows_naming_it(self, experiment_env,
                                                       tmp_path, defect):
        # an empty or truncated file gave the bare error "EOFError: "
        bad = tmp_path / f"{defect}.wav"
        save_bad_wav(bad, defect)
        entry = {**experiment_env["pair_entry"](1),
                 "target": {"wav": str(bad)}}
        out_csv = tmp_path / "r.csv"
        run_experiment({"theta_grid": [0], "methods": ["vq"],
                        "models": experiment_env["models"],
                        "pairs": [entry]}, out_csv)
        with open(out_csv, newline="") as f:
            (row,) = csv.DictReader(f)
        assert row["error"] == f"Error: {bad}: {BAD_WAVS[defect]}"

    def test_models_framed_otherwise_give_error_rows(self, experiment_env,
                                                     trained_models):
        # models recorded at 200/100 and a manifest with no "framing":
        # the default 256/80 features must not be decoded with them
        env = experiment_env
        meta = {"sample_rate": 8000, "frame_len": 200, "hop": 100,
                "dft_size": 256}
        models = {}
        for key, name in (("hmm_x", "hmm_a"), ("hmm_v", "hmm_b"),
                          ("vq_x", "cb_a"), ("vq_v", "cb_b")):
            path = env["tmp"] / f"framed_{key}.ssm"
            save_model(dataclasses.replace(trained_models[name], meta=meta),
                       path)
            models[key] = str(path)
        manifest = {
            "sample_rate": 8000,
            "theta_grid": [6],
            "methods": ["gfhmm", "gvq", "fhmm", "vq"],
            "models": models,
            "pairs": [env["pair_entry"](1)],
        }
        out_csv = env["tmp"] / "framed.csv"
        assert run_experiment(manifest, out_csv) == {}
        with open(out_csv, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        for row in rows:
            assert row["error"].startswith("ModelMismatchError")
            assert "frame_len=200" in row["error"]
            assert row["snr_target_db"] == ""

    def test_malformed_model_gives_error_rows(self, experiment_env,
                                              trained_models):
        env = experiment_env
        for defect in MODEL_DEFECTS:
            paths = dict(env["paths"])
            for key, name, defects in (("hmm_v", "hmm_b", HMM_DEFECTS),
                                       ("vq_v", "cb_b", CODEBOOK_DEFECTS)):
                if defect in defects:
                    paths[key] = str(env["tmp"] / f"{defect}_{key}.ssm")
                    save_model(malformed(trained_models[name], defect),
                               paths[key])
            manifest = {
                "sample_rate": 8000,
                "theta_grid": [6],
                "methods": ["gfhmm", "vq"],
                "models": {k: paths[k] for k in ("hmm_x", "hmm_v", "vq_x",
                                                 "vq_v")},
                "pairs": [env["pair_entry"](1)],
            }
            out_csv = env["tmp"] / f"{defect}.csv"
            run_experiment(manifest, out_csv)
            with open(out_csv, newline="") as f:
                rows = {r["method"]: r for r in csv.DictReader(f)}
            # a model that fails to load is reported on each of its rows
            for method, defects in (("gfhmm", HMM_DEFECTS),
                                    ("vq", CODEBOOK_DEFECTS)):
                error = rows[method]["error"]
                if defect in defects:
                    assert error.startswith("ModelMismatchError: "), defect
                else:
                    assert error == "", defect
            if defect == "nan_mean":
                assert "non-finite" in rows["gfhmm"]["error"]

    @pytest.mark.parametrize("defect", BAD_FILES)
    def test_unreadable_model_file_gives_error_rows(self, experiment_env,
                                                    trained_models, defect):
        env = experiment_env
        bad = env["tmp"] / f"unreadable_{defect}.ssm"
        save_bad_file(trained_models["cb_b"], bad, defect)
        manifest = {
            "sample_rate": 8000,
            "theta_grid": [6],
            "methods": ["gvq", "vq"],
            "models": {**env["models"], "vq_v": str(bad)},
            "pairs": [env["pair_entry"](1)],
        }
        out_csv = env["tmp"] / f"unreadable_{defect}.csv"
        assert run_experiment(manifest, out_csv) == {}
        with open(out_csv, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        for row in rows:
            assert row["error"].startswith(f"ModelMismatchError: {bad}: ")

    def test_nonfinite_decoder_score_gives_error_rows(self, experiment_env,
                                                      trained_models):
        env = experiment_env
        paths = dict(env["paths"])
        for key, name in (("hmm_v", "hmm_b"), ("vq_v", "cb_b")):
            paths[key] = str(env["tmp"] / f"overflowing_{key}.ssm")
            save_model(overflowing(trained_models[name]), paths[key])
        manifest = {
            "sample_rate": 8000,
            "theta_grid": [6],
            "methods": ["gfhmm", "gvq", "fhmm", "vq"],
            "models": {k: paths[k] for k in ("hmm_x", "hmm_v", "vq_x",
                                             "vq_v")},
            "pairs": [env["pair_entry"](1)],
        }
        out_csv = env["tmp"] / "overflowing.csv"
        assert run_experiment(manifest, out_csv, jobs=2) == {}
        with open(out_csv, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        for row in rows:
            assert row["error"].startswith("NumericError: non-finite")
            assert row["logprob"] == ""

    def test_nonfinite_mixture_level_gives_error_rows(self, experiment_env,
                                                      monkeypatch):
        # the batch mixes unit-RMS sources, so an overflowing mixture level
        # is simulated; the gain-adapted methods reject it as a usage error
        # before decoding, and the baselines do not use it
        monkeypatch.setattr(separate_module, "estimate_gy",
                            lambda signal: float("inf"))
        env = experiment_env
        manifest = {
            "sample_rate": 8000,
            "theta_grid": [6],
            "methods": ["gfhmm", "gvq", "fhmm", "vq"],
            "models": {k: env["paths"][k]
                       for k in ("hmm_x", "hmm_v", "vq_x", "vq_v")},
            "pairs": [env["pair_entry"](1)],
        }
        out_csv = env["tmp"] / "infinite_gain.csv"
        run_experiment(manifest, out_csv, jobs=2)
        with open(out_csv, newline="") as f:
            rows = {row["method"]: row for row in csv.DictReader(f)}
        for method in ("gfhmm", "gvq"):
            assert rows[method]["error"] == ("ValueError: g_y must be "
                                             "finite and positive, got inf")
        for method in ("fhmm", "vq"):
            assert rows[method]["error"] == ""

    @pytest.mark.parametrize("jobs", [0, -2, 1.5, True])
    def test_jobs_argument_checked_as_manifest_key(self, tmp_path, jobs):
        # it replaces the manifest's own, valid "jobs"
        manifest = {"theta_grid": [0], "methods": ["vq"], "models": {},
                    "pairs": [], "jobs": 2}
        with pytest.raises(ValueError, match="'jobs' must be a positive"):
            run_experiment(manifest, tmp_path / "r.csv", jobs=jobs)
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ValueError, match="unknown key 'fix_thetaa'"):
            run_experiment(broken_manifest("unknown_key"),
                           tmp_path / "r.csv")

    @pytest.mark.parametrize("methods, models, message", [
        (["gfhm", "gvq"], {}, "'methods'[0] must be one of gfhmm, gvq, "
                              "fhmm, vq, got 'gfhm'"),
        (["gvq"], {}, "'models' lacks 'vq_x', which method 'gvq' needs"),
        (["vq", "gfhmm"], {"vq_x": "x.ssm", "vq_v": "v.ssm",
                           "hmm_x": "x.ssm"},
         "'models' lacks 'hmm_v', which method 'gfhmm' needs"),
    ])
    def test_methods_and_their_models_checked_before_any_run(
            self, tmp_path, methods, models, message):
        # such manifests used to run the batch and write only error rows
        manifest = {"theta_grid": [0], "methods": methods, "models": models,
                    "pairs": [{"id": "p0", "target": {"wav": "x.wav"},
                               "interf": {"wav": "v.wav"}}]}
        out_csv = tmp_path / "r.csv"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(manifest, out_csv)
        assert not out_csv.exists()

    def test_unknown_framing_key_named(self, tmp_path):
        with pytest.raises(ValueError, match="unknown key 'hopp'"):
            run_experiment(broken_manifest("unknown_framing_key"),
                           tmp_path / "r.csv")

    def test_hmm_sample_from_a_codebook_gives_error_rows(self,
                                                         experiment_env):
        env = experiment_env
        entry = env["pair_entry"](1)
        entry["interf"]["synth"]["model"] = env["paths"]["vq_v"]
        manifest = {
            "sample_rate": 8000,
            "theta_grid": [0, 6],
            "methods": ["vq"],
            "models": env["models"],
            "pairs": [entry],
        }
        out_csv = env["tmp"] / "codebook_source.csv"
        run_experiment(manifest, out_csv, jobs=2)
        with open(out_csv, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        for row in rows:
            assert row["error"] == ("ModelMismatchError: hmm_sample needs "
                                    "an HmmModel as its model, got Codebook")

    def test_theta_hat_tracks_true_theta(self, experiment_env):
        env = experiment_env
        manifest = {
            "sample_rate": 8000,
            "theta_grid": [0, 6, 9],
            "methods": ["gfhmm"],
            "models": {k: env["paths"][k]
                       for k in ("hmm_x", "hmm_v", "vq_x", "vq_v")},
            "pairs": [env["pair_entry"](i) for i in range(1, 5)],
        }
        out_csv = env["tmp"] / "theta.csv"
        summary = run_experiment(manifest, out_csv)
        means = {theta: s["theta_hat"] for (theta, m), s in summary.items()}
        # tight agreement away from 0; theta = 0 carries known scatter
        assert abs(means[6.0] - 6.0) <= 1.0
        assert abs(means[9.0] - 9.0) <= 1.5
        assert abs(means[0.0]) <= 4.0
        assert means[0.0] < means[6.0] < means[9.0]
        iters = [s["iterations"] for (t, m), s in summary.items()]
        assert np.mean(iters) <= 5.0

    def test_jobs_parallel_matches_serial(self, experiment_env):
        env = experiment_env
        manifest = {
            "sample_rate": 8000,
            "theta_grid": [0, 9],
            "methods": ["gvq", "vq"],
            "models": {k: env["paths"][k]
                       for k in ("hmm_x", "hmm_v", "vq_x", "vq_v")},
            "pairs": [env["pair_entry"](1), env["pair_entry"](2)],
        }
        serial_csv = env["tmp"] / "serial.csv"
        parallel_csv = env["tmp"] / "parallel.csv"
        run_experiment(manifest, serial_csv, jobs=1)
        run_experiment(manifest, parallel_csv, jobs=4)

        def strip_timing(path):
            with open(path, newline="") as f:
                return [{k: v for k, v in row.items() if k != "wall_ms"}
                        for row in csv.DictReader(f)]

        assert strip_timing(serial_csv) == strip_timing(parallel_csv)

    def test_manifest_from_file(self, experiment_env):
        env = experiment_env
        manifest = {
            "sample_rate": 8000,
            "theta_grid": [6],
            "methods": ["vq"],
            "models": {k: env["paths"][k]
                       for k in ("hmm_x", "hmm_v", "vq_x", "vq_v")},
            "pairs": [env["pair_entry"](1)],
        }
        mpath = env["tmp"] / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        out_csv = env["tmp"] / "fromfile.csv"
        summary = run_experiment(str(mpath), out_csv)
        assert len(summary) == 1

    @pytest.mark.parametrize("defect", MANIFEST_DEFECTS)
    def test_malformed_manifest_rejected(self, tmp_path, defect):
        out_csv = tmp_path / "r.csv"
        with pytest.raises(ValueError) as excinfo:
            run_experiment(broken_manifest(defect), out_csv)
        assert str(excinfo.value) == MANIFEST_DEFECTS[defect]
        # a refused value is shown cut, however long: the huge_* defects,
        # integers of 401 digits that json reads, were echoed in full
        assert len(str(excinfo.value)) <= 200
        assert not out_csv.exists()

    @pytest.mark.parametrize("extra, key", [
        ('"theta0": 3, "theta0": -40', "theta0"),
        ('"models": {"vq_x": "a.ssm", "vq_x": "b.ssm"}', "vq_x"),
    ], ids=["top_level", "nested"])
    def test_duplicate_key_in_file_rejected(self, tmp_path, extra, key):
        # json keeps the last value: these ran, the first from -40 dB
        mpath = tmp_path / "manifest.json"
        mpath.write_text('{"theta_grid": [0], "methods": [], "pairs": [], '
                         f'"models": {{}}, {extra}}}')
        out_csv = tmp_path / "r.csv"
        with pytest.raises(ValueError) as excinfo:
            run_experiment(mpath, out_csv)
        assert str(excinfo.value) == f"manifest has duplicate key '{key}'"
        assert not out_csv.exists()

    @pytest.mark.parametrize("options", [
        {"theta0": 3}, {"theta0": -20.5}, {"fix_theta": None},
        {"fix_theta": 4.5}, {"seed": 0, "jobs": 1}, {"seed": 7, "jobs": 2},
        {"fix_theta": -15}, {"fix_theta": 15.0},
        {"seed": np.int64(7), "jobs": np.int64(2)},
    ], ids=repr)
    def test_valid_run_options_accepted(self, options):
        _check_manifest({"theta_grid": [0], "methods": ["vq"],
                         "models": {"vq_x": "x.ssm", "vq_v": "v.ssm"},
                         "pairs": [], **options})


def rows_without_timing(path):
    with open(path, newline="") as f:
        return [{k: v for k, v in row.items() if k != "wall_ms"}
                for row in csv.DictReader(f)]


class NeedsTwoArguments(Exception):
    """An exception that its pickle cannot rebuild: unpickling calls
    __init__ with the one message argument."""

    def __init__(self, path, why):
        super().__init__(f"{path}: {why}")


class TestBatchWorkers:
    """With jobs > 1 the rows run on worker processes, forked from a
    caller that is the process's only thread, else spawned; with jobs 1
    they run on the calling thread."""

    @pytest.fixture
    def manifest(self, experiment_env):
        env = experiment_env
        return {"sample_rate": 8000, "theta_grid": [0, 9],
                "methods": ["gvq", "vq"], "models": env["models"],
                "pairs": [env["pair_entry"](1),
                          env["pair_entry"](2, bad=True)]}

    @pytest.fixture
    def start_methods(self, monkeypatch):
        """The start method of each pool that run_experiment makes."""
        methods, pool = [], concurrent.futures.process.ProcessPoolExecutor

        def spy(workers, context, **kwargs):
            methods.append(context.get_start_method())
            return pool(workers, context, **kwargs)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                            spy)
        return methods

    @staticmethod
    def nothing_left_running(threads):
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_fork_workers_match_one_job(self, manifest, tmp_path,
                                        start_methods, jobs):
        threads = threading.active_count()
        serial = run_experiment(manifest, tmp_path / "serial.csv", jobs=1)
        assert start_methods == []
        pooled = run_experiment(manifest, tmp_path / "pooled.csv", jobs=jobs)
        assert start_methods == ["fork"]
        self.nothing_left_running(threads)
        assert pooled == serial
        assert (rows_without_timing(tmp_path / "pooled.csv")
                == rows_without_timing(tmp_path / "serial.csv"))

    def test_spawn_workers_get_no_exception_objects(
            self, manifest, tmp_path, monkeypatch, start_methods):
        # a source's error crosses as its row text: this exception's
        # pickle would fail in the worker and break the pool
        resolve = evaluate_module._resolve_source

        def resolve_or_refuse(entry, *args):
            if entry.get("wav", "").endswith("nope.wav"):
                raise NeedsTwoArguments(entry["wav"], "no such clip")
            return resolve(entry, *args)

        monkeypatch.setattr(evaluate_module, "_resolve_source",
                            resolve_or_refuse)
        serial = run_experiment(manifest, tmp_path / "serial.csv", jobs=1)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        threads = threading.active_count()
        spawned = run_experiment(manifest, tmp_path / "spawned.csv", jobs=2)
        assert start_methods == ["spawn"]
        self.nothing_left_running(threads)
        rows = rows_without_timing(tmp_path / "spawned.csv")
        assert rows == rows_without_timing(tmp_path / "serial.csv")
        assert spawned == serial
        errors = {row["error"] for row in rows if row["pair_id"] == "p2"}
        assert errors == {"NeedsTwoArguments: "
                          f"{manifest['pairs'][1]['target']['wav']}: "
                          "no such clip"}

    def test_another_thread_alive_spawns_workers(self, manifest, tmp_path,
                                                 start_methods):
        # a fork would copy the other thread's locks, held or not
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            run_experiment({**manifest, "pairs": manifest["pairs"][1:]},
                           tmp_path / "r.csv", jobs=2)
        finally:
            release.set()
            other.join(timeout=60)
        assert start_methods == ["spawn"]

    @pytest.mark.parametrize("n_pairs, jobs", [(0, 2), (1, 1)])
    def test_no_pool_without_two_tasks_or_jobs(self, manifest, tmp_path,
                                               start_methods, n_pairs, jobs):
        manifest = {**manifest, "theta_grid": [0], "methods": ["vq"],
                    "pairs": manifest["pairs"][:n_pairs]}
        run_experiment(manifest, tmp_path / "r.csv", jobs=jobs)
        assert start_methods == []

    def test_lost_worker_raises_and_leaves_nothing(self, manifest, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(evaluate_module, "_run_single",
                            lambda *args: os._exit(3))
        threads, out_csv = threading.active_count(), tmp_path / "r.csv"
        assert threads == 1          # so the workers fork, patch and all
        # a pool that hangs ends the run with a traceback
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            with pytest.raises(BrokenProcessPool,
                               match="a batch worker exited"):
                run_experiment(manifest, out_csv, jobs=2)
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert not out_csv.exists()
        self.nothing_left_running(threads)

    def test_one_job_decodes_on_the_caller_and_splits_k64(
            self, tmp_path, monkeypatch, start_methods):
        # the caller is the process's only thread, so a K=64 forward pass
        # takes both cores; on a pool thread it took none of them
        calls, split = [], decode_module._forward_split

        def spy(b, *args):
            calls.append(b.shape)
            return split(b, *args)

        monkeypatch.setattr(decode_module, "_forward_split", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        rng, models = np.random.default_rng(64), {}
        for role in "xv":
            models[f"hmm_{role}"] = str(tmp_path / f"hmm_{role}.ssm")
            save_model(random_hmm(rng, 64, 129), models[f"hmm_{role}"])
        pair = {"id": "p", **{role: {"synth": {
            "kind": "tonal", "speaker": speaker, "duration": 0.5}}
            for speaker, role in enumerate(("target", "interf"))}}
        run_experiment({"theta_grid": [0, 6], "methods": ["fhmm"],
                        "models": models, "pairs": [pair]},
                       tmp_path / "r.csv", jobs=1)
        with open(tmp_path / "r.csv", newline="") as f:
            assert [row["error"] for row in csv.DictReader(f)] == ["", ""]
        assert start_methods == []
        assert len(calls) == 2 and all(shape[1:] == (64, 64)
                                       for shape in calls)


class TestManifestDocs:
    @pytest.fixture(scope="class")
    def section(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        return text[text.index("### Experiment manifest"):
                    text.index("## Library")]

    def test_readme_tables_list_each_schema(self, section):
        # a table's rows belong to the last schema that the text above it
        # names
        tables, name = {}, None
        for line in section.splitlines():
            if line.startswith("| `"):
                tables.setdefault(name, []).append(line.split("`")[1])
            elif not line.startswith("|"):
                name = (re.findall(r"`(\w+_SCHEMA)`", line) or [name])[-1]
        assert tables == {name: list(getattr(evaluate_module, name))
                          for name in dir(evaluate_module)
                          if name.endswith("_SCHEMA")}

    def test_readme_example_checks(self, section):
        example = section.split("```json")[1].split("```")[0]
        _check_manifest(json.loads(example))


class TestReport:
    def test_report_series(self, experiment_env):
        env = experiment_env
        manifest = {
            "sample_rate": 8000,
            "theta_grid": [0, 9],
            "methods": ["gvq", "vq"],
            "models": {k: env["paths"][k]
                       for k in ("hmm_x", "hmm_v", "vq_x", "vq_v")},
            "pairs": [env["pair_entry"](1), env["pair_entry"](2)],
        }
        results_csv = env["tmp"] / "rep_in.csv"
        run_experiment(manifest, results_csv)
        curves_csv = env["tmp"] / "rep_out.csv"
        stats = write_report(results_csv, curves_csv)
        assert stats["rows"] == 2 * 2 * 2
        assert stats["errors"] == 0
        with open(curves_csv, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4               # 2 methods x 2 thetas
        assert {r["method"] for r in rows} == {"gvq", "vq"}
        grp = {(r["method"], float(r["theta_true"])): int(r["n"])
               for r in rows}
        assert all(n == 2 for n in grp.values())

    @pytest.mark.parametrize("text", ["a,b\n1,2\n", ""],
                             ids=["two_columns", "empty"])
    def test_csv_without_result_columns_rejected(self, tmp_path, text):
        src = tmp_path / "x.csv"
        src.write_text(text)
        out = tmp_path / "curves.csv"
        with pytest.raises(ValueError, match="missing results columns: "
                                             "pair_id, method,.* error$"):
            write_report(src, out)
        assert not out.exists()

    def test_summarize_skips_error_rows(self):
        rows = [
            {"pair_id": "a", "method": "vq", "theta_true": "0",
             "theta_hat": "1.0", "iterations": "1", "snr_target_db": "5.0",
             "snr_interf_db": "4.0", "logprob": "0", "wall_ms": "1",
             "error": ""},
            {"pair_id": "b", "method": "vq", "theta_true": "0",
             "theta_hat": "", "iterations": "", "snr_target_db": "",
             "snr_interf_db": "", "logprob": "", "wall_ms": "1",
             "error": "boom"},
        ]
        summary = summarize_rows(rows)
        assert summary[(0.0, "vq")]["n"] == 1

    @pytest.mark.parametrize("column", ["theta_true", "snr_target_db",
                                        "snr_interf_db", "theta_hat",
                                        "iterations"])
    @pytest.mark.parametrize("cell", ["", "n/a"])
    def test_bad_numeric_cell_names_row_and_column(self, tmp_path, column,
                                                   cell):
        # it used to end in "could not convert string to float: ''"
        good = {"pair_id": "a", "method": "vq", "theta_true": "0",
                "theta_hat": "1.0", "iterations": "1",
                "snr_target_db": "5.0", "snr_interf_db": "4.0",
                "logprob": "0", "wall_ms": "1", "error": ""}
        rows = [good, dict(good, pair_id="b", **{column: cell})]
        with pytest.raises(ValueError, match=f"^results row 2: {column} "
                                             f"'{re.escape(cell)}' is not "
                                             f"a number$"):
            summarize_rows(rows)
        src = tmp_path / "results.csv"
        with open(src, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "curves.csv"
        with pytest.raises(ValueError, match=f"results row 2: {column}"):
            write_report(src, out)
        assert not out.exists()
