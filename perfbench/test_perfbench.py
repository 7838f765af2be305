"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import specsep  # noqa: E402
from run import make_api  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (BW_ITERS, OUTER_ROUNDS, Record,  # noqa: E402
                       SeparationWorkload, check_row, check_separation,
                       check_trained)

API = make_api(specsep, None)


def tiny():
    """hmm_k64 with K=4 models, so that the tests run in seconds."""
    return SeparationWorkload("hmm", ("gfhmm", "fhmm"), K=4)


@pytest.fixture(scope="module")
def hmm_state():
    return tiny().setup(API, seed=3)


def test_same_seed_same_inputs_and_quality(hmm_state):
    wl = tiny()
    again = wl.setup(API, seed=3)
    for a, b in zip(hmm_state["mixtures"], again["mixtures"]):
        assert np.array_equal(a.signal.samples, b.signal.samples)
        assert np.array_equal(a.ref_x.samples, b.ref_x.samples)
    for a, b in zip(hmm_state["models"], again["models"]):
        assert np.array_equal(a.hmm.means, b.hmm.means)
        assert a.bw_trace == b.bw_trace
    other = wl.setup(API, seed=4)
    assert not np.array_equal(other["mixtures"][0].signal.samples,
                              hmm_state["mixtures"][0].signal.samples)

    quality = []
    for state in (hmm_state, again):
        rec = Record()
        wl.run_pass(API, state, rec)
        assert rec.failed == 0, rec.problems
        quality.append(rec.quality())
    assert quality[0] == quality[1]
    assert set(quality[0]) == {"snr_x_db", "snr_v_db", "theta_err_db"}


def separated(state, method="gfhmm", index=0):
    tx, tv = state["models"]
    mix = state["mixtures"][index]
    x_hat, v_hat, diag = specsep.separate(mix.signal, tx.hmm, tv.hmm,
                                          specsep.FramingConfig(),
                                          method=method,
                                          mega_frame_seconds=1.0)
    return mix, x_hat, v_hat, diag["theta_hat"]


def test_nan_output_is_a_failure(hmm_state):
    mix, x_hat, v_hat, theta_hat = separated(hmm_state)
    assert check_separation(mix, x_hat, v_hat, theta_hat) == []
    bad = x_hat.samples.copy()
    bad[len(bad) // 2] = np.nan
    problems = check_separation(mix, specsep.AudioSignal(bad), v_hat,
                                theta_hat)
    rec = Record()
    assert not rec.check(problems)
    assert (rec.attempted, rec.failed) == (1, 1)


def test_swapped_masks_are_a_failure_and_move_quality(hmm_state):
    # theta = -6 dB: the interference dominates, so a swap is unambiguous
    mix, x_hat, v_hat, theta_hat = separated(hmm_state, index=0)
    assert check_separation(mix, v_hat, x_hat, -theta_hat) != []
    good, swapped = Record(), Record()
    good.separated("gfhmm", mix.theta, specsep.snr(mix.ref_x, x_hat),
                   specsep.snr(mix.ref_v, v_hat), theta_hat)
    swapped.separated("gfhmm", mix.theta, specsep.snr(mix.ref_x, v_hat),
                      specsep.snr(mix.ref_v, x_hat), -theta_hat)
    q, s = good.quality(), swapped.quality()
    assert s["snr_x_db"] < q["snr_x_db"] - 3.0
    assert s["snr_v_db"] < q["snr_v_db"] - 3.0
    assert s["theta_err_db"] > q["theta_err_db"] + 3.0


def test_error_and_unparsable_rows_are_failures():
    row = {"theta_hat": "1.5", "iterations": "2", "snr_target_db": "7.0",
           "snr_interf_db": "4.0", "logprob": "-10", "wall_ms": "12.5",
           "error": ""}
    assert check_row(row) == []
    assert check_row(dict(row, error="ValueError: boom")) != []
    assert check_row(dict(row, snr_target_db="")) != []
    assert check_row(dict(row, theta_hat="nan")) != []


def test_trace_counts_and_absent_layer(hmm_state, monkeypatch):
    decode = importlib.import_module("specsep.decode")
    separate_mod = importlib.import_module("specsep.separate")
    original = decode._viterbi_from_table
    tracer = Tracer()
    tracer.install()
    try:
        rec = Record()
        tiny().run_pass(make_api(specsep, tracer), hmm_state, rec)
    finally:
        tracer.uninstall()
    assert decode._viterbi_from_table is original
    assert separate_mod.log_spectra is specsep.log_spectra
    layers = tracer.per_layer(rec.audio_s, 1.0)
    n_mix = len(hmm_state["mixtures"])
    # gfhmm: the outer rounds plus the final decode; fhmm: one decode
    assert layers["decode.viterbi.calls"] == n_mix * (OUTER_ROUNDS + 2)
    assert layers["decode.outer_rounds"] == n_mix * OUTER_ROUNDS
    assert layers["decode.theta_evals"] > 0
    assert layers["quantize.gvq_score.calls"] == 0
    assert layers["separate.ms"] >= layers["decode.viterbi.ms"]
    assert 0 < layers["separate.self_ms"] < layers["separate.ms"]

    monkeypatch.delattr(decode, "_viterbi_from_table")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "decode.viterbi" in tracer.absent
    layers = tracer.per_layer(1.0, 1.0)
    assert "decode.viterbi.ms" not in layers
    assert layers["mixmax.log_b_table.calls"] == 0


def test_fixed_work_training_is_checked(hmm_state):
    for trained in hmm_state["models"]:
        assert check_trained(trained, 4) == []
        assert len(trained.bw_trace) == BW_ITERS
    assert check_trained(hmm_state["models"][0], 8) != []
