"""Instance generators, acceptance estimation, calibration, CLI."""

import argparse
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paritylab.cli import build_parser, main
from paritylab.collector import CCTesterConfig
from paritylab.core import parity_trace, sample_exact, sample_poissonized, uniform_pair
from paritylab.deletion import uniform_block_string
from paritylab.editdist import DensitySequence, tv_distance, uniform_density
from paritylab.harness import (
    ExperimentSpec,
    calibrate_constants,
    domino_instance,
    estimate_acceptance,
    interval_far_distribution,
    wilson_interval,
)
from paritylab.harness import _setup
from paritylab.parity import PTTesterConfig


def test_trial_configs_start_from_the_dataclass_defaults():
    # a point overrides the fields it names; its "c" is the tester's size constant
    point = {"n": 8, "epsilon": 0.3, "c": 7.0, "gamma": 1.0}
    assert _setup("pt_large", point)[0] == PTTesterConfig(c_m=7.0, gamma=1.0)
    assert _setup("pt_small", {"n": 8, "epsilon": 0.3, "c": 7.0})[0] == PTTesterConfig(c_small=7.0)
    point = {"n": 8, "epsilon": 0.3, "eta": 0.5, "L": 0.2}
    assert _setup("cc", point)[0] == CCTesterConfig(0.3, 0.5, L=0.2)
    with pytest.raises(ValueError, match="'eta'"):  # a field without a default
        _setup("cc", {"n": 8, "epsilon": 0.3})


def test_domino_yes_is_exactly_uniform():
    inst = domino_instance(8, 0.3, True, 0)
    assert np.allclose(inst.pair.interleaved(), 1 / 16)
    assert inst.is_yes


def test_domino_no_structure():
    n, eps = 2, 0.4
    inst = domino_instance(n, eps, False, 1)
    p = inst.pair.p.weights
    assert sorted(np.round(4 * p, 6).tolist()) == [
        pytest.approx((1 - eps)),
        pytest.approx((1 + eps)),
    ]
    assert np.allclose(inst.pair.q.weights, 0.25)


def test_domino_exact_masses_and_tv():
    for seed in range(5):
        inst = domino_instance(16, 0.5, False, seed)
        assert inst.pair.p.weights.sum() == pytest.approx(0.5, abs=1e-15)
        assert inst.pair.q.weights.sum() == pytest.approx(0.5, abs=1e-15)
        # per-pair mass 2/n exactly
        p, q = inst.pair.p.weights, inst.pair.q.weights
        for j in range(0, 16, 2):
            assert p[j] + q[j] + p[j + 1] + q[j + 1] == pytest.approx(2 / 16)
        dens = DensitySequence(inst.pair.interleaved())
        assert tv_distance(dens, uniform_density(32)) == pytest.approx(0.5 / 4)
    with pytest.raises(ValueError):
        domino_instance(5, 0.3, False, 0)
    for bias in (True, "0.3", None, math.nan, 1.5):  # True ran at bias 1.0
        for yes in (True, False):
            with pytest.raises(ValueError, match="pair bias must be a real number"):
                domino_instance(8, bias, yes, 1)


def test_domino_subtrace_length_poisson():
    # total trace length over any pair block is Poisson(2m/n)
    n, m = 8, 20.0
    inst = domino_instance(n, 0.6, False, 3)
    lam = 2 * m / n
    totals = []
    for t in range(20000):
        c = sample_poissonized(inst.pair, m, (4, t)).counts
        totals.append(c[:4].sum())  # first pair of odd/even pairs
    totals = np.array(totals)
    assert abs(totals.mean() - lam) <= 3 * math.sqrt(lam / len(totals))
    assert abs(totals.var(ddof=1) - lam) <= 3 * lam * math.sqrt(2 / len(totals)) * 1.5


def test_interval_far_distribution_tv():
    p = interval_far_distribution(64, 0.25, seed=5)
    assert p.sum() == pytest.approx(1.0)
    assert np.abs(p - 1 / 64).sum() / 2 == pytest.approx(0.25)


def test_wilson_interval_brackets():
    low, high = wilson_interval(85, 100)
    assert low <= 0.85 <= high
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_estimate_acceptance_deterministic_and_csv_stable():
    spec = ExperimentSpec(
        tester="pt_large",
        grid=[
            {"n": 32, "epsilon": 0.5, "m": 300},
            {"n": 32, "epsilon": 0.5, "m": 300, "instance": "paired_far", "bias": 0.9},
        ],
        trials=20,
        seed=11,
    )
    c1 = estimate_acceptance(spec)
    c2 = estimate_acceptance(spec)
    assert c1.to_csv() == c2.to_csv()
    assert c1.columns[-4:] == ["accept_rate", "ci_low", "ci_high", "mean_statistic"]
    rates = [row[-4] for row in c1.rows]
    assert all(0.0 <= r <= 1.0 for r in rates)


def test_estimate_acceptance_single_trial_rate_is_binary():
    spec = ExperimentSpec(
        tester="pt_small", grid=[{"n": 8, "epsilon": 0.2}], trials=1, seed=0
    )
    rate = estimate_acceptance(spec).rows[0][-4]
    assert rate in (0.0, 1.0)


def test_experiment_spec_json_roundtrip():
    spec = ExperimentSpec("cc", [{"n": 16, "epsilon": 0.4, "eta": 0.6}], 5, 3)
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    with pytest.raises(ValueError):
        ExperimentSpec.from_json(json.dumps({"schema": 2}))


def test_uniform_bias_step_error_rate():
    # the balance step alone rejects uniform rarely (Poisson tail at gamma=3.3)
    from paritylab.core import runs_from_counts, uniform_pair
    from paritylab.parity import PTTesterConfig
    from paritylab.parity import test_uniformity_pt_large as pt_large

    n, m = 128, 2000.0
    pair = uniform_pair(n)
    cfg = PTTesterConfig(alpha=1e9, beta=1e9)  # leave only the bias step armed
    fired = 0
    for t in range(4000):
        runs = runs_from_counts(sample_poissonized(pair, m, (6, t)).counts)
        v = pt_large(runs, n, 0.3, cfg, m=m)
        fired += not v.accept
    assert fired / 4000 <= 1 / 100 + 0.006


def test_pt_large_trial_never_builds_the_trace(monkeypatch):
    # both parity-trace trials: no trace string is built, and none is parsed
    import paritylab.core
    from paritylab.core import linear_runs, runs_from_counts
    from paritylab.harness import run_pt_large_trial, run_pt_small_trial

    def no_trace(arg):
        raise RuntimeError("a trace string was built or parsed")

    monkeypatch.setattr(paritylab.core, "parity_trace", no_trace)
    monkeypatch.setattr(paritylab.core, "parse_bits", no_trace)
    with pytest.raises(RuntimeError):  # the patch reaches the parity_trace call of runs_from_counts
        runs_from_counts(np.ones(8, dtype=np.int64)).bits
    with pytest.raises(RuntimeError):  # and the parse of linear_runs
        linear_runs("10")
    for instance in ("uniform", "paired_far"):
        v = run_pt_large_trial({"n": 64, "epsilon": 0.5, "instance": instance}, 3)
        assert v.params["m"] > 0
        v = run_pt_small_trial({"n": 8, "epsilon": 0.3, "instance": instance}, 3)
        assert v.statistics["m"] > 0


def test_calibration_trivial_regime():
    # beta=0.25 pins this regime's margin: at the shipped 0.0025 the search ends at
    # c=7.5 with a last probe that accepts uniform at 0.77
    out = calibrate_constants(
        "pt_large", 16, 1.9, target_error=0.2, trials=30, seed=5, beta=0.25,
        extra={"bias": 1.0},
    )
    assert out["c"] <= 64
    assert out["audit"][-1]["yes_accept"] >= 0.8
    rerun = calibrate_constants(
        "pt_large", 16, 1.9, target_error=0.2, trials=30, seed=5, beta=0.25,
        extra={"bias": 1.0},
    )
    assert rerun["c"] == out["c"]  # same seeds, same result


def run_cli(*args, input_text=None):
    return subprocess.run(
        [sys.executable, "-m", "paritylab.cli", *args],
        capture_output=True,
        text=True,
        input=input_text,
    )


def test_cli_sample_and_test_pipeline(tmp_path):
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps({"n": 8, "p": [1 / 16] * 8, "q": [1 / 16] * 8}))
    out = run_cli("sample", str(dist), "--m", "400", "--seed", "3", "--poisson")
    assert out.returncode == 0
    trace = out.stdout.strip()
    assert set(trace) <= {"0", "1"}
    tfile = tmp_path / "t.txt"
    tfile.write_text(trace)
    out = run_cli("test", "pt", "--trace", str(tfile), "--n", "8", "--eps", "0.3",
                  "--m", "400")
    assert out.returncode == 0
    verdict = json.loads(out.stdout)
    assert set(verdict) == {"accept", "step", "statistics", "params"}
    assert verdict["params"]["branch"] == "large_eps"  # no --mode: the run-length branch


def test_cli_dist_schema(tmp_path):
    a = tmp_path / "a.dist"
    b = tmp_path / "b.dist"
    a.write_text(json.dumps([0.5, 0.25, 0.25]))
    b.write_text(json.dumps([0.25, 0.5, 0.25]))
    out = run_cli("dist", str(a), str(b), "--metric", "edit", "--N", "64")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["metric"] == "edit" and payload["lower"] <= payload["upper"]


def test_cli_experiment_csv(tmp_path):
    spec = {
        "schema": 1,
        "tester": "pt_small",
        "grid": [{"n": 8, "epsilon": 0.3}],
        "trials": 5,
        "seed": 9,
    }
    sfile = tmp_path / "spec.json"
    sfile.write_text(json.dumps(spec))
    out1 = run_cli("experiment", str(sfile))
    out2 = run_cli("experiment", str(sfile))
    assert out1.returncode == 0
    header = out1.stdout.splitlines()[0]
    assert header.endswith("accept_rate,ci_low,ci_high,mean_statistic")
    assert out1.stdout == out2.stdout  # byte-identical reruns


@pytest.mark.parametrize("point,missing", [
    ({"n": 64, "epsilon": 0.3}, "'eta'"),
    ({"n": 64, "eta": 0.5}, "'epsilon'"),
    ({"n": 64, "epsilon": 0.3, "eta": 0.5, "m": 0}, "'m'"),  # not the formula's m
    ({"n": 64, "epsilon": 0.3, "eta": 0.5, "m": True}, "'m'"),  # not m=1
])
def test_cli_experiment_missing_field_exits_2(tmp_path, point, missing):
    sfile = tmp_path / "spec.json"
    sfile.write_text(json.dumps({"schema": 1, "tester": "cc", "grid": [point],
                                 "trials": 2, "seed": 5}))
    out = run_cli("experiment", str(sfile))
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and missing in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("key,value", [("trials", 2.7), ("trials", True), ("trials", "5"),
                                       ("trials", 5.0), ("seed", 1.9), ("seed", False)])
def test_cli_experiment_non_integer_trials_or_seed_exits_2(tmp_path, key, value):
    # int() used to round them: 2.7 ran 2 trials, true 1, "5" 5, and seed 1.9 seed 1
    spec = {"schema": 1, "tester": "pt_small", "grid": [{"n": 8, "epsilon": 0.3}],
            "trials": 5, "seed": 9, key: value}
    with pytest.raises(ValueError, match=repr(key)):
        ExperimentSpec.from_json(json.dumps(spec))
    sfile = tmp_path / "spec.json"
    sfile.write_text(json.dumps(spec))
    assert main(["experiment", str(sfile)]) == 2


@pytest.mark.parametrize("command,payload,message", [
    ("experiment", {"schema": 1, "tester": "pt_small", "grid": [{"n": 8, "epsilon": 0.3}],
                    "seed": 9}, "has no 'trials'"),
    ("experiment", [{"schema": 1}], "must be a JSON object"),
    ("sample", {"n": 1, "p": [0.5]}, "has no 'q'"),
])
def test_cli_json_input_that_misses_a_key_exits_2(tmp_path, command, payload, message):
    # each used to exit 1 with a traceback: KeyError 'trials', AttributeError, KeyError 'q'
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    out = run_cli(command, str(path), *(["--m", "10"] if command == "sample" else []))
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and message in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("spec,message", [
    ({"tester": "pt_small", "grid": 5}, "grid must be a non-empty list"),
    ({"tester": "pt_small", "grid": [5]}, "grid must be a non-empty list"),
    ({"tester": "pt_large", "grid": [{"n": 32, "epsilon": 0.5, "m": 300, "beta": math.nan}]},
     "beta must be finite and positive"),
    ({"tester": "cc", "grid": [{"n": 64, "epsilon": 0.3, "eta": 0.5, "beta": math.nan}]},
     "beta must be finite and positive"),
    ({"tester": "cc", "grid": [{"n": 64, "epsilon": 0.3, "eta": 0.5, "c": -1}]},
     "c must be finite and positive"),
    ({"tester": "pt_small", "grid": [{"n": 8, "epsilon": 0.3, "c": "4"}]},
     "c_small must be finite and positive"),
    ({"tester": "pt_large", "grid": [{"n": 32, "epsilon": 0.5, "m": 300, "beta": True}]},
     "beta must be finite and positive"),
    ({"tester": "cc", "grid": [{"n": 64, "epsilon": 0.3, "eta": 0.5, "c": True}]},
     "c must be finite and positive"),
    ({"tester": "cc", "grid": [{"n": 64, "epsilon": 0.3, "eta": True}]}, "eta must lie in (0,1]"),
    ({"tester": "cc", "grid": [{"n": 64, "epsilon": 0.3, "eta": "0.5"}]}, "eta must lie in (0,1]"),
    ({"tester": "pt_large", "grid": [{"n": 32, "epsilon": 0.5, "m": 300, "mode": "small_eps"}]},
     "names a 'mode'"),
    ({"tester": "pt_small", "grid": [{"n": 8, "epsilon": 0.3, "mode": "small_eps"}]},
     "names a 'mode'"),
    ({"tester": "pt_large", "grid": [{"n": 2.5, "epsilon": 0.3}]}, "n must be an integer >= 1"),
    ({"tester": "pt_small", "grid": [{"n": 2.5, "epsilon": 0.3}]}, "n must be an integer >= 1"),
    ({"tester": "cc", "grid": [{"n": 2.5, "epsilon": 0.3, "eta": 0.5}]},
     "n must be an integer >= 1"),
    ({"tester": "pt_large", "grid": [{"n": 0, "epsilon": 0.3}]}, "n must be an integer >= 1"),
    ({"tester": "pt_small", "grid": [{"n": 0, "epsilon": 0.3}]}, "n must be an integer >= 1"),
    ({"tester": "pt_small", "grid": [{"n": True, "epsilon": 0.3}]}, "n must be an integer >= 1"),
    ({"tester": "cc", "grid": [{"n": 64, "epsilon": 0.3, "eta": 0.5, "instance": "paired_far",
                                "bias": 0.05}]}, "names a 'bias'"),
    ({"tester": "cc", "grid": [{"n": 64, "epsilon": 0.3, "eta": 0.5, "override": "no"}]},
     "needs a bool 'override'"),
    ({"tester": "cc", "grid": [{"n": 64, "epsilon": 0.3, "eta": 0.5, "gamma": 3.3}]},
     "names a 'gamma'"),
    ({"tester": "pt_large", "grid": [{"n": 8, "epsilon": 0.3, "graph": "path"}]},
     "names a 'graph'"),
    ({"tester": "pt_large", "grid": [{"n": 8, "epsilon": 0.3, "eta": 0.5}]}, "names a 'eta'"),
    ({"tester": "pt_small", "grid": [{"n": 8, "epsilon": 0.3, "override": True}]},
     "names a 'override'"),
    ({"tester": "pt_small", "grid": [{"n": 8, "epsilon": 0.3, "instnace": "paired_far"}]},
     "names a 'instnace'"),
    ({"tester": "pt_small", "grid": [{"n": 8, "epsilon": 0.3, "beta": 5.0}]}, "names a 'beta'"),
    ({"tester": "pt_small", "grid": [{"n": 8, "epsilon": 0.3, "gamma": 1.0}]},
     "names a 'gamma'"),
    ({"tester": "pt_large", "grid": [{"n": 8, "epsilon": 0.3, "c_small": 4.0}]},
     "names a 'c_small'"),
    ({"tester": "cc", "grid": [{"n": 64, "epsilon": 0.3, "eta": 0.5, "instance": "interval_far",
                                "width": True}]}, "width must be an integer >= 1"),
    ({"tester": "cc", "grid": [{"n": 64, "epsilon": 0.3, "eta": 0.5, "instance": "interval_far",
                                "width": 2.5}]}, "width must be an integer >= 1"),
    ({"tester": "pt_large", "grid": [{"n": 8, "epsilon": 0.3, "instance": "paired_far",
                                      "bias": True}]}, "pair bias must be a real number"),
    ({"tester": "pt_large", "grid": [{"n": 8, "epsilon": 0.3, "instance": "paired_far",
                                      "bias": "0.3"}]}, "pair bias must be a real number"),
    ({"tester": "pt_large", "grid": [{"n": 8, "epsilon": 0.3, "instance": "paired_far",
                                      "bias": None}]}, "pair bias must be a real number"),
    ({"tester": "pt_large", "grid": [{"n": 8, "epsilon": 0.3, "bias": True}]},
     "pair bias must be a real number"),
    ({"tester": "pt_small", "grid": [{"n": 8, "epsilon": 0.3, "instance": "interval_far",
                                      "bias": "0.3"}]}, "pair bias must be a real number"),
    ({"tester": "pt_large", "grid": [{"n": 8, "epsilon": 0.3, "bias": 1.5}]},
     "pair bias must be a real number"),
], ids=["grid_5", "grid_of_5", "pt_large_beta_nan", "cc_beta_nan", "cc_c_negative",
        "pt_small_c_string", "pt_large_beta_true", "cc_c_true", "cc_eta_true", "cc_eta_string",
        "pt_large_mode", "pt_small_mode", "pt_large_n_half", "pt_small_n_half", "cc_n_half",
        "pt_large_n_0", "pt_small_n_0", "pt_small_n_true", "cc_bias", "cc_override_string",
        "cc_gamma", "pt_large_graph", "pt_large_eta", "pt_small_override", "pt_small_typo",
        "pt_small_beta", "pt_small_gamma", "pt_large_c_small", "cc_width_true", "cc_width_half",
        "pt_large_bias_true", "pt_large_bias_string", "pt_large_bias_null",
        "pt_large_uniform_bias_true", "pt_small_interval_bias_string",
        "pt_large_uniform_bias_1_5"])
def test_cli_experiment_bad_grid_or_constant_exits_2(tmp_path, capsys, spec, message):
    # the grids and the string c and eta exited 1 with a TypeError traceback; beta=NaN
    # accepted every far trial, c=-1 ran at m=1, the bools ran at 1.0, and the mode
    # ran the run-length checks under a small_eps CSV column.  An n of 2.5 exited 1 with
    # a TypeError traceback, 0 exited 2 with "math domain error", and pt_small ran
    # "n": true.  Each key its tester does not read ran and was echoed in the CSV: the cc
    # bias point ran at bias min(1, 2 eps) = 0.6, and "override": "no" with the override on.
    # A paired_far bias of true ran at 1.0, and "0.3" and null exited 1 with a TypeError;
    # on the uniform and interval_far instances, which do not read it, any bias ran
    sfile = tmp_path / "spec.json"
    sfile.write_text(json.dumps({"schema": 1, "trials": 2, "seed": 1, **spec}))
    assert main(["experiment", str(sfile)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def test_calibration_checks_target_error_before_probing(monkeypatch, capsys):
    # --target-error nan ran every probe up to c=64 and then failed with the whole audit
    from paritylab import harness

    monkeypatch.setattr(harness, "_rates", lambda *args: pytest.fail("probed"))
    for value in (math.nan, 1.0, -0.1):
        with pytest.raises(ValueError, match="target_error must lie in"):
            calibrate_constants("cc", 64, 0.3, eta=0.5, target_error=value, trials=2)
    assert main(["calibrate", "cc", "--n", "64", "--eps", "0.3", "--eta", "0.5",
                 "--target-error", "nan", "--trials", "2"]) == 2
    assert "target_error must lie in" in capsys.readouterr().err


def test_cli_pt_modes_are_the_config_modes(capsys):
    from paritylab.parity import _PT_MODES

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    mode = next(a for a in sub.choices["test"]._actions if a.dest == "mode")
    assert mode.choices is _PT_MODES and mode.default == PTTesterConfig().mode
    assert main(["test", "pt", "--n", "8", "--eps", "0.3", "--mode", "auto"]) == 1
    assert "invalid choice: 'auto'" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-4"])
@pytest.mark.parametrize("mode", [[], ["--mode", "large_eps"]], ids=["default", "large_eps"])
def test_cli_pt_n_that_is_not_positive_exits_2(tmp_path, capsys, n, mode):
    # --mode large_eps --n 0 exited 1 with a ZeroDivisionError traceback, and --n -4
    # reported a math domain error
    tfile = tmp_path / "t.txt"
    tfile.write_text("1010")
    assert main(["test", "pt", "--trace", str(tfile), "--n", n, "--eps", "0.3", *mode]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "n must be an integer" in out.err


@pytest.mark.parametrize("m", ["nan", "inf", "0", "-5"])
@pytest.mark.parametrize("args,payload", [(["cc", "--n", "16", "--override"], "[1, 2, 3]"),
                                          (["pt", "--n", "8", "--mode", "large_eps"], "1010")])
def test_cli_m_that_is_not_finite_and_positive_exits_2(tmp_path, capsys, args, payload, m):
    # test cc --m nan accepted, and --m 0 ran at the formula's m
    tfile = tmp_path / "in.txt"
    tfile.write_text(payload)
    assert main(["test", *args, "--trace", str(tfile), "--eps", "0.3", "--m", m]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "m must be finite and positive" in out.err


@pytest.mark.parametrize("m", ["2.5", "-1", "nan", "inf"])
def test_cli_sample_m_that_is_not_a_whole_number_exits_2(tmp_path, capsys, m):
    # --m 2.5 without --poisson printed a trace of 2 symbols and exited 0
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps({"n": 4, "p": [1 / 8] * 4, "q": [1 / 8] * 4}))
    assert main(["sample", str(dist), "--m", m]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "whole number" in out.err
    assert main(["sample", str(dist), "--m", "400", "--seed", "3"]) == 0
    trace = capsys.readouterr().out.strip()
    assert trace == parity_trace(sample_exact(uniform_pair(4), 400, 3))


def test_cli_instance_and_errors(tmp_path):
    out = run_cli("instance", "paired", "--n", "4", "--eps", "0.4", "--seed", "1")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["n"] == 4
    out = run_cli("instance", "paired", "--n", "5", "--eps", "0.4")
    assert out.returncode == 2  # odd n violates the generator precondition
    out = run_cli("instance", "uniform-blocks", "--N", "64", "--blocks", "0")
    assert out.returncode == 2 and "Traceback" not in out.stderr
    out = run_cli("nonsense")
    assert out.returncode == 1


@pytest.mark.parametrize("args,payload,shipped", [
    (["pt", "--n", "8", "--mode", "large_eps"], "1100101101001011", {"beta": 0.0025, "c_m": 5.0}),
    (["pt", "--n", "8", "--mode", "small_eps"], "1100101101001011", {"c_small": 4.0}),
    (["cc", "--n", "16", "--override"], "[1, 2, 3]", {"beta": 40.0, "c": 0.016}),
    (["trace", "--N", "64", "--blocks", "4"], "110010", {"beta": 0.12}),
    (["trace", "--N", "64", "--blocks", "4"], "110010\n0110", {"beta": 0.12, "concat_eps_scale": 1.0}),
], ids=["pt_large", "pt_small", "cc", "trace", "multitrace"])
def test_cli_testers_report_the_calibrated_constants(tmp_path, args, payload, shipped):
    tfile = tmp_path / "in.txt"
    tfile.write_text(payload)
    out = run_cli("test", *args, "--trace", str(tfile), "--eps", "0.3")
    assert out.returncode == 0, out.stderr
    params = json.loads(out.stdout)["params"]
    assert {key: params[key] for key in shipped} == shipped


def test_cli_pt_large_empty_trace_exits_2(tmp_path):
    tfile = tmp_path / "empty.txt"
    tfile.write_text("")
    out = run_cli("test", "pt", "--trace", str(tfile), "--n", "16", "--eps", "0.3",
                  "--mode", "large_eps")
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


@pytest.mark.parametrize("prop", ["n_block", "uniform_n_block_promised"])
def test_cli_trace_empty_file_exits_2(tmp_path, prop):
    tfile = tmp_path / "empty.txt"
    tfile.write_text("\n\n")
    out = run_cli("test", "trace", "--trace", str(tfile), "--N", "64", "--blocks", "4",
                  "--eps", "0.3", "--property", prop)
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


def test_cli_trace_n_block_with_several_traces_exits_2(tmp_path):
    # the k-trace tester has no n_block form, and the CLI no longer tests line 1 alone
    tfile = tmp_path / "t.txt"
    tfile.write_text("0110\n1100\n1001\n")
    out = run_cli("test", "trace", "--trace", str(tfile), "--N", "64", "--blocks", "4",
                  "--eps", "0.3", "--property", "n_block")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


@pytest.mark.parametrize("args,missing", [
    (["--N", "64", "--property", "n_block"], "n_blocks"),
    (["--blocks", "4"], "n_chars"),
    (["--blocks", "4", "--property", "uniform_n_block"], "n_chars"),
])
def test_cli_trace_missing_size_exits_2(tmp_path, args, missing):
    tfile = tmp_path / "t.txt"
    tfile.write_text("0110")
    out = run_cli("test", "trace", "--trace", str(tfile), "--eps", "0.3", *args)
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and missing in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("tester,payload", [("pt", "1010"), ("cc", "[1, 2, 3]")])
def test_cli_missing_n_is_usage_error(tmp_path, tester, payload):
    tfile = tmp_path / "in.txt"
    tfile.write_text(payload)
    out = run_cli("test", tester, "--trace", str(tfile), "--eps", "0.3")
    assert out.returncode == 1
    assert "--n" in out.stderr


def test_cli_epsilon_outside_0_2_exits_2(tmp_path):
    # "10" * 2048 is as far from 16 blocks as a string gets; at --eps nan it used to accept
    tfile = tmp_path / "t.txt"
    tfile.write_text("10" * 2048)
    spec = tmp_path / "spec.json"
    spec.write_text(ExperimentSpec("pt_large", [{"n": 64, "epsilon": 0}], 3, 1).to_json())
    for args in (["test", "trace", "--trace", str(tfile), "--property", "n_block",
                  "--eps", "nan", "--N", "4096", "--blocks", "16"],
                 ["experiment", str(spec)],
                 ["calibrate", "pt_large", "--n", "64", "--eps", "0"]):
        out = run_cli(*args)
        assert out.returncode == 2 and out.stdout == "", args
        assert "epsilon" in out.stderr and "Traceback" not in out.stderr


def test_cli_phi_csv():
    out = run_cli("phi", "path", "--n", "3", "--eta", "0.5")
    rows = [list(map(float, line.split(","))) for line in out.stdout.strip().splitlines()]
    assert rows[0] == [1.0, 0.5, 0.25]


@pytest.mark.parametrize("m", ["nan", "0", "-1"])
def test_cli_phi_mu_bad_m_exits_2(m):
    out = run_cli("phi", "mu", "--n", "3", "--m", m)
    assert out.returncode == 2 and out.stdout == ""
    assert "m must be finite and positive" in out.stderr and "Traceback" not in out.stderr


def test_cli_phi_mu_n_0_exits_2():
    # exited 1 with a ZeroDivisionError traceback
    out = run_cli("phi", "mu", "--n", "0", "--m", "4")
    assert out.returncode == 2 and out.stdout == ""
    assert "n must be an integer" in out.stderr and "Traceback" not in out.stderr


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [ln.split("#")[0] for ln in block.splitlines() if ln.startswith("paritylab ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.fn), line
    # together the lines show every subcommand the parser has
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {shlex.split(line)[1] for line in lines} == set(sub.choices)


def test_cli_dist_nan_density_exits_2(tmp_path, capsys):
    # [NaN, 1.0] printed {"tv": NaN, ...}, which is not strict JSON, and exited 0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text("[NaN, 1.0]")
    b.write_text("[0.5, 0.5]")
    assert main(["dist", str(a), str(b), "--metric", "tv"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "densities must be finite and non-negative" in out.err


def test_a_point_may_name_every_key_its_tester_reads():
    common = {"n": 8, "epsilon": 0.3, "m": 40, "c": 1.0, "instance": "interval_far", "width": 2}
    _setup("cc", dict(common, eta=0.5, alpha=20.0, beta=40.0, L=0.1, graph="path",
                      override=True))
    _setup("pt_large", dict(common, alpha=20.0, beta=0.0025, gamma=3.3, c_m=5.0, bias=0.4))
    _setup("pt_small", dict(common, c_small=4.0, bias=0.4))


@pytest.mark.parametrize("width", [True, 2.5, 0, 16])
def test_interval_far_width_is_an_integer_below_n(width):
    # width true ran at width 1 and width 2.5 raised IndexError
    with pytest.raises(ValueError, match="width must be"):
        interval_far_distribution(16, 0.3, 1, width)
    spec = ExperimentSpec("cc", [{"n": 16, "epsilon": 0.3, "eta": 0.5, "instance": "interval_far",
                                  "width": width}], 2, 1)
    with pytest.raises(ValueError, match="width must be"):
        estimate_acceptance(spec)


def test_instance_generators_check_epsilon_and_first(capsys):
    # interval --eps nan printed all-NaN masses, and --first 2 printed the --first 0 string;
    # both exited 0
    with pytest.raises(ValueError, match="epsilon"):
        interval_far_distribution(16, math.nan, 1)
    for first in (2, -1):
        with pytest.raises(ValueError, match="first must be 0 or 1"):
            uniform_block_string(8, 4, first=first)
    assert uniform_block_string(8, 4, first=0) == "00110011"
    assert main(["instance", "interval", "--n", "16", "--eps", "nan"]) == 2
    assert main(["instance", "uniform-blocks", "--N", "8", "--blocks", "4", "--first", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "epsilon" in out.err and "first must be 0 or 1" in out.err
