"""Instance generators, acceptance estimation, calibration, CLI."""

import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paritylab.cli import build_parser
from paritylab.collector import CCTesterConfig
from paritylab.core import sample_poissonized
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
    assert _setup("pt_small", point)[0] == PTTesterConfig(c_small=7.0, gamma=1.0)
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
    import paritylab.core
    from paritylab.core import runs_from_counts
    from paritylab.harness import run_pt_large_trial

    def no_trace(sample):
        raise RuntimeError("the trace string was built")

    monkeypatch.setattr(paritylab.core, "parity_trace", no_trace)
    with pytest.raises(RuntimeError):  # the patch reaches RunLengthTrace.bits
        runs_from_counts(np.ones(8, dtype=np.int64)).bits
    for instance in ("uniform", "paired_far"):
        v = run_pt_large_trial({"n": 64, "epsilon": 0.5, "instance": instance}, 3)
        assert v.params["m"] > 0


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
