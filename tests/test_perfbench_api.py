"""Every paritylab name that perfbench/*.py uses still resolves, and the
records it returns still carry the attributes perfbench reads.

perfbench imports the library by name; a deletion or rename that it
depends on would otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from paritylab import harness
from paritylab.core import runs_from_counts, sample_exact, sample_poissonized, uniform_pair
from paritylab.editdist import psi, uniform_density
from paritylab.harness import ExperimentSpec, calibrate_constants, estimate_acceptance
from paritylab.parity import test_uniformity_pt_large as pt_large

PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
KERNEL_NAMES = {"_kernels", "kernels"}  # names perfbench binds to paritylab._kernels


def _resolve(module: str, name: str):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")  # a submodule


def _uses(path: Path):
    """(paritylab imports, _kernels attributes read, (callable, keywords) calls) of one file."""
    tree = ast.parse(path.read_text())
    imported, attrs, calls = {}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "paritylab":
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "paritylab":
                    importlib.import_module(alias.name)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in KERNEL_NAMES):
            attrs.add(node.attr)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported and node.keywords):
            calls.append((node.func.id, [k.arg for k in node.keywords if k.arg]))
    return imported, attrs, calls


def test_perfbench_is_scanned():
    names = {p.name for p in PERFBENCH}
    assert {"families.py", "run.py"} <= names


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: p.name)
def test_perfbench_names_resolve(path):
    imported, attrs, calls = _uses(path)
    objects = {local: _resolve(module, name) for local, (module, name) in imported.items()}
    kernels = importlib.import_module("paritylab._kernels")
    missing = sorted(a for a in attrs if not hasattr(kernels, a))
    assert not missing, f"{path.name} reads _kernels.{missing}"
    for local, keywords in calls:
        params = inspect.signature(objects[local]).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        unknown = sorted(set(keywords) - set(params))
        assert not unknown, f"{path.name} calls {local} with unknown keywords {unknown}"


# The attributes perfbench/families.py reads off each record a paritylab call returns.

def _reads_runs(monkeypatch):
    assert isinstance(runs_from_counts(np.array([2, 0, 1, 3])).bits, str)


def _reads_samples(monkeypatch):
    pair = uniform_pair(4)
    for sample in (sample_exact(pair, 10, 1), sample_poissonized(pair, 10.0, 1)):
        assert sample.counts.shape == (8,)


def _reads_psi(monkeypatch):
    assert psi(uniform_density(4), 16).bits == "1111000011110000"


def _reads_verdict(monkeypatch):
    verdict = pt_large("10" * 64, 64, 0.5)
    assert isinstance(verdict.accept, bool) and isinstance(verdict.fired_step, str)
    assert isinstance(verdict.statistics, dict) and isinstance(verdict.to_json(), str)


def _reads_curve(monkeypatch):
    curve = estimate_acceptance(ExperimentSpec("pt_small", [{"n": 4, "epsilon": 0.5}], 2, 1))
    assert curve.columns[-4:] == ["accept_rate", "ci_low", "ci_high", "mean_statistic"]
    assert len(curve.rows) == 1 and len(curve.rows[0][-4:-1]) == 3


def _reads_calibration(monkeypatch):
    monkeypatch.setattr(harness, "_rates", lambda *args: (1.0, 1.0))
    result = calibrate_constants("cc", 64, 0.3, eta=0.5, trials=2)
    chosen = [a for a in result["audit"] if a["c"] == result["c"]]
    assert chosen[-1]["yes_accept"] >= 1 - result["target_error"]
    assert chosen[-1]["no_reject"] >= 1 - result["target_error"]


@pytest.mark.parametrize("read", [_reads_runs, _reads_samples, _reads_psi, _reads_verdict,
                                  _reads_curve, _reads_calibration],
                         ids=lambda f: f.__name__.removeprefix("_reads_"))
def test_perfbench_record_attributes(read, monkeypatch):
    read(monkeypatch)


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH[0].parent / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload", ["desk_small", "desk_large", "sweep"])
def test_perfbench_points_name_only_keys_their_tester_reads(workload, monkeypatch):
    # a grid point that names a key its tester does not read raises ValueError, so
    # every grid point perfbench runs, and every point its calibration search probes,
    # must pass the tester's setup
    def rates(tester, point, *rest):
        harness._setup(tester, point)
        return 1.0, 1.0

    monkeypatch.setattr(harness, "_rates", rates)
    families = _workloads()[workload]
    for family in ("cc_trials", "pt_large_trials", "pt_small_trials"):
        for point, _, _ in families[family]["grid"]:
            harness._setup(family.removesuffix("_trials"), point)
        if "calibrate" in families[family]:
            args = dict(families[family]["calibrate"])
            calibrate_constants(args.pop("tester"), args.pop("n"), args.pop("epsilon"), **args)
