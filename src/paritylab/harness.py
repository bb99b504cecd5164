"""Hard instances, acceptance-probability estimation, and calibration.

Instances: the paired-bias ("domino") family perturbs the odd part in
adjacent pairs with independent random signs, keeping the even part
exactly uniform; the interval family concentrates the deviation on a
short arc.  The estimator replays any registered tester over a seeded
grid and reports Wilson intervals; the calibrator binary-searches the
leading sample-size constant until both error rates clear a target.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .collector import BaseGraph, CCTesterConfig, sample_confused, test_uniformity_cc
from .core import (
    PartialDistribution,
    PartialDistributionPair,
    parity_trace,
    runs_from_counts,
    sample_exact,
    sample_poissonized,
    uniform_pair,
)
from .parity import PTTesterConfig, test_uniformity_pt_large, test_uniformity_pt_small
from .rng import generator, split_seed
from .verdict import Verdict

__all__ = [
    "DominoInstance",
    "ExperimentSpec",
    "AcceptanceCurve",
    "domino_instance",
    "interval_far_distribution",
    "estimate_acceptance",
    "run_cc_trial",
    "run_pt_large_trial",
    "run_pt_small_trial",
    "calibrate_constants",
    "wilson_interval",
]

@dataclass(frozen=True)
class DominoInstance:
    """Odd/even pair built from adjacent biased pairs.

    The even part is exactly uniform.  In the far case each pair (2i-1,
    2i) of odd-part entries is ((1+eps)/2n, (1-eps)/2n) or the mirror,
    by an independent fair coin; total variation to uniform is exactly
    eps/4.
    """

    pair: PartialDistributionPair
    epsilon: float
    choices: np.ndarray
    is_yes: bool


def domino_instance(n: int, epsilon: float, yes: bool, seed) -> DominoInstance:
    if n % 2:
        raise ValueError("the paired construction needs even n")
    if not (0 <= epsilon <= 1):
        raise ValueError("epsilon must lie in [0,1]")
    mu = np.full(n, 0.5 / n)
    if yes:
        pair = PartialDistributionPair(PartialDistribution(mu), PartialDistribution(mu))
        return DominoInstance(pair, epsilon, np.empty(0, dtype=np.int64), True)
    rng = generator(seed)
    choices = rng.integers(0, 2, size=n // 2)
    signs = np.empty(n)
    signs[0::2] = np.where(choices == 0, 1.0, -1.0)
    signs[1::2] = -signs[0::2]
    p = mu * (1.0 + epsilon * signs)
    pair = PartialDistributionPair(PartialDistribution(p), PartialDistribution(mu))
    return DominoInstance(pair, epsilon, choices, False)


def interval_far_distribution(n: int, epsilon: float, seed, width: int | None = None) -> np.ndarray:
    """A distribution on Z_n at total variation exactly epsilon from uniform.

    Adds mass epsilon spread over a random arc of `width` vertices and
    removes it uniformly from the rest; the arc keeps the deviation
    visible to bucket-level collision statistics at small sample sizes.
    """
    if width is None:
        width = max(1, n // 16)
    if not 0 < width < n:
        raise ValueError("width must lie strictly between 0 and n")
    rng = generator(seed)
    start = int(rng.integers(0, n))
    p = np.full(n, 1.0 / n)
    idx = (start + np.arange(width)) % n
    p[idx] += epsilon / width
    mask = np.ones(n, dtype=bool)
    mask[idx] = False
    p[mask] -= epsilon / (n - width)
    if np.any(p < 0):
        raise ValueError("epsilon too large for this width")
    return p


@dataclass(frozen=True)
class ExperimentSpec:
    """A seeded acceptance experiment over a parameter grid."""

    tester: str
    grid: list[dict]
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.grid:
            raise ValueError("grid must be non-empty")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        obj = json.loads(text)
        if obj.get("schema") != 1:
            raise ValueError("unsupported spec schema")
        return cls(
            tester=obj["tester"],
            grid=list(obj["grid"]),
            trials=int(obj["trials"]),
            seed=int(obj["seed"]),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "tester": self.tester,
                "grid": self.grid,
                "trials": self.trials,
                "seed": self.seed,
            }
        )


@dataclass(frozen=True)
class AcceptanceCurve:
    """Rows of (parameters, acceptance rate, Wilson 95% interval, mean stat)."""

    columns: list[str]
    rows: list[tuple]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue()


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    return v


def wilson_interval(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# single trials for each registered tester
# ---------------------------------------------------------------------------

def _cc_instance(point: dict, seed) -> np.ndarray:
    kind = point.get("instance", "uniform")
    n = point["n"]
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    if kind == "interval_far":
        return interval_far_distribution(n, point["epsilon"], seed, point.get("width"))
    if kind == "paired_far":
        inst = domino_instance(n, min(1.0, 2 * point["epsilon"]), False, seed)
        # reuse the odd part as a distribution over Z_n, rescaled to mass 1
        return inst.pair.p.weights * 2
    raise ValueError(f"unknown instance kind {kind!r}")


def _config(cls, point: dict, c_field: str):
    """`cls` at its defaults, overridden by the fields the point names; "c" sets `c_field`."""
    kwargs = {name: point[name] for name in cls.__dataclass_fields__ if name in point}
    if "c" in point:
        kwargs[c_field] = point["c"]
    return cls(**kwargs)


def run_cc_trial(point: dict, seed) -> Verdict:
    """One confused-collector run: draw instance, sample, test."""
    n = point["n"]
    cfg = _config(CCTesterConfig, point, "c")
    graph = BaseGraph(point.get("graph", "cycle"), n)
    m = point.get("m") or cfg.sample_size(n)
    s_inst, s_run = split_seed(seed, 2)
    p = _cc_instance(point, s_inst)
    _, x = sample_confused(p, m, graph, cfg.eta, s_run)
    return test_uniformity_cc(x, cfg, n, m, graph, override_range_check=point.get("override", False))


def _pt_instance(point: dict, seed) -> PartialDistributionPair:
    kind = point.get("instance", "uniform")
    n = point["n"]
    if kind == "uniform":
        return uniform_pair(n)
    if kind == "paired_far":
        return domino_instance(n, point.get("bias", point["epsilon"]), False, seed).pair
    if kind == "interval_far":
        p = interval_far_distribution(n, point["epsilon"], seed, point.get("width")) * 0.5
        return PartialDistributionPair(
            PartialDistribution(p), PartialDistribution(np.full(n, 0.5 / n))
        )
    raise ValueError(f"unknown instance kind {kind!r}")


def run_pt_large_trial(point: dict, seed) -> Verdict:
    cfg = _config(PTTesterConfig, point, "c_m")
    n = point["n"]
    m = point.get("m") or cfg.sample_size_large(n, point["epsilon"])
    s_inst, s_run = split_seed(seed, 2)
    pair = _pt_instance(point, s_inst)
    counts = sample_poissonized(pair, m, s_run)
    runs = runs_from_counts(counts.counts)
    return test_uniformity_pt_large(runs, n, point["epsilon"], cfg, m=m)


def run_pt_small_trial(point: dict, seed) -> Verdict:
    cfg = _config(PTTesterConfig, point, "c_small")
    n = point["n"]
    m = point.get("m") or cfg.sample_size_small(n, point["epsilon"])
    s_inst, s_run = split_seed(seed, 2)
    pair = _pt_instance(point, s_inst)
    trace = parity_trace(sample_exact(pair, m, s_run))
    return test_uniformity_pt_small(trace, n, point["epsilon"], cfg)


_TESTERS = {
    "cc": run_cc_trial,
    "pt_large": run_pt_large_trial,
    "pt_small": run_pt_small_trial,
}


def estimate_acceptance(spec: ExperimentSpec) -> AcceptanceCurve:
    """Acceptance rate with Wilson 95% bounds for every grid point.

    Trial seeds derive from the spec seed by per-point splitting, so grid
    points can be evaluated in any order (or concurrently) and the output
    is byte-identical across reruns.
    """
    try:
        trial_fn = _TESTERS[spec.tester]
    except KeyError:
        raise ValueError(f"unknown tester {spec.tester!r}") from None
    param_keys = sorted({k for point in spec.grid for k in point})
    columns = param_keys + ["accept_rate", "ci_low", "ci_high", "mean_statistic"]
    point_seeds = split_seed(spec.seed, len(spec.grid))
    rows = []
    for point, pseed in zip(spec.grid, point_seeds):
        seeds = split_seed(pseed, spec.trials)
        accepts = 0
        stat_sum = 0.0
        for s in seeds:
            verdict = trial_fn(point, s)
            accepts += bool(verdict.accept)
            stat_sum += float(
                verdict.statistics.get("Y", verdict.statistics.get("Y1",
                    verdict.statistics.get("C", 0.0)))
            )
        low, high = wilson_interval(accepts, spec.trials)
        rows.append(
            tuple(point.get(k, "") for k in param_keys)
            + (accepts / spec.trials, low, high, stat_sum / spec.trials)
        )
    return AcceptanceCurve(columns, rows)


def _rates(tester: str, base_point: dict, trials: int, seed) -> tuple[float, float]:
    """(yes-accept rate, no-reject rate) at one configuration."""
    yes_point = dict(base_point, instance="uniform")
    no_point = dict(base_point)
    no_point.setdefault("instance", "paired_far")
    spec = ExperimentSpec(tester, [yes_point, no_point], trials, seed)
    curve = estimate_acceptance(spec)
    yes_rate = curve.rows[0][-4]
    no_rate = 1.0 - curve.rows[1][-4]
    return yes_rate, no_rate


def calibrate_constants(tester: str, n: int, epsilon: float, *, eta: float | None = None,
                        target_error: float = 0.15, trials: int = 120, seed: int = 0,
                        c_max: float = 64.0, instance: str | None = None,
                        beta: float | None = None, extra: dict | None = None) -> dict:
    """Binary-search the leading sample-size constant for a tester.

    Doubles c until both the accept rate on the uniform instance and the
    reject rate on the far instance reach 1 - target_error, then shrinks
    the bracket.  Fails with diagnostics when no c <= c_max suffices.
    The audit trail lists every probed configuration.
    """
    if tester not in ("cc", "pt_large"):
        raise ValueError("calibration supports the cc and pt_large testers")
    base = {"n": n, "epsilon": epsilon}
    if eta is not None:
        base["eta"] = eta
    if beta is not None:
        base["beta"] = beta
    if instance is not None:
        base["instance"] = instance
    if extra:
        base.update(extra)
    audit = []

    def ok(c: float) -> bool:
        yes, no = _rates(tester, dict(base, c=c), trials, seed)
        audit.append({"c": c, "yes_accept": yes, "no_reject": no})
        return yes >= 1 - target_error and no >= 1 - target_error

    lo, hi = None, None
    c = 0.25 if tester == "pt_large" else 0.002
    while c <= c_max:
        if ok(c):
            hi = c
            lo = c / 2
            break
        c *= 2
    if hi is None:
        raise RuntimeError(
            f"calibration failed: no c <= {c_max} reaches both rates; audit={audit}"
        )
    for _ in range(4):
        mid = (lo + hi) / 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    result = dict(base, c=hi, tester=tester, target_error=target_error,
                  trials=trials, seed=seed)
    result["audit"] = audit
    return result
