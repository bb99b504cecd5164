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
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import _kernels
from .collector import (
    _CC_STEPS,
    _CHUNK_CELLS,
    BaseGraph,
    CCTesterConfig,
    _cc_rows,
    _keep_probs,
    sample_confused,
    test_uniformity_cc,
)
from .core import (
    PartialDistribution,
    PartialDistributionPair,
    necklace_sums,
    parity_trace,
    runs_from_counts,
    sample_exact,
    sample_poissonized,
)
from .parity import (
    _PT_LARGE_STATS,
    _PT_LARGE_STEPS,
    _PT_SMALL_STEPS,
    PTTesterConfig,
    _pt_large_rows,
    _pt_small_rows,
    test_uniformity_pt_large,
    test_uniformity_pt_small,
)
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
    mu = np.full(n, 0.5 / n)
    if yes:
        _check_paired(n, epsilon)
        pair = PartialDistributionPair(PartialDistribution(mu), PartialDistribution(mu))
        return DominoInstance(pair, epsilon, np.empty(0, dtype=np.int64), True)
    choices, p = _paired_far_rows(n, epsilon, seed, 1)
    pair = PartialDistributionPair(PartialDistribution(p[0]), PartialDistribution(mu))
    return DominoInstance(pair, epsilon, choices[0], False)


def _check_paired(n: int, epsilon: float) -> None:
    if n % 2:
        raise ValueError("the paired construction needs even n")
    if not (0 <= epsilon <= 1):
        raise ValueError("epsilon must lie in [0,1]")


def _paired_far_rows(n: int, epsilon: float, seed, rows: int):
    """(choices, odd-part weights) of `rows` far paired instances, one per row."""
    _check_paired(n, epsilon)
    choices = generator(seed).integers(0, 2, size=(rows, n // 2))
    signs = np.empty((rows, n))
    signs[:, 0::2] = np.where(choices == 0, 1.0, -1.0)
    signs[:, 1::2] = -signs[:, 0::2]
    return choices, (0.5 / n) * (1.0 + epsilon * signs)


def interval_far_distribution(n: int, epsilon: float, seed, width: int | None = None) -> np.ndarray:
    """A distribution on Z_n at total variation exactly epsilon from uniform.

    Adds mass epsilon spread over a random arc of `width` vertices and
    removes it uniformly from the rest; the arc keeps the deviation
    visible to bucket-level collision statistics at small sample sizes.
    """
    return _interval_far_rows(n, epsilon, seed, 1, width)[0]


def _interval_far_rows(n: int, epsilon: float, seed, rows: int,
                       width: int | None = None) -> np.ndarray:
    """`rows` interval-far distributions, one per row, each on its own random arc."""
    if width is None:
        width = max(1, n // 16)
    if not 0 < width < n:
        raise ValueError("width must lie strictly between 0 and n")
    on_arc = 1.0 / n + epsilon / width
    off_arc = 1.0 / n - epsilon / (n - width)
    if min(on_arc, off_arc) < 0:
        raise ValueError("epsilon too large for this width")
    starts = generator(seed).integers(0, n, size=rows)
    p = np.full((rows, n), off_arc)
    p[np.arange(rows)[:, None], (starts[:, None] + np.arange(width)) % n] = on_arc
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
        for point in self.grid:
            for key in ("n", "epsilon"):
                if key not in point:
                    raise ValueError(f"grid point {point} has no {key!r}")

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
# instances, configs and single trials for each registered tester
# ---------------------------------------------------------------------------

def _cc_masses(point: dict, seed, rows: int) -> np.ndarray:
    """Sampling distributions over Z_n of `rows` cc trials, shape (rows, n)."""
    kind = point.get("instance", "uniform")
    n = point["n"]
    if kind == "uniform":
        return np.full((rows, n), 1.0 / n)
    if kind == "interval_far":
        return _interval_far_rows(n, point["epsilon"], seed, rows, point.get("width"))
    if kind == "paired_far":
        # the odd part of a paired instance as a distribution over Z_n, rescaled to mass 1
        return _paired_far_rows(n, min(1.0, 2 * point["epsilon"]), seed, rows)[1] * 2
    raise ValueError(f"unknown instance kind {kind!r}")


def _pt_masses(point: dict, seed, rows: int) -> np.ndarray:
    """Interleaved masses over [2n] of `rows` parity-trace trials, shape (rows, 2n).

    The even part is uniform; the odd part is uniform or a far instance.
    """
    kind = point.get("instance", "uniform")
    n = point["n"]
    if kind == "uniform":
        odd = np.full((rows, n), 0.5 / n)
    elif kind == "paired_far":
        odd = _paired_far_rows(n, point.get("bias", point["epsilon"]), seed, rows)[1]
    elif kind == "interval_far":
        odd = _interval_far_rows(n, point["epsilon"], seed, rows, point.get("width")) * 0.5
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    out = np.full((rows, 2 * n), 0.5 / n)
    out[:, 0::2] = odd
    return out


def _pt_instance(point: dict, seed) -> PartialDistributionPair:
    mass = _pt_masses(point, seed, 1)[0]
    return PartialDistributionPair(PartialDistribution(mass[0::2]),
                                   PartialDistribution(mass[1::2]))


def _config(cls, point: dict, c_field: str):
    """`cls` at its defaults, overridden by the fields the point names; "c" sets `c_field`.

    A field without a default that the point does not name raises ValueError.
    """
    kwargs = {name: point[name] for name in cls.__dataclass_fields__ if name in point}
    if "c" in point:
        kwargs[c_field] = point["c"]
    for field in fields(cls):
        if field.name not in kwargs and field.default is MISSING:
            raise ValueError(f"grid point {point} has no {field.name!r}")
    return cls(**kwargs)


def run_cc_trial(point: dict, seed) -> Verdict:
    """One confused-collector run: draw instance, sample, test."""
    n = point["n"]
    cfg = _config(CCTesterConfig, point, "c")
    graph = BaseGraph(point.get("graph", "cycle"), n)
    m = point.get("m") or cfg.sample_size(n)
    s_inst, s_run = split_seed(seed, 2)
    p = _cc_masses(point, s_inst, 1)[0]
    _, x = sample_confused(p, m, graph, cfg.eta, s_run)
    return test_uniformity_cc(x, cfg, n, m, graph, override_range_check=point.get("override", False))


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


# ---------------------------------------------------------------------------
# a grid point as one batch: (accepted, statistic) arrays per chunk of trials
# ---------------------------------------------------------------------------

def _row_chunks(trials: int, cells: int):
    """Row counts of the chunks of `trials` rows of `cells` cells each."""
    step = max(1, _CHUNK_CELLS // cells)
    for start in range(0, trials, step):
        yield min(step, trials - start)


def _cc_point(point: dict, trials: int, rng):
    n = point["n"]
    cfg = _config(CCTesterConfig, point, "c")
    graph = BaseGraph(point.get("graph", "cycle"), n)
    m = point.get("m") or cfg.sample_size(n)
    keep_p = _keep_probs(graph, cfg.eta)
    for rows in _row_chunks(trials, n):
        # no chunk-sized array outlives its use: a larger live set made the allocator
        # return memory to the kernel and page-fault it back in on every chunk
        labels = _kernels.bucket_labels(rng.random((rows, keep_p.size)) < keep_p, n,
                                        graph.is_cycle)
        counts = rng.poisson(m * _cc_masses(point, rng, rows))
        # labels run over 0..k-1, so the columns past the largest k hold only zeros
        x = _kernels.bucket_sums(counts, labels)[:, : labels.max() + 1]
        step, _, y, _, _ = _cc_rows(x, cfg, n, m, graph, point.get("override", False))
        fired = np.asarray(_CC_STEPS)[step]
        yield fired == "none", np.where(fired == "concentration", 0.0, y)


def _pt_large_point(point: dict, trials: int, rng):
    cfg = _config(PTTesterConfig, point, "c_m")
    n, epsilon = point["n"], point["epsilon"]
    m = point.get("m") or cfg.sample_size_large(n, epsilon)
    for rows in _row_chunks(trials, 2 * n):
        runs = necklace_sums(rng.poisson(m * _pt_masses(point, rng, rows)))
        first, stats, _, _ = _pt_large_rows(runs, n, epsilon, cfg, m)
        yield np.asarray(_PT_LARGE_STEPS)[first] == "none", stats[_PT_LARGE_STATS.index("Y1")]


def _pt_small_point(point: dict, trials: int, rng):
    cfg = _config(PTTesterConfig, point, "c_small")
    n, epsilon = point["n"], point["epsilon"]
    m = point.get("m") or cfg.sample_size_small(n, epsilon)
    for rows in _row_chunks(trials, 2 * n):
        pi = _pt_masses(point, rng, rows)
        counts = rng.multinomial(m, pi / pi.sum(axis=1, keepdims=True))
        step, c_stat, _, _ = _pt_small_rows(counts, n, epsilon)
        fired = np.asarray(_PT_SMALL_STEPS)[step]
        yield fired == "none", np.where(fired == "coverage", 0.0, c_stat)


_POINTS = {
    "cc": _cc_point,
    "pt_large": _pt_large_point,
    "pt_small": _pt_small_point,
}


def estimate_acceptance(spec: ExperimentSpec) -> AcceptanceCurve:
    """Acceptance rate with Wilson 95% bounds for every grid point.

    Each grid point runs as one batch: one generator, seeded by splitting
    the spec seed per point, draws the instances and samples of all its
    trials as rows of arrays, chunked to `collector._CHUNK_CELLS` cells,
    and the tester's row-wise checks decide every row.  Points can be
    evaluated in any order (or concurrently) and the output is
    byte-identical across reruns.  The mean statistic is Y (cc), Y1
    (pt_large) or C (pt_small), counted as 0.0 on a trial rejected before
    the statistic is computed.  `run_cc_trial`, `run_pt_large_trial` and
    `run_pt_small_trial` make one trial at a time from their own seed and
    are the reference that the acceptance suite runs.
    """
    try:
        point_fn = _POINTS[spec.tester]
    except KeyError:
        raise ValueError(f"unknown tester {spec.tester!r}") from None
    param_keys = sorted({k for point in spec.grid for k in point})
    columns = param_keys + ["accept_rate", "ci_low", "ci_high", "mean_statistic"]
    point_seeds = split_seed(spec.seed, len(spec.grid))
    rows = []
    for point, pseed in zip(spec.grid, point_seeds):
        accepts = 0
        stat_sum = 0.0
        for accepted, stat in point_fn(point, spec.trials, generator(pseed)):
            accepts += int(np.count_nonzero(accepted))
            stat_sum += float(np.sum(stat))
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
