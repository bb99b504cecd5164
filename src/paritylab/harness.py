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
import numbers
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .collector import (
    _CC_STEPS,
    BaseGraph,
    CCTesterConfig,
    _cc_rows,
    _confused_draw,
    _keep_probs,
    _row_chunks,
    test_uniformity_cc,
)
from . import _kernels
from .core import (PartialDistribution, PartialDistributionPair, _check_epsilon, _check_positive,
                   _check_size, _json_object, necklace_sums)
from .parity import (
    _PT_LARGE_STATS,
    _PT_LARGE_STEPS,
    _PT_SMALL_STEPS,
    PTTesterConfig,
    _pt_large_rows,
    _pt_large_verdict,
    _pt_small_rows,
    _pt_small_verdict,
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


def _check_paired(n: int, bias: float) -> None:
    """Raise ValueError unless n is even and the pair bias is a real number in
    [0,1] that is not a bool; NaN fails the comparison."""
    if n % 2:
        raise ValueError("the paired construction needs even n")
    if isinstance(bias, bool) or not (isinstance(bias, numbers.Real) and 0 <= bias <= 1):
        raise ValueError(f"the pair bias must be a real number in [0,1], got {bias!r}")


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
    _check_epsilon(epsilon)
    if width is None:
        width = max(1, n // 16)
    _check_size(width, "width", 1)
    if not width < n:
        raise ValueError(f"width must be below n = {n}, got {width}")
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
        _check_size(self.trials, "trials", 1)
        if not (isinstance(self.grid, list) and self.grid
                and all(isinstance(point, dict) for point in self.grid)):
            raise ValueError("grid must be a non-empty list of objects")
        for point in self.grid:
            for key in ("n", "epsilon"):
                if key not in point:
                    raise ValueError(f"grid point {point} has no {key!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        obj = _json_object(text, [f.name for f in fields(cls)], "an experiment spec")
        if obj.get("schema") != 1:
            raise ValueError("unsupported spec schema")
        for key in ("trials", "seed"):
            if type(obj[key]) is not int:  # not isinstance: a bool is an int
                raise ValueError(f"{key!r} must be a JSON integer, got {obj[key]!r}")
        return cls(obj["tester"], obj["grid"], obj["trials"], obj["seed"])

    def to_json(self) -> str:
        return json.dumps({"schema": 1, **asdict(self)})


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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959964  # the two-sided 95% normal quantile
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# instances, setups, draws and single trials for each registered tester
# ---------------------------------------------------------------------------

def _masses(point: dict, seed, rows: int, bias: float) -> float | np.ndarray:
    """Distributions over Z_n of `rows` trials: the float 1/n, the mass of every
    vertex, for the uniform instance, else a far instance of shape (rows, n), a
    paired one with pair bias `bias`."""
    kind = point.get("instance", "uniform")
    n = point["n"]
    if kind == "uniform":
        return 1.0 / n
    if kind == "interval_far":
        return _interval_far_rows(n, point["epsilon"], seed, rows, point.get("width"))
    if kind == "paired_far":
        # the odd part of a paired instance, rescaled to mass 1
        return _paired_far_rows(n, bias, seed, rows)[1] * 2
    raise ValueError(f"unknown instance kind {kind!r}")


def _pt_masses(point: dict, seed, rows: int) -> np.ndarray:
    """Masses over [2n] of `rows` parity-trace trials: a uniform even part, odd part `_masses`/2."""
    out = np.full((rows, 2 * point["n"]), 0.5 / point["n"])
    out[:, 0::2] = 0.5 * _masses(point, seed, rows, point.get("bias", point["epsilon"]))
    return out


def _setup(tester: str, point: dict):
    """(config, m) of a grid point.

    The config is the tester's defaults overridden by the fields the point
    names, and "c" sets its sample-size constant; m is the point's "m", or
    the tester's formula when it has none.  A key the tester does not read
    (a config field it ignores, such as pt_small's "beta", or a "mode": the
    tester names the branch), a non-bool "override", a config field without
    a default that the point does not name, an "epsilon" outside (0,2], an
    "n" that is not an integer >= 1, or an "m" that is not a positive finite
    real raises ValueError, as does a pt_small "m" that is not a whole
    number of draws.
    """
    cls, c_field, formula, _ = _TESTERS[tester]
    for key in point:
        if key not in _POINT_KEYS and key not in _TESTER_KEYS[tester]:
            raise ValueError(f"grid point {point} names a {key!r}, which {tester} does not read")
    if not isinstance(point.get("override", False), bool):
        raise ValueError(f"grid point {point} needs a bool 'override'")
    kwargs = {name: point[name] for name in cls.__dataclass_fields__ if name in point}
    if "c" in point:
        kwargs[c_field] = point["c"]
    for field in fields(cls):
        if field.name not in kwargs and field.default is MISSING:
            raise ValueError(f"grid point {point} has no {field.name!r}")
    cfg = cls(**kwargs)
    _check_epsilon(point["epsilon"])
    _check_size(point["n"], "n", 1)
    m = point.get("m")
    if m is None:
        return cfg, formula(cfg, point["n"], point["epsilon"])
    _check_positive(m, "a grid point's 'm'")
    if tester == "pt_small" and m != int(m):
        raise ValueError(f"grid point {point} needs a whole number 'm' of draws")
    return cfg, m


# One draw per tester for a trial and a grid point: `rng` draws edge masks and samples,
# `inst` (a generator or a seed) instances; a point passes its one generator as both.

def _cc_draw(point: dict, cfg: CCTesterConfig, graph: BaseGraph, m: float, rows: int,
             rng, inst) -> np.ndarray:
    """Bucket counts of `rows` cc trials, one row each."""
    bias = min(1.0, 2 * point["epsilon"])
    return _confused_draw(rng, graph, _keep_probs(graph, cfg.eta), m,
                          lambda rows: _masses(point, inst, rows, bias), rows)[1]


def _pt_large_draw(point: dict, m: float, rows: int, rng, inst) -> np.ndarray:
    """Poissonized counts over [2n] of `rows` parity-trace trials.

    The uniform instance draws every cell at the one rate m * (0.5 / n).  Its
    counts are those of the (rows, 2n) rate array of `_pt_masses`: numpy draws
    an array rate one cell at a time in C order, and 0.5 * (1.0 / n) == 0.5 / n.
    """
    n = point["n"]
    if point.get("instance", "uniform") == "uniform":
        return rng.poisson(m * (0.5 / n), size=(rows, 2 * n))
    lam = _pt_masses(point, inst, rows)
    lam *= m
    return rng.poisson(lam)


def _pt_small_draw(point: dict, m: int, rows: int, rng, inst) -> np.ndarray:
    """Counts over [2n] of `rows` parity-trace trials of exactly m draws each."""
    pi = _pt_masses(point, inst, rows)
    return rng.multinomial(m, pi / pi.sum(axis=1, keepdims=True))


def run_cc_trial(point: dict, seed) -> Verdict:
    """One confused-collector run: draw instance, sample, test."""
    cfg, m = _setup("cc", point)
    graph = BaseGraph(point.get("graph", "cycle"), point["n"])
    s_inst, s_run = split_seed(seed, 2)
    x = _cc_draw(point, cfg, graph, m, 1, generator(s_run), s_inst)[0]
    return test_uniformity_cc(x, cfg, point["n"], m, graph,
                              override_range_check=point.get("override", False))


def run_pt_large_trial(point: dict, seed) -> Verdict:
    cfg, m = _setup("pt_large", point)
    s_inst, s_run = split_seed(seed, 2)
    # no name holds the counts, so they are freed once their runs are summed
    return _pt_large_verdict(necklace_sums(_pt_large_draw(point, m, 1, generator(s_run), s_inst)),
                             point["n"], point["epsilon"], cfg, m)


def run_pt_small_trial(point: dict, seed) -> Verdict:
    cfg, m = _setup("pt_small", point)
    s_inst, s_run = split_seed(seed, 2)
    counts = _pt_small_draw(point, m, 1, generator(s_run), s_inst)[0]
    # slot j holds element j+1, whose low bit is 1 - j % 2; runs join over empty slots
    values = _kernels.bit_runs(1 - np.flatnonzero(counts) % 2)[0]
    return _pt_small_verdict(counts, values, counts.sum(), point["n"], point["epsilon"], cfg)


# ---------------------------------------------------------------------------
# a grid point as one batch: (accepted, statistic) arrays per chunk of trials
# ---------------------------------------------------------------------------

def _cc_point(point: dict, trials: int, rng):
    cfg, m = _setup("cc", point)
    n = point["n"]
    graph = BaseGraph(point.get("graph", "cycle"), n)
    for rows in _row_chunks(trials, n):
        x = _cc_draw(point, cfg, graph, m, rows, rng, rng)
        step, _, y, _, _ = _cc_rows(x, cfg, n, m, graph, point.get("override", False))
        fired = np.asarray(_CC_STEPS)[step]
        yield fired == "none", np.where(fired == "concentration", 0.0, y)


def _pt_large_point(point: dict, trials: int, rng):
    cfg, m = _setup("pt_large", point)
    n, epsilon = point["n"], point["epsilon"]
    for rows in _row_chunks(trials, 2 * n):
        runs = necklace_sums(_pt_large_draw(point, m, rows, rng, rng))
        first, stats, _, _ = _pt_large_rows(runs, n, epsilon, cfg, m)
        yield np.asarray(_PT_LARGE_STEPS)[first] == "none", stats[_PT_LARGE_STATS.index("Y1")]


def _pt_small_point(point: dict, trials: int, rng):
    _, m = _setup("pt_small", point)
    n, epsilon = point["n"], point["epsilon"]
    for rows in _row_chunks(trials, 2 * n):
        step, c_stat, _, _ = _pt_small_rows(_pt_small_draw(point, m, rows, rng, rng), n, epsilon)
        fired = np.asarray(_PT_SMALL_STEPS)[step]
        yield fired == "none", np.where(fired == "coverage", 0.0, c_stat)


# the keys a grid point may name: these for every tester, and per tester the
# config fields that tester reads (cc all of its own, each pt tester a subset of
# PTTesterConfig's) and then its own keys
_POINT_KEYS = ("n", "epsilon", "m", "c", "instance", "width")
_TESTER_KEYS = {"cc": (*CCTesterConfig.__dataclass_fields__, "graph", "override"),
                "pt_large": ("alpha", "beta", "gamma", "c_m", "bias"),
                "pt_small": ("c_small", "bias")}

# per tester: config class, the field a point's "c" sets, sample-size formula, grid point
_TESTERS = {
    "cc": (CCTesterConfig, "c", lambda cfg, n, epsilon: cfg.sample_size(n), _cc_point),
    "pt_large": (PTTesterConfig, "c_m", PTTesterConfig.sample_size_large, _pt_large_point),
    "pt_small": (PTTesterConfig, "c_small", PTTesterConfig.sample_size_small, _pt_small_point),
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
    `run_pt_small_trial` run one trial from their own seed as the one-row
    batch: the same draw and checks, then the verdict builder that the
    public tester shares; the reference for both is the verdicts and CSV
    bytes that the tests pin by digest.
    """
    try:
        point_fn = _TESTERS[spec.tester][3]
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
                        instance: str | None = None,
                        beta: float | None = None, extra: dict | None = None) -> dict:
    """Binary-search the leading sample-size constant for a tester.

    Doubles c until both the accept rate on the uniform instance and the
    reject rate on the far instance reach 1 - target_error, then shrinks
    the bracket.  Fails with diagnostics when no c <= 64 suffices.
    The audit trail lists every probed configuration.  A target_error
    outside [0,1) raises ValueError before the first probe.
    """
    if tester not in ("cc", "pt_large"):
        raise ValueError("calibration supports the cc and pt_large testers")
    if not 0 <= target_error < 1:  # NaN fails the comparison
        raise ValueError(f"target_error must lie in [0,1), got {target_error!r}")
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
    while c <= 64.0:
        if ok(c):
            hi = c
            lo = c / 2
            break
        c *= 2
    if hi is None:
        raise RuntimeError(
            f"calibration failed: no c <= 64 reaches both rates; audit={audit}"
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
