"""Uniformity testers that see only the parity trace of a sample.

The trace is stitched into a necklace and both symbol classes are tested
symmetrically.  For moderate distance parameters the tester thresholds
the run-length collision statistic of each class; for tiny distances it
falls back to coupon collection plus a standard histogram tester on the
recovered multiplicities.

A one-run is a bucket of odd necklace slots, joined where the even slot
between them is empty (zero-runs likewise): a confused collector with
d = 2n and nu = exp(-m/2n), checked by `collector._collision_check`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .collector import (_check_epsilon, _check_positive, _collision_check, _join_sum, _pair_sums,
                        phi_from_keep_probs)
from .core import RunLengthTrace, circular_runs, linear_runs
from .verdict import Verdict

__all__ = [
    "PTTesterConfig",
    "phi_mu",
    "phi_mu_sum",
    "uht_histogram",
    "test_uniformity_pt_large",
    "test_uniformity_pt_small",
    "test_uniformity_pt",
    "routes_to_large",
]


@dataclass(frozen=True)
class PTTesterConfig:
    """Free constants of the parity-trace testers.

    `gamma` controls the symbol-balance rejection, `alpha` the run-length
    cap, `beta` the collision margin, `K` the boundary between the large
    and small distance regimes, and `c_m` and `c_small` the sample-size
    formulas.  The defaults are the calibrated values that the acceptance
    suite checks.
    """

    alpha: float = 20.0
    beta: float = 0.0025
    gamma: float = 3.3
    K: float = 2.0
    c_m: float = 5.0
    c_small: float = 4.0
    mode: str = "auto"

    def __post_init__(self):
        if self.K <= 1:
            raise ValueError("K must exceed 1")
        if self.mode not in ("auto", "large_eps", "small_eps"):
            raise ValueError("mode must be auto, large_eps or small_eps")

    def sample_size_large(self, n: int, epsilon: float) -> int:
        """m = c_m * (n/eps)^(4/5) * log^(7/5) n."""
        return max(2, int(round(self.c_m * (n / epsilon) ** 0.8 * math.log(n) ** 1.4)))

    def sample_size_small(self, n: int, epsilon: float) -> int:
        """m = max(2 * 2n * log(100 * 2n), c_small * sqrt(2n)/eps^2).

        The first term is the coupon-collection floor for the domain [2n];
        the second is the histogram tester's budget.
        """
        d = 2 * n
        floor = 2 * d * math.log(100 * d)
        return int(math.ceil(max(floor, self.c_small * math.sqrt(d) / epsilon**2)))


def routes_to_large(n: int, epsilon: float, config: PTTesterConfig) -> bool:
    """Pure regime decision: large iff eps >= K * log^3(n) / n^(1/4)."""
    return epsilon >= config.K * math.log(n) ** 3 / n**0.25


def phi_mu(n: int, m: float) -> np.ndarray:
    """Expected join matrix of the necklace under the uniform even part.

    Every edge survives independently with probability exp(-m/(2n)), so
    this is the join matrix of the n-cycle at that constant keep.
    """
    return phi_from_keep_probs(np.full(n, _necklace_keep(n, m)), "cycle")


def phi_mu_sum(n: int, m: float) -> float:
    """Sum of all entries of phi_mu, via the geometric row-sum closed form."""
    return _join_sum(n, _necklace_keep(n, m), True)


def _necklace_keep(n: int, m: float) -> float:
    """exp(-m/2n), the keep of every necklace edge."""
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    _check_positive(m, "m")
    return math.exp(-m / (2 * n))


def _collision_rows(x, domain_size: int, epsilon: float):
    """(m, C, threshold, reject) of the histogram collision tester, per row of counts.

    C = sum_i X_i(X_i-1) / (m(m-1)) with m the row sum, and a row rejects
    when C exceeds (1 + eps^2/2) / D.  Rows with m <= 1 give C = nan.
    """
    _check_epsilon(epsilon)
    x = np.asarray(x, dtype=np.float64)
    m = x.sum(axis=1)
    den = m * (m - 1.0)
    c_stat = _pair_sums(x) / np.where(den > 0, den, np.nan)
    threshold = (1.0 + epsilon**2 / 2.0) / domain_size
    return m, c_stat, threshold, c_stat > threshold


def uht_histogram(counts, domain_size: int, epsilon: float) -> Verdict:
    """Plain collision tester on a multiplicity histogram.

    Accepts iff C = sum_i X_i(X_i-1) / (m(m-1)) is at most
    (1 + eps^2/2) / D.
    """
    m, c_stat, threshold, reject = _collision_rows(np.reshape(counts, (1, -1)),
                                                   domain_size, epsilon)
    if m[0] < 2:
        raise ValueError("histogram tester needs at least two samples")
    stats = {"C": float(c_stat[0]), "threshold": threshold, "m": float(m[0]), "D": domain_size}
    params = {"epsilon": epsilon}
    if reject[0]:
        return Verdict(False, "histogram", stats, params)
    return Verdict(True, "none", stats, params)


def _as_runs(trace) -> RunLengthTrace:
    if isinstance(trace, RunLengthTrace):
        return trace
    return circular_runs(trace)


# the six checks of the large-eps tester in order, and "none" past the last
_PT_LARGE_STEPS = ("bias", "concentration", "collision") * 2 + ("none",)
# the per-class statistics, class 1 first
_PT_LARGE_STATS = ("N1", "max_run1", "Y1", "N0", "max_run0", "Y0")


def _pt_large_rows(runs, n: int, epsilon: float, config: PTTesterConfig, m: float):
    """The six checks of `test_uniformity_pt_large` on every row.

    `runs[0, i]` and `runs[1, i]` hold the one-run and the zero-run lengths
    of trace i (the layout of `necklace_sums`); zero entries stand for no
    run and change no statistic.  Returns (first, stats, threshold_Y,
    threshold_run): first[i] indexes _PT_LARGE_STEPS at the first failing
    check of row i, and stats[j, i] is statistic _PT_LARGE_STATS[j] of row
    i.  A sample size `m` that is not positive, or an epsilon outside
    (0,2], raises ValueError.
    """
    _check_epsilon(epsilon)
    if not m > 0:
        raise ValueError(f"the large-eps tester needs a positive sample size, got m={m}")
    x = np.asarray(runs, dtype=np.float64)
    max_run, y, threshold_run, threshold_y = _collision_check(
        x, m, n, 2 * n, math.exp(-m / (2 * n)), True, config.alpha,
        config.beta * epsilon**2 * m**2 / n**2)
    n_sym = x.sum(axis=2)
    # rows 0-5 hold the checks in order as (class, check); row 6, "none", always holds
    failed = np.ones((7, x.shape[1]), dtype=np.bool_)
    checks = failed[:6].reshape(2, 3, -1)
    np.greater_equal(n_sym / m, 0.5 + config.gamma / math.sqrt(m), out=checks[:, 0])
    np.logical_and(n_sym > 0, max_run >= threshold_run, out=checks[:, 1])  # a run must exist
    np.greater_equal(y, threshold_y, out=checks[:, 2])
    stats = np.stack((n_sym, max_run, y), axis=1)  # (class, statistic, row)
    return failed.argmax(axis=0), stats.reshape(6, -1), threshold_y, threshold_run


def test_uniformity_pt_large(trace, n: int, epsilon: float,
                             config: PTTesterConfig | None = None,
                             m: float | None = None) -> Verdict:
    """Three-step tester on the circular trace, run for both symbol classes.

    Per class: reject when the class holds more than half the trace plus
    gamma/sqrt(m); reject when any run reaches alpha*log(n); reject when
    the collision statistic Y exceeds (m/4n^2) * sum(phi_mu) plus
    beta*eps^2*m^2/n^2.  Accepts only if all six checks pass.  The
    verdict reports the statistics of the classes checked up to the first
    failing check.

    `m` defaults to the trace length; a sample size that is not positive
    (an empty trace, for instance), or an epsilon outside (0,2], raises
    ValueError.
    """
    config = config or PTTesterConfig()
    runs = _as_runs(trace)
    if m is None:
        m = float(runs.length)
    params = {"alpha": config.alpha, "beta": config.beta, "gamma": config.gamma,
              "c_m": config.c_m, "epsilon": epsilon, "n": n, "m": m, "branch": "large_eps"}
    padded = np.zeros((2, 1, max(runs.one_runs.size, runs.zero_runs.size)))
    padded[0, 0, : runs.one_runs.size] = runs.one_runs
    padded[1, 0, : runs.zero_runs.size] = runs.zero_runs
    first, rows, threshold_y, threshold_run = _pt_large_rows(padded, n, epsilon, config, m)
    first = int(first[0])
    fired = _PT_LARGE_STEPS[first]
    stats = {"threshold_Y": threshold_y, "threshold_run": threshold_run}
    # class 0 is checked, and reported, only when class 1 passes its three checks
    reported = 3 if first < 3 else 6
    stats.update(zip(_PT_LARGE_STATS[:reported], rows[:reported, 0].tolist()))
    return Verdict(fired == "none", fired, stats, params)


_PT_SMALL_STEPS = ("none", "coverage", "histogram")


def _pt_small_rows(counts, n: int, epsilon: float):
    """Coverage and collision checks of `test_uniformity_pt_small` per row of 2n counts.

    The linear trace recovers the histogram exactly when every element of
    [2n] was sampled, and the histogram is then the count row itself.
    Returns (step, C, m, threshold), where step[i] indexes _PT_SMALL_STEPS.
    """
    if n < 1:
        raise ValueError(f"the small-eps tester needs n >= 1, got n={n}")
    counts = np.asarray(counts, dtype=np.float64)
    covered = (counts > 0).all(axis=1)
    m, c_stat, threshold, reject = _collision_rows(counts, 2 * n, epsilon)
    return np.where(covered, 2 * reject, 1), c_stat, m, threshold


def test_uniformity_pt_small(trace, n: int, epsilon: float,
                             config: PTTesterConfig | None = None) -> Verdict:
    """Coupon-collection tester for tiny distance parameters.

    The linear trace recovers the exact histogram iff every element of
    [2n] was sampled, which forces the shape (1+0+)^n.  Reject on any
    coverage failure, otherwise hand the 2n multiplicities to the
    histogram tester.
    """
    config = config or PTTesterConfig()
    bits = trace.bits if isinstance(trace, RunLengthTrace) else trace
    values, lengths = linear_runs(bits)
    params = {"c_small": config.c_small, "epsilon": epsilon, "n": n, "branch": "small_eps"}
    ones = int(np.sum(values == 1))
    stats = {"one_runs": ones, "zero_runs": values.size - ones, "m": float(len(bits))}
    # runs alternate, so 2n runs starting with a 1 are the shape (1+0+)^n and list the
    # 2n counts in order; a trace of any other shape missed an element, as a zero row does
    covered = values.size == 2 * n and values.size > 0 and values[0] == 1
    row = lengths if covered else np.zeros(2 * n)
    step, c_stat, m, threshold = _pt_small_rows(row[None, :], n, epsilon)
    fired = _PT_SMALL_STEPS[step[0]]
    if fired != "coverage":
        stats.update({"C": float(c_stat[0]), "threshold": threshold, "m": float(m[0]),
                      "D": 2 * n})
    return Verdict(fired == "none", fired, stats, params)


def test_uniformity_pt(trace, n: int, epsilon: float,
                       config: PTTesterConfig | None = None,
                       m: float | None = None) -> Verdict:
    """Dispatch between the two regimes by comparing eps to K*log^3(n)/n^(1/4)."""
    config = config or PTTesterConfig()
    if config.mode == "large_eps" or (config.mode == "auto" and routes_to_large(n, epsilon, config)):
        return test_uniformity_pt_large(trace, n, epsilon, config, m)
    return test_uniformity_pt_small(trace, n, epsilon, config)
