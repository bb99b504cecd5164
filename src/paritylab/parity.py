"""Uniformity testers that see only the parity trace of a sample.

The trace is stitched into a necklace and both symbol classes are tested
symmetrically.  For moderate distance parameters the tester thresholds
the run-length collision statistic of each class; for tiny distances it
falls back to coupon collection plus a standard histogram tester on the
recovered multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collector import _join_matrix, _join_sum
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
    this is the constant-weight cycle matrix at nu = exp(-m/(2n)).
    """
    if m <= 0:
        raise ValueError("m must be positive")
    return _join_matrix(n, math.exp(-m / (2 * n)), True)


def phi_mu_sum(n: int, m: float) -> float:
    """Sum of all entries of phi_mu, via the geometric row-sum closed form."""
    return _join_sum(n, math.exp(-m / (2 * n)), True)


def uht_histogram(counts, domain_size: int, epsilon: float) -> Verdict:
    """Plain collision tester on a multiplicity histogram.

    Accepts iff C = sum_i X_i(X_i-1) / (m(m-1)) is at most
    (1 + eps^2/2) / D.
    """
    x = np.asarray(counts, dtype=np.float64)
    m = float(x.sum())
    if m < 2:
        raise ValueError("histogram tester needs at least two samples")
    c_stat = float(np.sum(x * (x - 1.0)) / (m * (m - 1.0)))
    threshold = (1.0 + epsilon**2 / 2.0) / domain_size
    stats = {"C": c_stat, "threshold": threshold, "m": m, "D": domain_size}
    params = {"epsilon": epsilon}
    if c_stat > threshold:
        return Verdict(False, "histogram", stats, params)
    return Verdict(True, "none", stats, params)


def _as_runs(trace) -> RunLengthTrace:
    if isinstance(trace, RunLengthTrace):
        return trace
    return circular_runs(trace)


def test_uniformity_pt_large(trace, n: int, epsilon: float,
                             config: PTTesterConfig | None = None,
                             m: float | None = None) -> Verdict:
    """Three-step tester on the circular trace, run for both symbol classes.

    Per class: reject when the class holds more than half the trace plus
    gamma/sqrt(m); reject when any run reaches alpha*log(n); reject when
    the collision statistic Y exceeds (m/4n^2) * sum(phi_mu) plus
    beta*eps^2*m^2/n^2.  Accepts only if all six checks pass.

    `m` defaults to the trace length; a sample size that is not positive
    (an empty trace, for instance) raises ValueError.
    """
    config = config or PTTesterConfig()
    runs = _as_runs(trace)
    if m is None:
        m = float(runs.length)
    if not m > 0:
        raise ValueError(f"the large-eps tester needs a positive sample size, got m={m}")
    params = {"alpha": config.alpha, "beta": config.beta, "gamma": config.gamma,
              "c_m": config.c_m, "epsilon": epsilon, "n": n, "m": m, "branch": "large_eps"}
    threshold_y = (m / (4 * n**2)) * phi_mu_sum(n, m) + config.beta * epsilon**2 * m**2 / n**2
    threshold_run = config.alpha * math.log(n)
    stats = {"threshold_Y": threshold_y, "threshold_run": threshold_run}
    for symbol, x in (("1", runs.one_runs), ("0", runs.zero_runs)):
        x = x.astype(np.float64)
        n_sym = float(x.sum())
        y = float(np.sum(x * (x - 1.0)) / m)
        stats[f"N{symbol}"] = n_sym
        stats[f"max_run{symbol}"] = float(x.max(initial=0.0))
        stats[f"Y{symbol}"] = y
        if n_sym / m >= 0.5 + config.gamma / math.sqrt(m):
            return Verdict(False, "bias", stats, params)
        if x.size and float(x.max()) >= threshold_run:
            return Verdict(False, "concentration", stats, params)
        if y >= threshold_y:
            return Verdict(False, "collision", stats, params)
    return Verdict(True, "none", stats, params)


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
    zeros = values.size - ones
    stats = {"one_runs": ones, "zero_runs": zeros, "m": float(len(bits))}
    covered = (
        ones == n
        and zeros == n
        and values.size > 0
        and values[0] == 1
        and values[-1] == 0
    )
    if not covered:
        return Verdict(False, "coverage", stats, params)
    histogram = np.empty(2 * n, dtype=np.int64)
    histogram[0::2] = lengths[values == 1]
    histogram[1::2] = lengths[values == 0]
    inner = uht_histogram(histogram, 2 * n, epsilon)
    stats.update(inner.statistics)
    return Verdict(inner.accept, inner.fired_step, stats, params)


def test_uniformity_pt(trace, n: int, epsilon: float,
                       config: PTTesterConfig | None = None,
                       m: float | None = None) -> Verdict:
    """Dispatch between the two regimes by comparing eps to K*log^3(n)/n^(1/4)."""
    config = config or PTTesterConfig()
    if config.mode == "large_eps" or (config.mode == "auto" and routes_to_large(n, epsilon, config)):
        return test_uniformity_pt_large(trace, n, epsilon, config, m)
    return test_uniformity_pt_small(trace, n, epsilon, config)
