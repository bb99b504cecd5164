"""Property testing from deletion-channel traces.

A trace keeps each character of the unknown string independently with
probability rho.  Upsampling every surviving character to a nonzero
Poisson count turns one trace into an exact Poissonized parity-trace
sample of the corresponding distribution.  `test_uniform_n_block` runs
the check that the spec's property names on it: the parity-trace
uniformity tester, `dist_to_nblock`, or a learned alternating relabeling.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .core import (PartialDistribution, PartialDistributionPair, _ascii_codes, _check_epsilon,
                   _check_positive, _check_size, _finite, _split_poisson, parse_bits)
from .editdist import DensitySequence, dist_to_nblock, psi, psi_inv
from .parity import PTTesterConfig, test_uniformity_pt
from .rng import generator
from .verdict import Verdict

__all__ = [
    "TraceTestSpec",
    "LearnedAlternating",
    "deletion_trace",
    "poissonize",
    "split_traces",
    "learn_k_alternating",
    "test_n_block",
    "test_uniform_n_block",
    "test_uniform_n_block_multitrace",
    "uniform_block_string",
]


@dataclass(frozen=True)
class TraceTestSpec:
    """Parameters of one trace-testing task; no tester reads `k_traces`, only perfbench sets it."""

    n_chars: int
    n_blocks: int
    epsilon: float
    rho: float
    k_traces: int = 1
    property_name: str = "uniform_n_block_promised"
    concat_eps_scale: float = 1.0

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if not (0 < self.rho < 1):  # NaN fails the comparison too
            raise ValueError(f"rho must lie in (0,1), got {self.rho!r}")
        if self.property_name not in (
            "n_block",
            "uniform_n_block",
            "uniform_n_block_promised",
        ):
            raise ValueError("unknown property")
        _check_size(self.n_blocks, "n_blocks", 1)
        _check_size(self.n_chars, "n_chars", 1)
        _check_positive(self.concat_eps_scale, "concat_eps_scale")
        if self.property_name.startswith("uniform"):
            if self.n_chars % self.n_blocks != 0:
                raise ValueError("uniform block properties need n_blocks | n_chars")
            if self.n_blocks % 2 != 0:
                raise ValueError("uniform block properties need an even block count")


def uniform_block_string(n_chars: int, n_blocks: int, first: int = 1) -> str:
    """The uniform n-block string of length n_chars starting with `first`, 0 or 1:
    psi of the uniform density on n_blocks values, after an empty 1-block for 0."""
    if n_blocks < 1 or n_chars % n_blocks:
        raise ValueError("need a block count n_blocks >= 1 that divides the length")
    if first not in (0, 1):
        raise ValueError(f"first must be 0 or 1, got {first!r}")
    counts = np.ones(n_blocks + 1 - first, dtype=np.int64)
    counts[: 1 - first] = 0
    return psi(DensitySequence.from_counts(counts, n_blocks), n_chars).bits


# Strings shorter than this take the pure-Python paths of `deletion_trace`
# and `poissonize`, where about a dozen numpy calls on tiny arrays cost more
# than a loop over the characters.  With a passed-in generator at rho=0.5
# (2-vCPU VM, best of 40), both paths of each function cost the same near
# 44-48 characters: at 48, deletion_trace 4.8 against 4.6 us and poissonize
# 12.7 against 13.1 us.  poissonize crosses near 40 at rho=0.05 and above 64
# at rho=0.9, where its output is longer.
_SHORT_TRACE = 48


def deletion_trace(x: str, rho: float, seed) -> str:
    """One pass of x through the deletion channel; x holds only 0s and 1s.

    Character i survives when the i-th uniform of `rng.random(len(x))` is
    below rho.  Under `_SHORT_TRACE` (48) characters the survivors are
    picked from the draws' list in Python, otherwise with `np.compress`;
    both paths take the same draws and return the same string.  On
    acceptance criterion 10's strings of 1-16 characters the Python path
    takes about 2 us a call with a passed-in generator, against about 4.5
    us; building a Philox generator from a seed costs 11-14 us more.
    """
    if isinstance(rho, bool) or not (0 < rho <= 1):
        raise ValueError(f"rho must lie in (0,1], got {rho!r}")
    if not x:
        return ""
    codes = _ascii_codes(x)
    rng = generator(seed)
    if len(x) < _SHORT_TRACE:
        return "".join([ch for ch, u in zip(x, rng.random(len(x)).tolist()) if u < rho])
    keep = rng.random(len(x)) < rho
    # compress is several times faster than the boolean index arr[keep] on a random mask
    return np.compress(keep, np.frombuffer(codes, dtype=np.uint8)).tobytes().decode("ascii")


@functools.lru_cache(maxsize=64)
def _zero_truncated_thresholds(lam: float) -> tuple[float, tuple[float, ...], tuple[int, ...],
                                                   np.ndarray, np.ndarray]:
    """(c, cum, counts, cum_array, counts_array): the inverse-transform table of
    Poisson(lam) conditioned on being positive.

    Sequential search (Devroye 1986, X.3): a uniform u maps to v = u*c, with
    c = P[X > 0] = -expm1(-lam), and the count is counts[i] for the first i
    with v <= cum[i] = P[X in 1..i+1], so counts[i] = i + 1.  The table stops
    where adding P[X = k] no longer changes the sum (past the mode the terms
    only shrink, so no later one would); that is 16 thresholds at
    lam = log 2.  A v above every threshold, which only round-off in the last
    ulp allows, gets the last count, the cap ceil(max(200, 20*lam)).  The
    tuples serve the Python bisection, the read-only arrays `np.searchsorted`.
    """
    cap = math.ceil(max(200, 20 * lam))
    term = lam * math.exp(-lam)  # P[X = 1]
    cum = [term]
    for k in range(2, cap + 1):
        term *= lam / k
        if k > lam and cum[-1] + term == cum[-1]:
            break
        cum.append(cum[-1] + term)
    counts = (*range(1, len(cum) + 1), cap)
    cum_array, counts_array = np.array(cum), np.array(counts, dtype=np.int64)
    cum_array.flags.writeable = counts_array.flags.writeable = False
    return float(-np.expm1(-lam)), tuple(cum), counts, cum_array, counts_array


def _zero_truncated_poisson(lam: float, size: int, rng) -> np.ndarray:
    """`size` draws of Poisson(lam) conditioned on being positive.

    Each step of the search compares only the draws still above the
    threshold; as the thresholds never decrease, a draw that stopped stays
    stopped.  The steps go on while each stops at least half of the draws
    that reach it, as at lam <= log 2; once most draws pass a threshold, as
    near the mode of a large lam, one `np.searchsorted` places the rest, so
    the number of numpy calls stops growing with lam.  At rho = 0.999 (38
    thresholds, 2-vCPU VM, best of 15) that takes 48/64/100 draws from
    26/27/30 us to 8.2/8.5/10.2 us; at rho = 0.5 and 32768 draws, and at
    lam = 0.016 and 1000, the steps are the same as before and so is the time.
    """
    c, cum, counts, cum_array, counts_array = _zero_truncated_thresholds(lam)
    u = rng.random(size) * c
    out = np.ones(size, dtype=np.int64)
    idx = np.flatnonzero(u > cum[0])
    reached, i = size, 1
    while i < len(cum) and 0 < 2 * idx.size <= reached:
        out[idx] = counts[i]
        reached, idx = idx.size, idx[u[idx] > cum[i]]
        i += 1
    if idx.size:
        # bisect_left's threshold, or past the last one the cap
        out[idx] = counts_array[np.searchsorted(cum_array, u[idx])]
    return out


def _zero_truncated_poisson_list(lam: float, size: int, rng) -> list[int]:
    """The draws of `_zero_truncated_poisson` as a list, searched in Python:
    bisection finds the same first threshold at or above v."""
    c, cum, counts, _, _ = _zero_truncated_thresholds(lam)
    return [counts[bisect_left(cum, u * c)] for u in rng.random(size).tolist()]


# From this many characters up, `poissonize` repeats each run once by the sum
# of its counts when the trace has at most one run per 16 characters; the
# string is the same as from repeating each character.  Fitted on traces of
# equal runs with Poisson>0 counts at rho in {0.1, 0.5, 0.9} (2-vCPU VM, best
# of 9): at every such rho the run totals pay from 8192 characters at 16 a run
# and from 4096 at 24 a run; at 4096 and 16 a run they cost 11.7 against
# 14.8 us at rho = 0.5 and 12.0 against 11.2 us at rho = 0.1, and at 2048 they
# pay only from 256 a run.  Counting the runs first costs 1-5 us.  On perfbench
# desk_large's traces (32.8k characters, 64 runs) they take about 22 against
# 200 us; a random 32768-character trace (16k runs) would take 430 against 200.
_RUN_TOTALS_MIN_CHARS = 4096
_RUN_TOTALS_CHARS_PER_RUN = 16


def poissonize(trace: str, rho: float, seed) -> str:
    """Replace each trace symbol (0 or 1) by Poisson>0(log(1/(1-rho))) copies.

    Applied to a rho-retention trace of x, the output is distributed as
    the parity trace of a Poisson(N*log(1/(1-rho))) sample from the
    distribution corresponding to x.  Under `_SHORT_TRACE` (48) characters
    the counts come from `_zero_truncated_poisson_list` and the copies from
    `str` repetition, otherwise from `_zero_truncated_poisson` and
    `np.repeat`; both paths take the same draws and return the same string.
    On traces of criterion 10's strings the Python path takes about 3.5 us
    a call with a passed-in generator, against about 9.5 us.  The copies of
    a run depend only on its symbol and the sum of its counts, so a trace
    of at least `_RUN_TOTALS_MIN_CHARS` characters and at most one run per
    `_RUN_TOTALS_CHARS_PER_RUN` repeats each run once by that sum.
    """
    if not (0 < rho < 1):
        raise ValueError("poissonize needs rho strictly inside (0,1)")
    if not trace:
        return ""
    lam = math.log(1.0 / (1.0 - rho))
    codes = _ascii_codes(trace)
    rng = generator(seed)
    if len(trace) < _SHORT_TRACE:
        counts = _zero_truncated_poisson_list(lam, len(trace), rng)
        return "".join([ch * k for ch, k in zip(trace, counts)])
    symbols = np.frombuffer(codes, dtype=np.uint8)
    reps = _zero_truncated_poisson(lam, len(trace), rng)
    if len(trace) >= _RUN_TOTALS_MIN_CHARS:
        starts = np.empty(len(trace), dtype=np.bool_)
        starts[0] = True
        np.not_equal(symbols[1:], symbols[:-1], out=starts[1:])
        if _RUN_TOTALS_CHARS_PER_RUN * np.count_nonzero(starts) <= len(trace):
            at = np.flatnonzero(starts)
            symbols, reps = symbols[at], np.add.reduceat(reps, at)
    return np.repeat(symbols, reps).tobytes().decode("ascii")


def split_traces(pi: DensitySequence, n_chars: int, k: int, rho: float,
                 seed) -> list[str]:
    """Turn one large parity trace from pi into k near-independent traces.

    Draws a parity trace of size Poisson(k * rho/(1-rho) * n_chars) and
    routes each symbol to a uniformly random output string.  Requires
    rho < 1/(20*sqrt(k*n_chars)); the outputs are then within total
    variation 1/100 of k independent rho-retention traces of psi(pi).
    """
    _check_size(k, "k", 1)
    if not rho < 1.0 / (20.0 * math.sqrt(k * n_chars)):
        raise ValueError("rho too large for faithful splitting")
    lam = rho / (1.0 - rho)
    return _split_poisson(k * lam * n_chars, pi.pi, k, seed)


@dataclass(frozen=True)
class LearnedAlternating:
    """A piecewise-constant labeling with at most k sign changes."""

    first_value: int
    cut_after: np.ndarray  # positions p: the label flips between p and p+1
    error: int

    @property
    def n_alternations(self) -> int:
        return int(self.cut_after.size)

    def predict(self, positions) -> np.ndarray:
        pos = np.asarray(positions, dtype=np.float64)
        piece = np.searchsorted(self.cut_after, pos, side="left")
        return (self.first_value + piece) % 2


def _fit_alternating(bits: np.ndarray, k: int) -> tuple[int, np.ndarray, int]:
    """(label of point 0, cut indices, disagreements) of the best labeling of
    `bits` with at most k flips; cut c flips the label between points c-1
    and c.  Ties prefer fewer flips.  The DP runs over the maximal runs of
    `bits`: an optimal labeling with the fewest flips never cuts inside a
    run, so the fit is the per-point one.  The backtrack is one numpy call
    per cut.

    The DP runs only when k < runs - 1.  Otherwise a cut at the start of
    every run fits with no error, and any labeling with fewer flips
    mislabels a whole run, so that is the one optimum with the fewest
    flips.  Traces of n-block strings have at most n runs, so the testers
    take this path on every yes-instance.
    """
    if bits.size == 0:
        return 1, np.empty(0, dtype=np.int64), 0
    values, lengths = _kernels.bit_runs(bits)
    starts = lengths.cumsum() - lengths  # the first point of each run
    if k >= values.size - 1:
        return int(values[0]), starts[1:], 0
    dp, choice = _kernels.alternating_fit_tables(values, k, lengths)
    j, v = np.unravel_index(int(np.argmin(dp)), dp.shape)
    cuts, end = [], values.size
    # a state with j > 0 flips was entered by a flip, the last one before run `end`
    while j > 0:
        end = int(np.flatnonzero(choice[j, v, :end])[-1])
        cuts.append(starts[end])
        j, v = j - 1, 1 - v
    return int(v), np.array(cuts[::-1], dtype=np.int64), int(dp.min())


def learn_k_alternating(sample, k: int) -> LearnedAlternating:
    """Empirical-risk-minimizing at-most-k-alternating labeling.

    `sample` is a sequence of (position, bit) pairs sorted by position.
    A DP over (alternations used, current label) finds the labeling with
    the fewest disagreements; ties prefer fewer alternations.  Each cut
    sits midway between the positions of the two points it separates.
    """
    _check_size(k, "k", 0)
    pairs = list(sample)
    positions = _finite([p for p, _ in pairs], "positions", (len(pairs),))
    if np.any(np.diff(positions) < 0):
        raise ValueError("sample must be sorted by position")
    bits = np.asarray([b for _, b in pairs])
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    first_value, cuts, error = _fit_alternating(bits.astype(np.int64), k)
    return LearnedAlternating(first_value, (positions[cuts - 1] + positions[cuts]) / 2, error)


_REJECT_FRACTION = 0.375

_NEGATE = str.maketrans("01", "10")

# the calibrated parity-trace constants for poissonized deletion traces
_TRACE_CONFIG = PTTesterConfig(beta=0.12)


def _promised_uniform_verdict(poi: str, spec: TraceTestSpec, config: PTTesterConfig) -> Verdict:
    """Accept if the parity-trace uniformity tester accepts a poissonized
    trace or its negation.

    The trace budget follows the moderate-distance sample-size formula and
    the poissonized symbols already carry Poisson noise, so it runs the
    run-length branch, the default mode, unless `config` names the other.
    """
    m_eff = spec.n_chars * math.log(1.0 / (1.0 - spec.rho))
    half = spec.n_blocks // 2
    eps = spec.epsilon / 2.0  # string-to-distribution farness loses a factor 2
    v1 = test_uniformity_pt(poi, half, eps, config, m=m_eff)
    if config.mode == "small_eps":
        accept_negated = test_uniformity_pt(poi.translate(_NEGATE), half, eps, config).accept
    else:
        # negation swaps the runs of the two symbol classes and the six run-length
        # checks treat both classes alike, so the negation fails the same checks
        # (in another order, which only the fired step shows)
        accept_negated = v1.accept
    stats = {"m": float(len(poi)), "m_eff": m_eff,
             "accept_direct": v1.accept, "accept_negated": accept_negated}
    params = {"property": spec.property_name, "n_blocks": spec.n_blocks,
              "epsilon": spec.epsilon, "rho": spec.rho, "inner_epsilon": eps,
              "beta": config.beta}
    if v1.accept or accept_negated:
        return Verdict(True, "none", stats, params)
    return Verdict(False, v1.fired_step, stats, params)


def test_uniform_n_block(trace: str, spec: TraceTestSpec,
                         config: PTTesterConfig | None = None, seed=0) -> Verdict:
    """Single-trace tester for the property that `spec.property_name` names.

    The trace is poissonized into an exact parity-trace sample first.
    "uniform_n_block_promised" (input known to be an n-block string) runs
    the parity-trace uniformity tester on the result and on its bitwise
    negation; without `config` the calibrated `_TRACE_CONFIG` runs.
    "n_block" and "uniform_n_block" reject when the best (n-1)-alternation
    relabeling of the symbols disagrees with more than (3/8) * epsilon of
    them (epsilon/2 for the uniform property).  "n_block" reads that rate
    from `dist_to_nblock`: the fit is an empirical risk minimizer over a
    class of bounded capacity, a subsequence of an n-block string is
    itself n-block, and any labeling is consistent with some n-block
    string, so no check follows.  "uniform_n_block" (no promise) then
    requires the piece sizes of the fit to be near-uniform.  Poissonizing
    keeps the runs, so the trace of an n-block string has at most n runs,
    and both fits return error 0 there without running the DP.  An empty
    trace accepts vacuously.
    """
    params = {"property": spec.property_name, "n_blocks": spec.n_blocks,
              "epsilon": spec.epsilon, "rho": spec.rho}
    if not trace:
        return Verdict(True, "none", {"m": 0, "warning": "empty sample"}, params)
    poi = poissonize(trace, spec.rho, seed)
    if spec.property_name == "uniform_n_block_promised":
        return _promised_uniform_verdict(poi, spec, config or _TRACE_CONFIG)
    if spec.property_name == "n_block":
        eps = spec.epsilon
        disagreement = dist_to_nblock(poi, spec.n_blocks)
    else:
        eps = spec.epsilon / 2.0
        bits = parse_bits(poi)
        _, cuts, error = _fit_alternating(bits, spec.n_blocks - 1)
        disagreement = error / bits.size
    stats = {"m": len(poi), "disagreement": disagreement,
             "threshold": _REJECT_FRACTION * eps}
    if disagreement > stats["threshold"]:
        return Verdict(False, "learn", stats, params)
    if spec.property_name == "n_block":
        return Verdict(True, "none", stats, params)
    # at most n_blocks - 1 cuts, so at most n_blocks non-empty pieces
    hist = np.zeros(spec.n_blocks)
    hist[: cuts.size + 1] = np.diff(cuts, prepend=0, append=bits.size)
    hist /= hist.sum()
    tv = float(np.abs(hist - 1.0 / spec.n_blocks).sum() / 2)
    stats["bucket_tv"] = tv
    if tv > _REJECT_FRACTION * eps:
        return Verdict(False, "verify", stats, params)
    return Verdict(True, "none", stats, params)


def test_n_block(trace: str, spec: TraceTestSpec, seed=0) -> Verdict:
    """Single-trace tester for "at most n blocks": `test_uniform_n_block` on
    an "n_block" spec; any other spec raises ValueError."""
    if spec.property_name != "n_block":
        raise ValueError(f"test_n_block needs an n_block spec, got {spec.property_name!r}")
    return test_uniform_n_block(trace, spec, seed=seed)


def test_uniform_n_block_multitrace(traces: list[str], spec: TraceTestSpec,
                                    config: PTTesterConfig | None = None,
                                    seed=0) -> Verdict:
    """k-trace tester: concatenate and test the k-fold uniform block question.

    The concatenation of k traces of x is one trace of x repeated k times,
    which is a (k*n)-block string of length k*n_chars; the single-trace
    tester runs there with the distance parameter scaled by the
    concatenation constant from the spec.  An "n_block" spec raises
    ValueError: a string far from n blocks need not be far from k*n blocks.
    """
    if spec.property_name == "n_block":
        raise ValueError("n_block takes one trace; the k-trace tester tests only the "
                         "uniform properties")
    joined = "".join(traces)
    k = len(traces)
    inner = replace(
        spec,
        n_chars=spec.n_chars * k,
        n_blocks=spec.n_blocks * k,
        epsilon=spec.epsilon * (spec.concat_eps_scale if k > 1 else 1.0),
    )
    verdict = test_uniform_n_block(joined, inner, config, seed)
    stats = dict(verdict.statistics)
    stats["k_traces"] = k
    stats["total_chars"] = len(joined)
    params = dict(verdict.params)
    params["epsilon"] = spec.epsilon
    params["concat_eps_scale"] = spec.concat_eps_scale
    return Verdict(verdict.accept, verdict.fired_step, stats, params)


def trace_spec_distribution(x: str) -> PartialDistributionPair:
    """The odd/even pair matching psi_inv(x), padded to an even support."""
    dens = psi_inv(x)
    v = dens.pi
    if v.size % 2:
        v = np.concatenate((v, [0.0]))
    return PartialDistributionPair(
        PartialDistribution(v[0::2]), PartialDistribution(v[1::2])
    )
