"""Property testing from deletion-channel traces.

A trace keeps each character of the unknown string independently with
probability rho.  Upsampling every surviving character to a nonzero
Poisson count turns one trace into an exact Poissonized parity-trace
sample of the corresponding distribution, after which the parity-trace
uniformity machinery applies; a learned alternating relabeling handles
the block-count property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .core import PartialDistribution, PartialDistributionPair, parse_bits
from .editdist import DensitySequence
from .parity import PTTesterConfig, test_uniformity_pt
from .rng import generator
from .verdict import Verdict

__all__ = [
    "DeletionChannel",
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
class DeletionChannel:
    """Retention rate rho in (0,1]; characters are deleted with rate 1-rho."""

    rho: float

    def __post_init__(self):
        if not (0 < self.rho <= 1):
            raise ValueError("rho must lie in (0,1]")

    @property
    def delta(self) -> float:
        return 1.0 - self.rho


@dataclass(frozen=True)
class TraceTestSpec:
    """Parameters of one trace-testing task."""

    n_chars: int
    n_blocks: int
    epsilon: float
    rho: float
    k_traces: int = 1
    property_name: str = "uniform_n_block_promised"
    concat_eps_scale: float = 0.25

    def __post_init__(self):
        if self.property_name not in (
            "n_block",
            "uniform_n_block",
            "uniform_n_block_promised",
        ):
            raise ValueError("unknown property")
        if self.property_name.startswith("uniform"):
            if self.n_chars % self.n_blocks != 0:
                raise ValueError("uniform block properties need n_blocks | n_chars")
            if self.n_blocks % 2 != 0:
                raise ValueError("uniform block properties need an even block count")


def uniform_block_string(n_chars: int, n_blocks: int, first: int = 1) -> str:
    """The uniform n-block string of length n_chars starting with `first`."""
    if n_chars % n_blocks:
        raise ValueError("block count must divide the length")
    w = n_chars // n_blocks
    sym, other = str(first % 2), str(1 - first % 2)
    return "".join((sym if i % 2 == 0 else other) * w for i in range(n_blocks))


def deletion_trace(x: str, rho: float, seed) -> str:
    """One pass of x through the deletion channel."""
    if not (0 < rho <= 1):
        raise ValueError("rho must lie in (0,1]")
    if not x:
        return ""
    rng = generator(seed)
    keep = rng.random(len(x)) < rho
    arr = np.frombuffer(x.encode("ascii"), dtype=np.uint8)
    return arr[keep].tobytes().decode("ascii")


def _zero_truncated_poisson(lam: float, size: int, rng) -> np.ndarray:
    """Poisson(lam) conditioned on being positive, via inverse transform."""
    if size == 0:
        return np.empty(0, dtype=np.int64)
    u = rng.random(size) * -np.expm1(-lam)  # uniform over (0, P[X>0])
    out = np.ones(size, dtype=np.int64)
    k = 1
    term = lam * math.exp(-lam)  # P[X = 1]
    cum = term
    remaining = u > cum
    # the tail cap only guards against float round-off in the last ulp
    while np.any(remaining) and k < max(200, 20 * lam):
        k += 1
        term *= lam / k
        cum += term
        out[remaining] = k
        remaining = u > cum
    return out


def poissonize(trace: str, rho: float, seed) -> str:
    """Replace each trace symbol by Poisson>0(log(1/(1-rho))) copies.

    Applied to a rho-retention trace of x, the output is distributed as
    the parity trace of a Poisson(N*log(1/(1-rho))) sample from the
    distribution corresponding to x.
    """
    if not (0 < rho < 1):
        raise ValueError("poissonize needs rho strictly inside (0,1)")
    if not trace:
        return ""
    lam = math.log(1.0 / (1.0 - rho))
    rng = generator(seed)
    reps = _zero_truncated_poisson(lam, len(trace), rng)
    arr = np.frombuffer(trace.encode("ascii"), dtype=np.uint8)
    return np.repeat(arr, reps).tobytes().decode("ascii")


def split_traces(pi: DensitySequence, n_chars: int, k: int, rho: float,
                 seed) -> list[str]:
    """Turn one large parity trace from pi into k near-independent traces.

    Draws a parity trace of size Poisson(k * rho/(1-rho) * n_chars) and
    routes each symbol to a uniformly random output string.  Requires
    rho < 1/(20*sqrt(k*n_chars)); the outputs are then within total
    variation 1/100 of k independent rho-retention traces of psi(pi).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not rho < 1.0 / (20.0 * math.sqrt(k * n_chars)):
        raise ValueError("rho too large for faithful splitting")
    lam = rho / (1.0 - rho)
    rng = generator(seed)
    counts = rng.poisson(k * lam * n_chars * pi.pi)
    outs = [[] for _ in range(k)]
    probs = np.full(k, 1.0 / k)
    for i in np.flatnonzero(counts):
        sym = "1" if i % 2 == 0 else "0"
        parts = rng.multinomial(counts[i], probs)
        for j in range(k):
            if parts[j]:
                outs[j].append(sym * int(parts[j]))
    return ["".join(o) for o in outs]


@dataclass(frozen=True)
class LearnedAlternating:
    """A piecewise-constant labeling with at most k sign changes."""

    first_value: int
    cut_after: np.ndarray  # positions p: the label flips between p and p+1
    error: int
    piece_of_point: np.ndarray = field(repr=False)
    value_of_point: np.ndarray = field(repr=False)

    @property
    def n_alternations(self) -> int:
        return int(self.cut_after.size)

    def predict(self, positions) -> np.ndarray:
        pos = np.asarray(positions, dtype=np.float64)
        piece = np.searchsorted(self.cut_after, pos, side="left")
        return (self.first_value + piece) % 2


def learn_k_alternating(sample, k: int) -> LearnedAlternating:
    """Empirical-risk-minimizing at-most-k-alternating labeling.

    `sample` is a sequence of (position, bit) pairs sorted by position.
    A DP over (alternations used, current label) finds the labeling with
    the fewest disagreements; ties prefer fewer alternations.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    pairs = list(sample)
    if not pairs:
        return LearnedAlternating(1, np.empty(0), 0,
                                  np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    positions = np.asarray([p for p, _ in pairs], dtype=np.float64)
    bits = np.asarray([b for _, b in pairs], dtype=np.int64)
    if np.any(np.diff(positions) < 0):
        raise ValueError("sample must be sorted by position")
    dp, choice = _kernels.alternating_fit_tables(bits, k)
    j, v = np.unravel_index(int(np.argmin(dp)), dp.shape)
    error = int(dp[j, v])
    m = bits.size
    values = np.empty(m, dtype=np.int64)
    pieces = np.empty(m, dtype=np.int64)
    cuts = []
    for i in range(m - 1, -1, -1):
        values[i] = v
        pieces[i] = j
        if choice[i, j, v]:
            cuts.append(i)  # flip happened entering point i
            j, v = j - 1, 1 - v
    cuts.reverse()
    cut_positions = np.array(
        [(positions[c - 1] + positions[c]) / 2 if c > 0 else positions[0] - 0.5
         for c in cuts]
    )
    first_value = int(values[0])
    # piece indices relative to the first used piece
    pieces -= pieces[0]
    return LearnedAlternating(first_value, cut_positions, error, pieces, values)


def test_n_block(trace: str, spec: TraceTestSpec,
                 config: PTTesterConfig | None = None, seed=0,
                 reject_threshold: float = 0.375) -> Verdict:
    """Single-trace tester for "at most n blocks", by learn-then-verify.

    Poissonizes the trace and fits the best (n-1)-alternation labeling of
    the symbols; rejects when the empirical disagreement rate exceeds
    (3/8) * epsilon.  The fit is an empirical risk minimizer over a class
    of bounded capacity, so the in-sample rate is a uniformly convergent
    estimate; a subsequence of an n-block string is itself n-block, so a
    true positive always fits with zero error.  Any labeling is consistent
    with some block-count-n string, so no distribution check follows.  An
    empty sample accepts vacuously.
    """
    rng = generator(seed)
    poi = poissonize(trace, spec.rho, rng) if trace else ""
    bits = parse_bits(poi)
    params = {"property": "n_block", "n_blocks": spec.n_blocks,
              "epsilon": spec.epsilon, "rho": spec.rho}
    if bits.size == 0:
        return Verdict(True, "none", {"m": 0, "warning": "empty sample"}, params)
    model = learn_k_alternating(list(enumerate(bits)), spec.n_blocks - 1)
    disagreement = model.error / bits.size
    stats = {"m": int(bits.size), "disagreement": disagreement,
             "threshold": reject_threshold * spec.epsilon}
    if disagreement > reject_threshold * spec.epsilon:
        return Verdict(False, "learn", stats, params)
    return Verdict(True, "none", stats, params)


_NEGATE = str.maketrans("01", "10")


def _promised_uniform_verdict(poi: str, spec: TraceTestSpec,
                              config: PTTesterConfig, m_eff: float) -> Verdict:
    """Run the parity-trace uniformity tester on a poissonized trace and on
    its negation; accept if either accepts.

    The trace budget follows the moderate-distance sample-size formula and
    the poissonized symbols already carry Poisson noise, so the run-length
    branch is forced unless the caller picked a mode explicitly.
    """
    if config.mode == "auto":
        config = replace(config, mode="large_eps")
    half = spec.n_blocks // 2
    eps = spec.epsilon / 2.0  # string-to-distribution farness loses a factor 2
    v1 = test_uniformity_pt(poi, half, eps, config, m=m_eff)
    v2 = test_uniformity_pt(poi.translate(_NEGATE), half, eps, config, m=m_eff)
    accept = v1.accept or v2.accept
    stats = {"m": float(len(poi)), "m_eff": m_eff,
             "accept_direct": v1.accept, "accept_negated": v2.accept}
    params = {"property": spec.property_name, "n_blocks": spec.n_blocks,
              "epsilon": spec.epsilon, "rho": spec.rho, "inner_epsilon": eps}
    if accept:
        return Verdict(True, "none", stats, params)
    return Verdict(False, v1.fired_step, stats, params)


def test_uniform_n_block(trace: str, spec: TraceTestSpec,
                         config: PTTesterConfig | None = None, seed=0) -> Verdict:
    """Single-trace tester for the two uniform n-block strings.

    Promised mode (input known to be an n-block string) poissonizes and
    runs the parity-trace uniformity tester on the result and on its
    bitwise negation.  No-promise mode learns an alternating labeling,
    checks the disagreement rate, and then requires the per-piece counts
    to be near-uniform.
    """
    config = config or PTTesterConfig()
    rng = generator(seed)
    params = {"property": spec.property_name, "n_blocks": spec.n_blocks,
              "epsilon": spec.epsilon, "rho": spec.rho}
    if not trace:
        return Verdict(True, "none", {"m": 0, "warning": "empty sample"}, params)
    poi = poissonize(trace, spec.rho, rng)
    bits = parse_bits(poi)
    if bits.size == 0:
        return Verdict(True, "none", {"m": 0, "warning": "empty sample"}, params)
    m_eff = spec.n_chars * math.log(1.0 / (1.0 - spec.rho))
    if spec.property_name == "uniform_n_block_promised":
        return _promised_uniform_verdict(poi, spec, config, m_eff)

    # no-promise: learn, test disagreement, then verify bucket uniformity
    eps = spec.epsilon / 2.0
    model = learn_k_alternating(list(enumerate(bits)), spec.n_blocks - 1)
    disagreement = model.error / bits.size
    stats = {"m": int(bits.size), "disagreement": disagreement,
             "threshold": 0.375 * eps}
    if disagreement > 0.375 * eps:
        return Verdict(False, "learn", stats, params)
    pieces = np.searchsorted(model.cut_after, np.arange(bits.size), side="left")
    hist = np.bincount(pieces, minlength=spec.n_blocks).astype(np.float64)
    if hist.size > spec.n_blocks:
        return Verdict(False, "verify", {**stats, "pieces": int(hist.size)}, params)
    hist /= hist.sum()
    tv = float(np.abs(hist - 1.0 / spec.n_blocks).sum() / 2)
    stats["bucket_tv"] = tv
    if tv > 0.375 * eps:
        return Verdict(False, "verify", stats, params)
    return Verdict(True, "none", stats, params)


def test_uniform_n_block_multitrace(traces: list[str], spec: TraceTestSpec,
                                    config: PTTesterConfig | None = None,
                                    seed=0) -> Verdict:
    """k-trace tester: concatenate and test the k-fold uniform block question.

    The concatenation of k traces of x is one trace of x repeated k times,
    which is a (k*n)-block string of length k*n_chars; the single-trace
    tester runs there with the distance parameter scaled by the
    concatenation constant from the spec.
    """
    joined = "".join(traces)
    k = len(traces)
    inner = replace(
        spec,
        n_chars=spec.n_chars * k,
        n_blocks=spec.n_blocks * k,
        epsilon=spec.epsilon * (spec.concat_eps_scale if k > 1 else 1.0),
        k_traces=1,
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
    from .editdist import psi_inv

    dens = psi_inv(x)
    v = dens.pi
    if v.size % 2:
        v = np.concatenate((v, [0.0]))
    return PartialDistributionPair(
        PartialDistribution(v[0::2]), PartialDistribution(v[1::2])
    )
