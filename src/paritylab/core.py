"""Distributions split by parity, sampling, and parity-trace construction.

A distribution over the even-sized domain [2n] is held as two partial
distributions: `p` carries the mass of the odd elements 1, 3, ..., 2n-1
and `q` the mass of the even elements 2, 4, ..., 2n.  A sampler only ever
reveals the low bit of each sample point, in sorted order; that bit string
is the parity trace, and its circular run-length decomposition is what
the testers consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .rng import generator

__all__ = [
    "PartialDistribution",
    "PartialDistributionPair",
    "SampleMultiset",
    "RunLengthTrace",
    "parity_trace",
    "circular_runs",
    "linear_runs",
    "parse_bits",
    "runs_from_counts",
    "sample_exact",
    "sample_poissonized",
    "split_sample_k",
    "uniform_pair",
    "pair_to_json",
    "pair_from_json",
]

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class PartialDistribution:
    """Non-negative weights over Z_n with total mass at most 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d vector")
        if not np.isfinite(w).all() or w.min() < 0:
            raise ValueError("weights must be finite and non-negative")
        if w.sum() > 1 + 1e-12:
            raise ValueError(f"total mass {w.sum()} exceeds 1")

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def mass(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class PartialDistributionPair:
    """A full distribution on [2n]: odd-part `p` interleaved with even-part `q`."""

    p: PartialDistribution
    q: PartialDistribution

    def __post_init__(self):
        if self.p.n != self.q.n:
            raise ValueError("p and q must share a domain size")
        if abs(self.p.mass + self.q.mass - 1.0) > _MASS_TOL:
            raise ValueError(
                f"p and q must form a full distribution (mass {self.p.mass + self.q.mass})"
            )

    @property
    def n(self) -> int:
        return self.p.n

    def interleaved(self) -> np.ndarray:
        """Mass vector over [2n]; index j holds the mass of element j+1."""
        out = np.empty(2 * self.n, dtype=np.float64)
        out[0::2] = self.p.weights
        out[1::2] = self.q.weights
        return out


@dataclass(frozen=True)
class SampleMultiset:
    """Multiplicity of every domain element in a sample; counts[j] is element j+1."""

    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", c)
        if np.any(c < 0):
            raise ValueError("negative multiplicity")
        object.__setattr__(self, "total", int(c.sum()))


@dataclass(frozen=True)
class RunLengthTrace:
    """Circular run-length vectors of a parity trace, and the trace length.

    `source` is what the trace was reduced from: the trace string itself
    (`circular_runs`) or the multiplicity vector of the sample
    (`runs_from_counts`), held without a copy.  `length` is the number of
    symbols, Σ one_runs + Σ zero_runs, checked against the source on
    construction.  The testers read only the runs and the length; `bits`
    returns the trace string, built from the counts on first read.
    """

    one_runs: np.ndarray
    zero_runs: np.ndarray
    source: str | np.ndarray = field(repr=False)
    length: int = field(init=False)

    def __post_init__(self):
        if isinstance(self.source, str):
            length = len(self.source)
        else:
            length = int(self.source.sum())
        if int(self.one_runs.sum() + self.zero_runs.sum()) != length:
            raise ValueError("run lengths do not add up to the trace length")
        object.__setattr__(self, "length", length)

    @cached_property
    def bits(self) -> str:
        if isinstance(self.source, str):
            return self.source
        return parity_trace(SampleMultiset(self.source))


def parity_trace(sample: SampleMultiset) -> str:
    """Low bits of the sample listed in sorted element order."""
    counts = sample.counts
    # element j+1 is odd, and shows a 1, exactly when j is even
    symbols = np.frombuffer(b"10" * ((counts.size + 1) // 2), dtype=np.uint8)
    return np.repeat(symbols[: counts.size], counts).tobytes().decode("ascii")


def parse_bits(trace: str) -> np.ndarray:
    """The characters of `trace` as a uint8 array of 0s and 1s.

    This is the one place traces and binary strings are parsed: any
    character other than 0 and 1 raises ValueError.
    """
    if not trace:
        return np.empty(0, dtype=np.uint8)
    bits = np.frombuffer(trace.encode("ascii"), dtype=np.uint8) - ord("0")
    if bits.max() > 1:  # uint8 wraps, so characters below "0" land here too
        raise ValueError("a trace may contain only the characters 0 and 1")
    return bits


def linear_runs(trace: str) -> tuple[np.ndarray, np.ndarray]:
    """(values, lengths) of the maximal constant runs of `trace`, left to right."""
    if not trace:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    bits = parse_bits(trace)
    edges = np.flatnonzero(np.diff(bits)) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges, [bits.size]))
    return bits[starts].astype(np.int64), (ends - starts).astype(np.int64)


def circular_runs(trace: str) -> RunLengthTrace:
    """Run-length decompose `trace` after stitching its ends into a necklace.

    When the first and last runs carry the same symbol they merge into one
    run.  An all-0s or all-1s trace yields a single run and an empty vector
    for the opposite symbol.
    """
    values, lengths = linear_runs(trace)
    if values.size > 1 and values[0] == values[-1]:
        lengths = lengths.copy()
        lengths[0] += lengths[-1]
        values, lengths = values[:-1], lengths[:-1]
    return RunLengthTrace(
        one_runs=lengths[values == 1],
        zero_runs=lengths[values == 0],
        source=trace,
    )


def runs_from_counts(counts: np.ndarray) -> RunLengthTrace:
    """Circular runs straight from a multiplicity vector, skipping the string.

    Equivalent to ``circular_runs(parity_trace(SampleMultiset(counts)))`` but
    O(domain) regardless of the sample size: the record keeps `counts` as its
    source and builds the trace string only if `bits` is read.

    On the necklace of n odd/even slot pairs, the one-runs are the bucket
    sums of the odd counts where edge i survives when the even slot after
    odd slot i is empty, and the zero-runs are the bucket sums of the even
    counts where edge i survives when the next odd slot is empty.  Buckets
    with no sample point give no run.
    """
    counts = np.asarray(counts, dtype=np.int64)
    odd = counts[0::2]  # odd elements -> 1 symbols
    even = counts[1::2]  # even elements -> 0 symbols
    return RunLengthTrace(one_runs=_bucket_runs(odd, even == 0),
                          zero_runs=_bucket_runs(even, np.roll(odd, -1) == 0),
                          source=counts)


def _bucket_runs(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Nonzero bucket sums of `values` on the cycle whose edge i survives when keep[i]."""
    labels = _kernels.bucket_labels(keep[None, :], values.size, True)
    sums = _kernels.bucket_sums(values[None, :], labels)[0]
    return sums[sums > 0].astype(np.int64)


def sample_exact(pair: PartialDistributionPair, m: int, seed) -> SampleMultiset:
    """m i.i.d. draws from the full distribution, aggregated to counts."""
    if m < 0:
        raise ValueError("sample size must be non-negative")
    rng = generator(seed)
    pi = pair.interleaved()
    pi = pi / pi.sum()  # normalization drift below the pair tolerance
    return SampleMultiset(rng.multinomial(m, pi))


def sample_poissonized(pair: PartialDistributionPair, m: float, seed) -> SampleMultiset:
    """Counts with each element drawn independently as Poisson(m * mass)."""
    if m < 0:
        raise ValueError("sample size must be non-negative")
    rng = generator(seed)
    return SampleMultiset(rng.poisson(m * pair.interleaved()))


def split_sample_k(pair: PartialDistributionPair, m: float, k: int, seed) -> list[str]:
    """Simulate k independent Poissonized parity traces from one larger trace.

    Draws one parity trace of size Poisson(m*k) and routes each symbol to a
    uniformly random output; every output is then distributed as an
    independent parity trace of size Poisson(m).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = generator(seed)
    parent = rng.poisson(k * m * pair.interleaved())
    probs = np.full(k, 1.0 / k)
    parts = np.zeros((k, parent.size), dtype=np.int64)
    for j in np.flatnonzero(parent):
        parts[:, j] = rng.multinomial(parent[j], probs)
    return [parity_trace(SampleMultiset(parts[i])) for i in range(k)]


def uniform_pair(n: int) -> PartialDistributionPair:
    """The uniform distribution on [2n] as an odd/even pair."""
    mu = PartialDistribution(np.full(n, 0.5 / n))
    return PartialDistributionPair(mu, mu)


def pair_to_json(pair: PartialDistributionPair) -> str:
    return json.dumps(
        {"n": pair.n, "p": pair.p.weights.tolist(), "q": pair.q.weights.tolist()}
    )


def pair_from_json(text: str) -> PartialDistributionPair:
    obj = json.loads(text)
    p = PartialDistribution(np.asarray(obj["p"], dtype=np.float64))
    q = PartialDistribution(np.asarray(obj["q"], dtype=np.float64))
    if p.n != obj["n"] or q.n != obj["n"]:
        raise ValueError("declared n does not match vector lengths")
    return PartialDistributionPair(p, q)

