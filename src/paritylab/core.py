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
import math
import numbers
from dataclasses import dataclass, field

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
_MAX_MASS = 1 + 1e-12  # the most a partial distribution may carry: 1, up to round-off


def _check_epsilon(epsilon) -> None:
    """Raise ValueError unless the distance parameter is a real number in (0,2].

    Every tester takes its epsilon through this check; the comparison
    rejects NaN and infinities, and a bool is not a distance.
    """
    if isinstance(epsilon, bool) or not (isinstance(epsilon, numbers.Real) and 0 < epsilon <= 2):
        raise ValueError(f"epsilon must be a finite real number in (0,2], got {epsilon!r}")


def _check_positive(value: float, name: str) -> None:
    """Raise ValueError unless `value` is a finite positive real that is not a bool;
    NaN fails the comparison."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)
                                       and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_eta(eta: float) -> None:
    """Raise ValueError unless the edge weight is a real in (0,1] that is not a bool;
    NaN fails the comparison."""
    if isinstance(eta, bool) or not (isinstance(eta, numbers.Real) and 0 < eta <= 1):
        raise ValueError(f"eta must lie in (0,1], got {eta!r}")


def _check_size(value, name: str, low: int) -> None:
    """Raise ValueError unless `value` is an integer >= low that is not a bool."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _weights(x, name: str, size: int | None = None) -> np.ndarray:
    """The weights of `x` as float64, or ValueError unless they are a non-empty
    vector of finite, non-negative values (of length `size`, if given)."""
    w = np.asarray(getattr(x, "weights", x), dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{name} must be a non-empty vector")
    if size is not None and w.size != size:
        raise ValueError(f"{name} must have length {size}, got {w.size}")
    # max and min propagate NaN, so these reductions catch NaN, +-inf and negatives
    if not (math.isfinite(w.max()) and w.min() >= 0):
        raise ValueError(f"{name} must be finite and non-negative")
    return w


def _finite(x, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """`x` as a float64 array, or ValueError unless it has `shape` and only finite entries."""
    a = np.asarray(x, dtype=np.float64)
    if a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"{name} must be a finite array of shape {shape}")
    return a


@dataclass(frozen=True)
class PartialDistribution:
    """Non-negative weights over Z_n with total mass at most 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = _weights(self.weights, "weights")
        object.__setattr__(self, "weights", w)
        if w.sum() > _MAX_MASS:
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
    """Multiplicity of every domain element in a sample; counts[j] is element j+1.

    This is the one check of a multiplicity vector: it must be 1-d, of bool,
    integer or float dtype, and its entries finite, non-negative whole
    numbers, or ValueError is raised.  The counts are stored as int64.
    """

    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 1 or c.dtype.kind not in "biuf" or (
                c.dtype.kind == "f" and not np.all(np.isfinite(c) & (np.trunc(c) == c))):
            raise ValueError("counts must be a 1-d vector of finite whole numbers")
        c = c.astype(np.int64, copy=False)
        if c.size and c.min() < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "total", int(c.sum()))


@dataclass(frozen=True)
class RunLengthTrace:
    """Circular run-length vectors of the parity trace `bits`.

    The testers read the runs and `length`, the number of symbols.  Both
    vectors must be 1-d, of an integer dtype, with every run at least 1 long,
    and the runs must add up to `length`, or ValueError is raised.
    """

    one_runs: np.ndarray
    zero_runs: np.ndarray
    bits: str = field(repr=False)

    def __post_init__(self):
        if any(r.ndim != 1 or r.dtype.kind not in "iu" or r.min(initial=1) < 1
               for r in (self.one_runs, self.zero_runs)):
            raise ValueError("runs must be 1-d integer vectors of lengths >= 1")
        if int(self.one_runs.sum() + self.zero_runs.sum()) != len(self.bits):
            raise ValueError("run lengths do not add up to the trace length")

    @property
    def length(self) -> int:
        return len(self.bits)


def parity_trace(sample: SampleMultiset) -> str:
    """Low bits of the sample listed in sorted element order."""
    counts = sample.counts
    # element j+1 is odd, and shows a 1, exactly when j is even
    symbols = np.frombuffer(b"10" * ((counts.size + 1) // 2), dtype=np.uint8)
    return np.repeat(symbols[: counts.size], counts).tobytes().decode("ascii")


_NOT_BITS = "a trace may contain only the characters 0 and 1"


def _ascii_codes(x: str) -> bytes:
    """The ASCII bytes of `x`, or ValueError unless every character is 0 or 1.

    This is the one 0/1 check of traces and binary strings.  A string under
    4096 bytes is checked by deleting its 0s and 1s from the bytes, which
    costs less than the two numpy calls of the long-string check (both take
    about 1.7 us at 4000 bytes on a 2-vCPU VM).  There, xor maps "0" and "1"
    to 0 and 1 and every other byte above 1.
    """
    codes = x.encode("ascii")
    if (codes.translate(None, b"01") if len(codes) < 4096
            else (np.frombuffer(codes, dtype=np.uint8) ^ 48).max() > 1):
        raise ValueError(_NOT_BITS)
    return codes


def parse_bits(trace: str) -> np.ndarray:
    """The characters of `trace` as a uint8 array of 0s and 1s; any character
    other than 0 and 1 raises ValueError."""
    return np.frombuffer(_ascii_codes(trace), dtype=np.uint8) - 48


def linear_runs(trace: str) -> tuple[np.ndarray, np.ndarray]:
    """(values, lengths) of the maximal constant runs of `trace`, left to right."""
    return _kernels.bit_runs(parse_bits(trace))


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
        bits=trace,
    )


def runs_from_counts(counts: np.ndarray) -> RunLengthTrace:
    """``circular_runs(parity_trace(SampleMultiset(counts)))``; counts that are not
    a 1-d vector of even length raise ValueError.  Only perfbench's rebuild of the
    `pt_large` trial and the tests call it."""
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size % 2:
        raise ValueError(f"counts must be a 1-d vector of even length 2n, got shape {counts.shape}")
    return circular_runs(parity_trace(SampleMultiset(counts)))


def sample_exact(pair: PartialDistributionPair, m: int, seed) -> SampleMultiset:
    """m i.i.d. draws from the full distribution, aggregated to counts; an `m`
    that is not a whole number >= 0, or is a bool, raises ValueError."""
    if isinstance(m, bool) or not (isinstance(m, numbers.Real) and math.isfinite(m) and m >= 0
                                   and m == int(m)):
        raise ValueError(f"sample size must be a whole number >= 0, got {m!r}")
    rng = generator(seed)
    pi = pair.interleaved()
    pi = pi / pi.sum()  # normalization drift below the pair tolerance
    return SampleMultiset(rng.multinomial(int(m), pi))


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
    _check_size(k, "k", 1)
    return _split_poisson(k * m, pair.interleaved(), k, seed)


def _split_poisson(rate: float, mass: np.ndarray, k: int, seed) -> list[str]:
    """k parity traces from one Poisson(rate * mass) draw, each point routed to a
    uniformly random output, so output i has counts Poisson(rate * mass / k); callers check k."""
    rng = generator(seed)
    parent = rng.poisson(rate * mass)
    nz = np.flatnonzero(parent)
    parts = np.zeros((k, parent.size), dtype=np.int64)
    parts[:, nz] = rng.multinomial(parent[nz], np.full(k, 1.0 / k)).T
    return [parity_trace(SampleMultiset(row)) for row in parts]


def uniform_pair(n: int) -> PartialDistributionPair:
    """The uniform distribution on [2n] as an odd/even pair."""
    mu = PartialDistribution(np.full(n, 0.5 / n))
    return PartialDistributionPair(mu, mu)


def pair_to_json(pair: PartialDistributionPair) -> str:
    return json.dumps(
        {"n": pair.n, "p": pair.p.weights.tolist(), "q": pair.q.weights.tolist()}
    )


def _json_object(text: str, keys, what: str) -> dict:
    """The JSON object in `text`; ValueError unless it is an object with every key."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r}")
    return obj


def pair_from_json(text: str) -> PartialDistributionPair:
    obj = _json_object(text, ("n", "p", "q"), "a distribution")
    p = PartialDistribution(np.asarray(obj["p"], dtype=np.float64))
    q = PartialDistribution(np.asarray(obj["q"], dtype=np.float64))
    if p.n != obj["n"] or q.n != obj["n"]:
        raise ValueError("declared n does not match vector lengths")
    return PartialDistributionPair(p, q)

