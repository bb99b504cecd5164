"""Distances between distributions as seen through their parity traces.

A distribution over the positive integers reads as an alternating
fractional string 1^pi(1) 0^pi(2) 1^pi(3) ...; when all densities are
integer multiples of 1/N it also corresponds to a concrete binary string
of length N.  Relative string edit distance on those strings sandwiches
the (uncomputable-in-general) trace-equivalence distance between the
distributions within a factor of two, and total variation bounds it from
above; this module computes all the pieces exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import SampleMultiset, _check_size, _weights, linear_runs, parity_trace, parse_bits

__all__ = [
    "DensitySequence",
    "FractionalString",
    "BlockString",
    "str_of",
    "psi",
    "psi_inv",
    "string_edit_distance",
    "rel_edit_distance",
    "tv_distance",
    "dist_edit_bounds",
    "dist_to_uniform",
    "dist_to_nblock",
    "uniform_density",
]


@dataclass(frozen=True)
class DensitySequence:
    """Finitely supported distribution over {1, 2, 3, ...}.

    `pi[i]` is the mass of value i+1.  When built from integer counts the
    exact numerators are retained so string conversion is lossless.
    """

    pi: np.ndarray
    counts: np.ndarray | None = None
    denominator: int | None = None

    def __post_init__(self):
        pi = _weights(self.pi, "densities")
        object.__setattr__(self, "pi", pi)
        if abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError(f"densities sum to {pi.sum()}, not 1")
        if self.counts is not None:
            c = np.asarray(self.counts, dtype=np.int64)
            object.__setattr__(self, "counts", c)
            if self.denominator is None or c.sum() != self.denominator:
                raise ValueError("exact counts must sum to the denominator")

    @classmethod
    def from_counts(cls, counts, denominator: int) -> "DensitySequence":
        c = np.asarray(counts, dtype=np.int64)
        return cls(c / denominator, counts=c, denominator=denominator)

    def exact_counts(self, denominator: int) -> np.ndarray:
        """Densities as integer multiples of 1/denominator, or raise."""
        if self.counts is not None:
            if denominator % self.denominator == 0:
                return self.counts * (denominator // self.denominator)
            raise ValueError(
                f"exact denominator {self.denominator} does not divide {denominator}"
            )
        scaled = self.pi * denominator
        counts = np.rint(scaled).astype(np.int64)
        if np.max(np.abs(scaled - counts)) > 1e-6:
            raise ValueError(f"densities are not integer multiples of 1/{denominator}")
        return counts


@dataclass(frozen=True)
class FractionalString:
    """Alternating symbols with non-negative real repetition masses."""

    chars: tuple

    def __post_init__(self):
        for sym, mass in self.chars:
            if sym not in (0, 1) or mass < 0:
                raise ValueError("characters are (symbol in {0,1}, mass >= 0)")


@dataclass(frozen=True)
class BlockString:
    """A binary string plus its run-length encoding."""

    bits: str

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        return linear_runs(self.bits)

    @property
    def n_blocks(self) -> int:
        return int(self.runs()[0].size)

    def __len__(self) -> int:
        return len(self.bits)


def str_of(pi: DensitySequence) -> FractionalString:
    """1^pi(1) 0^pi(2) 1^pi(3) ... up to the last nonzero density."""
    dens = pi.pi
    last = int(np.max(np.flatnonzero(dens))) if np.any(dens > 0) else -1
    chars = tuple((1 - (i % 2), float(dens[i])) for i in range(last + 1))
    return FractionalString(chars)


def psi(pi: DensitySequence, n_chars: int) -> BlockString:
    """Blow the density sequence up into a binary string of length n_chars."""
    return BlockString(parity_trace(SampleMultiset(pi.exact_counts(n_chars))))


def psi_inv(x: BlockString | str) -> DensitySequence:
    """Distribution whose parity trace matches samples of string positions.

    Value i receives the relative length of the i-th alternating block,
    counting a leading zero-length 1-block when the string starts with 0.
    """
    bits = x.bits if isinstance(x, BlockString) else x
    if not bits:
        raise ValueError("cannot invert the empty string")
    values, lengths = BlockString(bits).runs()
    counts = np.concatenate(([0], lengths)) if values[0] == 0 else lengths
    return DensitySequence.from_counts(counts, len(bits))


def _as_bits_array(x) -> np.ndarray:
    return parse_bits(x.bits if isinstance(x, BlockString) else x)


def string_edit_distance(u, v) -> int:
    """Unit-cost insert/delete/substitute distance between binary strings."""
    return _kernels.levenshtein(_as_bits_array(u), _as_bits_array(v))


def rel_edit_distance(u, v) -> float:
    """2/(N+M) times the string edit distance; always in [0, 2]."""
    a, b = _as_bits_array(u), _as_bits_array(v)
    if a.size == 0 and b.size == 0:
        return 0.0
    return 2.0 * _kernels.levenshtein(a, b) / (a.size + b.size)


def tv_distance(pi: DensitySequence, pi2: DensitySequence) -> float:
    """Half the l1 distance, padding the shorter sequence with zeros."""
    a, b = pi.pi, pi2.pi
    if a.size < b.size:
        a = np.concatenate((a, np.zeros(b.size - a.size)))
    elif b.size < a.size:
        b = np.concatenate((b, np.zeros(a.size - b.size)))
    return float(np.abs(a - b).sum() / 2)


def dist_edit_bounds(pi: DensitySequence, pi2: DensitySequence,
                     n_chars: int) -> tuple[float, float]:
    """Sandwich for the trace-equivalence distance between distributions.

    Returns (lower, upper) with lower = rel_edit(psi(pi), psi(pi2)) / 2 and
    upper = min(rel_edit, tv).  Requires densities to be integer multiples
    of 1/n_chars.
    """
    rel = rel_edit_distance(psi(pi, n_chars), psi(pi2, n_chars))
    return rel / 2.0, min(rel, tv_distance(pi, pi2))


def uniform_density(k: int) -> DensitySequence:
    """Uniform distribution on {1..k} as a density sequence."""
    return DensitySequence.from_counts(np.ones(k, dtype=np.int64), k)


def dist_to_uniform(pi: DensitySequence, k: int, metric: str = "tv",
                    n_chars: int | None = None):
    """Distance from `pi` to the uniform distribution on [k].

    metric="tv" returns the total variation distance.  metric="edit_bounds"
    returns a dict with the sandwich bounds plus the diagnostic ratio
    lower/tv (the unquantified comparison constant between the two
    metrics when the support stays within [k])."""
    uni = uniform_density(k)
    tv = tv_distance(pi, uni)
    if metric == "tv":
        return tv
    if metric != "edit_bounds":
        raise ValueError("metric must be 'tv' or 'edit_bounds'")
    if n_chars is None:
        if pi.denominator is not None:
            n_chars = int(np.lcm(np.int64(pi.denominator), np.int64(k)))
        else:
            n_chars = k
    lower, upper = dist_edit_bounds(pi, uni, n_chars)
    return {
        "lower": lower,
        "upper": upper,
        "tv": tv,
        "diagnostic_ratio": (lower / tv) if tv > 0 else math.inf,
    }


def dist_to_nblock(x, n_blocks: int) -> float:
    """Exact relative edit distance from `x` to the length-|x| strings of
    at most n_blocks maximal runs.

    Because block lengths are free, an optimal target string realizes the
    best at-most-(n_blocks-1)-alternation relabeling of the characters of
    x, so the distance is (minimum disagreement count)/|x|.  A string of
    at most n_blocks runs is at distance 0 without running the DP.
    """
    _check_size(n_blocks, "n_blocks", 1)
    bits = _as_bits_array(x)
    values, lengths = _kernels.bit_runs(bits)
    if n_blocks >= values.size:
        return 0.0
    # an optimal labeling never cuts inside a run, so k < runs - 1 here
    dp, _ = _kernels.alternating_fit_tables(values, n_blocks - 1, lengths, backtrack=False)
    return float(dp.min()) / bits.size
