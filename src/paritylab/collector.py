"""Uniformity testing when nearby domain elements may be counted together.

The sampling process lives on a path or cycle over Z_n: a random subgraph
keeps each edge with its own probability, the connected components become
buckets, and every sample point is labeled only by its bucket.  The tester
thresholds the bucket-level collision statistic

    Y = (1/m) * sum_i X_i (X_i - 1)

against its closed-form expectation under the uniform distribution plus a
margin, after first rejecting anything with a suspiciously large bucket
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .rng import generator
from .verdict import Verdict

__all__ = [
    "BaseGraph",
    "BucketPartition",
    "CCTesterConfig",
    "sample_confused",
    "confused_trials",
    "phi_expected",
    "phi_from_keep_probs",
    "phi_empirical",
    "phi_row_sum_total",
    "min_eigenvalue",
    "zeta_bound",
    "test_uniformity_cc",
]


@dataclass(frozen=True)
class BaseGraph:
    """Path or cycle on vertices Z_n; edge j connects j and j+1 mod n."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("path", "cycle"):
            raise ValueError("kind must be 'path' or 'cycle'")
        if self.n < 2:
            raise ValueError("need at least two vertices")

    @property
    def is_cycle(self) -> bool:
        return self.kind == "cycle"

    @property
    def n_edges(self) -> int:
        return self.n if self.is_cycle else self.n - 1


@dataclass(frozen=True)
class BucketPartition:
    """Connected components of a sampled subgraph, as vertex -> bucket ids."""

    labels: np.ndarray

    @property
    def n_buckets(self) -> int:
        return int(np.unique(self.labels).size)


@dataclass(frozen=True)
class CCTesterConfig:
    """Free constants of the confused-collector tester.

    `alpha` scales the bucket-count rejection threshold, `beta` the
    collision margin, `c` the sample-size formula, and `L` the lower
    admissible resolution.  Defaults for (c, beta) come from the
    calibration runs recorded in the acceptance suite.
    """

    epsilon: float
    eta: float
    alpha: float = 20.0
    beta: float = 0.25
    L: float = 0.1
    c: float = 0.008

    def __post_init__(self):
        if not (0 < self.epsilon <= 2 and 0 < self.eta <= 1):
            raise ValueError("need epsilon in (0,2] and eta in (0,1]")

    def sample_size(self, n: int) -> int:
        """m = c * sqrt(n)/eps^2 * log^2(n)/eta^(3/2)."""
        ln = math.log(n)
        return max(
            1,
            int(round(self.c * math.sqrt(n) / self.epsilon**2 * ln * ln / self.eta**1.5)),
        )

    def eta_in_range(self, n: int) -> bool:
        ln = math.log(n)
        return self.eta >= self.L * ln**0.8 / (n**0.2 * self.epsilon**0.8)


def _keep_probs(graph: BaseGraph, eta=None, weights=None) -> np.ndarray:
    """Per-edge survival probabilities: 1 - weights when given, else 1 - eta."""
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.size != graph.n_edges or np.any((w < 0) | (w > 1)):
            raise ValueError("edge weights must lie in [0,1], one per edge")
        return 1.0 - w
    if eta is None:
        raise ValueError("pass eta or weights")
    if not (0 < eta <= 1):
        raise ValueError("eta must lie in (0,1]")
    return np.full(graph.n_edges, 1.0 - eta)


def _subgraph_chunks(rng, keep_p: np.ndarray, trials: int, chunk: int):
    """Draw `trials` random subgraphs, at most `chunk` at a time.

    Yields (rows, keep): the slice of trial indices and their (b, edges)
    edge-survival draws.  Each chunk is drawn only when the caller asks for
    it, so draws the caller makes in between follow in stream order.
    """
    for start in range(0, trials, chunk):
        b = min(chunk, trials - start)
        yield slice(start, start + b), rng.random((b, keep_p.size)) < keep_p


def sample_confused(p, m: float, graph: BaseGraph, eta: float, seed, weights=None):
    """One draw of the confused-collector process.

    Returns (BucketPartition, X) where X[i] is the number of sample points
    labeled with bucket i; X[i] ~ Poisson(m * p[bucket i]), buckets from an
    independent subgraph draw.
    """
    pw = np.asarray(getattr(p, "weights", p), dtype=np.float64)
    if pw.size != graph.n:
        raise ValueError("distribution and graph sizes differ")
    rng = generator(seed)
    keep = rng.random(graph.n_edges) < _keep_probs(graph, eta, weights)
    labels = _kernels.bucket_labels(keep[None, :], graph.n, graph.is_cycle)[0]
    counts = rng.poisson(m * pw)
    # labels run over 0..k-1, so the bincount has one entry per bucket
    return BucketPartition(labels), np.bincount(labels, weights=counts).astype(np.int64)


def confused_trials(p, m: float, graph: BaseGraph, eta: float, trials: int, seed,
                    weights=None, chunk: int = 20000):
    """Monte Carlo batch of (Y, max bucket count) over fresh (H, sample) draws."""
    pw = np.asarray(getattr(p, "weights", p), dtype=np.float64)
    rng = generator(seed)
    keep_p = _keep_probs(graph, eta, weights)
    ys = np.empty(trials)
    maxx = np.empty(trials)
    for rows, keep in _subgraph_chunks(rng, keep_p, trials, chunk):
        counts = rng.poisson(m * pw, size=(keep.shape[0], graph.n)).astype(np.float64)
        mom = _kernels.bucket_moments(counts, keep, graph.is_cycle)
        ys[rows] = (mom[:, 0] - counts.sum(axis=1)) / m
        maxx[rows] = mom[:, 2]
    return ys, maxx


def _join_matrix(n: int, nu: float, cycle: bool) -> np.ndarray:
    """Join matrix when every edge survives with probability nu."""
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    if cycle:
        phi = nu**d + nu ** (n - d) - nu**n
        np.fill_diagonal(phi, 1.0)
        return phi
    return nu**d


def _join_sum(n: int, nu: float, cycle: bool) -> float:
    """Sum of all entries of `_join_matrix(n, nu, cycle)`, in closed form."""
    if cycle:
        if nu == 0.0:
            return float(n)
        geo = (nu - nu**n) / (1 - nu) if nu < 1 else n - 1
        return n * (1 + 2 * geo - (n - 1) * nu**n)
    d = np.arange(1, n)
    return float(n + 2 * np.sum((n - d) * nu**d))


def phi_expected(graph: BaseGraph, eta: float) -> np.ndarray:
    """Expected join matrix for constant edge weight eta.

    Path: phi[i,j] = nu^|i-j|.  Cycle: phi[i,j] = nu^|i-j| + nu^(n-|i-j|)
    - nu^n, with nu = 1 - eta.
    """
    if not (0 < eta <= 1):
        raise ValueError("eta must lie in (0,1]")
    return _join_matrix(graph.n, 1.0 - eta, graph.is_cycle)


def phi_from_keep_probs(keep: np.ndarray, kind: str) -> np.ndarray:
    """Expected join matrix for arbitrary per-edge keep probabilities in [0,1].

    Entry (i,j) is the probability that i and j land in one bucket: the
    product of keep probabilities along the edges between them; on the
    cycle, inclusion-exclusion over the two arcs.  Products are sums of
    logs: with c the prefix sums of log(keep) at the vertices, the arc
    between i < j has log-product c[j] - c[i] and, on the cycle, the other
    arc c[n] - c[j] + c[i]; an arc holding a zero-probability edge joins
    nothing.
    """
    if kind not in ("path", "cycle"):
        raise ValueError("kind must be 'path' or 'cycle'")
    keep = np.asarray(keep, dtype=np.float64)
    logs = np.concatenate(([0.0], np.cumsum(np.log(np.maximum(keep, 1e-300)))))
    zeros = np.concatenate(([0], np.cumsum(keep == 0, dtype=np.int32)))
    n = keep.size + 1 if kind == "path" else keep.size
    c, z = logs[:n], zeros[:n]
    # logs never increase along the path, so -|c[i] - c[j]| is the arc i..j
    phi = np.abs(np.subtract.outer(c, c))
    np.negative(phi, out=phi)
    np.exp(phi, out=phi)
    phi[np.not_equal.outer(z, z)] = 0.0
    if kind == "path":
        return phi
    # far[i, j] = c[i] + (c[n] - c[j]) is the other arc when i < j, and the
    # larger of far[i, j] and far[j, i]; the maximum puts it on both sides
    far = np.add.outer(c, logs[n] - c)
    far = np.maximum(far, far.T)
    np.exp(far, out=far)
    far[np.abs(np.subtract.outer(z, z)) != zeros[n]] = 0.0
    phi += far
    phi -= 0.0 if zeros[n] else math.exp(logs[n])
    np.fill_diagonal(phi, 1.0)
    return phi


def phi_empirical(graph: BaseGraph, eta: float, trials: int, seed,
                  chunk: int = 4096) -> np.ndarray:
    """Monte Carlo average of the realized join matrix."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = generator(seed)
    n = graph.n
    acc = np.zeros((n, n))
    for _, keep in _subgraph_chunks(rng, _keep_probs(graph, eta), trials, chunk):
        labels = _kernels.bucket_labels(keep, n, graph.is_cycle)
        acc += (labels[:, :, None] == labels[:, None, :]).sum(axis=0)
    return acc / trials


def phi_row_sum_total(graph: BaseGraph, eta: float) -> float:
    """Closed-form sum of all entries of the expected join matrix."""
    return _join_sum(graph.n, 1.0 - eta, graph.is_cycle)


def min_eigenvalue(phi: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (dense solver)."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(phi, phi.T, rtol=0, atol=1e-10):
        raise ValueError("matrix must be symmetric")
    return float(np.linalg.eigvalsh(phi)[0])


def zeta_bound(graph: BaseGraph, *, eta: float | None = None,
               m: float | None = None, q_mass: float | None = None) -> float:
    """Upper bound on the chance that a pair joins around the far arc.

    0 on the path; (1-eta)^(n/2) on the constant-weight cycle; and
    exp(-m*q_mass/2) on the cycle with parity-trace edge weights.
    """
    if not graph.is_cycle:
        return 0.0
    if eta is not None:
        return float((1.0 - eta) ** (graph.n / 2))
    if m is None or q_mass is None:
        raise ValueError("pass eta, or both m and q_mass")
    return float(math.exp(-m * q_mass / 2))


def test_uniformity_cc(x_counts, config: CCTesterConfig, n: int, m: float,
                       graph: BaseGraph | None = None,
                       override_range_check: bool = False) -> Verdict:
    """Two-step uniformity decision from per-bucket sample counts.

    Step 1 rejects when any bucket count reaches alpha*log(n); step 2
    rejects when Y exceeds its uniform-case expectation by the margin
    beta*(m/n)*eps^2*eta.
    """
    if graph is None:
        graph = BaseGraph("cycle", n)
    if not config.eta_in_range(n) and not override_range_check:
        raise ValueError(
            "eta below the admissible range for this (n, epsilon); "
            "pass override_range_check=True to run anyway"
        )
    x = np.asarray(x_counts, dtype=np.float64)
    max_x = float(x.max(initial=0.0))
    # max and min propagate NaN, so these two reductions catch NaN, +-inf and negatives
    if not (math.isfinite(max_x) and x.min(initial=0.0) >= 0):
        raise ValueError("bucket counts must be finite and non-negative")
    stats = {"max_count": max_x, "m": m, "n": n}
    params = {"alpha": config.alpha, "beta": config.beta, "epsilon": config.epsilon,
              "eta": config.eta, "graph": graph.kind}
    if max_x >= config.alpha * math.log(n):
        stats["threshold_max"] = config.alpha * math.log(n)
        return Verdict(False, "concentration", stats, params)
    y = float(np.sum(x * (x - 1.0)) / m)
    threshold = (m / n**2) * phi_row_sum_total(graph, config.eta) \
        + config.beta * (m / n) * config.epsilon**2 * config.eta
    stats.update({"Y": y, "threshold": threshold})
    if y >= threshold:
        return Verdict(False, "collision", stats, params)
    return Verdict(True, "none", stats, params)
