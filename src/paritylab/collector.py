"""Uniformity testing when nearby domain elements may be counted together.

The sampling process lives on a path or cycle over Z_n: a random subgraph
keeps each edge with its own probability, the connected components become
buckets, and every sample point is labeled only by its bucket.  The tester
thresholds the bucket-level collision statistic

    Y = (1/m) * sum_i X_i (X_i - 1)

against its closed-form expectation under the uniform distribution plus a
margin, after first rejecting anything with a suspiciously large bucket
count.

It is the one bucket-collision engine: `_confused_draw` draws for every cc
caller, `_row_chunks` sizes every Monte Carlo loop and grid point in cells,
and `_collision_check` checks cc and, by the necklace reduction, each
parity-trace symbol class.  `phi_from_keep_probs` is the one builder of an
expected join matrix: `phi_expected` (constant eta) and `parity.phi_mu`
(constant keep exp(-m/2n) on the necklace) are it at a constant keep
vector; `_cycle_join_product` multiplies by the cycle's matrix in O(n)
without building it.  Both multiply keeps directly, with no logs, so keeps
that are 0, 1 or subnormal stay exact; `_arc_ends` forms the arcs through
vertex 0 for both.  The samplers and oracles run at a constant eta.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .rng import generator
from .verdict import Verdict

__all__ = [
    "BaseGraph",
    "CCTesterConfig",
    "sample_confused",
    "confused_trials",
    "phi_expected",
    "phi_from_keep_probs",
    "phi_empirical",
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
class CCTesterConfig:
    """Free constants of the confused-collector tester.

    `alpha` scales the bucket-count rejection threshold, `beta` the
    collision margin, `c` the sample-size formula, and `L` the lower
    admissible resolution.  The defaults are the calibrated values that
    the acceptance suite checks.
    """

    epsilon: float
    eta: float
    alpha: float = 20.0
    beta: float = 40.0
    L: float = 0.1
    c: float = 0.016

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        _check_eta(self.eta)

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


def _check_epsilon(epsilon) -> None:
    """Raise ValueError unless the distance parameter is a real number in (0,2].

    Every tester takes its epsilon through this check; the comparison
    rejects NaN and infinities, and a bool is not a distance.
    """
    if isinstance(epsilon, bool) or not (isinstance(epsilon, numbers.Real) and 0 < epsilon <= 2):
        raise ValueError(f"epsilon must be a finite real number in (0,2], got {epsilon!r}")


def _check_positive(value: float, name: str) -> None:
    """Raise ValueError unless `value` is finite and positive; NaN fails the comparison."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_eta(eta: float) -> None:
    """Raise ValueError unless the edge weight lies in (0,1]; NaN fails the comparison."""
    if not (0 < eta <= 1):
        raise ValueError("eta must lie in (0,1]")


def _keep_probs(graph: BaseGraph, eta: float) -> np.ndarray:
    """Per-edge survival probabilities 1 - eta."""
    _check_eta(eta)
    return np.full(graph.n_edges, 1.0 - eta)


# cells per chunk of the oracles and grid points; chunking by rows keeps a
# generator's stream only for draws of one kind.  A chunk's float64 arrays (512 KB)
# fit a 2 MB per-core L2 cache: with 2^19 cells, a cc grid point of 8 trials at
# n=65536 ran about 35% slower than 8 single trials on a 2-vCPU Xeon.
_CHUNK_CELLS = 1 << 16


def _row_chunks(trials: int, cells: int):
    """Row counts of the chunks of `trials` rows of `cells` cells each."""
    step = max(1, _CHUNK_CELLS // cells)
    for start in range(0, trials, step):
        yield min(step, trials - start)


def _subgraph_labels(rng, keep_p: np.ndarray, n: int, cycle: bool, rows: int) -> np.ndarray:
    """Bucket labels of `rows` random subgraphs; edge j survives with keep_p[j]."""
    return _kernels.bucket_labels(rng.random((rows, keep_p.size)) < keep_p, n, cycle)


def _confused_draw(rng, graph: BaseGraph, keep_p: np.ndarray, m: float, masses, rows: int):
    """(labels, x) of `rows` confused-collector draws; x[i, b] counts bucket b of draw i.

    The stream runs: all edge masks, then `masses(rows)` (distributions
    over Z_n, one shared row or one per draw), then Poisson(m * mass) counts.
    """
    labels = _subgraph_labels(rng, keep_p, graph.n, graph.is_cycle, rows)
    pw = masses(rows)
    if np.shape(pw)[-1:] != (graph.n,):
        raise ValueError("distribution and graph sizes differ")
    counts = rng.poisson(m * pw, size=(rows, graph.n))
    # labels run over 0..k-1, so the columns past the largest k hold only zeros
    return labels, _kernels.bucket_sums(counts, labels)[:, : labels.max() + 1]


def sample_confused(p, m: float, graph: BaseGraph, eta: float, seed):
    """One draw of the confused-collector process.

    Returns (labels, X): labels[v] is the bucket of vertex v, numbered
    0..k-1, and X[i] is the number of sample points labeled with bucket i;
    X[i] ~ Poisson(m * p[bucket i]), buckets from an independent subgraph
    draw.
    """
    pw = np.asarray(getattr(p, "weights", p), dtype=np.float64)
    labels, x = _confused_draw(generator(seed), graph, _keep_probs(graph, eta), m,
                               lambda rows: pw, 1)
    return labels[0], x[0].astype(np.int64)


def confused_trials(p, m: float, graph: BaseGraph, eta: float, trials: int, seed):
    """Monte Carlo batch of (Y, max bucket count) over fresh (H, sample) draws."""
    pw = np.asarray(getattr(p, "weights", p), dtype=np.float64)
    rng = generator(seed)
    keep_p = _keep_probs(graph, eta)
    ys, maxx = np.empty(trials), np.empty(trials)
    start = 0
    for rows in _row_chunks(trials, graph.n):
        _, x = _confused_draw(rng, graph, keep_p, m, lambda rows: pw, rows)
        ys[start : start + rows] = _pair_sums(x) / m
        maxx[start : start + rows] = x.max(axis=1, initial=0.0)
        start += rows
    return ys, maxx


def _join_sum(n: int, nu: float, cycle: bool) -> float:
    """Sum of all entries of the join matrix of n vertices whose edges all
    survive with probability nu, in closed form."""
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
    return phi_from_keep_probs(_keep_probs(graph, eta), graph.kind)


def _arc_ends(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pre, suf) of the cycle's keeps, the arcs through vertex 0: pre[j] = k_0 ... k_{j-1}
    runs from 0 forward to j, and suf[j] = k_j ... k_{n-1} from j forward to 0."""
    pre = np.ones(keep.size)
    np.multiply.accumulate(keep[:-1], out=pre[1:])
    return pre, np.multiply.accumulate(keep[::-1])[::-1]


def phi_from_keep_probs(keep: np.ndarray, kind: str) -> np.ndarray:
    """Expected join matrix for arbitrary per-edge keep probabilities in [0,1].

    Entry (i,j) is the probability that i and j land in one bucket: the
    product of the keeps along the edges between them, for i < j one
    running product along row i.  On the cycle the arc from j forward past
    vertex 0 to i, with the keeps suf[j] * pre[i], joins them too; the
    inclusion-exclusion near + far * (1 - near) stays in [0, 1] under
    rounding, where near + far - near * far can step past 1 by an ulp.
    """
    if kind not in ("path", "cycle"):
        raise ValueError("kind must be 'path' or 'cycle'")
    keep = np.asarray(keep, dtype=np.float64)
    # the comparisons reject NaN and infinities
    if keep.ndim != 1 or keep.size == 0 or not np.all((keep >= 0) & (keep <= 1)):
        raise ValueError("keep probabilities must be a non-empty vector of numbers in [0,1]")
    cycle = kind == "cycle"
    n = keep.size + (not cycle)
    pre, suf = _arc_ends(keep)
    phi = np.zeros((n, n))
    for i in range(n - 1):
        row = phi[i, i + 1:]
        np.multiply.accumulate(keep[i : n - 1], out=row)
        if cycle:
            row += pre[i] * suf[i + 1:] * (1.0 - row)
    phi += phi.T
    np.fill_diagonal(phi, 1.0)
    return phi


def _cycle_join_product(keep: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phi_from_keep_probs(keep, "cycle") @ v in O(n), without the matrix.

    (phi v)_i = v_i + F_i + B_i - K * (sum(v) - v_i): F_i and B_i sum v_j
    (j != i) times the keeps along the forward and the backward arc from i
    to j, and K, the product of all keeps, is the chance that both arcs
    survive.  In F_i, the arcs that stay inside 0..n-1 follow the recurrence
    f_i = k_i (v_{i+1} + f_{i+1}), and an arc through edge n-1, from i to
    j < i, has the keeps suf[i] * pre[j] (`_arc_ends`); B_i is the mirror
    image.  Every product is of keeps in [0, 1], so nothing overflows; the
    factored form e^{c_i} * sum e^{-c_j} would, once the keeps underflow.
    """
    n = keep.size
    k, x = keep.tolist(), v.tolist()
    fwd, bwd = [0.0] * n, [0.0] * n
    f = b = 0.0
    for i in range(n - 1):
        j = n - 2 - i
        f = k[j] * (x[j + 1] + f)
        fwd[j] = f
        b = k[i] * (x[i] + b)
        bwd[i + 1] = b
    pre, suf = _arc_ends(keep)
    # forward from i past vertex 0 to j < i is suf[i] * pre[j]; backward to j > i, pre[i] * suf[j]
    w = pre * v
    ahead = np.cumsum(w) - w
    w = suf * v
    behind = np.cumsum(w[::-1])[::-1] - w
    return (v + np.array(fwd) + np.array(bwd) + suf * ahead + pre * behind
            - suf[0] * (v.sum() - v))


def phi_empirical(graph: BaseGraph, eta: float, trials: int, seed) -> np.ndarray:
    """Monte Carlo average of the realized join matrix, in chunks of n^2-cell trials."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = generator(seed)
    n = graph.n
    keep_p = _keep_probs(graph, eta)
    acc = np.zeros((n, n))
    for rows in _row_chunks(trials, n * n):
        labels = _subgraph_labels(rng, keep_p, n, graph.is_cycle, rows)
        acc += (labels[:, :, None] == labels[:, None, :]).sum(axis=0)
    return acc / trials


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
    if eta is not None:
        _check_eta(eta)
        bound = (1.0 - eta) ** (graph.n / 2)
    elif m is None or q_mass is None:
        raise ValueError("pass eta, or both m and q_mass")
    else:
        _check_positive(m, "m")
        _check_positive(q_mass, "q_mass")
        bound = math.exp(-m * q_mass / 2)
    return float(bound) if graph.is_cycle else 0.0


def _pair_sums(x: np.ndarray) -> np.ndarray:
    """Sum of x(x-1) over the last axis of the float64 counts `x`."""
    pairs = x - 1.0
    pairs *= x
    return pairs.sum(axis=-1)


def _collision_check(x: np.ndarray, m: float, n: int, d: int, nu: float, cycle: bool,
                     alpha: float, margin: float):
    """(max_x, Y, threshold_max, threshold) of bucket counts x, over the last axis.

    Y = sum x(x-1)/m fails at the null mean (m/d^2)*sum(phi) plus `margin`, and
    max_x at alpha*log(n).  By the necklace reduction it serves cc (d = n,
    nu = 1 - eta) and each parity-trace symbol class (d = 2n, nu = exp(-m/2n)).
    Sampled counts are integer-valued floats, so the sums are exact in any order.
    """
    threshold = (m / d**2) * _join_sum(n, nu, cycle) + margin
    return x.max(axis=-1, initial=0.0), _pair_sums(x) / m, alpha * math.log(n), threshold


_CC_STEPS = ("none", "concentration", "collision")


def _cc_rows(x, config: CCTesterConfig, n: int, m: float, graph: BaseGraph,
             override_range_check: bool):
    """The two checks of `test_uniformity_cc` on every row of bucket counts `x`.

    Returns (step, max_count, Y, threshold_max, threshold), where step[i]
    indexes _CC_STEPS.  Empty buckets change neither statistic, so a row may
    hold one entry per vertex.
    """
    if not config.eta_in_range(n) and not override_range_check:
        raise ValueError(
            "eta below the admissible range for this (n, epsilon); "
            "pass override_range_check=True to run anyway"
        )
    if graph.n != n:
        raise ValueError("graph and domain sizes differ")
    # max and min propagate NaN, so these reductions catch NaN, +-inf and negatives
    if not (math.isfinite(x.max(initial=0.0)) and x.min(initial=0.0) >= 0):
        raise ValueError("bucket counts must be finite and non-negative")
    max_x, y, threshold_max, threshold = _collision_check(
        x, m, n, n, 1.0 - config.eta, graph.is_cycle, config.alpha,
        config.beta * (m / n) * config.epsilon**2 * config.eta)
    step = np.where(max_x >= threshold_max, 1, 2 * (y >= threshold))
    return step, max_x, y, threshold_max, threshold


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
    x = np.asarray(x_counts, dtype=np.float64).reshape(1, -1)
    step, max_x, y, threshold_max, threshold = _cc_rows(x, config, n, m, graph,
                                                        override_range_check)
    fired = _CC_STEPS[step[0]]
    stats = {"max_count": float(max_x[0]), "m": m, "n": n}
    params = {"alpha": config.alpha, "beta": config.beta, "c": config.c,
              "epsilon": config.epsilon, "eta": config.eta, "graph": graph.kind}
    if fired == "concentration":
        stats["threshold_max"] = threshold_max
    else:
        stats.update({"Y": float(y[0]), "threshold": threshold})
    return Verdict(fired == "none", fired, stats, params)
