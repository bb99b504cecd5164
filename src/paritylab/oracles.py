"""Numerical oracles used by the property tests, not by the testers.

These routines realize the analysis-side objects as computable checks: the
worst-case odd part that equalizes expected bucket masses, the relative
concentration maximizer with its witness interval, exact expectation and
variance components of the collision statistic, and pointwise tanh
inequality grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .collector import BaseGraph, _keep_probs, _subgraph_chunks, phi_from_keep_probs
from .rng import generator

__all__ = [
    "ConjugateReport",
    "ConcentrationReport",
    "uniform_conjugate",
    "relative_concentration",
    "expected_y",
    "variance_components",
    "tanh_checks",
]


@dataclass(frozen=True)
class ConjugateReport:
    """Closed-form equalizing odd part for a given even part q.

    `tau` is the common expected bucket mass, `xi` the approximation scale,
    and `residual` the worst deviation max_i |(phi p~)_i - tau|, which must
    stay below 4*n*xi.
    """

    p_tilde: np.ndarray
    tau: float
    xi: float
    residual: float
    z: np.ndarray | None = None


@dataclass(frozen=True)
class ConcentrationReport:
    """Relative concentration value with a certified witness interval."""

    gamma_value: float
    witness_start: int
    witness_length: int
    witness_p_mass: float
    witness_q_mass: float
    t: float


def uniform_conjugate(q, m: float, p=None) -> ConjugateReport:
    """Explicit odd part making every expected bucket mass equal.

    With edge survival probabilities exp(-m*q_i), the vector

        p~_i = tau * (1/(1+e^(-m q_i)) + 1/(1+e^(-m q_{i-1})) - 1),
        tau  = (1 - |q|_1) / sum_i tanh(m q_i / 2),

    has total mass 1 - |q|_1 and satisfies (phi p~)_i = tau up to 4*n*xi
    where xi = e^(-m|q|_1) / (1 - e^(-m|q|_1))^2.
    """
    qw = np.asarray(getattr(q, "weights", q), dtype=np.float64)
    q_mass = float(qw.sum())
    if q_mass <= 0:
        raise ValueError("q must carry positive mass")
    n = qw.size
    tau = (1.0 - q_mass) / float(np.sum(np.tanh(m * qw / 2.0)))
    sig = 1.0 / (1.0 + np.exp(-m * qw))
    p_tilde = tau * (sig + np.roll(sig, 1) - 1.0)
    emq = math.exp(-m * q_mass)
    xi = emq / (1.0 - emq) ** 2
    phi = phi_from_keep_probs(np.exp(-m * qw), "cycle")
    residual = float(np.max(np.abs(phi @ p_tilde - tau)))
    z = None
    if p is not None:
        z = np.asarray(getattr(p, "weights", p), dtype=np.float64) - p_tilde
    return ConjugateReport(p_tilde=p_tilde, tau=tau, xi=xi, residual=residual, z=z)


def simulated_bucket_means(q, values, m: float, trials: int, seed,
                           chunk: int = 20000) -> np.ndarray:
    """Monte Carlo estimate of E[values[bucket containing i]] for every i.

    Draws the subgraph with edge survival exp(-m*q_j) and averages the
    bucket sums of `values`; converges to (phi @ values) entrywise, which
    cross-checks the closed-form conjugate independently of the matrix
    construction.
    """
    qw = np.asarray(getattr(q, "weights", q), dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    n = qw.size
    rng = generator(seed)
    acc = np.zeros(n)
    for _, keep in _subgraph_chunks(rng, np.exp(-m * qw), trials, chunk):
        labels = _kernels.bucket_labels(keep, n, True)
        sums = _kernels.bucket_sums(np.broadcast_to(vals, labels.shape), labels)
        acc += np.take_along_axis(sums, labels, axis=1).sum(axis=0)
    return acc / trials


def relative_concentration(p, q, t: float, kind: str = "cycle") -> ConcentrationReport:
    """Maximize p[I]/max(q[I*], t) over circular intervals of size <= n.

    Also returns a witness interval satisfying q[I*] <= t and
    p[I] >= t * Gamma / 2, found by brute force over the same scan.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    pw = np.asarray(getattr(p, "weights", p), dtype=np.float64)
    qw = np.asarray(getattr(q, "weights", q), dtype=np.float64)
    gamma, _, _, wp, wi, wd = _kernels.interval_scan(pw, qw, t, kind == "cycle")
    if wp < t * gamma / 2 - 1e-12:
        raise AssertionError("no interval certifies the concentration bound")
    qmass = _interval_edge_mass(qw, wi, wd)
    return ConcentrationReport(
        gamma_value=float(gamma),
        witness_start=int(wi),
        witness_length=int(wd),
        witness_p_mass=float(wp),
        witness_q_mass=float(qmass),
        t=float(t),
    )


def _interval_edge_mass(qw: np.ndarray, i: int, d: int) -> float:
    n = qw.size
    idx = (i + np.arange(d - 1)) % n
    return float(qw[idx].sum())


def expected_y(p, phi: np.ndarray, m: float) -> float:
    """Exact expectation of the collision statistic: m * p' phi p."""
    pw = np.asarray(getattr(p, "weights", p), dtype=np.float64)
    if phi.shape != (pw.size, pw.size):
        raise ValueError("dimension mismatch")
    return float(m * pw @ phi @ pw)


def variance_components(p, graph: BaseGraph, m: float, trials: int, seed,
                        eta: float | None = None, weights=None,
                        chunk: int = 20000) -> tuple[float, float]:
    """Monte Carlo split of Var[Y] into its subgraph and sampling parts.

    For each sampled subgraph the conditional pieces are exact:
    E[Y | H] = m * sum_b s_b^2 and Var[Y | H] = 2*sum_b s_b^2 +
    4m*sum_b s_b^3 over bucket masses s_b.  Returns (variance of the
    conditional mean, mean of the conditional variance).
    """
    if trials < 1000:
        raise ValueError("need at least 1e3 trials for a stable split")
    pw = np.asarray(getattr(p, "weights", p), dtype=np.float64)
    keep_p = _keep_probs(graph, eta, weights)
    rng = generator(seed)
    cond_mean = np.empty(trials)
    cond_var = np.empty(trials)
    for rows, keep in _subgraph_chunks(rng, keep_p, trials, chunk):
        values = np.broadcast_to(pw, (keep.shape[0], graph.n))
        mom = _kernels.bucket_moments(values, keep, graph.is_cycle)
        cond_mean[rows] = m * mom[:, 0]
        cond_var[rows] = 2.0 * mom[:, 0] + 4.0 * m * mom[:, 1]
    return float(cond_mean.var(ddof=1)), float(cond_var.mean())


def tanh_checks(r_grid=None, x_steps: int = 64, n_vectors: int = 32,
                vector_n: int = 64, seed: int = 0) -> dict:
    """Pointwise verification of the three tanh inequalities on a grid.

    Checks x/2 <= tanh(x) <= 2x for small positive x, the quadratic upper
    bound tanh(r+x) <= tanh(r) + (1-tanh^2 r) x - tanh(r)(1-tanh^2 r) x^2
    for 0 <= x <= 1/(2 tanh r), and its averaged consequence
    mean(tanh(u)) <= tanh(r) (1 - (1-tanh^2 r) |(u-r)+|_2^2 / n) for
    random mean-r vectors.  Returns the worst violation of each (<= 0
    means the inequality holds).
    """
    if r_grid is None:
        r_grid = np.geomspace(1e-4, 0.05, 16)
    r_grid = np.asarray(r_grid, dtype=np.float64)
    xs = np.linspace(0.0, 1.0, x_steps + 1)[1:]
    worst_fact = float(np.max(np.maximum(xs / 2 - np.tanh(xs), np.tanh(xs) - 2 * xs)))

    worst_quad = -np.inf
    for r in r_grid:
        th = math.tanh(r)
        x = np.linspace(0.0, 1.0 / (2.0 * th), x_steps + 1)
        lhs = np.tanh(r + x)
        rhs = th + (1 - th**2) * x - th * (1 - th**2) * x**2
        worst_quad = max(worst_quad, float(np.max(lhs - rhs)))

    rng = generator(seed)
    worst_avg = -np.inf

    def avg_violation(x, r, th):
        u = r + x
        lhs = float(np.mean(np.tanh(u)))
        bump = float(np.sum(np.clip(x, 0.0, None) ** 2))
        rhs = th * (1.0 - (1.0 - th**2) * bump / vector_n)
        return lhs - rhs

    for r in r_grid:
        th = math.tanh(r)
        cap = 1.0 / (2.0 * th)
        # spike offsets: one entry up by s, the rest down by s/(n-1);
        # mean-zero with entries inside [-r, cap] by construction
        for s in np.geomspace(r / 10, min(cap, (vector_n - 1) * r), 8):
            x = np.full(vector_n, -s / (vector_n - 1))
            x[0] = s
            worst_avg = max(worst_avg, avg_violation(x, r, th))
        for _ in range(n_vectors):
            x = rng.uniform(-r / 2, r / 2, size=vector_n)
            x -= x.mean()  # stays inside [-r, r] subset of [-r, cap]
            worst_avg = max(worst_avg, avg_violation(x, r, th))

    return {
        "tanh_envelope": worst_fact,
        "quadratic_upper": worst_quad,
        "averaged_jensen": float(worst_avg),
    }
