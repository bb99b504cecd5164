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
from .collector import BaseGraph, _join_product, _keep_probs, _row_chunks, _subgraph_labels
from .core import _check_positive, _check_size, _weights
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
    where xi = e^(-m|q|_1) / (1 - e^(-m|q|_1))^2.  The residual takes phi p~
    from the O(n) join product, not from the n x n matrix.
    """
    qw = _weights(q, "q")
    _check_positive(m, "m")
    q_mass = float(qw.sum())
    if q_mass <= 0:
        raise ValueError("q must carry positive mass")
    tau = (1.0 - q_mass) / float(np.sum(np.tanh(m * qw / 2.0)))
    keep = np.exp(-m * qw)
    sig = 1.0 / (1.0 + keep)
    p_tilde = tau * (sig + np.roll(sig, 1) - 1.0)
    emq = math.exp(-m * q_mass)
    xi = emq / (1.0 - emq) ** 2
    residual = float(np.max(np.abs(_join_product(keep, p_tilde, "cycle") - tau)))
    z = None
    if p is not None:
        z = _weights(p, "p", qw.size) - p_tilde
    return ConjugateReport(p_tilde=p_tilde, tau=tau, xi=xi, residual=residual, z=z)


def _finite(x, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """`x` as a float64 array, or ValueError unless it has `shape` and only finite entries."""
    a = np.asarray(x, dtype=np.float64)
    if a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"{name} must be a finite array of shape {shape}")
    return a


def simulated_bucket_means(q, values, m: float, trials: int, seed) -> np.ndarray:
    """Monte Carlo estimate of E[values[bucket containing i]] for every i.

    Draws the subgraph with edge survival exp(-m*q_j) and averages the
    bucket sums of `values`; converges to (phi @ values) entrywise, which
    cross-checks the closed-form conjugate independently of the matrix
    construction.
    """
    qw = _weights(q, "q")
    _check_positive(m, "m")
    _check_size(trials, "trials", 1)
    n = qw.size
    vals = _finite(values, "values", (n,))
    rng = generator(seed)
    keep_p = np.exp(-m * qw)
    acc = np.zeros(n)
    for rows in _row_chunks(trials, n):
        labels = _subgraph_labels(rng, keep_p, n, True, rows)
        sums = _kernels.bucket_sums(np.broadcast_to(vals, labels.shape), labels)
        acc += np.take_along_axis(sums, labels, axis=1).sum(axis=0)
    return acc / trials


def relative_concentration(p, q, t: float, kind: str = "cycle") -> ConcentrationReport:
    """Maximize p[I]/max(q[I*], t) over circular intervals of size <= n.

    Also returns a witness interval satisfying q[I*] <= t and
    p[I] >= t * Gamma / 2, found by brute force over the same scan.
    `kind` is "cycle" or "path".
    """
    if kind not in ("path", "cycle"):
        raise ValueError("kind must be 'path' or 'cycle'")
    _check_positive(t, "t")
    pw = _weights(p, "p")
    qw = _weights(q, "q", pw.size)
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
    pw = _weights(p, "p")
    _check_positive(m, "m")
    return float(m * pw @ _finite(phi, "phi", (pw.size, pw.size)) @ pw)


def variance_components(p, graph: BaseGraph, m: float, trials: int, seed,
                        eta: float) -> tuple[float, float]:
    """Monte Carlo split of Var[Y] into its subgraph and sampling parts.

    For each sampled subgraph the conditional pieces are exact:
    E[Y | H] = m * sum_b s_b^2 and Var[Y | H] = 2*sum_b s_b^2 +
    4m*sum_b s_b^3 over bucket masses s_b.  Returns (variance of the
    conditional mean, mean of the conditional variance).
    """
    _check_size(trials, "trials", 1000)  # fewer give no stable split
    pw = _weights(p, "p")
    if pw.shape != (graph.n,):
        raise ValueError("distribution and graph sizes differ")
    _check_positive(m, "m")
    keep_p = _keep_probs(graph, eta)
    rng = generator(seed)
    sq, cube = [], []
    for rows in _row_chunks(trials, graph.n):
        labels = _subgraph_labels(rng, keep_p, graph.n, graph.is_cycle, rows)
        s = _kernels.bucket_sums(np.broadcast_to(pw, labels.shape), labels)
        sq.append(np.sum(s * s, axis=1))
        cube.append(np.sum(s * s * s, axis=1))
    sq, cube = np.concatenate(sq), np.concatenate(cube)
    return float((m * sq).var(ddof=1)), float((2.0 * sq + 4.0 * m * cube).mean())


def tanh_checks() -> dict:
    """Pointwise verification of the three tanh inequalities on a grid.

    Checks x/2 <= tanh(x) <= 2x for small positive x, the quadratic upper
    bound tanh(r+x) <= tanh(r) + (1-tanh^2 r) x - tanh(r)(1-tanh^2 r) x^2
    for 0 <= x <= 1/(2 tanh r), and its averaged consequence
    mean(tanh(u)) <= tanh(r) (1 - (1-tanh^2 r) |(u-r)+|_2^2 / n) for
    random mean-r vectors.  Returns the worst violation of each (<= 0
    means the inequality holds).
    """
    r_grid = np.geomspace(1e-4, 0.05, 16)
    x_steps, n_vectors, vector_n = 64, 32, 64  # grid points, random vectors, vector length
    xs = np.linspace(0.0, 1.0, x_steps + 1)[1:]
    worst_fact = float(np.max(np.maximum(xs / 2 - np.tanh(xs), np.tanh(xs) - 2 * xs)))

    worst_quad = -np.inf
    for r in r_grid:
        th = math.tanh(r)
        x = np.linspace(0.0, 1.0 / (2.0 * th), x_steps + 1)
        lhs = np.tanh(r + x)
        rhs = th + (1 - th**2) * x - th * (1 - th**2) * x**2
        worst_quad = max(worst_quad, float(np.max(lhs - rhs)))

    rng = generator(0)
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
