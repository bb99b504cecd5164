"""Best-of-k wall time of every kernel in ``paritylab._kernels``.

Run as ``python -m paritylab.benchmarks`` or ``paritylab bench``.  Each
kernel has one implementation, so each row shows one time.
"""

from __future__ import annotations

import time

import numpy as np

from . import _kernels
from .rng import generator


def _time(fn, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _cases():
    rng = generator(1234)
    n = 256
    trials = 4000
    keep = rng.random((trials, n)) < 0.5
    values = rng.poisson(4.0, size=(trials, n)).astype(np.float64)
    yield "bucket_labels", (keep, n, True)
    yield "bucket_sums", (values, _kernels.bucket_labels(keep, n, True))
    yield "bucket_moments", (values, keep, True)

    a = (rng.random(4096) < 0.5).astype(np.uint8)
    b = a.copy()
    flips = rng.choice(4096, size=200, replace=False)
    b[flips] ^= 1
    yield "levenshtein", (a, b)

    bits = (rng.random(20000) < 0.5).astype(np.int64)
    yield "alternating_fit_tables", (bits, 15)

    p = rng.random(256)
    p /= p.sum()
    q = rng.random(256)
    q /= 2 * q.sum()
    yield "interval_scan", (p, q, 1e-3, True)


def run(repeats: int = 3) -> None:
    header = f"{'kernel':<24}{'best (s)':>12}"
    print(header)
    print("-" * len(header))
    for name, args in _cases():
        print(f"{name:<24}{_time(getattr(_kernels, name), *args, repeats=repeats):>12.4f}")


if __name__ == "__main__":
    run()
