"""Timings of the numba kernels against their pure-numpy twins.

Run as ``python -m paritylab.benchmarks`` or ``paritylab bench``.  When
numba is disabled (PARITYLAB_NO_NUMBA=1) only the numpy path exists and
the comparison is skipped.  The edit distance has one implementation,
so its row always shows a single time.
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
    print(f"numba active: {_kernels.USE_NUMBA}")
    header = f"{'kernel':<24}{'numpy (s)':>12}{'numba (s)':>12}{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name, args in _cases():
        np_fn, nb_fn = _kernels.IMPLEMENTATIONS[name]
        t_np = _time(np_fn, *args, repeats=repeats)
        if nb_fn is None or nb_fn is np_fn:
            print(f"{name:<24}{t_np:>12.4f}{'-':>12}{'-':>10}")
            continue
        nb_fn(*args)  # compile outside the timed region
        t_nb = _time(nb_fn, *args, repeats=repeats)
        print(f"{name:<24}{t_np:>12.4f}{t_nb:>12.4f}{t_np / t_nb:>10.1f}x")


if __name__ == "__main__":
    run()
