"""Best-of-k wall time of every kernel in ``paritylab._kernels``, of
one `estimate_acceptance` grid point per tester, and of one pass through
the deletion pipeline.

Run as ``python -m paritylab.benchmarks`` or ``paritylab bench``.  Each
row shows one time, beside the shape of the case it ran.  `levenshtein`
has two exact paths and picks one from the input: its random-string row
runs the bit-parallel DP, and its psi row (two distributions on 28 and
22 values at N=16384, the desk_large shape of `dist_edit_bounds`) the DP
over pairs of runs.  `alternating_fit_tables` runs over the runs of a
noisy 64-block string, as `dist_to_nblock` does on desk_large, and
`interval_scan` runs at n=512, the desk_large shape, in several row
blocks.  The tester rows run 30 trials of the uniform instance at the acceptance
suite's shapes.  The two pipeline rows run `deletion_trace` then
`poissonize`, which take a pure-Python path below `deletion._SHORT_TRACE`
characters and numpy at or above it: one row on a uniform 64-block string
of 65536 characters, the other on acceptance criterion 10's five strings
of 1-16 characters, 200 traces each with its tuple seeds.
"""

from __future__ import annotations

import time

import numpy as np

from . import _kernels
from .core import SampleMultiset, parity_trace, parse_bits
from .deletion import deletion_trace, poissonize, uniform_block_string
from .harness import ExperimentSpec, estimate_acceptance
from .rng import generator


def _time(fn, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _deletion_pipeline(x: str, rho: float, seed: int) -> str:
    return poissonize(deletion_trace(x, rho, seed), rho, seed + 1)


# acceptance criterion 10's strings
_SHORT_STRINGS = ("110010", "1", "000111", "1010101010101010", "0110")


def _short_pipelines(rho: float, traces: int) -> None:
    for si, x in enumerate(_SHORT_STRINGS):
        for t in range(traces):
            poissonize(deletion_trace(x, rho, (10010, si, t)), rho, (10011, si, t))


def _cases():
    """(name, shape, function, arguments) of every timed case."""
    rng = generator(1234)
    n = 256
    trials = 4000
    keep = rng.random((trials, n)) < 0.5
    values = rng.poisson(4.0, size=(trials, n)).astype(np.float64)
    shape = f"trials={trials} n={n}"
    yield "bucket_labels", shape, _kernels.bucket_labels, (keep, n, True)
    labels = _kernels.bucket_labels(keep, n, True)
    yield "bucket_sums", shape, _kernels.bucket_sums, (values, labels)

    a = (rng.random(4096) < 0.5).astype(np.uint8)
    b = a.copy()
    flips = rng.choice(4096, size=200, replace=False)
    b[flips] ^= 1
    yield "levenshtein", "random N=M=4096", _kernels.levenshtein, (a, b)
    # psi strings of two distributions on 28 and 22 values: one run per value
    n, psi_rng = 16384, generator(16384)
    a, b = (parse_bits(parity_trace(SampleMultiset(psi_rng.multinomial(n, np.full(k, 1 / k)))))
            for k in (28, 22))
    yield "levenshtein", f"psi N=M={n} K=28,22", _kernels.levenshtein, (a, b)

    # the call behind dist_to_nblock and the trace testers: a 64-block string with 5% of
    # its bits flipped, over its runs, the flip count capped at runs - 1
    bits = parse_bits(uniform_block_string(n, 64)) ^ (rng.random(n) < 0.05)
    values, lengths = _kernels.bit_runs(bits)
    k = min(63, values.size - 1)
    yield "alternating_fit_tables", f"N={n} k={k} runs={values.size}", \
        _kernels.alternating_fit_tables, (values, k, lengths)

    # the desk_large shape of relative_concentration: several row blocks
    p = rng.random(512)
    p /= p.sum()
    q = rng.random(512)
    q /= 2 * q.sum()
    yield "interval_scan", "n=512", _kernels.interval_scan, (p, q, 1e-3, True)

    trials = 30
    for tester, point in (("cc", {"n": 256, "epsilon": 0.3, "eta": 0.5}),
                          ("pt_large", {"n": 256, "epsilon": 0.3}),
                          ("pt_small", {"n": 32, "epsilon": 0.05})):
        spec = ExperimentSpec(tester, [point], trials, 1234)
        yield f"estimate {tester}", f"n={point['n']} trials={trials}", estimate_acceptance, \
            (spec,)

    yield "deletion pipeline", "N=65536 blocks=64 rho=0.5", _deletion_pipeline, \
        (uniform_block_string(65536, 64), 0.5, 1234)
    yield "deletion pipeline", "5 strings N=1-16 x200", _short_pipelines, (0.5, 200)


def run(repeats: int = 3) -> None:
    header = f"{'kernel':<24}{'shape':<28}{'best (ms)':>12}"
    print(header)
    print("-" * len(header))
    for name, shape, fn, args in _cases():
        best = _time(fn, *args, repeats=repeats)
        print(f"{name:<24}{shape:<28}{best * 1e3:>12.3f}")


if __name__ == "__main__":
    run()
