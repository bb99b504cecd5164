"""Independent references for the benchmark's output checks.

Nothing here calls paritylab: the edit-distance and block-distance values
come from plain dynamic programs written out cell by cell, and the
deletion-pipeline checks read the strings directly.
"""

from __future__ import annotations

import numpy as np


def levenshtein(a: str, b: str) -> int:
    """Unit-cost insert/delete/substitute distance by the textbook row DP."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        left = i
        for j, cb in enumerate(b, 1):
            left = min(prev[j] + 1, left + 1, prev[j - 1] + (ca != cb))
            cur.append(left)
        prev = cur
    return prev[-1]


def min_alternating_errors(bits: str, k: int) -> int:
    """Fewest characters to relabel so that `bits` has at most k label changes.

    dp[j][v] is the best cost of the prefix read so far, ending in label v
    after j changes; this is the edit distance to the nearest string of at
    most k + 1 blocks and the same length.
    """
    inf = len(bits) + 1
    dp = [[0, 0]] + [[inf, inf] for _ in range(k)]
    for ch in bits:
        b = 1 if ch == "1" else 0
        new = []
        for j in range(k + 1):
            stay0, stay1 = dp[j]
            if j:
                stay0 = min(stay0, dp[j - 1][1])
                stay1 = min(stay1, dp[j - 1][0])
            new.append([stay0 + (b != 0), stay1 + (b != 1)])
        dp = new
    return min(min(row) for row in dp)


def psi_string(counts) -> str:
    """1^c0 0^c1 1^c2 ...: the binary string of a count vector."""
    return "".join(("1" if i % 2 == 0 else "0") * int(c) for i, c in enumerate(counts))


def runs(s: str) -> tuple[np.ndarray, np.ndarray]:
    """(symbols, lengths) of the maximal runs of `s`."""
    if not s:
        return np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64)
    a = np.frombuffer(s.encode("ascii"), dtype=np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(a[1:] != a[:-1]) + 1))
    return a[starts], np.diff(np.concatenate((starts, [a.size])))


def is_subsequence(t: str, x: str) -> bool:
    """Greedy run-by-run match of `t` against the positions of each symbol in `x`."""
    if not t:
        return True
    a = np.frombuffer(x.encode("ascii"), dtype=np.uint8)
    where = {ord("0"): np.flatnonzero(a == ord("0")), ord("1"): np.flatnonzero(a == ord("1"))}
    pos = -1
    for sym, length in zip(*runs(t)):
        occ = where.get(int(sym))
        if occ is None:
            return False
        k = int(np.searchsorted(occ, pos, side="right"))
        if k + length > occ.size:
            return False
        pos = int(occ[k + length - 1])
    return True


def upsampled_runs_ok(trace: str, out: str) -> bool:
    """`out` keeps the run symbols of `trace`, with no run shorter than before."""
    s_in, l_in = runs(trace)
    s_out, l_out = runs(out)
    return s_in.size == s_out.size and bool(np.all(s_in == s_out) and np.all(l_out >= l_in))
