"""Hot numeric kernels.

The Monte Carlo loops (bucket statistics over random subgraphs), the edit
distance DP, the alternating-labeling DP, and the circular-interval scan
dominate the runtime of the test suites.  Each kernel has one
implementation: numpy array code, except the edit distance, a bit-parallel
DP over Python ints.  All randomness is drawn by the callers, outside the
kernels.  ``paritylab.benchmarks`` times every kernel.
"""

from __future__ import annotations

import numpy as np

_INF = np.int64(1) << 40

# Always False: there is no compiled kernel path.  Kept only because
# perfbench records it in its environment line.
USE_NUMBA = False

__all__ = [
    "bucket_labels",
    "bucket_sums",
    "levenshtein",
    "alternating_fit_tables",
    "interval_scan",
]


# ---------------------------------------------------------------------------
# bucket labels / sums: connected components of a random subgraph
# of the path or cycle, and sums of vertex values over those components.
# ---------------------------------------------------------------------------

def bucket_labels(keep: np.ndarray, n: int, cycle: bool) -> np.ndarray:
    """Component label of every vertex, one row per trial.

    ``keep[t, j]`` says whether edge j (between vertices j and j+1) is
    present in trial t.  Labels are consecutive along the path, 0..k-1; on
    the cycle the last component is relabeled 0 when the wrap edge is
    present.
    """
    keep = np.asarray(keep, dtype=np.bool_)
    trials = keep.shape[0]
    labels = np.zeros((trials, n), dtype=np.int64)
    if n > 1:
        breaks = ~keep[:, : n - 1]
        np.cumsum(breaks, axis=1, out=labels[:, 1:])
    if cycle and n > 1:
        # a kept wrap edge joins the last component to component 0
        joined = np.where(keep[:, n - 1], labels[:, -1], -1)
        labels *= labels != joined[:, None]
    return labels


def bucket_sums(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-trial sums of `values` over buckets, as float64 of shape (trials, n).

    ``out[t, b]`` is the sum of ``values[t, v]`` over the vertices v with
    ``labels[t, v] == b``; `values` has the shape of `labels`.  Entries past
    the last bucket are 0.
    """
    trials, n = labels.shape
    # row t's buckets go to slots t*n.. of one flat bincount; row 0 needs no offset
    flat = labels if trials == 1 else labels + (np.arange(trials, dtype=np.int64)[:, None] * n)
    # bincount copies weights that are not writeable float64, so convert once here
    weights = np.asarray(values, dtype=np.float64).ravel()
    sums = np.bincount(flat.ravel(), weights=weights, minlength=trials * n)
    return sums.reshape(trials, n)


# ---------------------------------------------------------------------------
# unit-cost edit distance (insert / delete / substitute)
# ---------------------------------------------------------------------------

def levenshtein(a: np.ndarray, b: np.ndarray) -> int:
    """Unit-cost edit distance between two 0/1 arrays, bit-parallel.

    Myers' recurrence (J. ACM 46(3), 1999) in Hyyro's global-distance form
    (2003).  The shorter string is the pattern of m bits; one Python int
    holds a whole DP column as the +1 (`pv`) and -1 (`mv`) vertical deltas,
    and each character of the longer string advances the column with a
    dozen big-int operations.  `score` follows the bottom cell.  Only bits
    below m matter and nothing carries downward, so spare high bits in `xh`
    and `ph` are harmless; `pv` is masked to m bits to keep the ints short,
    and `mv` stays inside `xv`.  Plain ``full ^ x`` stands in for ``~x``
    because negative ints are slow.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.size < b.size:
        a, b = b, a
    m = b.size
    if m == 0:
        return int(a.size)
    one = int.from_bytes(np.packbits(b, bitorder="little").tobytes(), "little")
    full = (1 << m) - 1
    peq = (full ^ one, one)  # pattern positions holding 0, holding 1
    top = m - 1
    pv, mv, score = full, 0, m
    for c in a.tobytes():
        eq = peq[c]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (full ^ (xh | pv))
        mh = pv & xh
        score += (ph >> top & 1) - (mh >> top & 1)
        ph = (ph << 1) | 1  # global distance: the top row grows by one per column
        pv = ((mh << 1) | (full ^ (xv | ph))) & full
        mv = ph & xv
    return score

# ---------------------------------------------------------------------------
# best <= k-alternating labeling of a bit sequence (min disagreements)
# ---------------------------------------------------------------------------

def alternating_fit_tables(bits: np.ndarray, k: int):
    """DP over (flips used, current label); returns (final dp, choice tensor).

    dp[j, v] is the fewest disagreements of a labeling of all points with
    exactly j flips and last label v.  choice[j, v, i] is True when the best
    path entering point i in state (j, v) came by a flip from (j-1, 1-v);
    ties keep the label.

    Bellman's segmentation DP (CACM 4(6), 1961) in min-plus prefix form:
    with C_v(i) the count of the first i points that disagree with v and
    S_j[v][i] the best cost of i points in state (j, v), T = S_j[v] - C_v
    obeys T[i+1] = min(T[i], S_{j-1}[1-v][i] - C_v(i)).  So each flip count
    is one running minimum over both labels, a flip is taken where it drops,
    and two layers are held.  Layers j > m need more flips than points: they
    stay at _INF with no flips, so at most min(k, m) passes run.
    """
    bits = np.asarray(bits, dtype=np.int64)
    m = bits.size
    cost = np.zeros((2, m + 1), dtype=np.int64)  # C_v(i)
    np.cumsum(bits != 0, out=cost[0, 1:])
    np.cumsum(bits != 1, out=cost[1, 1:])
    # S_{j-1}[1-v][i] - C_v(i) = T_{j-1}[1-v][i] + (C_{1-v}(i) - C_v(i))
    shift = cost[::-1, :m] - cost[:, :m]
    dp = np.full((k + 1, 2), _INF, dtype=np.int64)
    choice = np.zeros((k + 1, 2, m), dtype=np.bool_)
    dp[0] = cost[:, m]
    prev = np.zeros((2, m + 1), dtype=np.int64)  # T_0
    cur = np.empty_like(prev)
    for j in range(1, min(k, m) + 1):
        cur[:, 0] = _INF  # T_j[v][0] = S_j[v][0]: no flip before the first point
        np.add(prev[::-1, :m], shift, out=cur[:, 1:])
        np.minimum.accumulate(cur, axis=1, out=cur)
        np.less(cur[:, 1:], cur[:, :m], out=choice[j])
        dp[j] = cur[:, m] + cost[:, m]
        prev, cur = cur, prev
    return dp, choice


# ---------------------------------------------------------------------------
# circular interval scan for relative concentration
# ---------------------------------------------------------------------------

def interval_scan(p: np.ndarray, q: np.ndarray, t: float, cycle: bool):
    """Scan all circular intervals of size 1..n.

    Returns (gamma, i*, d*, wp, wi, wd): the maximum of p[I]/max(q[I*], t)
    with its argmax, and the interval maximizing p[I] among those with
    q[I*] <= t (the witness candidate).
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n = len(p)
    pc = np.concatenate(([0.0], np.cumsum(np.concatenate((p, p)))))
    qc = np.concatenate(([0.0], np.cumsum(np.concatenate((q, q)))))
    i = np.arange(n)[:, None]
    d = np.arange(1, n + 1)[None, :]
    psum = pc[i + d] - pc[i]
    qsum = qc[np.maximum(i + d - 1, i)] - qc[i]
    if not cycle:
        valid = (i + d - 1) <= (n - 1)
    else:
        valid = np.ones_like(psum, dtype=bool)
    ratio = np.where(valid, psum / np.maximum(qsum, t), -np.inf)
    flat = np.argmax(ratio)
    gi, gd = divmod(flat, n)
    gamma = ratio[gi, gd]
    ok = valid & (qsum <= t)
    wcand = np.where(ok, psum, -np.inf)
    flatw = np.argmax(wcand)
    wi, wd = divmod(flatw, n)
    wp = wcand[wi, wd]
    return float(gamma), int(gi), int(gd) + 1, float(wp), int(wi), int(wd) + 1
