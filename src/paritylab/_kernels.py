"""Hot numeric kernels.

The Monte Carlo loops (bucket statistics over random subgraphs), the edit
distance DP, the alternating-labeling DP, and the circular-interval scan
dominate the runtime of the test suites.

The edit distance has one implementation: a bit-parallel DP over Python
ints, with no numba or numpy variant.  The other kernels are implemented
twice, a plain numpy version and a numba ``@njit`` version compiled from
the same logic, and their active path is chosen at import time:

* ``PARITYLAB_NO_NUMBA=1`` in the environment forces the numpy path;
* otherwise numba is used when importable.

``paritylab.benchmarks`` times the two paths against each other.
"""

from __future__ import annotations

import os

import numpy as np

_INF = np.int64(1) << 40

USE_NUMBA = os.environ.get("PARITYLAB_NO_NUMBA", "").strip() not in ("1", "true", "yes")
if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        USE_NUMBA = False

__all__ = [
    "USE_NUMBA",
    "IMPLEMENTATIONS",
    "bucket_labels",
    "bucket_moments",
    "levenshtein",
    "alternating_fit_tables",
    "interval_scan",
]


# ---------------------------------------------------------------------------
# bucket labels / moments: connected components of a random subgraph of the
# path or cycle, and power sums of vertex values over those components.
# ---------------------------------------------------------------------------

def _bucket_labels_np(keep: np.ndarray, n: int, cycle: bool) -> np.ndarray:
    """Component label of every vertex, one row per trial.

    ``keep[t, j]`` says whether edge j (between vertices j and j+1) is
    present in trial t.  Labels are consecutive along the path; on the
    cycle the last component is relabeled 0 when the wrap edge is present.
    """
    trials = keep.shape[0]
    labels = np.zeros((trials, n), dtype=np.int64)
    if n > 1:
        breaks = ~keep[:, : n - 1]
        np.cumsum(breaks, axis=1, out=labels[:, 1:])
    if cycle and n > 1:
        last = labels[:, -1]
        wrap = keep[:, n - 1] & (last > 0)
        merge = wrap[:, None] & (labels == last[:, None])
        labels[merge] = 0
    return labels


def _bucket_moments_np(values: np.ndarray, keep: np.ndarray, cycle: bool) -> np.ndarray:
    """Per-trial [sum s^2, sum s^3, max s] over component sums s of `values`."""
    trials, n = values.shape
    labels = _bucket_labels_np(keep, n, cycle)
    flat = labels + (np.arange(trials, dtype=np.int64)[:, None] * n)
    sums = np.bincount(flat.ravel(), weights=values.ravel(), minlength=trials * n)
    sums = sums.reshape(trials, n)
    out = np.empty((trials, 3), dtype=np.float64)
    out[:, 0] = np.sum(sums * sums, axis=1)
    out[:, 1] = np.sum(sums * sums * sums, axis=1)
    out[:, 2] = np.max(sums, axis=1)
    return out


def _make_bucket_kernels_nb():
    @njit(cache=True)
    def _bucket_labels_nb(keep, n, cycle):  # pragma: no cover - compiled
        trials = keep.shape[0]
        labels = np.zeros((trials, n), dtype=np.int64)
        for t in range(trials):
            lab = 0
            for v in range(1, n):
                if not keep[t, v - 1]:
                    lab += 1
                labels[t, v] = lab
            if cycle and lab > 0 and keep[t, n - 1]:
                for v in range(n - 1, -1, -1):
                    if labels[t, v] != lab:
                        break
                    labels[t, v] = 0
        return labels

    @njit(cache=True)
    def _bucket_moments_nb(values, keep, cycle):  # pragma: no cover - compiled
        trials, n = values.shape
        out = np.empty((trials, 3), dtype=np.float64)
        for t in range(trials):
            s2 = 0.0
            s3 = 0.0
            mx = 0.0
            first = values[t, 0]
            cur = first
            first_open = True
            for v in range(1, n):
                if keep[t, v - 1]:
                    cur += values[t, v]
                else:
                    if first_open:
                        first = cur
                        first_open = False
                    else:
                        s2 += cur * cur
                        s3 += cur * cur * cur
                        if cur > mx:
                            mx = cur
                    cur = values[t, v]
            # close the walk: cur is the last open component
            if first_open:
                # no break at all: one component
                first = cur
                s2 = first * first
                s3 = first * first * first
                mx = first
            else:
                if cycle and keep[t, n - 1]:
                    first = first + cur
                else:
                    s2 += cur * cur
                    s3 += cur * cur * cur
                    if cur > mx:
                        mx = cur
                s2 += first * first
                s3 += first * first * first
                if first > mx:
                    mx = first
            out[t, 0] = s2
            out[t, 1] = s3
            out[t, 2] = mx
        return out

    return _bucket_labels_nb, _bucket_moments_nb


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

def _alternating_fit_tables_np(bits: np.ndarray, k: int):
    """DP over (cuts used, current label); returns (final dp, choice tensor).

    choice[i, j, v] == 1 when the optimal path entering point i in state
    (j, v) arrived via a label flip from (j-1, 1-v).
    """
    m = len(bits)
    dp = np.full((k + 1, 2), _INF, dtype=np.int64)
    dp[0, :] = 0
    choice = np.zeros((m, k + 1, 2), dtype=np.uint8)
    flip = np.full((k + 1, 2), _INF, dtype=np.int64)
    for i in range(m):
        flip[0, :] = _INF
        flip[1:, 0] = dp[:-1, 1]
        flip[1:, 1] = dp[:-1, 0]
        use_flip = flip < dp
        choice[i] = use_flip
        dp = np.where(use_flip, flip, dp)
        b = bits[i]
        dp[:, 0] += 1 if b != 0 else 0
        dp[:, 1] += 1 if b != 1 else 0
    return dp, choice


def _make_alternating_fit_nb():
    @njit(cache=True)
    def _alternating_fit_tables_nb(bits, k):  # pragma: no cover - compiled
        m = len(bits)
        dp = np.full((k + 1, 2), _INF, dtype=np.int64)
        dp[0, 0] = 0
        dp[0, 1] = 0
        choice = np.zeros((m, k + 1, 2), dtype=np.uint8)
        for i in range(m):
            b = bits[i]
            # descending j: dp[j-1] still holds the previous point's values
            for j in range(k, -1, -1):
                for v in range(2):
                    best = dp[j, v]
                    if j > 0:
                        f = dp[j - 1, 1 - v]
                        if f < best:
                            best = f
                            choice[i, j, v] = 1
                    cost = 0 if b == v else 1
                    dp[j, v] = best + cost
        return dp, choice

    return _alternating_fit_tables_nb


# ---------------------------------------------------------------------------
# circular interval scan for relative concentration
# ---------------------------------------------------------------------------

def _interval_scan_np(p: np.ndarray, q: np.ndarray, t: float, cycle: bool):
    """Scan all circular intervals of size 1..n.

    Returns (gamma, i*, d*, wp, wi, wd): the maximum of p[I]/max(q[I*], t)
    with its argmax, and the interval maximizing p[I] among those with
    q[I*] <= t (the witness candidate).
    """
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


def _make_interval_scan_nb():
    @njit(cache=True)
    def _interval_scan_nb(p, q, t, cycle):  # pragma: no cover - compiled
        n = len(p)
        gamma = -np.inf
        gi = 0
        gd = 1
        wp = -np.inf
        wi = 0
        wd = 1
        for i in range(n):
            psum = 0.0
            qsum = 0.0
            dmax = n if cycle else n - i
            for d in range(1, dmax + 1):
                psum += p[(i + d - 1) % n]
                if d >= 2:
                    qsum += q[(i + d - 2) % n]
                denom = qsum if qsum > t else t
                r = psum / denom
                if r > gamma:
                    gamma = r
                    gi = i
                    gd = d
                if qsum <= t and psum > wp:
                    wp = psum
                    wi = i
                    wd = d
        return gamma, gi, gd, wp, wi, wd

    return _interval_scan_nb


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

if USE_NUMBA:
    _bucket_labels_active, _bucket_moments_active = _make_bucket_kernels_nb()
    _alternating_fit_active = _make_alternating_fit_nb()
    _interval_scan_active = _make_interval_scan_nb()
else:
    _bucket_labels_active = _bucket_labels_np
    _bucket_moments_active = _bucket_moments_np
    _alternating_fit_active = _alternating_fit_tables_np
    _interval_scan_active = _interval_scan_np


def bucket_labels(keep: np.ndarray, n: int, cycle: bool) -> np.ndarray:
    keep = np.ascontiguousarray(keep, dtype=np.bool_)
    return _bucket_labels_active(keep, n, cycle)


def bucket_moments(values: np.ndarray, keep: np.ndarray, cycle: bool) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=np.float64)
    keep = np.ascontiguousarray(keep, dtype=np.bool_)
    return _bucket_moments_active(values, keep, cycle)


def alternating_fit_tables(bits: np.ndarray, k: int):
    bits = np.ascontiguousarray(bits, dtype=np.int64)
    return _alternating_fit_active(bits, k)


def interval_scan(p: np.ndarray, q: np.ndarray, t: float, cycle: bool):
    p = np.ascontiguousarray(p, dtype=np.float64)
    q = np.ascontiguousarray(q, dtype=np.float64)
    return _interval_scan_active(p, q, float(t), bool(cycle))


IMPLEMENTATIONS = {
    "bucket_labels": (_bucket_labels_np, _bucket_labels_active if USE_NUMBA else None),
    "bucket_moments": (_bucket_moments_np, _bucket_moments_active if USE_NUMBA else None),
    "levenshtein": (levenshtein, None),
    "alternating_fit_tables": (
        _alternating_fit_tables_np,
        _alternating_fit_active if USE_NUMBA else None,
    ),
    "interval_scan": (_interval_scan_np, _interval_scan_active if USE_NUMBA else None),
}
