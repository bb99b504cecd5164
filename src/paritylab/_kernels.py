"""Hot numeric kernels.

The Monte Carlo loops (bucket statistics over random subgraphs), the edit
distance DP, the alternating-labeling DP, and the circular-interval scan
dominate the runtime of the test suites.  Each kernel has one
implementation in numpy, except the edit distance, which has two exact
paths: a bit-parallel DP over Python ints, and a DP over pairs of runs
that wins on block strings of few long runs (at N=16384, below about 64
runs per string; at N=1024, below about 8).  `levenshtein` picks one by a
cost rule on the lengths and run counts.  `bit_runs` is the one run
extractor.  `interval_scan` reads an (n, n) table of interval masses as
sliding windows of prefix sums; from n=320 on it bounds wide bands of
interval lengths once over the whole table, halves only the bands whose
bound reaches an exact floor, and reads the narrow ones left, which saves
as much as the masses let bands fall below the floor (the join matrix and
its O(n) product behind the conjugate residual live in `collector`, as
direct products of keeps).  All randomness is drawn by
the callers, outside the kernels.  ``perfbench/run.py`` times them in their
callers: the DPs in the edit oracles, the scan in the conjugate oracles, and
`bucket_moments` in every cc trial and pt_large chunk with an empty slot.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

_INF = np.int64(1) << 40
_LABELS = np.array([[0], [1]])  # both labels as a column, against a row of run values
# cells of each block `interval_scan` reads, of whole rows or of live bands: its
# four arrays take 25 bytes a cell, 400 KB in all, so a block stays in a 2 MB L2
# cache; 2^14 and 2^15 scanned n=512 fastest on a 2-vCPU Xeon
_SCAN_CELLS = 1 << 14
# band widths of `interval_scan` when it prunes: the first level bounds bands of
# _BAND lengths, and the live ones are halved down to the _LEAF lengths it reads.
# _BAND is timed at n=512, the size perfbench prunes at (desk_large): on its random
# masses (4 sets of 3 inputs, 12 alternating pairs each, 2-vCPU Xeon) 32 took 0.69-
# 0.85 of the time of 64 (set medians), and was faster in 47 of the 48 pairs.
# n >= 1024 is not a workload; there 32 took 0.8-0.9 of the time of 64 at n=1024
# and 1.2 times as long at n=2048.
_BAND, _LEAF = 32, 8
_LEAF_COLS = np.arange(_LEAF)
# the smallest n where `interval_scan` prunes: on random masses (16 per size and
# graph, 2-vCPU Xeon) the pruned scan beat the whole table on 10 of 16 cycles at
# n=256 and 13 at n=288, and on at least 15 of 16 of either graph from 320 to 512
_PRUNE_FROM = 320

# Always False: there is no compiled kernel path.  Kept only because
# perfbench records it in its environment line.
USE_NUMBA = False

__all__ = [
    "bucket_labels",
    "bucket_sums",
    "bucket_moments",
    "bit_runs",
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


def bucket_moments(ends: np.ndarray, joined: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """(top, pairs) of every row, as int64: its largest bucket sum, and the sum
    of s(s-1) over its bucket sums s, read from the values one block at a time.

    Row r of the (rows, n) bool `ends` marks the vertices that close a run of
    row r: each vertex whose edge to the next is missing, and vertex n-1.  The
    runs are the buckets, except that the first and the last run of a row with
    `joined[r]` (its wrap edge survives) are one.  `blocks` yields the int64
    values of the rows*n vertices in C order, as consecutive arrays of any
    sizes, and each is overwritten.  A run's sum is the difference of its
    block's cumulative sums at its ends, plus what the run held at the end of
    the block before; a joined row's first run waits in `held` and is added to
    its last.  Beside the per-row arrays, nothing larger than a block is made.
    """
    rows, n = ends.shape
    flat = ends.reshape(-1)
    top, pairs, held = (np.zeros(rows, dtype=np.int64) for _ in range(3))
    any_joined = bool(joined.any())
    start, carry, opened = 0, 0, True  # opened: the next end is the first of its row
    for block in blocks:
        block = block.reshape(-1)
        stop = start + block.size
        at = np.flatnonzero(flat[start:stop])
        np.cumsum(block, out=block)
        if not at.size:
            carry += int(block[-1])
            start = stop
            continue
        cum = block[at]
        sums = np.empty_like(cum)
        sums[0] = cum[0] + carry
        np.subtract(cum[1:], cum[:-1], out=sums[1:])
        carry = int(block[-1] - cum[-1])
        # rows r0, r0+1, ... hold the ends: each row's ends run from a head to its
        # close at vertex n-1, and the block may end inside the last row
        r0 = (start + int(at[0])) // n
        closes = np.searchsorted(at, np.arange((r0 + 1) * n - 1 - start, stop - start, n))
        heads = np.concatenate(([0], closes + 1))
        if heads[-1] == at.size:
            heads = heads[:-1]
        here = slice(r0, r0 + heads.size)
        if any_joined:
            # a joined row of one run holds it back and adds it again: the same run
            first = joined[here].copy()
            first[0] &= opened
            held[here][first] = sums[heads[first]]
            sums[heads[first]] = 0
            last = joined[r0 : r0 + closes.size]
            sums[closes[last]] += held[r0 : r0 + closes.size][last]
        opened = closes.size == heads.size
        np.maximum(top[here], np.maximum.reduceat(sums, heads), out=top[here])
        pairs[here] += np.add.reduceat(sums * (sums - 1), heads)
        start = stop
    return top, pairs


# ---------------------------------------------------------------------------
# maximal runs of a 0/1 array
# ---------------------------------------------------------------------------

def bit_runs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, lengths) of the maximal constant runs of `bits`, left to right."""
    bits = np.asarray(bits)
    n = bits.size
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    bounds = np.empty(n + 1, dtype=np.bool_)
    bounds[0] = bounds[n] = True
    np.not_equal(bits[1:], bits[:-1], out=bounds[1:n])
    at = np.flatnonzero(bounds)  # the first index of every run, then n
    return bits[at[:-1]].astype(np.int64), at[1:] - at[:-1]


# ---------------------------------------------------------------------------
# unit-cost edit distance (insert / delete / substitute)
# ---------------------------------------------------------------------------

# Cost model of the two edit-distance paths, in nanoseconds, fitted to
# best-of-3 timings on a 2-vCPU VM (Python 3.11, numpy 2.4) over block
# strings of N in {256, ..., 16384} characters and K in {2, ..., 128} runs.
# Bit-parallel: per character of the longer string, a fixed cost plus one per
# 64-bit word of the shorter.  Runs: per pair of runs, a fixed cost plus one
# per boundary cell of the pair's rectangle.
_BIT_CHAR_NS, _BIT_WORD_NS = 900, 23
_RUN_PAIR_NS, _RUN_CELL_NS = 12_000, 20


def levenshtein(a: np.ndarray, b: np.ndarray) -> int:
    """Unit-cost edit distance between two 0/1 arrays.

    Two exact paths: the bit-parallel DP over characters, and a DP over
    pairs of runs.  The cost model above picks the cheaper from the lengths
    and run counts alone.  Strings whose bit-parallel cost is under 0.1 ms
    skip counting runs; random strings (runs of about two characters) stay
    bit-parallel, and block strings with few long runs, such as the psi
    strings of distributions with a few dozen values, take the run path.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.size < b.size:
        a, b = b, a
    if b.size == 0:
        return int(a.size)
    bit_ns = a.size * (_BIT_CHAR_NS + _BIT_WORD_NS * -(-b.size // 64))
    if bit_ns > 100_000:
        ka = 1 + np.count_nonzero(a[1:] != a[:-1])
        kb = 1 + np.count_nonzero(b[1:] != b[:-1])
        run_ns = _RUN_PAIR_NS * ka * kb + _RUN_CELL_NS * (ka * b.size + kb * a.size)
        if run_ns < bit_ns:
            return _levenshtein_runs(*(x.tolist() for x in bit_runs(a) + bit_runs(b)))
    return _levenshtein_bits(a, b)


def _levenshtein_bits(a: np.ndarray, b: np.ndarray) -> int:
    """Bit-parallel edit distance; `b` is the shorter, non-empty string.

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
    m = b.size
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


def _window_min(x: np.ndarray, s: int) -> np.ndarray:
    """out[i] = min(x[max(0, i - s + 1) : i + 1]), the minimum of the last s values.

    van Herk (1992) / Gil & Werman (1993): in blocks of s, the prefix minimum
    of the block holding i joined with the suffix minimum of the block before.
    """
    out = np.minimum.accumulate(x[:s])
    if s >= x.size:
        return out
    out = np.concatenate((out, np.empty(x.size - s, dtype=x.dtype)))
    for start in range(s, x.size, s):
        stop = min(start + s, x.size)
        np.minimum.accumulate(x[start:stop], out=out[start:stop])
        # tail[u] = min(x[start - s + 1 + u : start]), the window's part in the block before
        tail = np.minimum.accumulate(x[start - s + 1:start][::-1])[::-1]
        head = min(stop - start, s - 1)
        np.minimum(out[start:start + head], tail[:head], out=out[start:start + head])
    return out


def _cone(out: np.ndarray, suffix: np.ndarray, ramp: np.ndarray) -> None:
    """out[i] = min(out[i], i + suffix[min(i, len(suffix) - 1)]), in place."""
    k = min(out.size, suffix.size)
    np.minimum(out[:k], ramp[:k] + suffix[:k], out=out[:k])
    if out.size > k:
        np.minimum(out[k:], ramp[k:out.size] + suffix[-1], out=out[k:])


def _levenshtein_runs(a_values, a_lengths, b_values, b_lengths) -> int:
    """Edit distance of two run-length encoded strings, exact.

    The DP table splits into one rectangle per pair of runs (Arbell, Landau
    & Mitchell, IPL 83(6), 2002).  A rectangle's bottom row and right column
    follow from its top row T and left column L, which share the corner:

    * same symbol: every cell equals its diagonal predecessor, so the
      outputs are T and L read along diagonals;
    * different symbols: every step inside costs 1, so a cell is the least
      boundary value plus the Chebyshev distance to it.  DP rows and columns
      are 1-Lipschitz, which leaves, for a rectangle of h rows and w
      columns, bottom[b] = min(h + min T[b-h..b], b + min L[h-b..h]) and
      right[a] = min(w + min L[a-w..a], a + min T[w-a..w]): a sliding-window
      minimum and a suffix minimum per side.

    Work is O(K_a K_b) numpy calls over O(K_a M + K_b N) cells, for K_a, K_b
    runs of lengths N, M.  Rows of rectangles sweep the runs of `a`; `row`
    holds the DP row at the bottom of the last one.
    """
    n, m = sum(a_lengths), sum(b_lengths)
    ramp = np.arange(max(n, m) + 1, dtype=np.int64)
    row = ramp[:m + 1]
    i0 = 0
    for sym_a, h in zip(a_values, a_lengths):
        left = ramp[i0:i0 + h + 1]  # column 0: i deletions
        below = np.empty(m + 1, dtype=np.int64)
        below[0] = i0 + h
        j0 = 0
        for sym_b, w in zip(b_values, b_lengths):
            top = row[j0:j0 + w + 1]
            bottom = below[j0:j0 + w + 1]  # bottom[0] is already set
            if sym_a == sym_b:
                # diagonals: bottom[b] = left[h-b] or top[b-h]; right[a] = top[w-a] or left[a-w]
                if w <= h:
                    bottom[1:] = left[h - w:h][::-1]
                    right = np.concatenate((top[::-1], left[1:h - w + 1]))
                else:
                    bottom[1:h + 1] = left[:h][::-1]
                    bottom[h + 1:] = top[1:w - h + 1]
                    right = top[w - h:][::-1]
            else:
                suffix_left = np.minimum.accumulate(left[::-1])  # min(left[h-t:])
                suffix_top = np.minimum.accumulate(top[::-1])  # min(top[w-t:])
                out = _window_min(top, h + 1)
                out += h
                _cone(out, suffix_left, ramp)
                bottom[1:] = out[1:]
                right = _window_min(left, w + 1)
                right += w
                _cone(right, suffix_top, ramp)
            left = right
            j0 += w
        row = below
        i0 += h
    return int(row[m])


# ---------------------------------------------------------------------------
# best <= k-alternating labeling of a run sequence (min disagreements)
# ---------------------------------------------------------------------------

def alternating_fit_tables(values: np.ndarray, k: int, lengths: np.ndarray | None = None,
                           backtrack: bool = True):
    """DP over (flips used, current label); returns (final dp, choice tensor).

    Run r holds lengths[r] points, all of symbol values[r]; without
    `lengths` every run is one point.  A labeling is constant on each run:
    an optimal one never cuts inside a run, so callers pass the maximal runs
    of a bit sequence (`bit_runs`) and at most (runs - 1) flips.  dp[j, v] is
    the fewest disagreements of a labeling of all runs with exactly j flips
    and last label v.  choice[j, v, r] is True when the best path entering
    run r in state (j, v) came by a flip from (j-1, 1-v); ties keep the label.
    Only a backtrack reads it: with backtrack=False it is not filled, and
    None stands in its place.

    Bellman's segmentation DP (CACM 4(6), 1961) in min-plus prefix form:
    with C_v(r) the points of the first r runs that disagree with v and
    S_j[v][r] the best cost of r runs in state (j, v), T = S_j[v] - C_v
    obeys T[r+1] = min(T[r], S_{j-1}[1-v][r] - C_v(r)).  So each flip count
    is one running minimum over both labels, a flip is taken where it drops,
    and two layers are held.  Layers j > R need more flips than runs: they
    stay at _INF with no flips, so at most min(k, R) passes run.
    """
    values = np.asarray(values, dtype=np.int64)
    m = values.size
    cost = np.zeros((2, m + 1), dtype=np.int64)  # C_v(r)
    np.not_equal(values, _LABELS, out=cost[:, 1:])
    if lengths is not None:
        cost[:, 1:] *= lengths
    cost.cumsum(axis=1, out=cost)
    # S_{j-1}[1-v][r] - C_v(r) = T_{j-1}[1-v][r] + (C_{1-v}(r) - C_v(r))
    shift = cost[::-1, :m] - cost[:, :m]
    dp = np.empty((k + 1, 2), dtype=np.int64)
    dp[1:] = _INF
    choice = np.zeros((k + 1, 2, m), dtype=np.bool_) if backtrack else None
    dp[0] = cost[:, m]
    prev = np.zeros((2, m + 1), dtype=np.int64)  # T_0
    cur = np.empty_like(prev)
    for j in range(1, min(k, m) + 1):
        cur[:, 0] = _INF  # T_j[v][0] = S_j[v][0]: no flip before the first run
        np.add(prev[::-1, :m], shift, out=cur[:, 1:])
        np.minimum.accumulate(cur, axis=1, out=cur)
        if backtrack:
            np.less(cur[:, 1:], cur[:, :m], out=choice[j])
        dp[j] = cur[:, m] + cost[:, m]
        prev, cur = cur, prev
    return dp, choice


# ---------------------------------------------------------------------------
# circular interval scan for relative concentration
# ---------------------------------------------------------------------------

def interval_scan(p: np.ndarray, q: np.ndarray, t: float, cycle: bool):
    """Scan all circular intervals of size 1..n (on the path, those inside 0..n-1).

    Returns (gamma, i*, d*, wp, wi, wd): the maximum of p[I]/max(q[I*], t)
    with its argmax, and the interval maximizing p[I] among those with
    q[I*] <= t (the witness candidate); I* holds the d-1 edges inside the
    interval of d vertices starting at i.  Ties go to the first (i, d) in
    row-major order.  p and q are finite and non-negative, and t > 0.

    Row i, column d-1 of the (n, n) table holds the interval (i, d): its
    masses are differences of prefix sums over the doubled cycle.  Below
    n = _PRUNE_FROM the table is read whole, as sliding windows, in blocks
    of about _SCAN_CELLS cells.  From there on, each span of rows reads only
    the _LEAF-wide bands of lengths that `_live_bands` cannot rule out, or
    the rows whole when it gives up.  Every cell read is computed by the
    same float operations either way, blocks go in row-major order and
    carry a maximum forward only when strictly larger, and the live bands
    hold every cell that ties a maximum, so the 6-tuple is the whole
    table's, ties included.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n = len(p)
    pc = np.concatenate(([0.0], np.cumsum(np.concatenate((p, p)))))
    qc = np.concatenate(([0.0], np.cumsum(np.concatenate((q, q)))))
    pend = _windows(pc[1:], n)  # pend[i, d-1] = pc[i+d]
    qend = _windows(qc[:-1], n)  # qend[i, d-1] = qc[i+d-1]
    # on the path, interval (i, d) runs past vertex n-1 exactly when i + d > n
    outside = None if cycle else _windows(np.arange(2 * n - 1) >= n, n)
    step = max(1, _SCAN_CELLS // n)  # rows of a block of whole rows
    spans = [(0, n, None)]
    if n >= _PRUNE_FROM:
        # pad with the last prefix sums, which keeps them non-decreasing, so a
        # band may read past the doubled cycle
        pc, qc = (np.concatenate((c, np.full(_BAND, c[-1]))) for c in (pc, qc))
        last = np.full(n, n) if cycle else np.arange(n, 0, -1)  # longest interval of each row
        floor = _floor(pc, qc, t, last)
        span = max(1, _SCAN_CELLS * _BAND // n)  # rows with at most _SCAN_CELLS first bands
        spans = ((i0, i1, _live_bands(pc, qc, t, last, floor, i0, i1))
                 for i0 in range(0, n, span) for i1 in [min(i0 + span, n)])
    best = witness = None
    for i0, i1, live in spans:
        if live is None:  # the rows whole
            for k in range(i0, i1, step):
                b = slice(k, min(k + step, i1))
                ps = pend[b] - pc[b, None]
                ratio = _score(ps, qend[b] - qc[b, None], t, None if cycle else outside[b])
                best = _carry_argmax(best, ratio, k)
                witness = _carry_argmax(witness, ps, k)
        else:  # the live bands, _SCAN_CELLS // _LEAF a block
            best, witness = _read_bands(best, witness, pc, qc, t, last, *live)
    (gamma, gi, gd), (wp, wi, wd) = best, witness
    return float(gamma), gi, gd, float(wp), wi, wd


def _read_bands(best, witness, pc: np.ndarray, qc: np.ndarray, t: float, last: np.ndarray,
                rows: np.ndarray, lo: np.ndarray):
    """`best` and `witness` carried over the bands of lengths lo..lo+_LEAF-1 of
    the rows `rows`, in blocks of about _SCAN_CELLS cells."""
    pw, qw = _windows(pc, _LEAF), _windows(qc, _LEAF)  # pw[k, c] = pc[k + c]
    step = max(1, _SCAN_CELLS // _LEAF)
    for k in range(0, rows.size, step):
        r, d = rows[k:k + step], lo[k:k + step]
        ps = pw[r + d] - pc[r, None]
        ratio = _score(ps, qw[r + d - 1] - qc[r, None], t, d[:, None] + _LEAF_COLS > last[r, None])
        best = _carry_argmax(best, ratio, r, d)
        witness = _carry_argmax(witness, ps, r, d)
    return best, witness


def _score(ps: np.ndarray, dn: np.ndarray, t: float, outside) -> np.ndarray:
    """The ratios ps/max(dn, t) of a block from its p-sums `ps` and q-sums
    `dn`; `ps` becomes its witness masses, -inf where dn > t, and `dn` is
    scratch.  A cell where `outside` holds is -inf in both."""
    np.maximum(dn, t, out=dn)
    over = dn != t  # q[I*] > t
    ratio = ps / dn
    if outside is not None:
        np.copyto(ratio, -np.inf, where=outside)
        over |= outside
    np.copyto(ps, -np.inf, where=over)
    return ratio


def _floor(pc: np.ndarray, qc: np.ndarray, t: float, last: np.ndarray) -> float:
    """fl(w / t) for the largest p-sum w of some exact witness cells: the
    ratio of one of them, so at most the largest ratio, and at most
    fl(W / t) for the largest witness mass W.

    The cells are the longest interval of each row whose q[I*] is about t,
    which holds the row's largest witness mass.  searchsorted may miss it by
    a rounding step; a cell so found with q[I*] > t counts as 0, a mass that
    the witness of length 1 reaches.
    """
    n = last.size
    rows = np.arange(n)
    ends = np.searchsorted(qc, qc[:n] + t, side="right") - 1
    d = np.clip(ends - rows + 1, 1, last)
    return np.where(qc[rows + d - 1] - qc[:n] <= t, pc[rows + d] - pc[:n], 0.0).max() / t


def _live_bands(pc: np.ndarray, qc: np.ndarray, t: float, last: np.ndarray, floor: float,
                i0: int, i1: int):
    """(rows, lo): every band of lengths lo..lo+_LEAF-1 of the rows i0..i1-1 that
    may hold a cell of the largest ratio or of the largest witness mass, in
    row-major order.  None as soon as a level keeps more than 15/16 as many
    bands as the first level has: the bounds then prune too little to cost
    less than the rows read whole, as on masses where most intervals tie.

    The bounds rest on monotone rounding: prefix sums of non-negative values
    never decrease, and fl(a - b) and fl(a / b) are monotone in each
    argument.  So no cell of the band [lo, hi] of row i has a ratio above
    B = fl(psum(i, hi) / max(qsum(i, lo), t)).  A witness cell there has
    qsum <= t, so qsum(i, lo) <= t and B = fl(psum(i, hi) / t) is at least
    fl(w / t) for its p-sum w.  A band is dropped only when B is strictly
    below the `_floor`, so every cell that ties either maximum stays.  The
    first level bounds the _BAND-wide bands over the whole grid of the rows;
    each level after halves the live bands, gathered, down to _LEAF.  A
    band's bound is at least the bound of each of its halves, so a leaf is
    kept exactly when its own bound reaches the floor and its lengths start
    inside the row.
    """
    n, w = last.size, _BAND
    shape = (i1 - i0, (n + w - 1) // w)
    # at row i and band j, of lengths from lo = 1 + w*j: pc[i + lo + w - 1] and qc[i + lo - 1]
    ends, starts = (as_strided(c[at:], shape, (c.strides[0], c.strides[0] * w))
                    for c, at in ((pc, i0 + w), (qc, i0)))
    live = (ends - pc[i0:i1, None]) / np.maximum(starts - qc[i0:i1, None], t) >= floor
    live &= np.arange(1, n + 1, w) <= last[i0:i1, None]
    cap = live.size - live.size // 16
    rows, j = np.nonzero(live)
    rows, lo = rows + i0, 1 + w * j
    while rows.size <= cap:
        if w == _LEAF:
            return rows, lo
        w //= 2
        rows, lo = np.repeat(rows, 2), (lo[:, None] + (0, w)).ravel()
        start = rows + lo - 1
        ps = pc[start + w] - pc[rows]  # at length lo + w - 1, even past `last`: still a bound
        keep = ps / np.maximum(qc[start] - qc[rows], t) >= floor
        keep &= lo <= last[rows]
        rows, lo = rows[keep], lo[keep]
    return None


def _windows(x: np.ndarray, n: int) -> np.ndarray:
    """Read-only view whose row i is x[i:i+n]: sliding_window_view without
    its per-call checks, which take about 8 us."""
    return as_strided(x, (x.size - n + 1, n), x.strides * 2, writeable=False)


def _carry_argmax(best, block: np.ndarray, rows, lo=None):
    """(value, row, length) of the first maximum over `best` and then `block`,
    whose row k holds the lengths lo[k], lo[k] + 1, ... of table row rows[k];
    without `lo`, the whole rows rows, rows + 1, ... from length 1."""
    at = int(block.argmax())
    value = block.flat[at]
    if best is not None and not value > best[0]:
        return best
    k, c = divmod(at, block.shape[1])
    if lo is None:
        return value, rows + k, c + 1
    return value, int(rows[k]), int(lo[k]) + c
