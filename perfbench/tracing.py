"""In-memory spans for the traced run.

Every operation opens one root span; the benchmark's calls into each
layer open child spans under it, so all spans of an operation share its
id.  Spans stay in memory until the run ends.  A span may carry a work
amount (characters, DP cells, vertices) so that rates are measured where
the work happens.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# fields of one span record
OP, NAME, PARENT, T0, T1, WORK = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[tuple] = []  # op id -> (family, batch, point)
        self._open: list[int] = []

    def root(self, family: str, batch: int, point=None) -> "_Span":
        self.ops.append((family, batch, point))
        return _Span(self, family, 0)

    def span(self, name: str, work: float = 0) -> "_Span":
        return _Span(self, name, work)

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of every span minus the time its children cover."""
        out = [s[T1] - s[T0] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[T1] - s[T0]
        return out

    def per_op(self, name: str) -> dict:
        """op id -> summed duration of the spans called `name` in that op."""
        acc: dict = defaultdict(float)
        for s in self.spans:
            if s[NAME] == name:
                acc[s[OP]] += s[T1] - s[T0]
        return acc

    def calls(self, name: str) -> list[float]:
        """Duration of every single span called `name`."""
        return [s[T1] - s[T0] for s in self.spans if s[NAME] == name]

    def work(self, name: str, rnd: int | None = None) -> tuple[float, float]:
        """(total work, total seconds) of the spans called `name`, in batch `rnd` if given."""
        w = t = 0.0
        for s in self.spans:
            if s[NAME] == name and (rnd is None or self.ops[s[OP]][1] == rnd):
                w += s[WORK]
                t += s[T1] - s[T0]
        return w, t

    def roots(self, family: str) -> list[float]:
        return [s[T1] - s[T0] for s in self.spans
                if s[PARENT] < 0 and s[NAME] == family]

    def dump(self) -> dict:
        return {"fields": ["op", "name", "parent", "t0", "t1", "work"],
                "ops": self.ops, "spans": self.spans}


class _Span:
    __slots__ = ("tracer", "name", "work", "index")

    def __init__(self, tracer: Tracer, name: str, work: float):
        self.tracer, self.name, self.work = tracer, name, work

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._open[-1] if tr._open else -1
        tr.spans.append([len(tr.ops) - 1, self.name, parent, time.perf_counter(), 0.0, self.work])
        tr._open.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        record = tr.spans[self.index]
        record[T1] = time.perf_counter()
        record[WORK] = self.work
        tr._open.pop()
        return False


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9/p99/p90 with >= 10 samples beyond it.

    Falls back to the median when there are fewer than 20 samples.
    """
    values = sorted(values)
    n = len(values)
    for pct in (99.9, 99.0, 90.0):
        if n * (1 - pct / 100) >= 10:
            return pct, values[min(n - 1, int(pct / 100 * n))]
    return 50.0, median(values)
