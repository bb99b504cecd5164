"""The seven operation families: inputs, timed calls, traced rebuilds, checks.

Importing this module imports paritylab.  Each family builds its inputs
from the workload seed.  `round(b)` runs batch number b of its operations
through the library's public entry points, timing each kind of operation,
and checks every output.  `traced_round(b, ...)` makes the same calls one
layer at a time, inside spans; for trials it rebuilds each trial from the
public calls that `harness.run_*_trial` makes and compares the verdict
with that function's.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from paritylab import _kernels
from paritylab.collector import BaseGraph, CCTesterConfig, test_uniformity_cc
from paritylab.core import (
    parity_trace,
    runs_from_counts,
    sample_exact,
    sample_poissonized,
    uniform_pair,
)
from paritylab.deletion import (
    TraceTestSpec,
    deletion_trace,
    poissonize,
    test_n_block,
    test_uniform_n_block,
    test_uniform_n_block_multitrace,
    uniform_block_string,
)
from paritylab.editdist import DensitySequence, dist_edit_bounds, dist_to_nblock, psi, tv_distance
from paritylab.harness import (
    ExperimentSpec,
    calibrate_constants,
    domino_instance,
    estimate_acceptance,
    interval_far_distribution,
    run_cc_trial,
    run_pt_large_trial,
    run_pt_small_trial,
)
from paritylab.oracles import relative_concentration, uniform_conjugate
from paritylab.parity import (
    PTTesterConfig,
    test_uniformity_pt,
    test_uniformity_pt_large,
    test_uniformity_pt_small,
)
from paritylab.rng import generator, split_seed

import reference
import workloads as W

GOLDEN = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEEDS = (0, 1)  # edit inputs at golden sizes come from these, not --seed
POOL = 3  # distinct oracle inputs per size; batches cycle through them


def block_string(length: int, blocks: int, rng) -> str:
    """A random string of exactly `blocks` runs (at most `length`)."""
    blocks = min(blocks, length)
    sizes = 1 + rng.multinomial(length - blocks, np.full(blocks, 1.0 / blocks))
    first = int(rng.integers(0, 2))
    return "".join(str((first + i) % 2) * int(s) for i, s in enumerate(sizes))


def edit_inputs(N: int, blocks: int, seed) -> tuple[np.ndarray, np.ndarray, str]:
    """Two count vectors over N and a noisy block string of length N."""
    rng = np.random.default_rng(seed)
    k1, k2 = rng.integers(4, 33, size=2)
    c1 = rng.multinomial(N, np.full(k1, 1.0 / k1))
    c2 = rng.multinomial(N, np.full(k2, 1.0 / k2))
    x = np.frombuffer(block_string(N, blocks, rng).encode("ascii"), dtype=np.uint8).copy()
    flips = rng.random(N) < 0.05
    x[flips] ^= 1  # '0' <-> '1'
    return c1, c2, x.tobytes().decode("ascii")


def edit_digest(c1, c2, x: str) -> str:
    text = json.dumps([np.asarray(c1).tolist(), np.asarray(c2).tolist(), x])
    return hashlib.sha256(text.encode()).hexdigest()


def _bits(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")


class Family:
    key = ""

    def __init__(self, spec: dict, seed: int, index: int):
        self.spec, self.seed, self.index = spec, seed, index
        self.passes = spec.get("passes", 1)  # batches per round, spread over the round
        self.failed = 0
        self.errors: list[str] = []
        self.pooled: dict = {}  # label -> [correct, total, gate]

    def _seed(self, b: int, j: int = 0) -> int:
        """Seed j of batch b; batch -1 is the warm-up."""
        ss = np.random.SeedSequence([self.seed, self.index, b + 1, j])
        return int(ss.generate_state(1, np.uint64)[0])

    def _rng(self, b: int):
        """Generator for the inputs of batch b; batch -1 is the warm-up."""
        return np.random.default_rng([self.seed, self.index, b + 1])

    def timed(self, batches: dict, kind, ops: int, fn, *args, **kwargs):
        """fn(*args, **kwargs), adding `ops` and its wall time to batches[kind].

        Returns None when the call raises; its operations count as failed.
        """
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.fail(ops, repr(exc))
            return None
        finally:
            batch = batches.setdefault(kind, [0, 0.0])
            batch[0] += ops
            batch[1] += time.perf_counter() - t0

    def fail(self, ops: int, msg: str) -> None:
        self.failed += ops
        if len(self.errors) < 8:
            self.errors.append(f"{self.key}: {msg}")

    def tally(self, label: str, correct: int, total: int, gate) -> None:
        row = self.pooled.setdefault(label, [0, 0, gate])
        row[0] += correct
        row[1] += total

    def finish(self) -> list[str]:
        """Apply the pooled rate gates; one report line per label."""
        lines = []
        for label, (correct, total, gate) in sorted(self.pooled.items()):
            ok = gate is None or correct >= gate * total
            if not ok:
                self.fail(total, f"{label}: {correct}/{total} correct, gate {gate:.3f}")
            gate_text = "" if gate is None else f" (gate {gate:.3f})"
            lines.append(f"{self.key} {label}: {correct}/{total} correct{gate_text}"
                         + ("" if ok else " FAIL"))
        return lines


# ---------------------------------------------------------------------------
# trials: estimate_acceptance, and the calibration search on sweep
# ---------------------------------------------------------------------------

def _cc_instance(tr, point, seed):
    kind, n = point.get("instance", "uniform"), point["n"]
    if kind == "uniform":
        with tr.span("harness.instance"):
            return np.full(n, 1.0 / n)
    with tr.span("rng.generator"):
        g = generator(seed)
    with tr.span("harness.instance"):
        if kind == "interval_far":
            return interval_far_distribution(n, point["epsilon"], g, point.get("width"))
        if kind == "paired_far":
            return domino_instance(n, min(1.0, 2 * point["epsilon"]), False, g).pair.p.weights * 2
    raise ValueError(f"unknown instance kind {kind!r}")


def _pt_instance(tr, point, seed):
    kind, n = point.get("instance", "uniform"), point["n"]
    if kind == "uniform":
        with tr.span("harness.instance"):
            return uniform_pair(n)
    if kind != "paired_far":
        raise ValueError(f"unknown instance kind {kind!r}")
    with tr.span("rng.generator"):
        g = generator(seed)
    with tr.span("harness.instance"):
        return domino_instance(n, point.get("bias", point["epsilon"]), False, g).pair


def rebuild_cc(tr, point, seed, counts):
    """`run_cc_trial`, one layer per span."""
    n, m = point["n"], point["m"]
    with tr.span("harness.config"):
        cfg = CCTesterConfig(epsilon=point["epsilon"], eta=point["eta"],
                             alpha=point.get("alpha", 20.0), beta=point.get("beta", 0.25),
                             L=point.get("L", 0.1), c=point.get("c", 0.008))
        graph = BaseGraph(point.get("graph", "cycle"), n)
    with tr.span("rng.split_seed"):
        s_inst, s_run = split_seed(seed, 2)
    p = _cc_instance(tr, point, s_inst)
    with tr.span("rng.generator"):
        rng = generator(s_run)
    with tr.span("collector.buckets"):
        keep = rng.random(graph.n_edges) < (1.0 - cfg.eta)
        with tr.span("kernels.bucket_labels", n):
            labels = _kernels.bucket_labels(keep[None, :], n, graph.is_cycle)[0]
    with tr.span("core.sample"):
        sample = rng.poisson(m * p)
    with tr.span("collector.buckets"):
        x = np.bincount(labels, weights=sample.astype(np.float64), minlength=n)
    with tr.span("collector.decide"):
        verdict = test_uniformity_cc(x, cfg, n, m, graph,
                                     override_range_check=point.get("override", False))
    if counts is not None:
        counts["collector.buckets"] += int(np.unique(labels).size)
        counts["collector.trials"] += 1
    return verdict


def rebuild_pt_large(tr, point, seed, counts):
    """`run_pt_large_trial`, one layer per span."""
    n, m = point["n"], point["m"]
    with tr.span("harness.config"):
        cfg = PTTesterConfig(alpha=point.get("alpha", 20.0), beta=point.get("beta", 0.25),
                             gamma=point.get("gamma", 3.3), c_m=point.get("c", 5.0))
    with tr.span("rng.split_seed"):
        s_inst, s_run = split_seed(seed, 2)
    pair = _pt_instance(tr, point, s_inst)
    with tr.span("rng.generator"):
        rng = generator(s_run)
    with tr.span("core.sample"):
        sample = sample_poissonized(pair, m, rng)
    with tr.span("core.reduce") as sp:
        runs = runs_from_counts(sample.counts)
        sp.work = len(runs.bits)
    with tr.span("parity.decide"):
        verdict = test_uniformity_pt_large(runs, n, point["epsilon"], cfg, m=m)
    if counts is not None:
        counts["parity.fired." + verdict.fired_step] += 1
        counts["parity.large_trials"] += 1
        counts["parity.collision_reached"] += (
            verdict.fired_step in ("none", "collision") or "N0" in verdict.statistics)
    return verdict


def rebuild_pt_small(tr, point, seed, counts):
    """`run_pt_small_trial`, one layer per span."""
    n, m = point["n"], point["m"]
    with tr.span("harness.config"):
        cfg = PTTesterConfig(c_small=point.get("c", 4.0))
    with tr.span("rng.split_seed"):
        s_inst, s_run = split_seed(seed, 2)
    pair = _pt_instance(tr, point, s_inst)
    with tr.span("rng.generator"):
        rng = generator(s_run)
    with tr.span("core.sample"):
        sample = sample_exact(pair, m, rng)
    with tr.span("core.reduce") as sp:
        trace = parity_trace(sample)
        sp.work = len(trace)
    with tr.span("parity.decide"):
        verdict = test_uniformity_pt_small(trace, n, point["epsilon"], cfg)
    if counts is not None:
        counts["parity.fired." + verdict.fired_step] += 1
    return verdict


TESTERS = {
    "cc": (run_cc_trial, rebuild_cc, W.GATE_CC),
    "pt_large": (run_pt_large_trial, rebuild_pt_large, W.GATE_PT_LARGE),
    "pt_small": (run_pt_small_trial, rebuild_pt_small, W.GATE_PT_SMALL),
}


class TrialFamily(Family):
    def __init__(self, key, spec, seed, index):
        super().__init__(spec, seed, index)
        self.key = key
        self.tester = key[: -len("_trials")]
        self.run_trial, self.rebuild, self.gate = TESTERS[self.tester]
        self.grid = [point for point, _, _ in spec["grid"]]
        self.expect = [yes for _, yes, _ in spec["grid"]]
        self.gated = [gated for _, _, gated in spec["grid"]]
        self.trials = spec["trials"]
        self.calibrate = spec.get("calibrate")

    def warmup(self):
        estimate_acceptance(ExperimentSpec(self.tester, self.grid, 1, self._seed(-1)))
        if self.calibrate:
            self._calibrate(-1, {})

    def _label(self, i: int) -> str:
        p = self.grid[i]
        return (f"n={p['n']} m={p['m']} {p.get('graph', '')} {p['instance']}"
                .replace("  ", " "))

    def _tally_point(self, i: int, accepts: int, trials: int) -> None:
        correct = accepts if self.expect[i] else trials - accepts
        label = self._label(i) if self.gated[i] else "ungated points"
        self.tally(label, correct, trials, self.gate if self.gated[i] else None)

    def round(self, r):
        """One `estimate_acceptance` call per grid point, so each point is timed alone."""
        batches = {}
        for i, point in enumerate(self.grid):
            spec = ExperimentSpec(self.tester, [point], self.trials, self._seed(r, i))
            curve = self.timed(batches, i, self.trials, estimate_acceptance, spec)
            if curve is not None:
                self._check_row(i, curve)
        if self.calibrate:
            self._calibrate(r, batches)
        return batches

    def _check_row(self, i: int, curve) -> None:
        if curve.columns[-4:] != ["accept_rate", "ci_low", "ci_high", "mean_statistic"] \
                or len(curve.rows) != 1:
            self.fail(self.trials, "malformed acceptance curve")
            return
        rate, low, high = curve.rows[0][-4:-1]
        if not (0 <= low <= rate + 1e-12 and rate <= high + 1e-12 and high <= 1):
            self.fail(self.trials, f"{self._label(i)}: rate {rate} outside [{low}, {high}]")
            return
        self._tally_point(i, int(round(rate * self.trials)), self.trials)

    def _calibrate(self, r, batches) -> int:
        """The `paritylab calibrate` path; its probes' trials count as operations."""
        c = dict(self.calibrate)
        trials = c.pop("trials")
        t0 = time.perf_counter()
        try:
            result = calibrate_constants(c.pop("tester"), c.pop("n"), c.pop("epsilon"),
                                         trials=trials, seed=self._seed(r, len(self.grid)), **c)
        except Exception as exc:
            result = None
            self.fail(2 * trials, repr(exc))
        sec = time.perf_counter() - t0
        ops = 2 * trials * (len(result["audit"]) if result else 1)
        batch = batches.setdefault("calibrate", [0, 0.0])
        batch[0] += ops
        batch[1] += sec
        if result is not None:
            chosen = [a for a in result["audit"] if a["c"] == result["c"]]
            target = 1 - result["target_error"]
            if not (chosen and chosen[-1]["yes_accept"] >= target
                    and chosen[-1]["no_reject"] >= target and result["c"] <= 64):
                self.fail(ops, f"calibration returned c={result['c']} without meeting its target")
        return ops

    def traced_round(self, r, tr, counts):
        ops = 0
        for i, point in enumerate(self.grid):
            accepts = 0
            for t in range(self.trials):
                ops += 1
                try:
                    with tr.root(self.key, r, i):
                        if t == 0:  # what estimate_acceptance derives for a one-point grid
                            with tr.span("rng.split_seed"):
                                (point_seed,) = split_seed(self._seed(r, i), 1)
                            with tr.span("rng.split_seed"):
                                seeds = split_seed(point_seed, self.trials)
                        verdict = self.rebuild(tr, point, seeds[t], counts)
                    reference_verdict = self.run_trial(point, seeds[t])
                except Exception as exc:
                    self.fail(1, repr(exc))
                    continue
                if verdict.to_json() != reference_verdict.to_json():
                    self.fail(1, f"{self._label(i)}: rebuilt trial differs from "
                                 f"run_{self.tester}_trial")
                    if counts is not None:
                        counts["trace.verdict_mismatches"] += 1
                accepts += bool(verdict.accept)
            self._tally_point(i, accepts, self.trials)
        if self.calibrate:
            with tr.root(self.key + ".calibrate", r):
                with tr.span("harness.calibrate"):
                    ops += self._calibrate(r, {})
        return ops


# ---------------------------------------------------------------------------
# deletion pipeline: x -> deletion_trace -> poissonize
# ---------------------------------------------------------------------------

class DeletionFamily(Family):
    key = "deletion_traces"

    def __init__(self, spec, seed, index):
        super().__init__(spec, seed, index)
        rng = self._rng(-1)
        self.strings = [s[1] if s[0] == "fixed" else block_string(s[1], s[2], rng)
                        for s in spec["strings"]]
        self.rho, self.traces = spec["rho"], spec["traces"]

    def warmup(self):
        for x in self.strings:
            poissonize(deletion_trace(x, self.rho, self._seed(-1)), self.rho, self._seed(-1, 1))

    def _jobs(self, r):
        """(string index, x, channel seed, poissonize seed) for every trace of batch r."""
        seeds = self._rng(r).integers(0, 2**63, size=2 * self.traces * len(self.strings)).tolist()
        jobs = [(i, x) for i, x in enumerate(self.strings) for _ in range(self.traces)]
        return [(i, x, seeds[2 * j], seeds[2 * j + 1]) for j, (i, x) in enumerate(jobs)]

    def _pipeline(self, x, s1, s2):
        trace = deletion_trace(x, self.rho, s1)
        return trace, poissonize(trace, self.rho, s2)

    def _check(self, x, trace, out):
        if not reference.is_subsequence(trace, x):
            self.fail(1, f"trace is not a subsequence of a {len(x)}-character input")
        elif not reference.upsampled_runs_ok(trace, out):
            self.fail(1, "poissonize changed the run symbols or shortened a run")

    def round(self, r):
        batches = {}
        for i, x, s1, s2 in self._jobs(r):
            result = self.timed(batches, i, 1, self._pipeline, x, s1, s2)
            if result is not None:
                self._check(x, *result)
        return batches

    def traced_round(self, r, tr, counts):
        jobs = self._jobs(r)
        for _, x, s1, s2 in jobs:
            try:
                with tr.root(self.key, r):
                    with tr.span("rng.generator"):
                        g1 = generator(s1)
                    with tr.span("deletion.channel", len(x)):
                        trace = deletion_trace(x, self.rho, g1)
                    with tr.span("rng.generator"):
                        g2 = generator(s2)
                    with tr.span("deletion.poissonize") as sp:
                        out = poissonize(trace, self.rho, g2)
                        sp.work = len(out)
            except Exception as exc:
                self.fail(1, repr(exc))
                continue
            self._check(x, trace, out)
        return len(jobs)


# ---------------------------------------------------------------------------
# trace verdicts from given trace strings
# ---------------------------------------------------------------------------

VERDICT_SPANS = {
    "promised": "deletion.verdict_promised",
    "nopromise": "deletion.verdict_nopromise",
    "multitrace": "deletion.verdict_multitrace",
    "nblock": "deletion.verdict_nblock",
    "pt_string": "parity.verdict_string",
}
STEPS = {"none", "bias", "concentration", "collision", "histogram", "coverage", "learn", "verify"}


class VerdictFamily(Family):
    key = "trace_verdicts"

    def __init__(self, spec, seed, index):
        super().__init__(spec, seed, index)
        self.cfg = PTTesterConfig(beta=W.TRACE_UNIFORM["beta"])
        scale = W.TRACE_UNIFORM["concat_eps_scale"]
        self.shapes = []
        for sh in spec["shapes"]:
            N, n, eps = sh["N"], sh["blocks"], sh["eps"]
            # the acceptance suite's far string: a paired-bias instance blown up to length N
            far = np.rint(domino_instance(n // 2, 0.9375, False, 42).pair.interleaved() * N)
            self.shapes.append({
                "N": N, "k": sh["k"],
                "u1": uniform_block_string(N, n, 1), "u0": uniform_block_string(N, n, 0),
                "far": reference.psi_string(far.astype(np.int64)),
                "alternating": "10" * (N // 2),
                "promised": TraceTestSpec(n_chars=N, n_blocks=n, epsilon=eps, rho=sh["rho"],
                                          concat_eps_scale=scale),
                "nopromise": TraceTestSpec(n_chars=N, n_blocks=n, epsilon=eps, rho=sh["rho"],
                                           property_name="uniform_n_block",
                                           concat_eps_scale=scale),
                "multitrace": TraceTestSpec(n_chars=N, n_blocks=n, epsilon=eps, rho=sh["rho_k"],
                                            k_traces=sh["k"], concat_eps_scale=scale),
                "nblock": TraceTestSpec(n_chars=N, n_blocks=n, epsilon=eps, rho=sh["rho_nb"],
                                        property_name="n_block"),
            })
        self.pt_cfg = PTTesterConfig(c_m=W.PT_LARGE["c"], beta=W.PT_LARGE["beta"], mode="large_eps")
        self.pt_strings = []
        for ps in spec["pt_strings"]:
            n, eps = ps["n"], ps["eps"]
            far = domino_instance(n, eps, False, self._seed(-1, 7)).pair
            self.pt_strings.append((n, eps, ps["m"], ps["count"], uniform_pair(n), far))

    def warmup(self):
        done = set()
        for kind, _, fn, args, kwargs, _, _ in self._jobs(-1):
            if kind not in done:
                fn(*args, **kwargs)
                done.add(kind)

    def _jobs(self, r):
        """(kind, label, function, args, kwargs, expect_accept, gate) per verdict.

        The traces are made here, outside the timed calls.
        """
        rng = self._rng(r)

        def s():
            return int(rng.integers(0, 2**63))

        jobs = []
        for sh in self.shapes:
            N, k = sh["N"], sh["k"]
            for label, yes in (("u1", True), ("u0", True), ("far", False)):
                x = sh[label]
                trace = deletion_trace(x, sh["promised"].rho, s())
                for kind in ("promised", "nopromise"):
                    gate = W.GATE_TRACE if kind == "promised" else None
                    jobs.append((kind, f"N={N} {label}", test_uniform_n_block,
                                 (trace, sh[kind], self.cfg), {"seed": s()}, yes, gate))
                traces = [deletion_trace(x, sh["multitrace"].rho, s()) for _ in range(k)]
                jobs.append(("multitrace", f"N={N} {label}", test_uniform_n_block_multitrace,
                             (traces, sh["multitrace"], self.cfg), {"seed": s()}, yes,
                             W.GATE_TRACE))
            for label, yes in (("u1", True), ("alternating", False)):
                trace = deletion_trace(sh[label], sh["nblock"].rho, s())
                jobs.append(("nblock", f"N={N} {label}", test_n_block,
                             (trace, sh["nblock"]), {"seed": s()}, yes, W.GATE_TRACE))
        for n, eps, m, count, uniform, far in self.pt_strings:
            for label, pair, yes in (("uniform", uniform, True), ("far", far, False)):
                for _ in range(count):
                    bits = parity_trace(sample_poissonized(pair, m, s()))
                    jobs.append(("pt_string", f"n={n} {label}", test_uniformity_pt,
                                 (bits, n, eps, self.pt_cfg), {"m": m}, yes, W.GATE_PT_LARGE))
        return jobs

    def _check(self, job, verdict):
        kind, label, _, _, _, yes, gate = job
        if verdict.fired_step not in STEPS or verdict.accept != (verdict.fired_step == "none"):
            self.fail(1, f"{kind} {label}: malformed verdict {verdict.fired_step!r}")
            return
        self.tally(f"{kind} {label}", int(bool(verdict.accept) == yes), 1, gate)

    def round(self, r):
        batches = {}
        for job in self._jobs(r):
            kind, label, fn, args, kwargs = job[:5]
            verdict = self.timed(batches, (kind, label), 1, fn, *args, **kwargs)
            if verdict is not None:
                self._check(job, verdict)
        return batches

    def traced_round(self, r, tr, counts):
        jobs = self._jobs(r)
        for job in jobs:
            kind, _, fn, args, kwargs = job[:5]
            try:
                with tr.root(self.key, r):
                    if "seed" in kwargs:
                        with tr.span("rng.generator"):
                            kwargs = dict(kwargs, seed=generator(kwargs["seed"]))
                    with tr.span(VERDICT_SPANS[kind]):
                        verdict = fn(*args, **kwargs)
            except Exception as exc:
                self.fail(1, repr(exc))
                continue
            self._check(job, verdict)
        return len(jobs)


# ---------------------------------------------------------------------------
# edit and block oracles
# ---------------------------------------------------------------------------

class EditFamily(Family):
    key = "edit_oracles"

    def __init__(self, spec, seed, index):
        super().__init__(spec, seed, index)
        golden = json.loads(GOLDEN.read_text()) if spec["golden"] else None
        self.sizes = []
        for N, blocks in spec["sizes"]:
            pool = []
            seeds = GOLDEN_SEEDS if golden else [[seed, index, N, j] for j in range(POOL)]
            for s in seeds:
                c1, c2, x = edit_inputs(N, blocks, s)
                ref = None
                if golden:
                    entry = golden["edit"].get(f"{N}/{blocks}/{s}")
                    if entry and entry["digest"] == edit_digest(c1, c2, x):
                        ref = (entry["levenshtein"], entry["nblock_errors"])
                pool.append({"c1": c1, "c2": c2, "x": x, "ref": ref,
                             "pi": DensitySequence.from_counts(c1, N),
                             "pi2": DensitySequence.from_counts(c2, N)})
            self.sizes.append((N, blocks, pool))
        self.offset = seed % len(GOLDEN_SEEDS) if golden else 0

    def warmup(self):
        N, blocks, pool = self.sizes[0]
        dist_edit_bounds(pool[0]["pi"], pool[0]["pi2"], N)
        dist_to_nblock(pool[0]["x"], blocks)

    def _items(self, r):
        for N, blocks, pool in self.sizes:
            yield N, blocks, pool[(r + self.offset) % len(pool)]

    @staticmethod
    def _reference(N, blocks, item):
        if item["ref"] is None:
            item["ref"] = (reference.levenshtein(reference.psi_string(item["c1"]),
                                                 reference.psi_string(item["c2"])),
                           reference.min_alternating_errors(item["x"], blocks - 1))
        return item["ref"]

    def _check(self, N, blocks, item, bounds, nblock):
        if self.spec["golden"] and item["ref"] is None:
            self.fail(2, f"no golden value covers the N={N} input; rerun golden.py")
            return
        d, errors = self._reference(N, blocks, item)
        c1, c2 = item["c1"], item["c2"]
        k = max(c1.size, c2.size)
        tv = np.abs(np.pad(c1, (0, k - c1.size)) - np.pad(c2, (0, k - c2.size))).sum() / (2 * N)
        lower, upper = bounds
        if abs(lower * 2 * N - d) > 1e-6 or abs(upper - min(d / N, tv)) > 1e-12:
            self.fail(1, f"dist_edit_bounds at N={N}: {bounds}, reference distance {d}")
        if abs(nblock * N - errors) > 1e-6:
            self.fail(1, f"dist_to_nblock at N={N}: {nblock * N}, reference {errors}")

    def round(self, r):
        batches = {}
        for N, blocks, item in self._items(r):
            bounds = self.timed(batches, (N, "edit_bounds"), 1,
                                dist_edit_bounds, item["pi"], item["pi2"], N)
            nblock = self.timed(batches, (N, "nblock"), 1, dist_to_nblock, item["x"], blocks)
            if bounds is not None and nblock is not None:
                self._check(N, blocks, item, bounds, nblock)
        return batches

    def traced_round(self, r, tr, counts):
        ops = 0
        for N, blocks, item in self._items(r):
            ops += 2
            try:
                with tr.root(self.key, r):
                    with tr.span("editdist.edit_bounds"):
                        a = _bits(psi(item["pi"], N).bits)
                        b = _bits(psi(item["pi2"], N).bits)
                        with tr.span("kernels.levenshtein", a.size * b.size):
                            d = _kernels.levenshtein(a, b)
                        rel = 2.0 * d / (a.size + b.size)
                        bounds = (rel / 2.0, min(rel, tv_distance(item["pi"], item["pi2"])))
                with tr.root(self.key, r):
                    with tr.span("editdist.nblock"):
                        x = _bits(item["x"]).astype(np.int64)
                        with tr.span("kernels.alternating_fit", x.size * blocks * 2):
                            dp, _ = _kernels.alternating_fit_tables(x, blocks - 1)
                        nblock = float(dp.min()) / x.size
            except Exception as exc:
                self.fail(2, repr(exc))
                continue
            self._check(N, blocks, item, bounds, nblock)
        return ops


# ---------------------------------------------------------------------------
# conjugate oracles
# ---------------------------------------------------------------------------

class ConjugateFamily(Family):
    key = "conjugate_oracles"

    def __init__(self, spec, seed, index):
        super().__init__(spec, seed, index)
        self.sizes = []
        for n in spec["sizes"]:
            rng = np.random.default_rng([seed, index, n])
            pool = []
            for _ in range(POOL):
                q = rng.random(n)
                q_mass = rng.uniform(0.3, 0.7)
                q *= q_mass / q.sum()
                # m * |q|_1 in [8, 24]: the residual bound 4n*xi stays above
                # double-precision round-off (see README)
                m = rng.uniform(8.0, 24.0) / q_mass
                p = rng.random(n)
                p *= rng.uniform(0.3, 0.7) / p.sum()
                q2 = rng.random(n)
                q2 *= rng.uniform(0.3, 0.7) / q2.sum()
                pool.append({"q": q, "q_mass": q_mass, "m": m, "p": p, "q2": q2,
                             "t": rng.uniform(1e-4, 0.1)})
            self.sizes.append((n, pool))

    def warmup(self):
        n, pool = self.sizes[0]
        uniform_conjugate(pool[0]["q"], pool[0]["m"])
        relative_concentration(pool[0]["p"], pool[0]["q2"], pool[0]["t"])

    def _items(self, r):
        for n, pool in self.sizes:
            yield n, pool[r % len(pool)]

    def _check(self, n, item, residual, p_tilde, witness):
        e = math.exp(-item["m"] * item["q_mass"])
        xi = e / (1.0 - e) ** 2
        if not residual <= 4 * n * xi or abs(p_tilde.sum() - (1 - item["q_mass"])) > 1e-9:
            self.fail(1, f"uniform_conjugate at n={n}: residual {residual} > 4n*xi = {4 * n * xi}")
        gamma, start, length, p_mass = witness
        t, p, q = item["t"], item["p"], item["q2"]
        p_interval = p[(start + np.arange(length)) % n].sum()
        q_edges = q[(start + np.arange(length - 1)) % n].sum()
        if not (q_edges <= t + 1e-15 and p_interval >= t * gamma / 2 - 1e-12
                and abs(p_interval - p_mass) <= 1e-12):
            self.fail(1, f"relative_concentration at n={n}: "
                         "witness does not certify p[I] >= t*Gamma/2")

    def round(self, r):
        batches = {}
        for n, item in self._items(r):
            rep = self.timed(batches, (n, "conjugate"), 1, uniform_conjugate, item["q"], item["m"])
            conc = self.timed(batches, (n, "concentration"), 1, relative_concentration,
                              item["p"], item["q2"], item["t"])
            if rep is not None and conc is not None:
                self._check(n, item, rep.residual, rep.p_tilde,
                            (conc.gamma_value, conc.witness_start, conc.witness_length,
                             conc.witness_p_mass))
        return batches

    def traced_round(self, r, tr, counts):
        ops = 0
        for n, item in self._items(r):
            ops += 2
            try:
                with tr.root(self.key, r):
                    with tr.span("oracles.conjugate"):
                        rep = uniform_conjugate(item["q"], item["m"])
                with tr.root(self.key, r):
                    with tr.span("oracles.concentration"):
                        with tr.span("kernels.interval_scan", n * n):
                            gamma, _, _, wp, wi, wd = _kernels.interval_scan(
                                item["p"], item["q2"], item["t"], True)
            except Exception as exc:
                self.fail(2, repr(exc))
                continue
            self._check(n, item, rep.residual, rep.p_tilde, (gamma, wi, wd, wp))
        return ops


FAMILIES = {
    "cc_trials": TrialFamily,
    "pt_large_trials": TrialFamily,
    "pt_small_trials": TrialFamily,
    "deletion_traces": DeletionFamily,
    "trace_verdicts": VerdictFamily,
    "edit_oracles": EditFamily,
    "conjugate_oracles": ConjugateFamily,
}


def build(workload: str, seed: int) -> list[Family]:
    """Every family of `workload`, with its inputs made from `seed`."""
    out = []
    for index, (key, spec) in enumerate(W.WORKLOADS[workload].items()):
        cls = FAMILIES[key]
        out.append(cls(key, spec, seed, index) if cls is TrialFamily else cls(spec, seed, index))
    return out
