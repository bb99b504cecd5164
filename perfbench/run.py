"""paritylab benchmark: throughput of the testers, the deletion pipeline and the oracles.

    python3 perfbench/run.py --workload desk_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One workload runs in one single-threaded
process: set up (import paritylab, build every input, warm every family)
several times and keep the median, then run rounds, each calling every
family once, until --seconds have passed.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run is split in an untraced and a traced half and the metrics are the
per-layer ones.  `--workload all` runs every workload in its own process
and prints one table.
"""

from __future__ import annotations

import os

# single-threaded BLAS, set before numpy is imported anywhere in the process
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as W  # noqa: E402  (stdlib only)
from tracing import NAME, OP, PARENT, T0, T1, Tracer, median, tail  # noqa: E402  (stdlib only)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", **{f"{k}_per_s": "1/s" for k in (
    "cc_trials", "pt_large_trials", "pt_small_trials", "deletion_traces",
    "trace_verdicts", "edit_oracles", "conjugate_oracles")}, "peak_rss_mb": "MB"}
FAMILIES = [k[: -len("_per_s")] for k in END_TO_END_UNITS if k.endswith("_per_s")]
TRIAL_FAMILIES = ("cc_trials", "pt_large_trials", "pt_small_trials")
# bytes computed per unit of kernel work, from the arrays each kernel fills
KERNELS = {
    "levenshtein": ("cells", 8),  # one int64 DP value per cell
    "alternating_fit": ("cells", 9),  # int64 cost + uint8 back-pointer per cell
    "interval_scan": ("pairs", 16),  # float64 p-sum and q-sum per (start, length)
    "bucket_labels": ("vertices", 9),  # bool edge + int64 label per vertex
}


def _import_seconds_in_child() -> float:
    code = "import time; t = time.perf_counter(); import paritylab; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload: str, seed: int, families_mod):
    """Build and warm every family SETUP_REPEATS times; keep the last build."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fams = families_mod.build(workload, seed)
        warm_errors = []
        for fam in fams:
            try:
                fam.warmup()
            except Exception as exc:  # a broken family is reported, not fatal
                warm_errors.append((fam, repr(exc)))
        samples.append(time.perf_counter() - t0)
    for fam, msg in warm_errors:
        fam.fail(1, "warm-up: " + msg)
    return fams, samples


def rounds(fams, seconds: float, step):
    """Call step(fam, batch) round after round until `seconds` have passed.

    A round calls every family once, then again for each further pass it
    asks for, so that a family's batches spread over the round.  Batch
    p of round r is numbered r * passes + p; its inputs derive from that
    number.  Returns, per family, the results of step in call order.
    """
    out = {fam.key: [] for fam in fams}
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        for p in range(max(fam.passes for fam in fams)):
            for fam in fams:
                if p < fam.passes:
                    out[fam.key].append(step(fam, r * fam.passes + p))
        r += 1
        if time.perf_counter() >= deadline:
            return out


def throughput(batches) -> float:
    """Operations per second of one batch of the family, at its fastest per-kind times.

    `batches` holds one {kind: [ops, seconds]} per batch.  A kind is one grid
    point, string, shape or oracle size.  Its cost is the fastest
    per-operation wall time it had in any batch (best of k), and it weighs in
    with its median operations per batch.
    """
    best, counts = {}, defaultdict(list)
    for batch in batches:
        for kind, (ops, sec) in batch.items():
            if ops and sec > 0:
                best[kind] = min(best.get(kind, float("inf")), sec / ops)
                counts[kind].append(ops)
    ops = {kind: statistics.median(v) for kind, v in counts.items()}
    return sum(ops.values()) / sum(n * best[kind] for kind, n in ops.items())


def batch_stats(batches) -> list[tuple[int, float]]:
    """(operations, seconds) of each batch, summed over kinds."""
    return [(sum(k[0] for k in batch.values()), sum(k[1] for k in batch.values()))
            for batch in batches]


def end_to_end(per, setup_s: float) -> dict:
    metrics = {"setup_s": setup_s}
    for key in FAMILIES:
        metrics[f"{key}_per_s"] = throughput(per[key])
    metrics["peak_rss_mb"] = _rss_mb()
    return metrics


def per_layer(tracer, counts, untraced, traced_ops) -> dict:
    ms, us = 1e3, 1e6
    trial_ops = {s[OP] for s in tracer.spans if s[PARENT] < 0 and s[NAME] in TRIAL_FAMILIES}

    def per_trial(name):
        return median(v for op, v in tracer.per_op(name).items() if op in trial_ops) * ms

    def per_op(name):
        return median(tracer.per_op(name).values()) * ms

    roots = [s for s in tracer.spans if s[PARENT] < 0]
    batch0 = [s for s in roots if tracer.ops[s[OP]][1] == 0 and s[NAME] in FAMILIES]
    gens0 = sum(1 for s in tracer.spans if s[NAME] == "rng.generator"
                and tracer.ops[s[OP]][1] == 0 and tracer.ops[s[OP]][0] in FAMILIES)
    points = defaultdict(float)
    for s in roots:
        if s[NAME] in TRIAL_FAMILIES:
            points[tracer.ops[s[OP]]] += s[T1] - s[T0]
    m = {
        "rng.generator.us_per_call": median(tracer.calls("rng.generator")) * us,
        "rng.split_seed.us_per_call": median(tracer.calls("rng.split_seed")) * us,
        "rng.generators_per_op": gens0 / max(1, len(batch0)),
        "harness.config.ms_per_trial": per_trial("harness.config"),
        "harness.instance.ms_per_trial": per_trial("harness.instance"),
        "harness.ms_per_point": median(points.values()) * ms,
        "core.sample.ms_per_trial": per_trial("core.sample"),
        "core.reduce.ms_per_trial": per_trial("core.reduce"),
        "core.trace_chars_built": tracer.work("core.reduce", rnd=0)[0],
        "collector.buckets.ms_per_trial": per_trial("collector.buckets"),
        "collector.decide.ms_per_trial": per_trial("collector.decide"),
        "collector.buckets_per_trial": (counts["collector.buckets"]
                                        / max(1, counts["collector.trials"])),
        "parity.decide.ms_per_trial": per_trial("parity.decide"),
    }
    for step in ("none", "bias", "concentration", "collision", "coverage", "histogram"):
        m[f"parity.fired.{step}"] = counts[f"parity.fired.{step}"]
    m["parity.collision_reach_frac"] = (counts["parity.collision_reached"]
                                        / max(1, counts["parity.large_trials"]))
    m["parity.verdict_string.ms"] = per_op("parity.verdict_string")
    m["deletion.channel.ms_per_trace"] = per_op("deletion.channel")
    m["deletion.poissonize.ms_per_trace"] = per_op("deletion.poissonize")
    m["deletion.chars_in"] = tracer.work("deletion.channel", rnd=0)[0]
    m["deletion.chars_out"] = tracer.work("deletion.poissonize", rnd=0)[0]
    for kind in ("promised", "multitrace", "nblock", "nopromise"):
        m[f"deletion.verdict_{kind}.ms"] = per_op(f"deletion.verdict_{kind}")
    m["editdist.edit_bounds.ms"] = per_op("editdist.edit_bounds")
    m["editdist.nblock.ms"] = per_op("editdist.nblock")
    m["oracles.conjugate.ms"] = per_op("oracles.conjugate")
    m["oracles.concentration.ms"] = per_op("oracles.concentration")
    for kernel, (unit, nbytes) in KERNELS.items():
        work0, _ = tracer.work(f"kernels.{kernel}", rnd=0)
        work, sec = tracer.work(f"kernels.{kernel}")
        m[f"kernels.{kernel}.{unit}"] = work0
        m[f"kernels.{kernel}.per_s"] = work / sec if sec > 0 else 0.0
        m[f"kernels.{kernel}.bytes_computed"] = work0 * nbytes
    for key in FAMILIES:
        durations = tracer.roots(key)
        pct, value = tail(durations)
        m[f"{key}.p50_ms"] = median(durations) * ms
        m[f"{key}.tail_ms"] = value * ms
        m[f"{key}.tail_pct"] = pct
        m[f"{key}.samples"] = len(durations)
    self_times = tracer.self_times()
    root_total = sum(s[T1] - s[T0] for s in roots)
    m["unattributed.frac"] = sum(self_times[i] for i, s in enumerate(tracer.spans)
                                 if s[PARENT] < 0) / root_total if root_total else 0.0
    # operations per second over each half: summed call times untraced, root spans traced
    plain = [stat for per_family in untraced.values() for stat in batch_stats(per_family)]
    plain_rate = sum(o for o, _ in plain) / sum(t for _, t in plain)
    traced_rate = sum(sum(v) for v in traced_ops.values()) / sum(s[T1] - s[T0] for s in roots)
    m["trace_overhead_frac"] = 1.0 - traced_rate / plain_rate
    m["trace.verdict_mismatches"] = counts["trace.verdict_mismatches"]
    return m


def layer_unit(name: str) -> str:
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_ms", ".ms")) or ".ms_per_" in name:
        return "ms"
    if name.endswith(("_frac", ".frac")):
        return "ratio"
    if name.endswith("tail_pct"):
        return "%"
    if name.endswith(".per_s"):
        return "1/s"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_per_op") or name.endswith("_per_trial"):
        return "count/op"
    return "count"


def self_time_table(tracer) -> list[str]:
    by_name = defaultdict(list)
    for s, t in zip(tracer.spans, tracer.self_times()):
        by_name[s[NAME]].append(t)
    return [f"  {name:<34} n={len(v):<8} self p50 {median(v) * 1e6:10.1f} us  total {sum(v):8.3f} s"
            for name, v in sorted(by_name.items())]


def environment(args, np, kernels) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "paritylab._kernels.USE_NUMBA": bool(kernels.USE_NUMBA),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args) -> int:
    if not (SRC / "paritylab" / "__init__.py").is_file():
        print(f"error: no paritylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import paritylab
    import_samples = [time.perf_counter() - t0]
    if Path(paritylab.__file__).resolve().parent != SRC / "paritylab":
        print(f"error: paritylab imported from {paritylab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import families
    from paritylab import _kernels

    import_samples += [_import_seconds_in_child() for _ in range(SETUP_REPEATS - 1)]
    fams, build_samples = setup(args.workload, args.seed, families)
    setup_s = statistics.median(import_samples) + statistics.median(build_samples)

    tracer = None
    if args.trace:
        untraced = rounds(fams, args.seconds / 2, lambda fam, b: fam.round(b))
        tracer, counts = Tracer(), Counter()
        # exact counts come from batch 0 only, whose inputs depend on the seed alone
        traced_ops = rounds(fams, args.seconds / 2, lambda fam, b: fam.traced_round(
            b, tracer, counts if b == 0 else None))
        metrics = per_layer(tracer, counts, untraced, traced_ops)
        attempted = sum(o for b in untraced.values() for o, _ in batch_stats(b)) \
            + sum(sum(v) for v in traced_ops.values())
    else:
        untraced = rounds(fams, args.seconds, lambda fam, b: fam.round(b))
        metrics = end_to_end(untraced, setup_s)
        attempted = sum(o for b in untraced.values() for o, _ in batch_stats(b))

    check_lines = [line for fam in fams for line in fam.finish()]
    failed = sum(fam.failed for fam in fams)
    errors = [e for fam in fams for e in fam.errors]
    env = environment(args, np, _kernels)

    print("env " + json.dumps(env))
    print(f"setup: import {[round(s, 4) for s in import_samples]} s, "
          f"build+warm-up {[round(s, 4) for s in build_samples]} s")
    for key, batches in untraced.items():
        stats = batch_stats(batches)
        rates = sorted(ops / sec for ops, sec in stats if sec > 0)
        q = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
        print(f"{key}: {len(batches)} batches, {sum(o for o, _ in stats)} ops, "
              f"best-of-k ops/s {throughput(batches):.1f}, per-batch ops/s median "
              f"{statistics.median(rates):.1f} quartiles [{q[0]:.1f}, {q[2]:.1f}]")
    for line in check_lines:
        print("check " + line)
    for e in errors:
        print("error " + e)
    if tracer is not None:
        print("self time by span:")
        print("\n".join(self_time_table(tracer)))

    units = END_TO_END_UNITS if not args.trace else {k: layer_unit(k) for k in metrics}
    OUT.mkdir(exist_ok=True)
    batches = {key: [{str(kind): b for kind, b in per_batch.items()} for per_batch in per_family]
               for key, per_family in untraced.items()}
    detail = {"env": env, "import_s": import_samples, "build_s": build_samples,
              "batches": batches, "checks": check_lines, "errors": errors, "metrics": metrics}
    if tracer is not None:
        detail["trace"] = tracer.dump()
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail))
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    status = 0
    results = {}
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} ops_attempted={res['attempted']} "
              f"ops_failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<40} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
