"""Command-line surface: sample, test, phi, dist, instance, experiment,
calibrate.

Exit codes: 0 on success, 1 on usage errors, 2 on precondition violations
(invalid parameter combinations detected by the library).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import (
    BaseGraph,
    CCTesterConfig,
    ExperimentSpec,
    PTTesterConfig,
    TraceTestSpec,
    domino_instance,
    estimate_acceptance,
    parity_trace,
    phi_expected,
    sample_exact,
    sample_poissonized,
    test_uniform_n_block,
    test_uniform_n_block_multitrace,
    test_uniformity_cc,
    test_uniformity_pt,
    uniform_block_string,
)
from .core import pair_from_json, pair_to_json
from .editdist import DensitySequence, dist_edit_bounds, tv_distance
from .harness import calibrate_constants, interval_far_distribution
from .parity import _PT_MODES, phi_mu


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read().strip()
    with open(path) as fh:
        return fh.read().strip()


def _cmd_sample(args) -> int:
    pair = pair_from_json(_read_text(args.dist))
    if args.poisson:
        counts = sample_poissonized(pair, args.m, args.seed)
    else:
        counts = sample_exact(pair, args.m, args.seed)
    print(parity_trace(counts))
    return 0


def _cmd_test(args) -> int:
    if args.tester == "pt":
        trace = _read_text(args.trace)
        cfg = PTTesterConfig(mode=args.mode)
        verdict = test_uniformity_pt(trace, args.n, args.eps, cfg, m=args.m)
    elif args.tester == "cc":
        counts = np.asarray(json.loads(_read_text(args.trace)), dtype=np.float64)
        cfg = CCTesterConfig(epsilon=args.eps, eta=args.eta)
        m = cfg.sample_size(args.n) if args.m is None else args.m
        verdict = test_uniformity_cc(counts, cfg, args.n, m,
                                     BaseGraph(args.graph, args.n),
                                     override_range_check=args.override)
    elif args.tester == "trace":
        spec = TraceTestSpec(
            n_chars=args.N, n_blocks=args.blocks, epsilon=args.eps,
            rho=args.rho, property_name=args.property,
        )
        lines = [ln for ln in _read_text(args.trace).splitlines() if ln]
        if not lines:
            raise ValueError(f"no trace in {args.trace}")
        if len(lines) > 1:
            verdict = test_uniform_n_block_multitrace(lines, spec, seed=args.seed)
        else:
            verdict = test_uniform_n_block(lines[0], spec, seed=args.seed)
    else:
        raise ValueError(f"unknown tester {args.tester!r}")
    print(verdict.to_json())
    return 0


def _cmd_phi(args) -> int:
    if args.kind == "mu":
        mat = phi_mu(args.n, args.m)
    else:
        mat = phi_expected(BaseGraph(args.kind, args.n), args.eta)
    np.savetxt(sys.stdout, mat, delimiter=",", fmt="%.12g")
    return 0


def _cmd_dist(args) -> int:
    a = DensitySequence(np.asarray(json.loads(_read_text(args.a)), dtype=np.float64))
    b = DensitySequence(np.asarray(json.loads(_read_text(args.b)), dtype=np.float64))
    if args.metric == "tv":
        print(json.dumps({"tv": tv_distance(a, b), "metric": "tv"}))
    else:
        lower, upper = dist_edit_bounds(a, b, args.N)
        print(json.dumps({"lower": lower, "upper": upper, "metric": "edit", "N": args.N}))
    return 0


def _cmd_instance(args) -> int:
    if args.kind == "paired":
        inst = domino_instance(args.n, args.eps, args.yes, args.seed)
        print(pair_to_json(inst.pair))
    elif args.kind == "interval":
        p = interval_far_distribution(args.n, args.eps, args.seed, args.width)
        print(json.dumps({"n": args.n, "p": p.tolist()}))
    elif args.kind == "uniform-blocks":
        print(uniform_block_string(args.N, args.blocks, args.first))
    else:
        raise ValueError(f"unknown instance kind {args.kind!r}")
    return 0


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec.from_json(_read_text(args.spec))
    curve = estimate_acceptance(spec)
    text = curve.to_csv()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_calibrate(args) -> int:
    result = calibrate_constants(
        args.tester, args.n, args.eps, eta=args.eta,
        target_error=args.target_error, trials=args.trials, seed=args.seed,
        instance=args.instance, beta=args.beta,
    )
    print(json.dumps(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paritylab")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="emit a parity trace from a distribution")
    s.add_argument("dist", help="JSON file {n,p,q}, or - for stdin")
    s.add_argument("--m", type=float, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--poisson", action="store_true")
    s.set_defaults(fn=_cmd_sample)

    s = sub.add_parser("test", help="run a tester")
    s.add_argument("tester", choices=["pt", "cc", "trace"])
    s.add_argument("--trace", default="-", help="input file, or - for stdin")
    s.add_argument("--n", type=int, default=None, help="domain half-size (pt and cc)")
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--m", type=float, default=None)
    s.add_argument("--eta", type=float, default=0.5)
    s.add_argument("--graph", choices=["path", "cycle"], default="cycle")
    s.add_argument("--mode", choices=_PT_MODES, default=_PT_MODES[0])
    s.add_argument("--override", action="store_true")
    s.add_argument("--N", type=int, default=0)
    s.add_argument("--blocks", type=int, default=0)
    s.add_argument("--rho", type=float, default=0.5)
    s.add_argument("--property", default="uniform_n_block_promised",
                   choices=["n_block", "uniform_n_block", "uniform_n_block_promised"])
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=_cmd_test)

    s = sub.add_parser("phi", help="emit an expected join matrix as CSV")
    s.add_argument("kind", choices=["path", "cycle", "mu"])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--eta", type=float, default=0.5)
    s.add_argument("--m", type=float, default=1.0)
    s.set_defaults(fn=_cmd_phi)

    s = sub.add_parser("dist", help="distances between density sequences")
    s.add_argument("a")
    s.add_argument("b")
    s.add_argument("--metric", choices=["tv", "edit"], default="edit")
    s.add_argument("--N", type=int, default=64)
    s.set_defaults(fn=_cmd_dist)

    s = sub.add_parser("instance", help="hard-instance generators")
    s.add_argument("kind", choices=["paired", "interval", "uniform-blocks"])
    s.add_argument("--n", type=int, default=16)
    s.add_argument("--eps", type=float, default=0.3)
    s.add_argument("--yes", action="store_true")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--width", type=int, default=None)
    s.add_argument("--N", type=int, default=4096)
    s.add_argument("--blocks", type=int, default=16)
    s.add_argument("--first", type=int, default=1)
    s.set_defaults(fn=_cmd_instance)

    s = sub.add_parser("experiment", help="run an ExperimentSpec JSON to CSV")
    s.add_argument("spec")
    s.add_argument("--output", default=None)
    s.set_defaults(fn=_cmd_experiment)

    s = sub.add_parser("calibrate", help="search the sample-size constant")
    s.add_argument("tester", choices=["cc", "pt_large"])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--eta", type=float, default=None)
    s.add_argument("--target-error", type=float, default=0.15)
    s.add_argument("--trials", type=int, default=120)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--instance", default=None)
    s.add_argument("--beta", type=float, default=None)
    s.set_defaults(fn=_cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "test" and args.tester in ("pt", "cc") and args.n is None:
            parser.error(f"test {args.tester} requires --n")
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
