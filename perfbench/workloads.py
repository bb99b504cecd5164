"""The three workloads: every size, constant and trial count they run.

Constants are the calibrated values of `paritylab.harness.CALIBRATED` at
the time the benchmark was defined, copied here with an explicit m in
every grid point, so that a later change to the library's defaults,
calibration table or sample-size formulas does not change the work a
workload asks for.
"""

from __future__ import annotations

import math

CC = {"c": 0.016, "beta": 40.0, "width": 8}
PT_LARGE = {"c": 5.0, "beta": 0.0025}
PT_SMALL = {"c": 4.0}
TRACE_UNIFORM = {"budget_c": 2.5, "beta": 0.12, "concat_eps_scale": 1.0}
TRACE_NBLOCK = {"budget_c": 3.5}

CRITERION_10_STRINGS = ["110010", "1", "000111", "1010101010101010", "0110"]

# gates of the acceptance suite: share of correct decisions per shape
GATE_CC = GATE_PT_LARGE = 0.85
GATE_PT_SMALL = GATE_TRACE = 2 / 3


def cc_m(n: int, eps: float, eta: float, c: float = CC["c"]) -> int:
    """m = c * sqrt(n)/eps^2 * log^2(n)/eta^(3/2), as calibrated."""
    ln = math.log(n)
    return max(1, int(round(c * math.sqrt(n) / eps**2 * ln * ln / eta**1.5)))


def pt_large_m(n: int, eps: float, c: float = PT_LARGE["c"]) -> int:
    """m = c * (n/eps)^(4/5) * log^(7/5)(n), as calibrated."""
    return max(2, int(round(c * (n / eps) ** 0.8 * math.log(n) ** 1.4)))


def pt_small_m(n: int, eps: float, c: float = PT_SMALL["c"]) -> int:
    """m = max(coupon-collection floor on [2n], c * sqrt(2n)/eps^2)."""
    d = 2 * n
    return int(math.ceil(max(2 * d * math.log(100 * d), c * math.sqrt(d) / eps**2)))


def cc_grid(ns, graphs, mults, eps=0.3, eta=0.5, gate_min_n=0):
    """Uniform and interval-far points; `gate` marks points held to the suite's gate."""
    grid = []
    for n in ns:
        m_cal = cc_m(n, eps, eta)
        for graph in graphs:
            for mult in mults:
                base = {"n": n, "epsilon": eps, "eta": eta, "graph": graph,
                        "m": max(1, int(round(m_cal * mult))), "c": CC["c"], "beta": CC["beta"]}
                gate = mult == 1 and n >= gate_min_n
                grid.append((dict(base, instance="uniform"), True, gate))
                grid.append((dict(base, instance="interval_far", width=CC["width"]), False, gate))
    return grid


def pt_large_grid(ns, mults, eps=0.3, gate_min_n=0):
    grid = []
    for n in ns:
        m_cal = pt_large_m(n, eps)
        for mult in mults:
            base = {"n": n, "epsilon": eps, "m": max(2, int(round(m_cal * mult))),
                    "c": PT_LARGE["c"], "beta": PT_LARGE["beta"]}
            gate = mult == 1 and n >= gate_min_n
            grid.append((dict(base, instance="uniform"), True, gate))
            grid.append((dict(base, instance="paired_far"), False, gate))
    return grid


def pt_small_grid(shapes, mults):
    """shapes: (n, eps, bias of the paired far instance).  pt_small reads no beta."""
    grid = []
    for n, eps, bias in shapes:
        m_cal = pt_small_m(n, eps)
        for mult in mults:
            base = {"n": n, "epsilon": eps, "m": int(m_cal * mult), "c": PT_SMALL["c"]}
            grid.append((dict(base, instance="uniform"), True, mult == 1))
            grid.append((dict(base, instance="paired_far", bias=bias), False, mult == 1))
    return grid


def trace_shape(N: int, blocks: int, eps: float = 0.4, k: int = 4) -> dict:
    """Criterion-11 trace budgets at length N: promised, k-trace and block-count."""
    budget = TRACE_UNIFORM["budget_c"] * (blocks / eps) ** 0.8 * math.log(blocks) ** 1.4
    m1 = TRACE_UNIFORM["budget_c"] * (
        blocks**0.8 / (k**0.2 * eps**0.8) * math.log(blocks) ** 1.4
        + math.sqrt(blocks) / (math.sqrt(k) * eps**2)
    )
    return {"N": N, "blocks": blocks, "eps": eps, "k": k,
            "rho": 1 - math.exp(-budget / N),
            "rho_k": 1 - math.exp(-m1 / N),
            "rho_nb": TRACE_NBLOCK["budget_c"] * blocks / eps / N}


def pt_string_shape(n: int, eps: float = 0.3, count: int = 1) -> dict:
    """`count` uniform and `count` far parity-trace strings per batch, for
    `test_uniformity_pt` (the CLI `test pt` path)."""
    return {"n": n, "eps": eps, "m": pt_large_m(n, eps), "count": count}


# Each workload lists, per family, the cases one round runs.  A round calls
# every family once, so machine drift spreads over all the metrics.
WORKLOADS = {
    # The acceptance suite's shapes: operations of 0.05-20 ms, where per-call
    # overhead (generators, seed splitting, dataclass validation) is a large
    # share of the time.
    "desk_small": {
        "cc_trials": {"grid": cc_grid([256], ["cycle", "path"], [1]), "trials": 30},
        "pt_large_trials": {"grid": pt_large_grid([256], [1]), "trials": 30},
        "pt_small_trials": {"grid": pt_small_grid([(32, 0.05, 0.4)], [1]), "trials": 30},
        "deletion_traces": {"strings": [("fixed", s) for s in CRITERION_10_STRINGS],
                            "rho": 0.5, "traces": 30},
        "trace_verdicts": {"shapes": [trace_shape(4096, 16)],
                           "pt_strings": [pt_string_shape(256, count=10)]},
        "edit_oracles": {"sizes": [(1024, 16)], "golden": False},
        "conjugate_oracles": {"sizes": [128]},
    },
    # The ROADMAP's large sizes: operations of 5 ms-2.5 s, whose time goes to
    # Poisson and multinomial draws over 2n cells, the O(m) trace string, the
    # bucket kernel and the DP kernels; per-call overhead is under 1%.
    "desk_large": {
        "cc_trials": {"grid": cc_grid([4096, 65536], ["cycle"], [1]), "trials": 2,
                      "passes": 6},
        "pt_large_trials": {"grid": pt_large_grid([4096, 65536], [1]), "trials": 1,
                            "passes": 6},
        "pt_small_trials": {"grid": pt_small_grid([(4096, 0.3, 0.6)], [1]), "trials": 2,
                            "passes": 6},
        "deletion_traces": {"strings": [("blocks", 65536, 64)], "rho": 0.5, "traces": 16,
                            "passes": 6},
        "trace_verdicts": {"shapes": [trace_shape(65536, 64)],
                           "pt_strings": [pt_string_shape(4096)], "passes": 6},
        "edit_oracles": {"sizes": [(16384, 64)], "golden": True},
        "conjugate_oracles": {"sizes": [512], "passes": 4},
    },
    # A dense grid with few trials per point: m from a quarter to four times
    # the calibrated size, both graphs, accept and early-reject paths, and the
    # cc calibration search.  The other families run a size ladder.  The
    # pt_large calibration search is left out: it raises on some seeds (see
    # README, findings).
    "sweep": {
        "cc_trials": {"grid": cc_grid([64, 256, 1024, 4096], ["cycle", "path"],
                                      [0.25, 0.5, 1, 2, 4], gate_min_n=1024),
                      "trials": 2, "passes": 3,
                      "calibrate": {"tester": "cc", "n": 256, "epsilon": 0.3, "eta": 0.5,
                                    "beta": CC["beta"], "instance": "interval_far",
                                    "extra": {"width": CC["width"]}, "trials": 20}},
        "pt_large_trials": {"grid": pt_large_grid([64, 256, 1024, 4096], [0.25, 0.5, 1, 2, 4],
                                                  gate_min_n=1024),
                            "trials": 2, "passes": 3},
        "pt_small_trials": {"grid": pt_small_grid([(32, 0.3, 0.6), (128, 0.3, 0.6),
                                                   (512, 0.3, 0.6)], [0.5, 1, 2]),
                            "trials": 2, "passes": 3},
        "deletion_traces": {"strings": [("blocks", 16, 4), ("blocks", 1024, 16),
                                        ("blocks", 16384, 64)], "rho": 0.5, "traces": 8,
                            "passes": 3},
        "trace_verdicts": {"shapes": [trace_shape(N, 16) for N in (1024, 4096, 16384)],
                           "pt_strings": [pt_string_shape(1024), pt_string_shape(4096)],
                           "passes": 2},
        "edit_oracles": {"sizes": [(256, 8), (512, 8), (1024, 16)], "golden": False,
                         "passes": 3},
        "conjugate_oracles": {"sizes": [32, 64, 128], "passes": 3},
    },
}
