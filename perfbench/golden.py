"""Record golden values for the edit inputs too large to check at run time.

    python3 perfbench/golden.py

For every workload whose edit family is marked golden, rebuilds the inputs
from GOLDEN_SEEDS and stores, per input, its digest, its Levenshtein
distance and its fewest-relabelings block distance, both from the plain
dynamic programs in reference.py (several minutes at N=16384).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import families as F  # noqa: E402
import reference  # noqa: E402
import workloads as W  # noqa: E402


def main() -> int:
    entries = {}
    for workload in W.WORKLOADS.values():
        spec = workload["edit_oracles"]
        if not spec["golden"]:
            continue
        for N, blocks in spec["sizes"]:
            for seed in F.GOLDEN_SEEDS:
                t0 = time.perf_counter()
                c1, c2, x = F.edit_inputs(N, blocks, seed)
                entries[f"{N}/{blocks}/{seed}"] = {
                    "digest": F.edit_digest(c1, c2, x),
                    "levenshtein": reference.levenshtein(reference.psi_string(c1),
                                                         reference.psi_string(c2)),
                    "nblock_errors": reference.min_alternating_errors(x, blocks - 1),
                }
                print(f"N={N} blocks={blocks} seed={seed}: {entries[f'{N}/{blocks}/{seed}']} "
                      f"({time.perf_counter() - t0:.0f} s)", flush=True)
    F.GOLDEN.write_text(json.dumps({"edit": entries}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
