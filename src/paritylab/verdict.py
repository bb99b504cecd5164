"""Accept/reject verdicts with diagnostics, shared by every tester."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["Verdict"]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one tester run.

    `fired_step` names the rejecting check ("bias", "concentration",
    "collision", "histogram", "coverage", "learn", "verify") and is
    "none" exactly when the run accepts.
    """

    accept: bool
    fired_step: str = "none"
    statistics: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.accept != (self.fired_step == "none"):
            raise ValueError("fired_step must be 'none' iff the verdict accepts")

    def to_json(self) -> str:
        """Strict JSON: NaN and +-inf values of statistics and params become null."""
        return json.dumps(
            {
                "accept": self.accept,
                "step": self.fired_step,
                "statistics": {k: _plain(v) for k, v in self.statistics.items()},
                "params": {k: _plain(v) for k, v in self.params.items()},
            },
            allow_nan=False,
        )


def _plain(v):
    try:
        v = v.item()
    except AttributeError:
        pass
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v
