"""Outcome records for the randomized property suites."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["PropertyReport", "worst_of", "worst_along"]


def worst_of(*margins) -> float:
    """The largest margin, NaN when any margin is NaN.

    Python's max drops a NaN that is not its first argument, which would
    let a NaN sample read as slack; a suite folds its margins with this
    and counts a failure when ``not margin <= tol``.
    """
    return float(np.max(margins))


def worst_along(margins) -> np.ndarray:
    """worst_of folded along the last axis of an array of margins, for
    chunks of samples: NaN when any margin is NaN, else the largest margin,
    and of equal ones the last, as worst_of keeps the later of 0.0 and -0.0."""
    flipped = np.flip(np.asarray(margins), -1)
    last = np.argmax(flipped, axis=-1)[..., None]
    return np.take_along_axis(flipped, last, axis=-1)[..., 0]


@dataclass(frozen=True)
class PropertyReport:
    """Result of one randomized suite at one level.

    worst_margin is the largest observed violation of the asserted
    property (negative values mean every sample had slack); a sample
    counts as a failure when its margin exceeds tol.
    """

    suite: str
    level: int
    samples: int
    failures: int
    worst_margin: float
    seed: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "level": self.level,
            "samples": self.samples,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "tol": self.tol,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.suite} level={self.level}: samples={self.samples} "
            f"failures={self.failures} worst_margin={self.worst_margin:.3e} "
            f"(tol={self.tol:.1e}, seed={self.seed})"
        )
