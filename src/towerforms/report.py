"""Outcome records for the randomized property suites, and the one rule
that turns a suite's margins into its record."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["PropertyReport", "fold", "worst_along"]


def worst_along(margins) -> np.ndarray:
    """The worst margin along the last axis of an array of margins: NaN
    when any margin is NaN, else the largest margin, and of equal ones the
    last (the later of 0.0 and -0.0). Python's max would drop a NaN that is
    not its first argument and let a NaN sample read as slack."""
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
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.suite} level={self.level}: samples={self.samples} "
            f"failures={self.failures} worst_margin={self.worst_margin:.3e} "
            f"(tol={self.tol:.1e}, seed={self.seed})"
        )


def fold(suite, level, seed, tol, margins, samples=None, limits=None) -> PropertyReport:
    """The report of a suite's margins: one row per sample or lone check,
    in the order they ran, one column per margin of that row.

    A row fails unless every margin is within its limit (``limits``, one
    per column; tol for every column by default), so a NaN fails its row.
    worst_margin is worst_along over every margin in row order: NaN when
    any is NaN, else the largest, of equal ones the last, -inf for none.
    samples defaults to the number of rows.
    """
    margins, bounds = np.asarray(margins, dtype=float), tol
    if limits is not None:  # one per column, also when there are no rows
        margins, bounds = margins.reshape(len(margins), len(limits)), np.asarray(limits)
    passed = np.all(margins <= bounds, axis=-1)
    return PropertyReport(
        suite=suite,
        level=level,
        samples=len(margins) if samples is None else samples,
        failures=int(np.count_nonzero(~passed)),
        worst_margin=float(worst_along(np.append(-np.inf, margins))),
        seed=seed,
        tol=tol,
    )
