"""Cumulative p-th variation along partition levels.

For a partition level with points ``t_0 < ... < t_N`` the cumulative sum at
a checkpoint t is ``sum over intervals with t_j <= t of |S(t_{j+1}) -
S(t_j)|**p``; the full increment of an interval is credited to its left
endpoint.  Convergence across levels is diagnosed, never asserted: a finite
hierarchy cannot certify a limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._util import LevelStack, Table, even_order, ipow
from .errors import ParameterError
from .partitions import PartitionHierarchy
from .paths import SampledPath

__all__ = [
    "VariationCurve",
    "pth_variation",
    "increment_power_sums",
    "variation_convergence_report",
    "VariationConvergenceReport",
]


@dataclass
class VariationCurve:
    """Cumulative order-p sums, one row per level, one column per checkpoint."""

    p: int
    checkpoint_times: np.ndarray
    checkpoint_indices: np.ndarray
    level_labels: tuple
    per_level: np.ndarray  # shape (n_levels, n_checkpoints)

    def csv_table(self) -> Table:
        """Rows ``level,t,value``."""
        return Table((self.level_labels, self.checkpoint_times), (self.per_level,))


def _power_sums(path: SampledPath, stack: LevelStack, p: float) -> np.ndarray:
    """Cumulative ``sum |increment|**p`` per (level, checkpoint); an integer
    p by multiplication (:func:`ipow`)."""
    if float(p).is_integer():
        return stack.running_sums(lambda a, b: ipow(np.abs(b - a), int(p)), path.values)
    return stack.running_sums(lambda a, b: np.abs(b - a) ** p, path.values)


def increment_power_sums(
    path: SampledPath, level: np.ndarray, p: float, checkpoints: Optional[Sequence[float]] = None
) -> np.ndarray:
    """Raw cumulative sums ``sum |increment|**p`` for a single level (an
    index array or a level descriptor), at each checkpoint time or,
    without any, over the whole path.

    Accepts any real p >= 1; the public operation restricts to even
    integers but e.g. the p = 1 telescoping identity on monotone paths is
    occasionally useful as a cross-check.
    """
    if not (np.isfinite(p) and p >= 1):
        raise ParameterError(f"increment_power_sums needs a finite p >= 1, got p = {p}")
    return _power_sums(path, LevelStack.build(path, (level,), checkpoints), p)[0]


def pth_variation(
    path: SampledPath,
    hierarchy: PartitionHierarchy,
    p: int,
    checkpoints: Sequence[float],
) -> VariationCurve:
    """Cumulative p-th variation of ``path`` along every hierarchy level.

    ``p`` must be an even integer >= 2.  Checkpoints snap to the grid.
    """
    p = even_order(p)
    stack = LevelStack.build(path, hierarchy, checkpoints)
    return VariationCurve(
        p=p,
        checkpoint_times=stack.times,
        checkpoint_indices=stack.indices,
        level_labels=hierarchy.level_labels,
        per_level=_power_sums(path, stack, p),
    )


@dataclass
class VariationConvergenceReport:
    """Level-to-level sup distances of cumulative variation curves.

    Diagnostic only: reports how much consecutive rows differ and whether
    those differences shrink monotonically.  No pass/fail semantics.
    """

    level_labels: tuple
    sup_diffs: np.ndarray  # length n_levels - 1
    monotone_decreasing: bool

    def __str__(self):
        pairs = ", ".join(
            f"{a}->{b}: {d:.6g}"
            for (a, b), d in zip(zip(self.level_labels, self.level_labels[1:]), self.sup_diffs)
        )
        return (
            "variation convergence report\n"
            f"  sup |row_{{n+1}} - row_n| per level pair: {pairs}\n"
            f"  monotone decreasing: {self.monotone_decreasing}"
        )


def variation_convergence_report(curve: VariationCurve) -> VariationConvergenceReport:
    if curve.per_level.shape[0] < 2:
        raise ParameterError("convergence report needs at least two levels")
    diffs = np.max(np.abs(np.diff(curve.per_level, axis=0)), axis=1)
    monotone = bool(np.all(np.diff(diffs) <= 1e-15)) if diffs.size > 1 else True
    return VariationConvergenceReport(
        level_labels=curve.level_labels, sup_diffs=diffs, monotone_decreasing=monotone
    )
