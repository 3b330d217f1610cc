"""Nested partition hierarchies and oscillation.

Partitions are index arrays into a path's dyadic grid.  Dyadic hierarchies
are nested by construction.  Lebesgue hierarchies place partition points at
the successive first grid times at which the path has moved by a spatial
threshold ``2**-n`` since the previous point; they are not nested in
general, so nestedness is checked and reported rather than forced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ParameterError, ResolutionError
from .paths import SampledPath

__all__ = [
    "PartitionHierarchy",
    "dyadic_hierarchy",
    "lebesgue_hierarchy",
    "oscillation",
]

# samples converted to Python floats at a time by the Lebesgue scan
_SCAN_CHUNK = 2**15


@dataclass(frozen=True)
class PartitionHierarchy:
    """A refining sequence of partitions of ``[0, T]``.

    ``levels[i]`` is a strictly increasing index array starting at 0 and
    ending at the last grid index, so every level shares the endpoints of
    the time interval.  ``level_labels[i]`` is the refinement exponent n of
    that level (threshold ``2**-n`` for Lebesgue levels, step ``2**-n * T``
    for dyadic ones).
    """

    kind: str
    levels: Tuple[np.ndarray, ...]
    level_labels: Tuple[int, ...]
    nested: bool

    def __post_init__(self):
        for lev in self.levels:
            if lev[0] != 0:
                raise ParameterError("every level must start at index 0")
        object.__setattr__(self, "levels", tuple(np.asarray(l, dtype=np.int64) for l in self.levels))

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def level(self, label: int) -> np.ndarray:
        """Index array of the level with refinement exponent ``label``."""
        try:
            i = self.level_labels.index(label)
        except ValueError:
            raise ParameterError(f"no level labelled {label}; have {self.level_labels}") from None
        return self.levels[i]

    @property
    def finest(self) -> np.ndarray:
        return self.levels[-1]

    @property
    def finest_label(self) -> int:
        return self.level_labels[-1]


def _check_nested(levels: Sequence[np.ndarray]) -> bool:
    for coarse, fine in zip(levels, levels[1:]):
        if not np.all(np.isin(coarse, fine)):
            return False
    return True


def dyadic_hierarchy(path: SampledPath, levels: int) -> PartitionHierarchy:
    """Dyadic levels 1..levels; level n has the ``2**n + 1`` indices
    ``k * 2**(n_max - n)``.  Nested by construction."""
    if levels < 1:
        raise ParameterError(f"levels must be >= 1, got {levels}")
    if levels > path.n_max:
        raise ResolutionError(
            f"requested {levels} dyadic levels but path resolution is n_max={path.n_max}"
        )
    idx = tuple(
        np.arange(0, 2**path.n_max + 1, 2 ** (path.n_max - n), dtype=np.int64)
        for n in range(1, levels + 1)
    )
    return PartitionHierarchy(
        kind="dyadic", levels=idx, level_labels=tuple(range(1, levels + 1)), nested=True
    )


def lebesgue_hierarchy(path: SampledPath, levels: int) -> PartitionHierarchy:
    """Path-generated levels 1..levels with spatial thresholds ``2**-n``.

    Level n consists of the successive first grid indices at which the path
    has moved by at least ``2**-n`` from the previous partition point
    (crossings are detected at the first grid point at or after the exact
    crossing, so a one-grid-step overshoot is accepted).  Index 0 and the
    final index are always included.
    """
    if levels < 1:
        raise ParameterError(f"levels must be >= 1, got {levels}")
    vals = path.values
    if vals.max() == vals.min():
        raise ParameterError("lebesgue_hierarchy requires a non-constant path")
    out = []
    last = vals.size - 1
    for n in range(1, levels + 1):
        eps = 2.0 ** (-n)
        pts = [0]
        anchor = float(vals[0])
        # Python floats scan several times faster than numpy scalars and
        # round identically; chunks keep the boxed copy small
        for start in range(1, vals.size, _SCAN_CHUNK):
            for j, v in enumerate(vals[start:start + _SCAN_CHUNK].tolist(), start=start):
                if abs(v - anchor) >= eps:
                    pts.append(j)
                    anchor = v
        if pts[-1] != last:
            pts.append(last)
        out.append(np.asarray(pts, dtype=np.int64))
    nested = _check_nested(out)
    return PartitionHierarchy(
        kind="lebesgue", levels=tuple(out), level_labels=tuple(range(1, levels + 1)), nested=nested
    )


def oscillation(path: SampledPath, level: np.ndarray) -> float:
    """Largest in-cell fluctuation ``max_cells (max - min)`` of the path.

    All grid samples inside the closed cell count, not just the cell
    endpoints; endpoint-only ranges understate the oscillation of wiggly
    paths.
    """
    idx = np.asarray(level, dtype=np.int64)
    if idx.ndim != 1 or idx.size < 2 or idx[0] != 0 or idx[-1] != path.n_samples - 1 or np.any(np.diff(idx) <= 0):
        raise ParameterError("level must be strictly increasing from 0 to the last grid index")
    vals = path.values
    starts = idx[:-1]
    # reduceat covers [start_k, start_{k+1}); closed cells also own their
    # right endpoint, folded in explicitly.
    seg_max = np.maximum.reduceat(vals, starts)
    seg_min = np.minimum.reduceat(vals, starts)
    seg_max = np.maximum(seg_max, vals[idx[1:]])
    seg_min = np.minimum(seg_min, vals[idx[1:]])
    return float(np.max(seg_max - seg_min))
