"""Small shared helpers: checkpoint snapping, the stacked interval view of
a hierarchy, tolerance arithmetic, the CSV writer and heap trimming."""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError
from .paths import SampledPath


def snap_checkpoints(path: SampledPath, checkpoints: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Snap checkpoint times to the nearest grid times.

    Returns ``(times, indices)`` sorted ascending.
    """
    cps = np.atleast_1d(np.asarray(checkpoints, dtype=float))
    if cps.size == 0:
        raise ParameterError("need at least one checkpoint")
    if np.any(cps < -path.dt / 2) or np.any(cps > path.T + path.dt / 2):
        raise ParameterError("checkpoints must lie within [0, T]")
    idx = np.clip(np.rint(cps / path.dt).astype(np.int64), 0, path.n_samples - 1)
    idx = np.sort(idx)
    return idx * path.dt, idx


def left_endpoint_counts(level: np.ndarray, checkpoint_indices: np.ndarray) -> np.ndarray:
    """Number of partition intervals whose left endpoint time is <= each
    checkpoint time (the interval-attribution rule for all partition sums)."""
    left = np.asarray(level, dtype=np.int64)[:-1]
    return np.searchsorted(left, np.asarray(checkpoint_indices, dtype=np.int64), side="right")


@dataclass(frozen=True)
class LevelStack:
    """The intervals of every level of a hierarchy, laid end to end.

    Only intervals whose left endpoint is at or before the last checkpoint
    are kept; level i owns ``bounds[i]:bounds[i + 1]`` of ``left`` and
    ``right`` (grid indices of the endpoints), and ``counts[i, j]`` is
    :func:`left_endpoint_counts` of level i at checkpoint j.  Summands are
    evaluated once over the whole stack, while every reduction runs on one
    level's slice at a time, so each sum adds the same numbers in the same
    order as a loop over the levels would.  The working set is the sum of
    the level sizes, at most twice the grid for a dyadic hierarchy.
    """

    left: np.ndarray
    right: np.ndarray
    bounds: np.ndarray
    counts: np.ndarray

    @classmethod
    def build(cls, levels: Sequence[np.ndarray], checkpoint_indices: np.ndarray) -> "LevelStack":
        levels = [np.asarray(lev, dtype=np.int64) for lev in levels]
        counts = np.array([left_endpoint_counts(lev, checkpoint_indices) for lev in levels])
        counts = counts.reshape(len(levels), -1)
        kept = counts[:, -1]
        return cls(
            left=np.concatenate([lev[:-1][:n] for lev, n in zip(levels, kept)]),
            right=np.concatenate([lev[1:][:n] for lev, n in zip(levels, kept)]),
            bounds=np.concatenate([[0], np.cumsum(kept)]),
            counts=counts,
        )

    def gather(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Endpoint values ``(a, b)`` of every interval (last axis)."""
        return values[..., self.left], values[..., self.right]

    def slices(self, where: Optional[np.ndarray] = None) -> List[slice]:
        """Each level's slice of the stack, or of ``x[where]`` for a mask."""
        b = self.bounds if where is None else np.concatenate([[0], np.cumsum(where)])[self.bounds]
        return [slice(s, e) for s, e in zip(b[:-1].tolist(), b[1:].tolist())]

    def sums(self, x: np.ndarray, where: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-level ``np.sum`` of x; with a mask, x holds only the entries
        ``where`` selects, as ``values[where]`` would."""
        return np.array([np.sum(x[s]) for s in self.slices(where)], dtype=float)

    def checkpoint_cumsums(self, x: np.ndarray) -> np.ndarray:
        """Running sums of x (last axis) within each level, read at every
        checkpoint; shaped ``x.shape[:-1] + (levels, checkpoints)``."""
        out = np.empty(x.shape[:-1] + self.counts.shape)
        for i, s in enumerate(self.slices()):
            cums = np.zeros(x.shape[:-1] + (s.stop - s.start + 1,))
            np.cumsum(x[..., s], axis=-1, out=cums[..., 1:])
            out[..., i, :] = cums[..., self.counts[i]]
        return out


def relative_gap(lhs: float, rhs: float) -> float:
    """|lhs - rhs| normalized by the larger magnitude, floored at 1."""
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def bracket_contributions(a: np.ndarray, b: np.ndarray, p: int, x: float) -> np.ndarray:
    """Per-interval local-time summands ``1_(min,max](x) |b - x|**(p-1)``.

    The half-open bracket excludes the lower endpoint, so ties ``a == b``
    contribute nothing, and a level exactly equal to the lower endpoint of
    an excursion is not charged.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    ind = (x > lo) & (x <= hi)
    out = np.zeros_like(a)
    if np.any(ind):
        out[ind] = np.abs(b[ind] - x) ** (p - 1)
    return out


def even_order(p: int) -> int:
    if int(p) != p or p < 2 or p % 2 != 0:
        raise ParameterError(f"order p must be an even integer >= 2, got {p}")
    return int(p)


def median(values: Iterable[float]) -> float:
    return float(np.median(np.asarray(list(values), dtype=float)))


def _csv_value(v) -> str:
    """One CSV cell: lowercase booleans, shortest round-trip floats (numpy
    scalars included), plain integers."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path: str, fieldnames: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Plain CSV with a header line and stable bytes for equal values."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(_csv_value(v) for v in row) + "\n")


def _find_malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return None


_MALLOC_TRIM = _find_malloc_trim()


def release_free_heap() -> None:
    """Hand the free pages of the C heap back to the operating system.

    Once glibc has freed one large buffer it raises its mmap threshold, so
    later numpy arrays of a few MiB live on the heap; freed, they stay
    resident unless they sit at its top, and whether they do turns on where
    small allocations happened to land (even the length of a directory
    name).  After a trim, resident memory is live memory, so the peak of
    the next step does not depend on that layout.  A no-op where the C
    library has no ``malloc_trim``.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
