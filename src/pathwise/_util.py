"""Small shared helpers: checkpoint snapping, the interval kernel, tolerance
arithmetic, the config field reader, the CSV and summary writers and heap
trimming.

:meth:`LevelStack.build` alone decides which intervals count at a time t;
every per-level interval sum goes through :meth:`LevelStack.evaluate`, one
block of consecutive levels at a time; only the :class:`LevelBlock` a
summand function is handed knows where each level's intervals lie.

Every CSV artifact goes through :func:`write_csv` as one or more
:class:`Table` objects.  A table is a list of key axes followed by value
columns: its rows are the Cartesian product of the key axes, the last
varying fastest, and each value column holds one entry per row or a
scalar repeated on every row; a table without key axes is just
equal-length columns.  Each key label is formatted once, each numeric
column in one pass, and at most ``_CHUNK_ROWS`` lines are held at a time.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, NamedTuple, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .errors import ConfigError, ParameterError

if TYPE_CHECKING:
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
    checkpoint time: the one rule that credits intervals to a checkpoint.
    A level's sums then end at ``level[count]`` (:attr:`LevelStack.ends`)."""
    left = np.asarray(level, dtype=np.int64)[:-1]
    return np.searchsorted(left, np.asarray(checkpoint_indices, dtype=np.int64), side="right")


# Most kept intervals in one block of consecutive levels; a level that
# alone holds more is a block of its own.  Small levels share one gather,
# and no block's arrays outgrow those of the largest level by much.
_BLOCK_INTERVALS = 1 << 15


@dataclass(frozen=True)
class LevelBlock:
    """Consecutive levels of a :class:`LevelStack`, as a summand function
    sees them: ``levels`` is their slice of the stack's levels, ``kept``
    their kept interval counts and ``counts`` their rows of the stack's
    counts.

    The block's endpoint arrays hold each level's kept intervals in turn;
    the pair after a level's last interval joins its last point to the
    next level's first point and belongs to neither level.
    """

    levels: slice
    kept: np.ndarray
    counts: np.ndarray

    def slices(self, where: Optional[np.ndarray] = None) -> List[slice]:
        """Each level's slice of the intervals, or of ``x[where]`` for a mask."""
        starts = np.concatenate([[0], np.cumsum(self.kept + 1)[:-1]])
        stops = starts + self.kept
        if where is not None:
            ranks = np.concatenate([[0], np.cumsum(where)])
            starts, stops = ranks[starts], ranks[stops]
        return [slice(s, e) for s, e in zip(starts.tolist(), stops.tolist())]

    def per_level(self, reduce: Callable, *arrays: np.ndarray, where: Optional[np.ndarray] = None) -> np.ndarray:
        """``reduce`` of each level's slice (first axis) of the arrays; with
        a mask, they hold only the entries ``where`` selects."""
        return np.array([reduce(*(x[s] for x in arrays)) for s in self.slices(where)], dtype=float)

    def sums(self, x: np.ndarray, where: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-level ``np.sum`` of x."""
        return self.per_level(np.sum, x, where=where)

    def checkpoint_cumsums(self, x: np.ndarray) -> np.ndarray:
        """Running sums of x within each level, read at every checkpoint;
        shaped ``(levels, checkpoints)``."""
        out = np.empty(self.counts.shape)
        for i, s in enumerate(self.slices()):
            cums = np.zeros(s.stop - s.start + 1)
            np.cumsum(x[s], out=cums[1:])
            out[i] = cums[self.counts[i]]
        return out

    def spread(self, per_level: np.ndarray) -> np.ndarray:
        """One value per level repeated over that level's intervals (the
        joining pair after a level gets that level's value too)."""
        return np.repeat(per_level, self.kept + 1)[:-1]


@dataclass(frozen=True)
class LevelStack:
    """The intervals of every level of a hierarchy credited at checkpoint
    times, cut into blocks of consecutive levels.

    ``LevelStack.build(path, levels, checkpoints=None)`` is the one time
    rule: ``times`` and ``indices`` are the :func:`snap_checkpoints` of the
    checkpoints (without any, t = T: the whole path), ``counts[i, j]`` is
    :func:`left_endpoint_counts` of level i at checkpoint j, and
    ``ends[i, j] = levels[i][counts[i, j]]`` is the grid index where that
    level's sums end (increments telescope to it).  Only intervals whose
    left endpoint is at or before the last checkpoint are kept.  A block
    holds at most ``_BLOCK_INTERVALS`` kept intervals, or a single level
    that is larger.  Summands are evaluated over a whole block, but every
    reduction runs on one level's slice, so each sum adds the same numbers
    in the same order as a loop over the levels would, whatever the block
    size; the working set is that of one block, about the largest level.
    """

    levels: Tuple[np.ndarray, ...]
    times: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    ends: np.ndarray
    blocks: Tuple[Tuple[int, int], ...]

    @classmethod
    def build(cls, path: SampledPath, levels: Sequence, checkpoints: Optional[Sequence[float]] = None) -> "LevelStack":
        times, indices = snap_checkpoints(path, [path.T] if checkpoints is None else checkpoints)
        levels = tuple(np.asarray(lev, dtype=np.int64) for lev in levels)
        counts = np.array([left_endpoint_counts(lev, indices) for lev in levels]).reshape(len(levels), -1)
        ends = np.array([lev[c] for lev, c in zip(levels, counts)])
        blocks, first, size = [], 0, 0
        for i, n in enumerate(counts.max(axis=1).tolist()):
            if i > first and size + n > _BLOCK_INTERVALS:
                blocks.append((first, i))
                first, size = i, 0
            size += n
        blocks.append((first, len(levels)))
        return cls(levels=levels, times=times, indices=indices, counts=counts, ends=ends, blocks=tuple(blocks))

    def evaluate(self, summands: Callable, *values: np.ndarray):
        """Per-level results of ``summands(block, a1, b1, a2, b2, ...)``.

        ``ak`` and ``bk`` hold the k-th value array (last axis) at the left
        and right endpoints of the block's intervals: read-only views of
        one gather of it, offset by one point.  ``summands`` returns an
        array with the block's levels on its first axis, or a tuple of
        such arrays; the blocks' results are joined along that axis.
        """
        parts = [self._evaluate_block(summands, first, stop, values) for first, stop in self.blocks]
        if isinstance(parts[0], tuple):
            return tuple(np.concatenate(joined) for joined in zip(*parts))
        return np.concatenate(parts)

    def _evaluate_block(self, summands: Callable, first: int, stop: int, values: Sequence[np.ndarray]):
        kept = self.counts[first:stop].max(axis=1)
        parts = [lev[: n + 1] for lev, n in zip(self.levels[first:stop], kept.tolist())]
        # a level alone is read in place
        points = parts[0] if len(parts) == 1 else np.concatenate(parts)
        ends = []
        for v in values:
            gathered = v[..., points]
            # a and b overlap: writing one would change the other
            gathered.setflags(write=False)
            ends += (gathered[..., :-1], gathered[..., 1:])
        return summands(LevelBlock(slice(first, stop), kept, self.counts[first:stop]), *ends)


def relative_gap(lhs: float, rhs: float) -> float:
    """|lhs - rhs| normalized by the larger magnitude, floored at 1."""
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def bracket_contributions(a: np.ndarray, b: np.ndarray, p: int, x) -> np.ndarray:
    """Per-interval local-time summands ``1_(min,max](x) |b - x|**(p-1)``,
    at one location x or at one location per interval.

    The half-open bracket excludes the lower endpoint, so ties ``a == b``
    contribute nothing, and a level exactly equal to the lower endpoint of
    an excursion is not charged.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    ind = (x > lo) & (x <= hi)
    out = np.zeros_like(a)
    if np.any(ind):
        out[ind] = np.abs(b[ind] - (x[ind] if np.ndim(x) else x)) ** (p - 1)
    return out


def even_order(p: int) -> int:
    if int(p) != p or p < 2 or p % 2 != 0:
        raise ParameterError(f"order p must be an even integer >= 2, got {p}")
    return int(p)


def median(values: Iterable[float]) -> float:
    """Median of finite values: no input, or a NaN that every gate would
    read as false, raises instead."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ParameterError(f"median needs finite values, got {arr.tolist()}")
    return float(np.median(arr))


# ``field``'s default for a field that must be given
_REQUIRED = object()

_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _typed(value, typ):
    """value as typ, or None if it is not one (see :func:`field`)."""
    if isinstance(typ, list):
        items = [_typed(v, typ[0]) for v in value] if isinstance(value, list) else [None]
        return None if None in items else items
    if isinstance(value, bool) or not isinstance(value, (int, float) if typ is float else typ):
        return None
    return value if typ is not float else float(value) if math.isfinite(value) else None


def field(cfg, where: str, key: str, typ, default=_REQUIRED, ok: Optional[Callable] = None,
          need: Optional[str] = None):
    """``cfg[key]`` read as ``typ``: the one reader of config fields.

    ``where`` is the dotted name of ``cfg`` (``""`` at the top level,
    ``paths[0]``, ``test_functions[0].params``), and every error is a
    :class:`ConfigError` that names the full field.  ``typ`` is int,
    float, str, list or dict, or ``[t]`` for a list of t: a bool is not a
    number, an int must be a JSON integer, and a float is any finite
    number, returned as float.  A missing field (or a null one whose
    default is None) gives ``default``, and is an error without one.  A
    value of another type, or one that ``ok`` refuses, is an error saying
    that it must be ``need`` (the type's name by default).
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"config field {where!r} must be an object, got {cfg!r}" if where
                          else f"config must be a JSON object, got {type(cfg).__name__}")
    name = f"{where}.{key}" if where else key
    if key not in cfg or (cfg[key] is None and default is None):
        if default is _REQUIRED:
            raise ConfigError(f"config field {name!r} is missing")
        return default
    value = _typed(cfg[key], typ)
    if value is None or (ok is not None and not ok(value)):
        kind = f"a list of {_KINDS[typ[0]].split()[1]}s" if isinstance(typ, list) else _KINDS[typ]
        raise ConfigError(f"config field {name!r} must be {need or kind}, got {cfg[key]!r}")
    return value


def _csv_value(v) -> str:
    """One CSV cell: lowercase booleans, shortest round-trip floats (numpy
    scalars included), plain integers; any other text is quoted as
    ``csv.writer`` does by default (QUOTE_MINIMAL) when it holds a comma,
    a double quote, CR or LF, with embedded quotes doubled."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    s = str(v)
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _cells(values) -> List[str]:
    """The cells of a sequence of values: a numeric array in one pass over
    its ``tolist()`` (the same text :func:`_csv_value` gives each entry),
    anything else cell by cell."""
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        if kind == "f":
            return list(map(repr, values.tolist()))
        if kind in "iu":
            return list(map(str, values.tolist()))
        if kind == "b":
            return ["true" if v else "false" for v in values.tolist()]
    return [_csv_value(v) for v in values]


class Table(NamedTuple):
    """The rows of a CSV artifact.

    ``keys`` are label sequences whose Cartesian product, last axis
    fastest, gives each row's leading cells.  ``columns`` follow them:
    an array (read in C order) or list with one entry per row, or a scalar
    repeated on every row.  Without key axes the row count is the common
    length of the array columns.
    """

    keys: Sequence[Sequence] = ()
    columns: Sequence = ()


# Lines formatted and written at a time: a few hundred KiB of strings,
# whatever the length of the table.
_CHUNK_ROWS = 1 << 11


def write_csv(file: Union[str, TextIO], header: Sequence[str], *tables: Table) -> None:
    """Write a header line and then the rows of each table, in order.

    ``file`` is a file name or an open text handle (left open).  Each key
    label is formatted once, each numeric column in one pass, and lines go
    out in chunks of at most ``_CHUNK_ROWS``, so the writer's buffers stay
    bounded for any table length.  Equal values give equal bytes.
    """
    fh = open(file, "w", newline="") if isinstance(file, str) else file
    try:
        fh.write(",".join(map(_csv_value, header)) + "\n")
        for table in tables:
            _write_table(fh, table, len(header))
    finally:
        if fh is not file:
            fh.close()


def _write_table(fh: TextIO, table: Table, width: int) -> None:
    if len(table.keys) + len(table.columns) != width:
        raise ValueError(f"table has {len(table.keys)} key axes and {len(table.columns)} columns, header {width}")
    keys = [_cells(axis) for axis in table.keys]
    # arrays and lists are per-row columns; a scalar is formatted once
    columns = [
        np.ravel(col) if isinstance(col, np.ndarray) and col.ndim
        else col if isinstance(col, (list, tuple)) else _csv_value(col)
        for col in table.columns
    ]
    lengths = {len(col) for col in columns if not isinstance(col, str)}
    if keys:
        lengths.add(math.prod(map(len, keys)))
    if len(lengths) != 1:
        raise ValueError(f"table rows disagree: lengths {sorted(lengths)}")
    rows = lengths.pop()
    key_cells = map(",".join, itertools.product(*keys)) if keys else None
    for start in range(0, rows, _CHUNK_ROWS):
        fh.write(_chunk_text(key_cells, columns, start, min(start + _CHUNK_ROWS, rows)))


def _chunk_text(key_cells, columns, start: int, stop: int) -> str:
    """Lines ``start:stop`` of a table; ``key_cells`` yields each row's key
    cells, already joined, and advances by exactly this chunk.  A function
    of its own, so one chunk's strings are freed before the next is made."""
    parts = [itertools.repeat(col) if isinstance(col, str) else _cells(col[start:stop]) for col in columns]
    if key_cells is not None:
        parts.insert(0, itertools.islice(key_cells, stop - start))
    lines = parts[0] if len(parts) == 1 else map(",".join, zip(*parts))
    return "\n".join(lines) + "\n"


SUMMARY_SCHEMA_VERSION = 1


def write_summary(out_dir: str, suite: str, fields: dict) -> None:
    """Write ``summary.json`` into out_dir: the fields, the suite name and
    the schema version as sorted, indented JSON ending in a newline."""
    summary = {"schema_version": SUMMARY_SCHEMA_VERSION, "suite": suite, **fields}
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
