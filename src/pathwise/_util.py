"""Small shared helpers: checkpoint snapping, the interval kernel, tolerance
arithmetic, integer powers and the least-squares slope, the config field
reader, the CSV and summary writers and heap trimming.

:meth:`LevelStack.build` alone decides which intervals count at a time t,
and one iterator, ``LevelStack._pieces``, gathers them: a block of
consecutive levels, or a node of numpy's pairwise-summation tree over a
large level's segment between two checkpoints.  Levels are read through
their descriptors (:class:`Stride`, :class:`Packed`, :class:`Points`),
with no index array of a whole level.  Summand functions see the values
at the ends of a piece's intervals.
Two reductions run on the pieces, one level at a time, with the same
bytes for any block size: :meth:`LevelStack.sums`, the ``np.sum`` of each
segment of a level between checkpoints, chained from +0.0 at the
checkpoints, and :meth:`LevelStack.cell_sums`, per-cell running sums of
(cell, weight) pairs read at the checkpoints.

Every CSV artifact goes through :func:`write_csv` as one or more
:class:`Table` objects.  A table is a list of key axes followed by value
columns: its rows are the Cartesian product of the key axes, the last
varying fastest, and each value column holds one entry per row or a
scalar repeated on every row; a table without key axes is just
equal-length columns.  Each key label is formatted once, each numeric
column in one pass, and at most ``_CHUNK_ROWS`` lines are held at a time.
"""

from __future__ import annotations

import bisect
import collections
import ctypes
import functools
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
    if not np.all((cps >= -path.dt / 2) & (cps <= path.T + path.dt / 2)):
        raise ParameterError("checkpoints must lie within [0, T]")
    idx = np.clip(np.rint(cps / path.dt).astype(np.int64), 0, path.n_samples - 1)
    idx = np.sort(idx)
    return idx * path.dt, idx


def left_endpoint_counts(level: np.ndarray, checkpoint_indices: np.ndarray) -> np.ndarray:
    """Number of partition intervals whose left endpoint time is <= each
    checkpoint time: the one rule that credits intervals to a checkpoint.
    A level's sums then end at ``level[count]`` (:attr:`LevelStack.ends`).
    Every level descriptor counts as this does on its index array."""
    left = np.asarray(level, dtype=np.int64)[:-1]
    return np.searchsorted(left, np.asarray(checkpoint_indices, dtype=np.int64), side="right")


# -- level descriptors ----------------------------------------------------------
#
# A level is held as one of three descriptors, each read by LevelStack and
# the oscillation without an index array of the whole level: a Stride (a
# dyadic level, or the sampling grid's own), Packed bits (a Lebesgue level)
# or Points, an index array (a sparse Lebesgue level, or a level a caller
# supplies).  Each gives, for points start..stop of the level (numbered
# from 0), a reader of any value array's last axis at them, and the grid
# indices of given point numbers; ``points()`` makes the index array.

_LEVEL_RULE = "level must be strictly increasing from 0 to the last grid index"


class Stride(NamedTuple):
    """The grid points 0, step, 2 step, ..., last (a multiple of step)."""

    step: int
    last: int

    @property
    def size(self) -> int:
        return self.last // self.step + 1

    def reader(self, start: int, stop: int) -> Callable:
        """``read(v)``: v at points start..stop, a strided slice, copied
        once (the terms then read contiguous memory) unless the step is 1."""
        cut = slice(start * self.step, stop * self.step + 1, self.step)
        if self.step == 1:
            return lambda v: v[..., cut]
        return lambda v: v[..., cut].copy()

    def between(self, lo: int, hi: int) -> np.ndarray:
        """The level's grid indices in [lo, hi)."""
        return np.arange(-(-lo // self.step) * self.step, hi, self.step, dtype=np.int64)

    def points(self) -> np.ndarray:
        return np.arange(0, self.last + 1, self.step, dtype=np.int64)


class Points:
    """A level as its index array, checked once to be strictly increasing
    from 0; :meth:`LevelStack.build` checks that it ends at the path's last
    grid index (or is 0 alone, a level without intervals)."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.int64)
        if pts.ndim != 1 or pts.size == 0 or pts[0] != 0 or not np.all(pts[1:] > pts[:-1]):
            raise ParameterError(_LEVEL_RULE)
        self.array = pts
        self.size = pts.size
        self.last = int(pts[-1])

    def counts(self, indices: np.ndarray) -> np.ndarray:
        return left_endpoint_counts(self.array, indices)

    def at(self, ranks: np.ndarray) -> np.ndarray:
        return self.array[ranks]

    def reader(self, start: int, stop: int) -> Callable:
        """``read(v)``: v at points start..stop."""
        pts = self.array[start : stop + 1]
        return lambda v: v[..., pts]

    def between(self, lo: int, hi: int) -> np.ndarray:
        a = self.array
        return a[np.searchsorted(a, lo) : np.searchsorted(a, hi)]

    def points(self) -> np.ndarray:
        return self.array


# Grid points per chunk of a packed level, whose count of points before it
# is kept: a point's number, or the point of a number, unpacks one chunk
_RANK_CHUNK = 1 << 10

# the set bits of each byte
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


class Packed:
    """A level as one bit per grid point, ``bits`` in :func:`np.packbits`
    order, with ``before[c]``, the number of its points below grid index
    ``c * _RANK_CHUNK`` (the last entry is its size).  An eighth of a byte
    per grid point: smaller than the index array where the level holds more
    than 1/64 of the grid's points."""

    def __init__(self, bits: np.ndarray, last: int):
        self.bits = bits
        self.last = last
        per_chunk = np.add.reduceat(_POPCOUNT[bits], np.arange(0, bits.size, _RANK_CHUNK // 8), dtype=np.int64)
        self.before = np.concatenate([[0], np.cumsum(per_chunk)])
        self.size = int(self.before[-1])

    def _mask(self, lo: int, hi: int) -> np.ndarray:
        """Whether each grid index lo..hi-1 is a point, unpacked from the
        bytes that hold them alone."""
        return np.unpackbits(self.bits[lo >> 3 : (hi + 7) >> 3])[lo & 7 : (lo & 7) + hi - lo].view(bool)

    def _chunk(self, c: int) -> np.ndarray:
        lo = c * _RANK_CHUNK
        return lo + np.flatnonzero(self._mask(lo, min(lo + _RANK_CHUNK, self.last + 1)))

    def counts(self, indices: np.ndarray) -> np.ndarray:
        """Points at or before each grid index, at most size - 1: the left
        endpoints there."""
        counts = [self.before[i // _RANK_CHUNK] + np.count_nonzero(self._mask(i - i % _RANK_CHUNK, i + 1))
                  for i in indices.tolist()]
        return np.minimum(counts, self.size - 1)

    def at(self, ranks: np.ndarray) -> np.ndarray:
        """The grid index of each point number, from its chunk."""
        chunks = np.searchsorted(self.before, ranks, side="right") - 1
        return np.array([self._chunk(c)[r - self.before[c]] for c, r in zip(chunks.tolist(), ranks.tolist())],
                        dtype=np.int64)

    def reader(self, start: int, stop: int) -> Callable:
        """``read(v)``: v at points start..stop, compressed from the grid
        indices between the two by their bits, unpacked once from the
        chunks that hold them."""
        first, last = (np.searchsorted(self.before, [start, stop], side="right") - 1).tolist()
        base, top = first * _RANK_CHUNK, (last - first) * _RANK_CHUNK
        keep = self._mask(base, min(base + top + _RANK_CHUNK, self.last + 1))
        lo = np.flatnonzero(keep[:_RANK_CHUNK])[start - self.before[first]]
        hi = top + np.flatnonzero(keep[top:])[stop - self.before[last]]
        keep, cut = keep[lo : hi + 1], slice(base + lo, base + hi + 1)
        return lambda v: np.compress(keep, v[..., cut], axis=-1)

    def between(self, lo: int, hi: int) -> np.ndarray:
        return lo + np.flatnonzero(self._mask(lo, hi))

    def points(self) -> np.ndarray:
        return np.flatnonzero(self._mask(0, self.last + 1))


def as_level(level):
    """A level descriptor as it is, or an index array as :class:`Points`."""
    return level if isinstance(level, (Stride, Points, Packed)) else Points(level)


# Most kept intervals in one block of consecutive levels; a level that
# alone holds more is a block of its own, cut at its checkpoint counts and
# into nodes of numpy's pairwise-summation tree that hold at most this
# many.  So a kernel holds one piece of a level at a time, whatever the
# path.
_BLOCK_INTERVALS = 1 << 15

# Most (cell, weight) pairs added at once by LevelStack.cell_sums: bounds
# its working set, while the additions stay in the same order whatever the
# blocking.
_BLOCK_PAIRS = 1 << 13


def _tree(start: int, stop: int, leaf: Callable):
    """Folds numpy's pairwise-summation tree over entries start..stop-1:
    ``leaf((start, stop))`` is a node's value, or None to add up its
    halves'.  ``np.add.reduce`` cuts a node of n > 128 entries of a
    contiguous array after n/2 rounded down to a multiple of 8.  So with a
    node's ``np.sum`` as its value, every bit is that of ``np.sum`` of the
    whole: the +0.0 each ``np.sum`` starts from only turns -0.0 into +0.0,
    as the whole sum's +0.0 does anyway."""
    value = leaf((start, stop))
    if value is None:
        n = stop - start
        cut = start + n // 2 - n // 2 % 8
        value = _tree(start, cut, leaf) + _tree(cut, stop, leaf)
    return value


@dataclass(frozen=True)
class LevelStack:
    """The intervals of every level of a hierarchy credited at checkpoint
    times, cut into pieces that a kernel gathers one at a time.

    ``LevelStack.build(path, levels, checkpoints=None)`` is the one time
    rule: ``times`` and ``indices`` are the :func:`snap_checkpoints` of the
    checkpoints (without any, t = T: the whole path), ``counts[i, j]`` is
    :func:`left_endpoint_counts` of level i at checkpoint j, and
    ``ends[i, j]``, the grid index of point ``counts[i, j]`` of level i, is
    where that level's sums end (increments telescope to it).  Only
    intervals whose left endpoint is at or before the last checkpoint are
    kept.  A block holds at most ``_BLOCK_INTERVALS`` kept intervals, or a
    single level that is larger.  ``levels`` holds the level descriptors
    (:class:`Stride`, :class:`Packed`, :class:`Points`), read as they are:
    no level becomes an index array.
    """

    levels: Tuple[Union[Stride, Packed, Points], ...]
    times: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    ends: np.ndarray
    blocks: Tuple[Tuple[int, int], ...]

    @classmethod
    def build(cls, path: SampledPath, levels, checkpoints: Optional[Sequence[float]] = None) -> "LevelStack":
        """``levels`` is a :class:`~pathwise.partitions.PartitionHierarchy`
        or a sequence of level descriptors and index arrays."""
        times, indices = snap_checkpoints(path, [path.T] if checkpoints is None else checkpoints)
        levels = tuple(map(as_level, getattr(levels, "parts", levels)))
        last = path.n_samples - 1
        if any(lev.last != last for lev in levels if lev.size > 1):
            raise ParameterError(_LEVEL_RULE)
        # every strided level at once; the others overwrite their rows
        steps = np.array([lev.step if type(lev) is Stride else 1 for lev in levels], dtype=np.int64)[:, None]
        counts = np.minimum(indices // steps + 1, last // steps)
        ends = counts * steps
        for i, lev in enumerate(levels):
            if type(lev) is not Stride:
                counts[i] = lev.counts(indices)
                ends[i] = lev.at(counts[i])
        blocks, first, size = [], 0, 0
        for i, n in enumerate(counts.max(axis=1).tolist()):
            if i > first and size + n > _BLOCK_INTERVALS:
                blocks.append((first, i))
                first, size = i, 0
            size += n
        blocks.append((first, len(levels)))
        return cls(levels=levels, times=times, indices=indices, counts=counts, ends=ends, blocks=tuple(blocks))

    def sums(self, terms: Callable, *values: np.ndarray):
        """Sums of every term of ``terms(a1, b1, a2, b2, ...)`` over each
        level's intervals credited at every checkpoint: shaped
        ``(levels, checkpoints)``, or a tuple of such arrays.

        ``ak`` and ``bk`` hold the k-th value array (last axis) at the left
        and right ends of the intervals of one piece: read-only views of one
        gather of it, offset by one point.  ``terms`` returns a term, or an
        iterable of them (a generator frees each before making the next),
        each an array with one entry per interval.

        A level's intervals between two consecutive checkpoint counts form
        a segment, summed by ``np.sum`` (called as ``np.add.reduce``, the
        reduction it wraps, without its Python-level argument handling); a
        segment cut into pieces adds its node sums up :func:`_tree`, which
        gives the same bytes.  Checkpoint j reads segment sums 0..j, added
        in order from +0.0.  So a level credited at one checkpoint reads the
        ``np.sum`` of all its terms, and a sum of zeros reads +0.0, whatever
        their signs.
        """
        # segment j of level i in column j + 1, after a column of +0.0
        shape = (len(self.levels), self.counts.shape[1] + 1)
        outs, nodes, single = collections.defaultdict(lambda: np.zeros(shape)), {}, False
        counts = self.counts.tolist()
        for single, k, (i, start, stop), x in self._level_terms(terms, values):
            row, out = counts[i], outs[k]
            if start == 0 and stop == row[-1]:  # a whole level: each segment at once
                lo = 0
                for j, hi in enumerate(row, 1):
                    out[i, j] = np.add.reduce(x[lo:hi])
                    lo = hi
            else:  # a node of one segment of a cut level
                nodes.setdefault(k, {})[start, stop] = np.add.reduce(x)
                j = bisect.bisect_left(row, stop)
                if row[j] == stop:
                    out[i, j + 1] = _tree(row[j - 1] if j else 0, stop, nodes.pop(k).get)
        sums = [np.add.accumulate(out, axis=1, out=out)[:, 1:] for out in outs.values()]
        return sums[0] if single else tuple(sums)

    def cell_sums(self, cells: int, terms: Callable, *values: np.ndarray):
        """Per-cell running sums of the (cell, weight) pairs of
        ``terms(a1, b1, a2, b2, ...)`` along each level, read at every
        checkpoint: shaped ``(levels, checkpoints, cells)``, or a tuple.

        ``terms`` is called as for :meth:`sums` and returns, per term,
        ``(offsets, pairs)``: interval j of the piece owns the pairs at
        positions ``offsets[j]`` to ``offsets[j + 1] - 1`` (offsets None:
        the one pair at position j), and ``pairs(start, end)`` gives the
        cell indices and weights of positions start..end-1.  A level's
        pairs are added in order with ``np.add.at``, at most
        ``_BLOCK_PAIRS`` at a time, into one per-cell vector carried from
        piece to piece, so each cell's sum has the bytes of one sequential
        pass over the whole level.
        """
        outs, single = [], False
        for piece in self._pieces():
            # the call's argument is the piece's only hold on its terms, so
            # they are freed before the next piece is gathered
            single = self._add_cells(piece, terms(*self._gather(piece, values)), outs, cells)
        return outs[0][0] if single else tuple(out for out, _ in outs)

    def _add_cells(self, piece, result, outs: list, cells: int) -> bool:
        """Add each term's pairs of a piece, level by level, to its
        ``(out, acc)`` in outs (made at the first piece): ``acc`` is zeroed
        at a level's first piece, and ``out[i, j]`` is set to it after the
        pairs of level i's first ``counts[i, j]`` intervals.  Returns
        whether ``result`` was one term."""
        single = isinstance(result, tuple) and callable(result[-1])
        for k, (offsets, pairs) in enumerate([result] if single else result):
            if k == len(outs):
                outs.append((np.empty(self.counts.shape + (cells,)), np.zeros(cells)))
            out, acc = outs[k]
            for (i, start, stop), first in zip(piece, _firsts(piece)):
                if start == 0:
                    acc[:] = 0.0
                counts = self.counts[i].tolist()
                read = [j for j, c in enumerate(counts) if start <= c <= stop]
                edges = [first + c - start for c in [start, *(counts[j] for j in read), stop]]
                if offsets is not None:
                    edges = offsets[edges].tolist()
                for pos, end, j in zip(edges, edges[1:], read + [None]):
                    for s in range(pos, end, _BLOCK_PAIRS):
                        np.add.at(acc, *pairs(s, min(end, s + _BLOCK_PAIRS)))
                    if j is not None:
                        out[i, j] = acc
        return single

    def _level_terms(self, terms: Callable, values: Sequence[np.ndarray]):
        """``(single, k, (i, start, stop), x)`` per level of each piece and
        term: x holds the k-th term's entries for intervals start..stop-1 of
        level i; ``single``, whether ``terms`` returned one array."""
        for piece in self._pieces():
            result = terms(*self._gather(piece, values))
            single = isinstance(result, np.ndarray)
            ranges = [(entry, first, first + entry[2] - entry[1]) for entry, first in zip(piece, _firsts(piece))]
            for k, term in enumerate([result] if single else result):
                for entry, s, e in ranges:
                    yield single, k, entry, term[s:e]

    def _pieces(self) -> Iterable[List[Tuple[int, int, int]]]:
        """What a kernel gathers at a time, in level order: lists of
        ``(level, start, stop)``, the level's kept intervals start..stop-1.
        A block of levels is one piece, and so is a level of at most
        ``_BLOCK_INTERVALS`` (or 128) intervals; a larger level is cut at
        its checkpoint counts, and each segment between them into nodes of
        :func:`_tree` of at most that many intervals."""
        size = max(_BLOCK_INTERVALS, 128)
        for first, stop in self.blocks:
            kept = self.counts[first:stop, -1].tolist()
            if len(kept) > 1 or kept[0] <= size:
                yield [(i, 0, n) for i, n in enumerate(kept, first)]
                continue
            edges = [0, *self.counts[first].tolist()]
            for lo, hi in zip(edges, edges[1:]):
                if hi > lo:
                    yield from _tree(lo, hi, lambda node: [[(first, *node)]] if node[1] - node[0] <= size else None)

    def _gather(self, piece: Sequence[Tuple[int, int, int]], values: Sequence[np.ndarray]) -> list:
        """``a1, b1, a2, b2, ...`` over the piece's intervals, in turn: each
        value array (last axis) read at their points by each level's reader,
        as read-only views offset by one point.  The pair after one range's
        last interval joins it to the next range and belongs to neither."""
        readers = [self.levels[i].reader(start, stop) for i, start, stop in piece]
        ends = []
        for v in values:
            gathered = readers[0](v) if len(readers) == 1 else np.concatenate([read(v) for read in readers], axis=-1)
            # a and b overlap: writing one would change the other
            gathered.setflags(write=False)
            ends += (gathered[..., :-1], gathered[..., 1:])
        return ends


def _firsts(piece: Sequence[Tuple[int, int, int]]) -> List[int]:
    """Each range's first interval among a piece's gathered intervals,
    past the pairs that join ranges."""
    return list(itertools.accumulate((stop - start + 1 for _, start, stop in piece[:-1]), initial=0))


def residual_scale(*magnitudes) -> np.ndarray:
    """``max(1, |m_1|, |m_2|, ...)``, elementwise: the scale an identity's
    gap is measured against, its largest term floored at 1."""
    return functools.reduce(np.maximum, map(np.abs, magnitudes), 1.0)


def relative_residual(residual, *magnitudes) -> np.ndarray:
    """``residual / residual_scale(m_1, m_2, ...)``, elementwise: an
    identity's gap relative to its largest term, absolute while every term
    is below 1."""
    return residual / residual_scale(*magnitudes)


def check_level(x: float) -> None:
    """The one check of a local-time level: no bracket holds a NaN or
    infinite level, so every sum at one would read 0 (or NaN) without
    saying why; it raises ``ParameterError`` instead."""
    if not math.isfinite(x):
        raise ParameterError(f"local-time level must be finite, got {x}")


def ipow(x, k: int):
    """``x**k`` for an integer k >= 0, by a fixed chain of multiplications:
    square and multiply over the bits of k below the leading one, so
    ``x*x`` first, then ``*= x`` or ``*= itself`` in place.

    numpy's ``power`` loops round differently from CPU to CPU, while a
    product rounds the same everywhere; k = 1 and k = 2 give the bytes of
    ``x**1`` and ``x*x``.  An array gets one new array, as ``x**k`` does,
    and a scalar a scalar; k = 0 gives ones, as ``x**0`` does.
    """
    if k < 0:
        raise ParameterError(f"ipow needs an integer power >= 0, got {k}")
    if k == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    bits = bin(k)[3:]
    out = x * x if bits else x * 1
    for i, bit in enumerate(bits):
        if i:
            out *= out
        if bit == "1":
            out *= x
    return out


def least_squares_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Slope of the least-squares line through the points (x_i, y_i), in
    closed form: ``sum dx dy / sum dx dx`` with dx, dy the deviations from
    the means, every sum a :func:`math.fsum`.  No LAPACK call, and the same
    bytes on every CPU; exact where the deviations and their products are.
    """
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if len(x) != len(y) or len(x) < 2 or not all(map(math.isfinite, x + y)):
        raise ParameterError(f"a slope needs two or more finite (x, y) pairs, got x = {x}, y = {y}")
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - mx for v in x]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise ParameterError(f"a slope needs two distinct x, got {x}")
    return math.fsum(d * (v - my) for d, v in zip(dx, y)) / sxx


def bracket_contributions(a: np.ndarray, b: np.ndarray, p: int, x) -> np.ndarray:
    """Per-interval local-time summands ``1_(min,max](x) |b - x|**(p-1)``,
    at one location x (checked by :func:`check_level`) or at one location
    per interval.

    The half-open bracket excludes the lower endpoint, so ties ``a == b``
    contribute nothing, and a level exactly equal to the lower endpoint of
    an excursion is not charged.
    """
    if not np.ndim(x):
        check_level(x)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    ind = (x > lo) & (x <= hi)
    out = np.zeros_like(a)
    if np.any(ind):
        out[ind] = ipow(np.abs(b[ind] - (x[ind] if np.ndim(x) else x)), p - 1)
    return out


# the largest even p whose p! is a finite float: a test function's p-th
# derivative is p! times its Taylor coefficient of order p
MAX_ORDER = 170


def even_order(p: int) -> int:
    if int(p) != p or not 2 <= p <= MAX_ORDER or p % 2 != 0:
        raise ParameterError(f"order p must be an even integer from 2 to {MAX_ORDER}, got {p}")
    return int(p)


def median(values: Iterable[float]) -> float:
    """Median of finite values: no input, or a NaN that every gate would
    read as false, raises instead."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ParameterError(f"median needs finite values, got {arr.tolist()}")
    # np.median's numbers without its masked-array check, which imports
    # numpy.ma: the mean of the middle value or two, as np.mean forms it
    # (a sum from +0.0, then one division)
    arr.sort()
    half = arr.size // 2
    middle = arr[half - 1 : half + 1] if arr.size % 2 == 0 else arr[half : half + 1]
    return float(middle.sum() / middle.size)


def unique_sorted(x) -> np.ndarray:
    """``np.unique(x)`` without its masked-array check, which imports
    numpy.ma: x flattened and sorted as np.unique sorts it, each run of
    equal values kept once."""
    out = np.sort(x, axis=None)
    keep = np.empty(out.size, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


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
    _object(cfg, where)
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


def _object(cfg, where: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"config field {where!r} must be an object, got {cfg!r}" if where
                          else f"config must be a JSON object, got {type(cfg).__name__}")


def known_keys(cfg, where: str, keys) -> None:
    """Refuse a key of the object ``cfg`` (named ``where``, as for
    :func:`field`) that is not in ``keys``, a tuple or dict of names: a
    misspelt field would otherwise be ignored and its default used.  The
    error names the full field and the nearest known key."""
    _object(cfg, where)
    for key in cfg:
        if key not in keys:
            name = f"{where}.{key}" if where else key
            # imported here: only this error uses it
            import difflib

            near = difflib.get_close_matches(str(key), keys, n=1)
            if near:
                hint = f"did you mean {near[0]!r}?"
            elif keys:
                hint = f"known keys are {', '.join(keys)}"
            else:
                hint = f"{where!r} takes none"
            raise ConfigError(f"config field {name!r} is unknown; {hint}")


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
