"""Nested partition hierarchies and oscillation.

Partitions are sets of indices into a path's dyadic grid, each held as a
level descriptor (a stride, packed bits or an index array; see
:class:`PartitionHierarchy`).  Dyadic hierarchies are nested by
construction.  Lebesgue hierarchies place partition points at
the successive first grid times at which the path has moved by a spatial
threshold ``2**-n`` since the previous point; they are not nested in
general, so nestedness is checked and reported rather than forced.

A Lebesgue level is defined by a sequential scan, but a step longer than
twice the threshold is a crossing whatever the scan saw before, so such
forced crossings cut the level into independent stretches.  Numpy steps
the stretches together, in groups of similar length, and does work
proportional to N per level; Python scans only what is left of each
group's longest ones, skipping blocks that stay within the threshold of
the current point.
"""

from __future__ import annotations

from array import array
from typing import Sequence, Tuple

import numpy as np

from ._util import _LEVEL_RULE, Packed, Points, Stride, as_level
from .errors import ParameterError, ResolutionError
from .paths import SampledPath

__all__ = [
    "PartitionHierarchy",
    "dyadic_hierarchy",
    "lebesgue_hierarchy",
    "oscillation",
]

# Lebesgue scan: a step longer than _FORCED_STEP thresholds is a crossing
# whatever the anchor.  The stretches between such steps advance together
# in groups of _LOCKSTEP_GROUP, longest first, one numpy pass per sample
# offset, while at least _LOCKSTEP_MIN of a group are open; Python scans
# what is left a block of _SKIP_BLOCK samples at a time
_FORCED_STEP = 2.0 * (1.0 + 2.0**-40)
_LOCKSTEP_GROUP = 1 << 13
_LOCKSTEP_MIN = 32
_SKIP_BLOCK = 16

# Samples read at a time by the oscillation and the forced-level search
_OSC_BLOCK = 1 << 15

# Lebesgue thresholds 2**-n are 0.0 from n = 1075 on
_MAX_LEBESGUE_LEVELS = 1074


class PartitionHierarchy:
    """A refining sequence of partitions of ``[0, T]``.

    Each level is a set of grid indices, strictly increasing from 0 to the
    last grid index, so every level shares the endpoints of the time
    interval.  ``parts[i]`` holds level i as a descriptor that the
    interval kernel (:class:`~pathwise._util.LevelStack`) and the
    oscillation read as it is: a :class:`~pathwise._util.Stride` for a
    dyadic level, :class:`~pathwise._util.Packed` bits (one per grid
    point) for a Lebesgue level that holds at least 1/64 of the grid's
    points, and :class:`~pathwise._util.Points`, an index array, for a
    sparser Lebesgue level and for every level a caller gives as an array
    (checked there to be strictly increasing from 0; the kernel checks its
    end against the path).  ``levels`` and :meth:`level` make index arrays
    from them on each access.  ``level_labels[i]`` is the refinement
    exponent n of that level (threshold ``2**-n`` for Lebesgue levels,
    step ``2**-n * T`` for dyadic ones).
    """

    def __init__(self, kind: str, levels: Sequence, level_labels: Sequence[int], nested: bool):
        self.kind = kind
        self.parts = tuple(map(as_level, levels))
        self.level_labels = tuple(level_labels)
        self.nested = nested

    @property
    def levels(self) -> Tuple[np.ndarray, ...]:
        """Every level's index array, made on each access."""
        return tuple(part.points() for part in self.parts)

    @property
    def n_levels(self) -> int:
        return len(self.parts)

    def level(self, label: int) -> np.ndarray:
        """Index array of the level with refinement exponent ``label``."""
        try:
            i = self.level_labels.index(label)
        except ValueError:
            raise ParameterError(f"no level labelled {label}; have {self.level_labels}") from None
        return self.parts[i].points()

    @property
    def finest(self) -> np.ndarray:
        return self.parts[-1].points()


def _dyadic_levels(path: SampledPath, levels: int, first: int = 1) -> Tuple[Stride, ...]:
    """Dyadic levels first..levels of a hierarchy of ``levels`` levels;
    level n is the stride of the ``2**n + 1`` indices ``k * 2**(n_max - n)``."""
    if levels < 1:
        raise ParameterError(f"levels must be >= 1, got {levels}")
    if levels > path.n_max:
        raise ResolutionError(
            f"requested {levels} dyadic levels but path resolution is n_max={path.n_max}"
        )
    return tuple(Stride(2 ** (path.n_max - n), 2**path.n_max) for n in range(first, levels + 1))


def dyadic_hierarchy(path: SampledPath, levels: int) -> PartitionHierarchy:
    """Dyadic levels 1..levels; level n has the ``2**n + 1`` indices
    ``k * 2**(n_max - n)``, held as a stride.  Nested by construction."""
    return PartitionHierarchy(
        kind="dyadic", levels=_dyadic_levels(path, levels), level_labels=tuple(range(1, levels + 1)), nested=True
    )


def lebesgue_hierarchy(path: SampledPath, levels: int) -> PartitionHierarchy:
    """Path-generated levels 1..levels with spatial thresholds ``2**-n``.

    Level n consists of the successive first grid indices at which the path
    has moved by at least ``2**-n`` from the previous partition point
    (crossings are detected at the first grid point at or after the exact
    crossing, so a one-grid-step overshoot is accepted).  Index 0 and the
    final index are always included.

    The points are those of the sequential scan ``abs(v_j - anchor) >= eps``
    over j = 1..N, with the anchor moved to each crossing, index for index.
    A step with ``fl|v_j - v_{j-1}| > 2 eps (1 + 2**-40)`` is a crossing
    whatever the anchor: before it, ``fl|v_{j-1} - anchor| < eps``, and as
    eps is a power of two and rounding is monotone, the real distance is
    below eps too; the real step exceeds 2 eps, so v_j lies more than eps
    from the anchor and its rounded distance is at least eps.  The anchor
    after such a step is v_j, so these forced crossings split the level
    into stretches that do not depend on each other.  Longest first, they
    are taken in groups of ``_LOCKSTEP_GROUP``; numpy steps a group's
    stretches together, one sample offset per pass, while at least
    ``_LOCKSTEP_MIN`` of them are open; Python finishes the fewer, longer
    ones that remain, and skips every block of ``_SKIP_BLOCK`` samples
    whose maximum and minimum both lie within eps of the anchor.  Numpy
    work is proportional to N per level; Python runs only over the tails
    of each group's longest stretches (at the coarsest thresholds often
    the whole level), and there only over the blocks that reach eps from
    the anchor.

    Each step's first forced level is found once (:func:`_forced_levels`),
    from the steps of a block of ``_OSC_BLOCK`` samples at a time, and kept
    in one byte (two from 255 levels on), so a level's forced crossings are
    the steps whose byte is at most n.  Each level is marked
    on one boolean per sample and kept as packed bits, one per sample
    (:class:`~pathwise._util.Packed`), or, where it holds fewer than 1/64
    of the samples, as its index array, the smaller of the two there.  The
    hierarchy is nested when no level's bits are missing from the next
    level's.  Besides the levels, the scan holds the forced-level bytes,
    the block extrema (two floats per ``_SKIP_BLOCK`` samples), the
    previous level's bits and a level's marks, and while it finds a
    level's stretches two more booleans per sample, then two int32 and one
    index per stretch; its temporaries are bounded by the blocks and
    groups.  At n_max = 18 (fBM, H = 1/4, 8 levels) it traces 1.16 times
    the path bytes.

    At most ``_MAX_LEBESGUE_LEVELS`` = 1074 levels: ``2.0**-n`` is 0.0
    from n = 1075 on, where every sample would cross.
    """
    if not 1 <= levels <= _MAX_LEBESGUE_LEVELS:
        raise ParameterError(
            f"levels must be in 1..{_MAX_LEBESGUE_LEVELS}, got {levels}: the threshold 2**-n is 0.0 from n = 1075 on"
        )
    vals = path.values
    if vals.max() == vals.min():
        raise ParameterError("lebesgue_hierarchy requires a non-constant path")
    forced = np.empty(vals.size - 1, dtype=np.min_scalar_type(levels + 1))
    for s in range(0, forced.size, _OSC_BLOCK):
        forced[s : s + _OSC_BLOCK] = _forced_levels(np.diff(vals[s : s + _OSC_BLOCK + 1]), levels)
    block_range = tuple(array("d", f.reduceat(vals, np.arange(0, vals.size, _SKIP_BLOCK)).tobytes())
                        for f in (np.maximum, np.minimum))
    parts, nested, coarser = [], True, None
    for n in range(1, levels + 1):
        mark = _lebesgue_mark(vals, forced, n, block_range)
        bits = np.packbits(mark)
        nested = nested and (coarser is None or not np.any(coarser & ~bits))
        # 8 bytes per point against an eighth of a byte per sample
        sparse = 64 * np.count_nonzero(mark) < mark.size
        parts.append(Points(np.flatnonzero(mark)) if sparse else Packed(bits, mark.size - 1))
        del mark
        coarser = bits
    return PartitionHierarchy(
        kind="lebesgue", levels=parts, level_labels=tuple(range(1, levels + 1)), nested=nested
    )


def _forced_levels(steps, levels):
    """Each step's first forced level: the least n in 1..levels with
    ``abs(step) > _FORCED_STEP * 2.0**-n``, or levels + 1 where there is
    none, one entry of ``np.min_scalar_type(levels + 1)`` per step.
    ``steps``, float64, serves as scratch.

    Up to n = 1023 the threshold is the normal float
    ``2**(1 - n) * (1 + 2**-40)``, whose bits, read as an int64, are
    ``(1024 - n) << 52 | 1 << 12``; nonnegative floats order as their
    bits, so a magnitude with bits b is forced exactly from level
    ``1024 - ((b - (1 << 12) - 1) >> 52)`` on, as long as that is at most
    1023.  From n = 1024 on the thresholds are subnormal, from 1036 on
    they round and from 1075 on they are 0, so more levels than 1023 are
    searched among the thresholds themselves.
    """
    dtype = np.min_scalar_type(levels + 1)
    if levels > 1023:
        thresholds = np.array([_FORCED_STEP * 2.0**-n for n in range(levels, 0, -1)])
        return (levels + 1 - np.searchsorted(thresholds, np.abs(steps))).astype(dtype)
    bits = steps.view(np.int64)
    bits &= np.int64(2**63 - 1)  # the magnitude
    bits -= (1 << 12) + 1
    bits >>= 52
    np.subtract(1024, bits, out=bits)
    np.clip(bits, 1, levels + 1, out=bits)
    return bits.astype(dtype)


def _lebesgue_mark(vals, forced, n, block_range):
    """Whether each sample is a point of the Lebesgue level with threshold
    ``2**-n``."""
    eps = 2.0 ** (-n)
    mark = np.zeros(vals.size, dtype=bool)
    pos, ends = _mark_forced(mark, forced, n)
    hits = []
    for g in range(0, pos.size, _LOCKSTEP_GROUP):
        _scan_group(vals, mark, pos[g : g + _LOCKSTEP_GROUP], ends[g : g + _LOCKSTEP_GROUP], eps, block_range, hits)
    mark[hits] = True
    mark[0] = mark[-1] = True
    return mark


def _scan_group(vals, mark, pos, ends, eps, block_range, hits):
    """Mark the crossings of a group of stretches, longest first, given
    by their anchors' indices ``pos`` and their ends; those that Python
    finds are appended to ``hits``."""
    pos = pos.astype(np.intp)  # numpy indexes by intp, and converts any other type on each pass
    anchor = vals[pos]
    lengths = ends - pos - 1
    # numpy steps every open stretch one sample on per pass, while at least
    # _LOCKSTEP_MIN are open: the first open_at[k - 1] at offset k
    passes = lengths[_LOCKSTEP_MIN - 1] if lengths.size >= _LOCKSTEP_MIN else 0
    open_at = np.searchsorted(-lengths, -np.arange(1, passes + 2), side="right").tolist()
    for m in open_at[:-1]:
        p = pos[:m]
        p += 1
        v = vals[p]
        hit = np.abs(v - anchor[:m]) >= eps
        mark[p] = hit
        np.copyto(anchor[:m], v, where=hit)
    # Python finishes the stretches still open, from where numpy left them
    m = open_at[-1]
    for j, end, a in zip(pos[:m].tolist(), ends[:m].tolist(), anchor[:m].tolist()):
        _scan_stretch(vals, j, end, a, eps, block_range, hits)


def _mark_forced(mark, forced, n):
    """Mark the forced crossings of level n, the steps whose first forced
    level (:func:`_forced_levels`) is at most n, in ``mark`` (all False on
    entry) and return the stretches between them that hold samples to
    scan, longest first: the index of each one's anchor, and one past its
    last sample.

    The bounds are 0, the forced crossings and one past the final sample;
    a stretch runs from a bound, its anchor, to the next bound, and holds
    samples where a bound is not followed by another.  They are found on
    one boolean per point, not on an index per bound: at fine thresholds
    nearly every step is forced.  The stretches' anchors and ends are int32
    where the grid allows it, half the bytes of an index.
    """
    bound = np.empty(mark.size + 1, dtype=bool)
    bound[0] = bound[-1] = True
    np.less_equal(forced, n, out=bound[1:-1])
    mark[1:] = bound[1:-1]
    index = np.int32 if mark.size < 2**31 else np.intp
    edge = np.empty(mark.size, dtype=bool)
    np.greater(bound[:-1], bound[1:], out=edge)  # a bound, then a sample to scan
    starts = np.flatnonzero(edge).astype(index)
    np.less(bound[:-1], bound[1:], out=edge)  # the last sample to scan, then a bound
    del bound
    stops = np.flatnonzero(edge).astype(index)
    del edge
    stops += 1
    order = np.argsort(stops - starts)[::-1]
    return starts[order], stops[order]


def _scan_stretch(vals, j, end, anchor, eps, block_range, hits):
    """Append the crossings among ``j + 1 .. end - 1`` to ``hits``, from
    ``anchor``.  A block whose rounded ``max - anchor`` and ``anchor - min``
    are both below eps holds no crossing, by monotone rounding, and is
    skipped."""
    block_max, block_min = block_range
    j += 1
    while j < end:
        b = j // _SKIP_BLOCK
        stop = min((b + 1) * _SKIP_BLOCK, end)
        if block_max[b] - anchor >= eps or anchor - block_min[b] >= eps:
            for i, v in enumerate(vals[j:stop].tolist(), j):
                if abs(v - anchor) >= eps:
                    hits.append(i)
                    anchor = v
        j = stop


def oscillation(path: SampledPath, level) -> float:
    """Largest in-cell fluctuation ``max_cells (max - min)`` of the path
    along a level: an index array or a level descriptor.

    All grid samples inside the closed cell count, not just the cell
    endpoints; endpoint-only ranges understate the oscillation of wiggly
    paths.  It is the width of an oscillation band about any level set of
    the path at that level; for a map of the path, such as |X|, pass the
    mapped path.
    """
    return _oscillation(path.values, level)


def _oscillation(values: np.ndarray, level) -> float:
    """:func:`oscillation` of the samples ``values``, read in blocks of
    ``_OSC_BLOCK`` samples: a block's cells are cut at the level points
    inside it (the descriptor's ``between``), and the cell open at its end
    carries its extrema into the next block.  Max and min are exact, so the
    value is that of one pass over the whole path."""
    lev = as_level(level)
    last = values.size - 1
    if lev.size < 2 or lev.last != last:
        raise ParameterError(_LEVEL_RULE)
    widths, carry = [], None
    for s in range(0, last, _OSC_BLOCK):
        e = min(s + _OSC_BLOCK, last)
        v = values[s : e + 1]
        # the block's cells start at its level points and at s
        starts = lev.between(s, e) - s
        fresh = starts.size > 0 and starts[0] == 0
        if not fresh:
            starts = np.concatenate([[0], starts])
        # reduceat covers [start_k, start_{k+1}) and the last start to e;
        # closed cells also own their right endpoint, folded in explicitly
        hi, lo = np.maximum.reduceat(v, starts), np.minimum.reduceat(v, starts)
        np.maximum(hi[:-1], v[starts[1:]], out=hi[:-1])
        np.minimum(lo[:-1], v[starts[1:]], out=lo[:-1])
        if carry is not None and not fresh:
            hi[0], lo[0] = np.maximum(hi[0], carry[0]), np.minimum(lo[0], carry[1])
        elif carry is not None:
            widths.append(carry[0] - carry[1])
        widths.append(np.max(hi[:-1] - lo[:-1], initial=-np.inf))
        carry = hi[-1], lo[-1]
    widths.append(carry[0] - carry[1])
    return float(np.max(widths))
