"""Discrete and occupation-density local times of order p.

The order-p discrete local time of a path along one partition level is

    L_t(x) = sum over intervals with t_j <= t of
             1_(min, max](x) * |S_{t_{j+1}} - x|**(p-1),

where (min, max] is the half-open range swept by the increment.  It
measures how much order-p variation the path accumulates at the spatial
level x.  The occupation-density variant instead histograms the
finest-level increments |dS|**p by the cell containing the interval's left
value and divides by p * cellwidth, estimating the density of d[S]^p / p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._util import _BLOCK_INTERVALS, LevelStack, Stride, Table, bracket_contributions, even_order, ipow
from .errors import CoverageError, ParameterError
from .partitions import PartitionHierarchy
from .paths import SampledPath

__all__ = [
    "SpaceGrid",
    "LocalTimeField",
    "OccupationLocalTime",
    "discrete_local_time",
    "discrete_local_time_curves",
    "occupation_density_local_time",
    "occupation_time_density",
    "weighted_occupation_local_time",
    "berman_ratio_check",
    "BermanRatioReport",
    "uniform_convergence_report",
    "UniformConvergenceReport",
    "proper_order_report",
    "ProperOrderReport",
    "gaussian_moment",
]


def gaussian_moment(p: int) -> float:
    """E|Z|^p for a standard Gaussian and even p: the double factorial
    (p-1)!! = 1 * 3 * ... * (p-1)."""
    p = even_order(p)
    return float(math.prod(range(1, p, 2)))


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform spatial grid of ``cells`` half-open cells over [lo, hi)."""

    lo: float
    hi: float
    cells: int

    def __post_init__(self):
        for name in ("lo", "hi"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"grid field {name!r} must be finite, got {getattr(self, name)}")
        if isinstance(self.cells, bool) or not isinstance(self.cells, (int, np.integer)):
            raise ParameterError(f"grid field 'cells' must be an integer, got {self.cells!r}")
        if not self.lo < self.hi:
            raise ParameterError(f"grid needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.cells < 1:
            raise ParameterError(f"grid needs at least one cell, got {self.cells}")

    @property
    def cellwidth(self) -> float:
        return (self.hi - self.lo) / self.cells

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """The cells + 1 cell edges, made once per grid and read-only."""
        edges = np.linspace(self.lo, self.hi, self.cells + 1)
        edges.setflags(write=False)
        return edges

    @property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])

    def cell_index(self, x) -> np.ndarray:
        """Index of the cell [edge_i, edge_{i+1}) containing each x: x below
        lo in the first cell, x at or above hi (or NaN) in the last.

        The cell is estimated as ``floor((x - lo) * cells / (hi - lo))``,
        clipped, then moved down one where x lies below its lower edge and
        up one where x reaches its upper edge; that is the index
        ``searchsorted(edges, x, 'right') - 1``, clipped, gives, as long as
        the estimate misses by at most one cell.  It does while a cell spans
        at least 2**12 ulps of the grid's largest magnitude; a finer grid,
        whose edges may even coincide, takes the search itself.
        """
        x = np.asarray(x, dtype=float)
        edges, last = self.edges, self.cells - 1
        if self.cells * (abs(self.lo) + abs(self.hi)) > 2.0**40 * (self.hi - self.lo):
            return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, last)
        # in place: one float array (the estimate, then each edge) and the
        # indices, as many as the search's result and its clipped copy, and
        # one boolean mask
        est = np.empty(x.shape)
        np.subtract(x, self.lo, out=est)
        est *= self.cells / (self.hi - self.lo)
        np.fmax(np.fmin(est, last, out=est), 0.0, out=est)
        k = est.astype(np.intp)
        # no step below the first cell or past the last: their outer edges
        # compare false with every x
        lower, upper = edges[:-1].copy(), edges[1:].copy()
        lower[0], upper[-1] = -np.inf, np.nan
        k[np.take(lower, k, out=est, mode="clip") > x] -= 1
        k[np.take(upper, k, out=est, mode="clip") <= x] += 1
        return k

    @classmethod
    def cover(cls, paths: Sequence[SampledPath], cells: int, points: Sequence[float] = ()) -> "SpaceGrid":
        """Grid covering the joint range of the paths and the extra points
        with a one-cell margin on each side; a single value v gets
        [v - 1, v + 1]."""
        if cells < 3:
            raise ParameterError("cover needs at least 3 cells for the margins")
        extra = [float(x) for x in points]
        m = min([float(p.values.min()) for p in paths] + extra)
        M = max([float(p.values.max()) for p in paths] + extra)
        if M <= m:
            return cls(lo=m - 1.0, hi=m + 1.0, cells=cells)
        cw = (M - m) / (cells - 2)
        return cls(lo=m - cw, hi=M + cw, cells=cells)


@dataclass
class LocalTimeField:
    """Discrete local times on (level, checkpoint, grid-center).

    A level's slice at a checkpoint is supported inside the range the
    path has run through up to where that level's sums end (see
    :attr:`LevelStack.ends`), widened by one cell.
    """

    p: int
    grid: SpaceGrid
    checkpoint_times: np.ndarray
    level_labels: tuple
    per_level: np.ndarray  # (n_levels, n_checkpoints, cells)

    def csv_table(self) -> Table:
        """Rows ``level,t,x,value``."""
        return Table((self.level_labels, self.checkpoint_times, self.grid.centers), (self.per_level,))


@dataclass
class OccupationLocalTime:
    """Histogram density on (checkpoint, grid-center); for the order-p
    variant ``p * cellwidth * sum_x values`` recovers the finest-level
    p-th variation exactly.  ``p`` is None for time-based densities."""

    p: Optional[int]
    grid: SpaceGrid
    checkpoint_times: np.ndarray
    values: np.ndarray  # (n_checkpoints, cells)

    def csv_table(self) -> Table:
        """Rows ``t,x,value``."""
        return Table((self.checkpoint_times, self.grid.centers), (self.values,))


def _check_coverage(path: SampledPath, grid: SpaceGrid) -> None:
    m, M = float(path.values.min()), float(path.values.max())
    if grid.lo > m or grid.hi < M:
        raise CoverageError(
            f"grid [{grid.lo}, {grid.hi}] does not cover the path range [{m}, {M}]"
        )


def discrete_local_time(
    path: SampledPath,
    hierarchy: PartitionHierarchy,
    p: int,
    grid: SpaceGrid,
    checkpoints: Sequence[float],
) -> LocalTimeField:
    """Order-p discrete local time field over all hierarchy levels.

    Entries are nonnegative, non-decreasing in the checkpoint index, and
    vanish at grid centers outside the running range of the path widened
    by one cell.

    Cost: each interval charges only the contiguous run of grid centers
    in its (min, max] bracket, so the work is proportional to the
    (interval, cell) pairs touched, about N + sum |dS| / cellwidth per
    level, rather than to intervals x cells.  Every sample is ranked
    against the centers once per path (the number of centers at or below
    it); since that rank is monotone in the value, an interval's run goes
    from the smaller to the larger rank of its endpoints, and no level
    searches the grid again.  The levels are summed by
    :meth:`LevelStack.cell_sums`, one piece of a level at a time, whose
    pairs are expanded in blocks of ``_BLOCK_PAIRS`` (8,192).  So memory
    is the output field, the ranks (one entry per sample, of the smallest
    type that holds the cell count: one byte up to 255 cells, ranked a
    block of samples at a time), a few arrays of one entry per interval of
    the piece being summed (its gathered values and ranks, run starts,
    pair offsets) and one block of pairs: at n_max = 18, 128 cells and 4
    checkpoints, 0.61 times the path bytes, and an eighth of them plus
    about 1 MiB whatever the path.  Every cell receives the same additions
    in the same order as a dense per-interval prefix sum, whatever the
    blocking, so the field is bit-identical to it.
    """
    p = even_order(p)
    _check_coverage(path, grid)
    centers = grid.centers
    # cells with lo < center <= hi are rank(lo):rank(hi); a rank is at
    # most cells, so it takes the smallest type that holds that, and the
    # samples are ranked a block at a time
    rank = np.empty(path.n_samples, dtype=np.min_scalar_type(grid.cells))
    for s in range(0, rank.size, _BLOCK_INTERVALS):
        rank[s : s + _BLOCK_INTERVALS] = np.searchsorted(centers, path.values[s : s + _BLOCK_INTERVALS], side="right")

    def terms(a, b, rank_a, rank_b):
        first = np.minimum(rank_a, rank_b)
        offsets = np.zeros(first.size + 1, dtype=np.intp)
        np.subtract(np.maximum(rank_a, rank_b), first, out=offsets[1:])
        np.cumsum(offsets[1:], out=offsets[1:])

        def pairs(start, end):
            # intervals j0..j1-1 own the pair positions [start, end)
            j0 = np.searchsorted(offsets, start, side="right") - 1
            j1 = np.searchsorted(offsets, end, side="left")
            runs = np.minimum(offsets[j0 + 1 : j1 + 1], end) - np.maximum(offsets[j0:j1], start)
            owner = np.repeat(np.arange(j0, j1), runs)
            cell = first[owner] + (np.arange(start, end) - offsets[owner])
            return cell, ipow(np.abs(b[owner] - centers[cell]), p - 1)

        return offsets, pairs

    stack = LevelStack.build(path, hierarchy, checkpoints)
    return LocalTimeField(
        p=p,
        grid=grid,
        checkpoint_times=stack.times,
        level_labels=hierarchy.level_labels,
        per_level=stack.cell_sums(grid.cells, terms, path.values, rank),
    )


def discrete_local_time_curves(
    path: SampledPath,
    hierarchy: PartitionHierarchy,
    p: int,
    x: float,
    checkpoints: Sequence[float],
) -> np.ndarray:
    """Discrete local time at one exact location x, per (level, checkpoint).

    Used wherever a spatial atom must be evaluated exactly rather than
    snapped to a cell center.  Summed as every per-level sum at
    checkpoints is (:meth:`LevelStack.sums`), so its bytes may differ in
    the last digits from the field's sequential per-cell sums at a centre.
    """
    p = even_order(p)
    stack = LevelStack.build(path, hierarchy, checkpoints)
    return stack.sums(lambda a, b: bracket_contributions(a, b, p, x), path.values)


def _grid_level(path: SampledPath, checkpoints: Sequence[float]) -> LevelStack:
    """The sampling grid's own level, credited at the checkpoints: the one
    level every histogram bins, a stride of 1 read in place."""
    return LevelStack.build(path, (Stride(1, path.n_samples - 1),), checkpoints)


class _GridIndices:
    """The grid indices as a value array of the grid level, made a piece at
    a time: a stride reads it by a slice (``v[..., cut]``)."""

    def __getitem__(self, key):
        _, cut = key
        return np.arange(cut.start, cut.stop, cut.step)


def _binned_sums(path: SampledPath, grid: SpaceGrid, stack: LevelStack, weights: Callable, *values) -> list:
    """Per interval weight of ``weights(a, b, ...)``, its running per-cell
    sums ``(checkpoints, cells)`` over the one level of ``stack``
    (:func:`_grid_level`): each interval binned by the cell of its left
    value, a, and credited as ``stack`` credits it.  ``weights`` is called
    as a term of :meth:`LevelStack.cell_sums` is, on the path values and
    ``values``, and returns a tuple of arrays of one weight per interval.
    Callers divide by their own denominator.
    """
    _check_coverage(path, grid)
    if grid.cellwidth <= 0:
        raise ParameterError("degenerate grid")

    def terms(a, b, *ends):
        cells = grid.cell_index(a)
        # one pair per interval
        return [(None, lambda start, end, w=w: (cells[start:end], w[start:end])) for w in weights(a, b, *ends)]

    return [sums[0] for sums in stack.cell_sums(grid.cells, terms, path.values, *values)]


def occupation_density_local_time(
    path: SampledPath, p: int, grid: SpaceGrid, checkpoints: Sequence[float]
) -> OccupationLocalTime:
    """Occupation-density local time: finest-level |dS|**p masses binned by
    the cell containing the interval's left value, divided by
    p * cellwidth.  Mass conservation is exact by construction:
    ``p * cellwidth * sum_x values(t, x)`` equals the finest-level p-th
    variation up to accumulation rounding."""
    p = even_order(p)
    stack = _grid_level(path, checkpoints)
    (values,) = _densities(path, grid, stack, p)
    return OccupationLocalTime(p=p, grid=grid, checkpoint_times=stack.times, values=values)


def _densities(path: SampledPath, grid: SpaceGrid, stack: LevelStack, *orders) -> list:
    """The values, ``(checkpoints, cells)``, of one density per order on a
    prebuilt :func:`_grid_level` stack, binned in one pass: for an even
    order p, :func:`occupation_density_local_time` (each interval weighted
    |dS|**p, the sums divided by p * cellwidth), and for None,
    :func:`occupation_time_density` (weighted dt, divided by cellwidth)."""
    def weights(a, b):
        return tuple(np.full(a.size, path.dt) if p is None else ipow(np.abs(b - a), p) for p in orders)

    sums = _binned_sums(path, grid, stack, weights)
    return [s / (grid.cellwidth if p is None else p * grid.cellwidth) for s, p in zip(sums, orders)]


def occupation_time_density(
    path: SampledPath, grid: SpaceGrid, checkpoints: Sequence[float]
) -> OccupationLocalTime:
    """Classical occupation-time density: time spent per cell divided by
    the cellwidth (each interval weighted dt, binned by its left value)."""
    stack = _grid_level(path, checkpoints)
    (values,) = _densities(path, grid, stack, None)
    return OccupationLocalTime(p=None, grid=grid, checkpoint_times=stack.times, values=values)


def weighted_occupation_local_time(
    path: SampledPath, hurst: float, grid: SpaceGrid, checkpoints: Sequence[float]
) -> OccupationLocalTime:
    """Density of the weighted time measure ``2H s**(2H-1) ds``.

    Each interval carries its exact weight ``t_{j+1}**(2H) - t_j**(2H)``,
    so the total mass up to t is ``t**(2H)``.  With H = 1/2 the weight is
    the plain time increment and the result matches the unweighted
    occupation-time density.
    """
    if not (0.0 < hurst < 1.0):
        raise ParameterError(f"hurst must be in (0, 1), got {hurst}")

    def weights(a, b, k_a, k_b):
        # the times at the grid indices k of the piece's points, by
        # np.linspace's own formula, k * (T / N) + 0.0, the bytes of
        # path.times without a piece holding them all; N is a power of two,
        # so T / N is exact and k = N gives exactly T, the time linspace
        # sets last
        tg = np.empty(k_b.size + 1)
        tg[:1], tg[1:] = k_a[:1], k_b
        tg *= path.dt
        tg += 0.0
        tg **= 2 * hurst
        return (tg[1:] - tg[:-1],)

    stack = _grid_level(path, checkpoints)
    (sums,) = _binned_sums(path, grid, stack, weights, _GridIndices())
    return OccupationLocalTime(p=None, grid=grid, checkpoint_times=stack.times, values=sums / grid.cellwidth)


@dataclass
class BermanRatioReport:
    """Per-cell ratio of the order-p occupation-density local time to the
    occupation-time density, against the theoretical constant c_p / p with
    c_p = E|Z|^p.  The spatial average weights each cell by its occupation
    time, so empty and barely-visited cells do not dominate."""

    p: int
    hurst: float
    expected_ratio: float
    average_ratio: float
    cell_centers: np.ndarray
    per_cell_ratio: np.ndarray
    occupation_weights: np.ndarray

    def __str__(self):
        return (
            "occupation-density / occupation-time ratio report\n"
            f"  p = {self.p}, H = {self.hurst}\n"
            f"  theoretical ratio c_p / p = {self.expected_ratio}\n"
            f"  occupation-weighted spatial average = {self.average_ratio!r}\n"
            f"  cells with occupancy: {self.per_cell_ratio.size}"
        )


def berman_ratio_check(path: SampledPath, p: int, grid: SpaceGrid) -> BermanRatioReport:
    """Compare the order-p variation density against the occupation-time
    density for a fractional Brownian path with H = 1/p.

    Requires the path metadata to identify an fBM (or Brownian) sample
    with matching Hurst index; for other paths the ratio has no
    theoretical value and the check refuses to run.
    """
    p = even_order(p)
    kind = path.metadata.get("kind")
    hurst = path.metadata.get("hurst")
    if kind not in ("fbm", "bm") or hurst is None:
        raise ParameterError("ratio check requires an fBM path (generated with kind fbm/bm)")
    if not math.isclose(hurst, 1.0 / p, rel_tol=1e-9):
        raise ParameterError(f"ratio check requires H = 1/p; got H={hurst}, p={p}")
    # both densities at t = T, as occupation_density_local_time and
    # occupation_time_density give them, on one binning of the path
    occ, tau = (d[0] for d in _densities(path, grid, _grid_level(path, [path.T]), p, None))
    sel = tau > 0
    ratios = occ[sel] / tau[sel]
    weights = tau[sel]
    avg = float(np.sum(ratios * weights) / np.sum(weights))
    return BermanRatioReport(
        p=p,
        hurst=float(hurst),
        expected_ratio=gaussian_moment(p) / p,
        average_ratio=avg,
        cell_centers=grid.centers[sel],
        per_cell_ratio=ratios,
        occupation_weights=weights,
    )


_WEAK_CENTIL = (0.3, 0.5, 0.7)
_WEAK_WIDTH_FRAC = (1.0 / 6.0, 1.0 / 12.0)


@dataclass
class UniformConvergenceReport:
    """Level-to-level behavior of a discrete local time field.

    ``sup_diffs[n]`` is the sup over (t, x) of the difference between
    consecutive levels.  The weak diagnostic integrates the final-time
    slice against a fixed library of Gaussian test densities (documented
    in ``test_densities``) and reports successive differences; it probes
    convergence in the integrated (weak) sense without fixing an exponent.
    """

    level_labels: tuple
    sup_diffs: np.ndarray
    test_densities: tuple
    weak_values: np.ndarray  # (n_levels, n_densities)
    weak_diffs: np.ndarray  # (n_levels - 1, n_densities)

    def __str__(self):
        lines = ["uniform convergence report"]
        lines.append(
            "  sup_(t,x) |level_{n+1} - level_n|: "
            + ", ".join(f"{d:.6g}" for d in self.sup_diffs)
        )
        lines.append("  weak diagnostic test densities: " + "; ".join(self.test_densities))
        for k in range(self.weak_diffs.shape[1]):
            lines.append(
                f"  weak diffs [{self.test_densities[k]}]: "
                + ", ".join(f"{d:.6g}" for d in self.weak_diffs[:, k])
            )
        return "\n".join(lines)


def uniform_convergence_report(field: LocalTimeField) -> UniformConvergenceReport:
    if field.per_level.shape[0] < 2:
        raise ParameterError("convergence report needs at least two levels")
    sup_diffs = np.max(np.abs(np.diff(field.per_level, axis=0)), axis=(1, 2))
    grid = field.grid
    span = grid.hi - grid.lo
    centers = grid.centers
    densities = []
    labels = []
    for frac in _WEAK_CENTIL:
        mu = grid.lo + frac * span
        for wf in _WEAK_WIDTH_FRAC:
            sig = wf * span
            g = np.exp(-0.5 * ipow((centers - mu) / sig, 2)) / (sig * np.sqrt(2 * np.pi))
            densities.append(g)
            labels.append(f"gauss(mu={mu:.4g}, sigma={sig:.4g})")
    G = np.asarray(densities)  # (K, cells)
    final = field.per_level[:, -1, :]  # (L, cells)
    weak = grid.cellwidth * final @ G.T
    return UniformConvergenceReport(
        level_labels=field.level_labels,
        sup_diffs=sup_diffs,
        test_densities=tuple(labels),
        weak_values=weak,
        weak_diffs=np.abs(np.diff(weak, axis=0)),
    )


@dataclass
class ProperOrderReport:
    """Growth or decay of sup_x local time across levels per candidate
    order.  ``diverging`` marks a candidate below the proper order
    (values blow up as the partition refines), ``vanishing`` one above it;
    the 10x / 0.1x thresholds are engineering choices.  A sustained total
    trend across the whole hierarchy also triggers the flag, since a
    slowly vanishing candidate may shrink by less than 10x per level."""

    orders: tuple
    level_labels: tuple
    sup_values: np.ndarray  # (n_orders, n_levels)
    flags: tuple

    def __str__(self):
        lines = ["proper-order report (sup_x local time at final time per level)"]
        for i, r in enumerate(self.orders):
            sups = ", ".join(f"{v:.6g}" for v in self.sup_values[i])
            lines.append(f"  order {r}: [{sups}] -> {self.flags[i]}")
        return "\n".join(lines)


def _order_flag(sups: np.ndarray) -> Optional[str]:
    if sups.size < 2:
        return None
    prev, last, first = sups[-2], sups[-1], sups[0]
    if last == 0.0 and prev == 0.0:
        return "vanishing"
    if prev == 0.0:
        return "diverging"
    r_last = last / prev
    r_total = last / first if first > 0 else np.inf
    if r_last >= 10.0 or (r_total >= 10.0 and r_last > 1.0):
        return "diverging"
    if r_last <= 0.1 or (r_total <= 0.1 and r_last < 1.0):
        return "vanishing"
    return "stable"


def proper_order_report(
    path: SampledPath,
    hierarchy: PartitionHierarchy,
    p_candidates: Sequence[int],
    grid: SpaceGrid,
) -> ProperOrderReport:
    """sup_x discrete local time at the final time, per level and
    candidate order, with divergence/vanishing flags."""
    orders = tuple(even_order(r) for r in p_candidates)
    sups = np.zeros((len(orders), hierarchy.n_levels))
    for i, r in enumerate(orders):
        field = discrete_local_time(path, hierarchy, r, grid, [path.T])
        sups[i] = np.max(field.per_level[:, -1, :], axis=1)
    flags = tuple(_order_flag(sups[i]) for i in range(len(orders)))
    return ProperOrderReport(
        orders=orders, level_labels=hierarchy.level_labels, sup_values=sups, flags=flags
    )
