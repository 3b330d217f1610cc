"""Descending ranks, collision local times and integration along ranks.

For m paths on a shared grid, the k-th rank path takes the k-th largest
value at every time, ties grouped by exact float equality.  The
compensated Riemann sum of a ranked path decomposes, interval by
interval, into

    A = B + C + D

where B redistributes the compensated sums of the original paths over the
paths occupying rank k, D collects the rank-gap powers at the interval's
right endpoint (the collision charge, split into its +/- parts), and C
holds the binomial cross terms mixing original-path increments with rank
gaps.  The decomposition is pure algebra at every level; only its limit
interpretation involves local times.

:func:`rank_decompositions` evaluates every rank in one pass over the
levels, in O(m N) work for m paths of N intervals.  Each block of levels
gathers the m path rows once, and one stable argsort of their left values
names each rank's occupant, the path sitting at it.  Where that path sits
there alone, B, C and D are its own terms: only its right value is read,
and f's derivatives at its left value are the rank's.  Only intervals
whose left endpoint is tied at rank k (every level's first, when the
paths start together) weight all m paths by their share of the rank.
Every sum, up to each checkpoint, is :meth:`LevelStack.sums`: one
``np.sum`` per level between consecutive checkpoints, chained in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import LevelStack, Table, bracket_contributions, even_order, ipow
from .errors import ParameterError
from .integrate import TestFunction, _taylor_sum
from .partitions import PartitionHierarchy
from .paths import SampledPath
from .tanaka import IdentityReport, _exact_gate, _report

__all__ = [
    "RankSystem",
    "build_rank_system",
    "collision_local_time",
    "CollisionLocalTime",
    "rank_sum_identity",
    "rank_decomposition",
    "rank_decompositions",
    "RankDecomposition",
    "simplified_cross_term",
    "SimplifiedCrossTerm",
]


@dataclass(frozen=True)
class RankSystem:
    """m paths plus their descending rank values and rank occupation counts.

    ``ranked[k-1, t]`` is the k-th largest value at time t;
    ``counts[k-1, t]`` is the number of paths sitting at rank k there.
    The ranked rows decrease in k, every time-slice of ``ranked`` is a
    permutation of the corresponding slice of ``values``, and the
    reciprocal-count weights of the paths at each rank sum to one.
    """

    paths: tuple
    values: np.ndarray  # (m, n_samples)
    ranked: np.ndarray  # (m, n_samples)
    counts: np.ndarray  # (m, n_samples) of np.min_scalar_type(m)
    T: float
    n_max: int

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def membership(self, k: int) -> np.ndarray:
        """Boolean (m, n_samples): path i occupies rank k at time t."""
        return self.values == self.ranked[k - 1][None, :]

    def gap_path(self, k: int, h: int) -> SampledPath:
        """The nonnegative rank gap X_(k) - X_(h) for k < h."""
        if not (1 <= k < h <= self.m):
            raise ParameterError(f"need 1 <= k < h <= m={self.m}, got k={k}, h={h}")
        return SampledPath(
            T=self.T, n_max=self.n_max, values=self.ranked[k - 1] - self.ranked[h - 1],
            metadata={"kind": "rank-gap", "k": k, "h": h},
        )


def build_rank_system(paths: Sequence[SampledPath]) -> RankSystem:
    """Sort m paths into descending ranks at every grid time.

    An odd-even transposition network orders the rows: m rounds of
    compare-exchanges of adjacent rows, each swapping the two values only
    where the upper one is strictly smaller.  So every column of
    ``ranked`` is a stable permutation of the column of ``values``: tied
    values, +0.0 and -0.0 among them, keep the rows' order, and no byte
    depends on the CPU.  ``np.less`` is a total order here because a
    :class:`SampledPath` holds finite values only.  In a sorted column
    equal values are neighbours, so a rank's tie count is the length of
    its run of equal values.
    """
    if not paths:
        raise ParameterError("need at least one path")
    T, n_max = paths[0].T, paths[0].n_max
    for q in paths[1:]:
        if (q.T, q.n_max) != (T, n_max):
            raise ParameterError("mismatched grids: all paths must share (T, n_max)")
    values = np.vstack([q.values for q in paths])
    ranked = values.copy()
    m, n = values.shape
    swap, row = np.empty(n, dtype=bool), np.empty(n)
    for rnd in range(m):
        for k in range(rnd % 2, m - 1, 2):
            upper, lower = ranked[k], ranked[k + 1]
            np.less(upper, lower, out=swap)
            np.copyto(row, upper)
            np.copyto(upper, lower, where=swap)
            np.copyto(lower, row, where=swap)
    del swap, row
    # ties per (rank, time), none above m: counts[k] first counts the run of
    # equal values ending at rank k, then takes the length of the whole run
    counts = np.ones(values.shape, dtype=np.min_scalar_type(m))
    equal = ranked[:-1] == ranked[1:]
    for k in range(1, m):
        np.add(counts[k - 1], 1, out=counts[k], where=equal[k - 1])
    for k in range(m - 2, -1, -1):
        np.copyto(counts[k], counts[k + 1], where=equal[k])
    return RankSystem(
        paths=tuple(paths), values=values, ranked=ranked, counts=counts, T=T, n_max=n_max
    )


@dataclass
class CollisionLocalTime:
    """Per-level collision diagnostics for one rank gap.

    ``local_time_at_zero`` is the order-p discrete local time of the gap
    path evaluated at exactly 0; because the gap is nonnegative and the
    bracket is half-open, it vanishes unless the gap dips below zero,
    which cannot happen, so nonzero collision mass shows up only in
    ``exact_tie_charge``: the sum of (gap at the right endpoint)**(p-1)
    over intervals whose left endpoint sits at an exact collision.  That
    tie charge is the quantity the rank decomposition's collision term D
    is built from.
    """

    k: int
    h: int
    p: int
    level_labels: tuple
    checkpoint_times: np.ndarray
    local_time_at_zero: np.ndarray  # (n_levels, n_checkpoints)
    exact_tie_charge: np.ndarray  # (n_levels, n_checkpoints)


def collision_local_time(
    system: RankSystem,
    k: int,
    h: int,
    hierarchy: PartitionHierarchy,
    p: int,
    checkpoints: Sequence[float],
) -> CollisionLocalTime:
    p = even_order(p)
    gap = system.gap_path(k, h)
    stack = LevelStack.build(gap, hierarchy, checkpoints)

    def terms(ga, gb):
        return bracket_contributions(ga, gb, p, 0.0), (ga == 0.0) * ipow(gb, p - 1)

    literal, tie_charge = stack.sums(terms, gap.values)
    return CollisionLocalTime(
        k=k, h=h, p=p,
        level_labels=hierarchy.level_labels,
        checkpoint_times=stack.times,
        local_time_at_zero=literal,
        exact_tie_charge=tie_charge,
    )


def rank_sum_identity(
    system: RankSystem, hierarchy: PartitionHierarchy, p: int, x: float = 0.0
) -> IdentityReport:
    """Per-level gap between the summed local times of the ranked paths
    and of the original paths at the level x; the identity holds in the
    limit, so this is a trend report."""
    p = even_order(p)
    stack = LevelStack.build(system.paths[0], hierarchy)

    # summed one path at a time, so one row of a piece is gathered at a time
    lhs, rhs = (sum(stack.sums(lambda a, b: bracket_contributions(a, b, p, x), row)[:, 0] for row in rows)
                for rows in (system.ranked, system.values))
    return _report(f"rank local-time sum at x={x}", hierarchy.level_labels, lhs, rhs)


@dataclass
class RankDecomposition:
    """The four per-level sums of the integration-along-ranks identity.

    A: compensated sum of the ranked path.  B: rank-occupation-weighted
    compensated sums of the originals.  C: binomial cross terms (empty,
    hence exactly zero, for p = 2).  D: collision charge, with its +/-
    split.  ``A = B + C + D`` holds to rounding at every level.
    """

    k: int
    p: int
    f_name: str
    level_labels: tuple
    checkpoint_times: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    D_plus: np.ndarray
    D_minus: np.ndarray
    residual: np.ndarray
    relative_residual: np.ndarray
    passed: bool

    def csv_table(self) -> Table:
        """Rows ``k,level,t,A,B,C,D,residual``."""
        return Table(((self.k,), self.level_labels, self.checkpoint_times),
                     (self.A, self.B, self.C, self.D, self.residual))


def _occupants(Xa: np.ndarray) -> np.ndarray:
    """Row k-1 holds the path at rank k on each column of the (m, n)
    values Xa: one stable argsort of the columns, descending.  Where a
    rank is shared it names one of the tied paths."""
    return np.argsort(-Xa, axis=0, kind="stable")


def _rank_weighted_sums(terms, f, fr, Ra, Rb, Xa, Xb, na, occupant):
    """Per interval, the sums over the m paths of each array that
    ``terms(fx, fk, dX, gap)`` returns, path i weighted by
    ``(Xa_i == Ra) / na``: its share of rank k at the left endpoint.

    ``terms`` gets f's derivatives ``fx`` (a dict by order) at the path's
    left value, the same orders ``fk`` at the rank's, the path increment
    ``dX`` and the right-endpoint gap ``gap = Rb - Xb``; ``fr`` holds the
    orders at Ra.  Where one path alone sits at rank k, the occupant, its
    weight is 1 and every other weight 0: its left value is Ra, so its fx
    is fr, and the dense sum, which starts at +0.0 and adds only zeros
    besides the occupant's term, is that term plus 0.0.  Only the tied
    columns (``na > 1``) take the dense weighted form over all m paths;
    their gather keeps the block's path-contiguous layout, so numpy adds
    each column's m terms in the same order as over the whole block.
    """
    cols = np.arange(Ra.size)
    xb = Xb[occupant, cols]
    sums = terms(fr, fr, xb - Ra, Rb - xb)
    for s in sums:
        s += 0.0
    tied = np.flatnonzero(na > 1)
    if tied.size:
        xa, xb, ra = Xa[:, tied], Xb[:, tied], Ra[tied]
        w = (xa == ra[None, :]) / na[tied][None, :]
        fx = {r: np.asarray(f.derivative(xa, r), dtype=float) for r in fr}
        fk = {r: v[tied] for r, v in fr.items()}
        for s, t in zip(sums, terms(fx, fk, xb - xa, Rb[tied] - xb)):
            s[tied] = np.sum(w * t, axis=0)
    return sums


def _rank_decompositions(
    system: RankSystem,
    ranks: Sequence[int],
    hierarchy: PartitionHierarchy,
    p: int,
    f,
    checkpoints: Sequence[float],
) -> list:
    """The decompositions of the given ranks, in one pass over the levels."""
    p = even_order(p)
    lo = min(ranks) - 1
    rows = slice(lo, max(ranks))
    fact = [math.factorial(i) for i in range(p + 1)]
    stack = LevelStack.build(system.paths[0], hierarchy, checkpoints)

    def terms(fx, fk, dX, gap):
        b_terms = _taylor_sum(fx.__getitem__, dX, p)
        c_terms = np.zeros_like(dX)
        for ell in range(1, p - 1):
            gl = ipow(gap, ell)
            for r in range(ell, p):
                c_terms += fk[r] / (fact[ell] * fact[r - ell]) * ipow(dX, r - ell) * gl
        return (b_terms, c_terms, ipow(gap, p - 1),
                ipow(np.maximum(gap, 0.0), p - 1), ipow(np.maximum(-gap, 0.0), p - 1))

    def one_rank(Ra, Rb, Xa, Xb, na, occupant):
        fr = {r: np.asarray(f.derivative(Ra, r), dtype=float) for r in range(1, p)}
        a_sum = _taylor_sum(fr.__getitem__, Rb - Ra, p)
        b_sum, c_sum, d_sum, d_plus, d_minus = _rank_weighted_sums(
            terms, f, fr, Ra, Rb, Xa, Xb, na, occupant)
        dcoef = fr[p - 1] / fact[p - 1]
        return a_sum, b_sum, c_sum, d_sum * dcoef, d_plus * dcoef, d_minus * dcoef

    def rank_terms(Xa, Xb, Ras, Rbs, nas, _):
        occupants = _occupants(Xa)
        # one rank at a time, each summed before the next is made, so only
        # one row's temporaries are alive
        for k in ranks:
            i = k - 1 - lo
            yield from one_rank(Ras[i], Rbs[i], Xa, Xb, nas[i], occupants[k - 1])

    sums = stack.sums(rank_terms, system.values, system.ranked[rows], system.counts[rows])
    decompositions = []
    for i, k in enumerate(ranks):
        A, B, C, D, D_plus, D_minus = sums[6 * i: 6 * i + 6]
        resid = np.abs(A - (B + C + D))
        rel, _, within = _exact_gate(resid, A, B, C, D)
        decompositions.append(RankDecomposition(
            k=k, p=p, f_name=getattr(f, "name", ""), level_labels=hierarchy.level_labels,
            checkpoint_times=stack.times, A=A, B=B, C=C, D=D, D_plus=D_plus, D_minus=D_minus,
            residual=resid, relative_residual=rel, passed=bool(np.all(within)),
        ))
    return decompositions


def rank_decompositions(
    system: RankSystem,
    hierarchy: PartitionHierarchy,
    p: int,
    f,
    checkpoints: Sequence[float],
) -> list:
    """A, B, C, D of every rank k = 1..m, gated on A = B + C + D, in one
    pass over the levels: O(m N) work, not O(m^2 N).

    The interval algebra: on a tie X_i(t_j) = X_(k)(t_j), the ranked
    increment is the path increment plus the right-endpoint rank gap, and
    the binomial theorem splits each power accordingly; summing preserves
    equality exactly.
    """
    return _rank_decompositions(system, range(1, system.m + 1), hierarchy, p, f, checkpoints)


def rank_decomposition(
    system: RankSystem,
    k: int,
    hierarchy: PartitionHierarchy,
    p: int,
    f,
    checkpoints: Sequence[float],
) -> RankDecomposition:
    """The decomposition of rank k alone; see :func:`rank_decompositions`."""
    if not (1 <= k <= system.m):
        raise ParameterError(f"rank k must be in 1..{system.m}, got {k}")
    return _rank_decompositions(system, (k,), hierarchy, p, f, checkpoints)[0]


@dataclass
class SimplifiedCrossTerm:
    """The reduced cross-term sum available when f has vanishing p-th and
    higher derivatives, against the full cross term C; their gap shrinks
    with the oscillation and is reported per level."""

    k: int
    p: int
    level_labels: tuple
    checkpoint_times: np.ndarray
    simplified: np.ndarray
    full: np.ndarray
    gap: np.ndarray


def simplified_cross_term(
    system: RankSystem,
    k: int,
    hierarchy: PartitionHierarchy,
    p: int,
    f: TestFunction,
    checkpoints: Sequence[float],
) -> SimplifiedCrossTerm:
    p = even_order(p)
    if not isinstance(f, TestFunction) or f.degree > p - 1 or not f.stieltjes_measure(p - 1).is_zero:
        raise ParameterError(
            "simplified cross term requires a polynomial with vanishing p-th derivative"
        )
    full = rank_decomposition(system, k, hierarchy, p, f, checkpoints).C
    stack = LevelStack.build(system.paths[0], hierarchy, checkpoints)

    def terms(fx, fk, dX, gap):
        return (_taylor_sum(fx.__getitem__, gap, p - 1),)

    def cross_terms(Ra, Rb, Xa, Xb, na, _):
        fr = {ell: np.asarray(f.derivative(Ra, ell), dtype=float) for ell in range(1, p - 1)}
        (sums,) = _rank_weighted_sums(terms, f, fr, Ra, Rb, Xa, Xb, na, _occupants(Xa)[k - 1])
        return sums

    simplified = stack.sums(cross_terms, system.ranked[k - 1], system.values, system.counts[k - 1])
    return SimplifiedCrossTerm(
        k=k, p=p,
        level_labels=hierarchy.level_labels,
        checkpoint_times=stack.times,
        simplified=simplified,
        full=full,
        gap=np.abs(simplified - full),
    )
