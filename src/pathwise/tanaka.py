"""Change-of-variable and Tanaka-type identity verification.

The backbone is the finite-level change-of-variable identity: for a test
function f of class C^(p-2) with piecewise-polynomial structure and
right-continuous BV derivative f^(p-1),

    f(S_t) - f(S_0) - [compensated sum]  =  (1/(p-1)!) * [remainder pairing]

holds exactly at every partition level, because each interval contributes
its Taylor formula with exact integral remainder.  Everything else here
(Ito residuals, positive/negative-part identities, max/min decompositions,
monotone-map scaling, occupation-density checks) is verified either as
exact per-level algebra or as a per-level trend report when only the limit
is asserted by the theory.

Local-time values at a point are computed through the telescoped
Tanaka-Meyer form ``delta((x-a)^+)^(p-1) - [plus-variant sum]``, which
agrees with the half-open-bracket discrete local time away from exact
ties and remains the algebraically consistent object on engineered paths
that touch the level exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ._util import (LevelStack, Table, bracket_contributions, check_level, even_order, ipow, relative_residual,
                    residual_scale, unique_sorted)
from .errors import ParameterError
from .integrate import (SmoothCallable, TestFunction, _follmer_sums, _measure_remainder_sums, _remainder,
                        _tanaka_meyer_sums)
from .localtime import SpaceGrid, _densities, _grid_level
from .partitions import PartitionHierarchy, _oscillation
from .paths import SampledPath

__all__ = [
    "IdentityReport",
    "finite_n_identity",
    "finite_n_report",
    "tanaka_meyer_report",
    "ito_residual",
    "identity_suite",
    "scaling_check",
    "scaling_root_preset",
    "occupation_check",
    "CellIndicator",
    "EXACT_THRESHOLD",
]

EXACT_THRESHOLD = 1e-9


@dataclass
class IdentityReport:
    """Both sides of one identity across partition levels.

    ``residuals`` are absolute gaps |lhs - rhs| and ``relative_residuals``
    their ``relative_residual``.  ``level_passed`` holds each level's
    verdict and ``passed`` whether every level passed: exact-per-level
    identities take both from :func:`_exact_gate`, a desk-scale gate
    compares the absolute gaps with its ``threshold``, and limit-only trend
    reports leave all three None.
    """

    identity: str
    level_labels: tuple
    lhs: np.ndarray
    rhs: np.ndarray
    residuals: np.ndarray
    relative_residuals: np.ndarray
    exactness: str  # "exact-per-level" | "limit-only"
    threshold: Optional[float] = None
    passed: Optional[bool] = None
    level_passed: Optional[np.ndarray] = None
    details: dict = field(default_factory=dict)

    def csv_table(self) -> Table:
        """Rows ``identity,level,lhs,rhs,residual,class``."""
        return Table(((self.identity,), self.level_labels), (self.lhs, self.rhs, self.residuals, self.exactness))

    def __str__(self):
        status = "" if self.passed is None else f" passed={self.passed}"
        worst = np.max(self.residuals) if self.residuals.size else 0.0
        return f"{self.identity} [{self.exactness}] worst |lhs-rhs| = {worst:.3e}{status}"


def _exact_gate(residual, *magnitudes):
    """The one gate of every exact-per-level identity: the relative
    residuals ``residual / max(1, |magnitudes|...)``, the threshold
    EXACT_THRESHOLD as it reads at the call, and each relative residual's
    verdict against it (NaN fails)."""
    relative = relative_residual(residual, *magnitudes)
    threshold = EXACT_THRESHOLD
    return relative, threshold, relative <= threshold


def _report(identity: str, labels, lhs, rhs, details=None, *, exact: bool = False,
            tolerance: Optional[float] = None) -> IdentityReport:
    """A complete report: gated by :func:`_exact_gate` when ``exact``, on
    |lhs - rhs| <= ``tolerance`` when one is given, else a limit-only trend
    report without a verdict."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    residuals = np.abs(lhs - rhs)
    if exact:
        relative, threshold, within = _exact_gate(residuals, lhs, rhs)
    else:
        relative, threshold = relative_residual(residuals, lhs, rhs), tolerance
        within = None if tolerance is None else residuals <= tolerance
    return IdentityReport(identity, tuple(labels), lhs, rhs, residuals, relative,
                          "exact-per-level" if exact else "limit-only", threshold,
                          None if within is None else bool(np.all(within)), within, details or {})


# -- the exact finite-level change-of-variable identity -----------------


def _change_of_variable_sides(path: SampledPath, levels, p: int, f: TestFunction, t: float):
    """Both sides of the order-p change-of-variable identity at each level.

    The smoothness guard and the Stieltjes measure d f^(p-1) are per
    (path, f), the change f(S_u) - f(S_0) is taken where each level's sums
    end, and the terms of both sums are evaluated once per piece.
    """
    if f.smoothness is not None and f.smoothness < p - 2:
        raise ParameterError(
            f"test function must be C^{p - 2} across breakpoints; declared C^{f.smoothness}"
        )
    measure = f.stieltjes_measure(p - 1)

    def terms(a, b):
        yield _follmer_sums(a, b, p, f)
        yield from _measure_remainder_sums(a, b, p, measure)

    stack = LevelStack.build(path, levels, [t])
    comp, *remainder = (s[:, 0] for s in stack.sums(terms, path.values))
    change = f.value(path.values[stack.ends[:, 0]]) - f.value(path.values[0])
    return change - comp, _remainder(remainder, measure, len(stack.levels)) / math.factorial(p - 1)


def finite_n_identity(path: SampledPath, level: np.ndarray, p: int, f: TestFunction, t: float) -> float:
    """Relative residual of the order-p change-of-variable identity at one
    level; exact algebra, so the result is rounding noise (<= 1e-9) for
    any admissible test function, path and level."""
    lhs, rhs = _change_of_variable_sides(path, (level,), even_order(p), f, t)
    relative, _, _ = _exact_gate(np.abs(lhs - rhs), lhs, rhs)
    return float(relative[0])


def finite_n_report(
    path: SampledPath, hierarchy: PartitionHierarchy, p: int, f: TestFunction, t: float
) -> IdentityReport:
    """The change-of-variable identity of :func:`finite_n_identity` over a
    whole hierarchy, packaged with both sides per level."""
    p = even_order(p)
    lhs, rhs = _change_of_variable_sides(path, hierarchy, p, f, t)
    return _report(f"change of variable p={p} {getattr(f, 'name', 'f')}", hierarchy.level_labels, lhs, rhs,
                   exact=True)


def tanaka_meyer_report(
    path: SampledPath, hierarchy: PartitionHierarchy, p: int, a: float, t: float
) -> IdentityReport:
    """Per level: the plus-variant compensated sum subtracted from the
    positive-part power change, against the discrete local time at a;
    exact away from on-grid ties with the level a."""
    p = even_order(p)

    def terms(sa, sb):
        return _tanaka_meyer_sums(sa, sb, p, a, "plus"), bracket_contributions(sa, sb, p, a)

    stack = LevelStack.build(path, hierarchy, [t])
    comp, rhs = (s[:, 0] for s in stack.sums(terms, path.values))
    # f(S_u) - f(S_0) for f = ((x - a)^+)^(p-1), u where each level's sums end
    start = ipow(max(path.values[0] - a, 0.0), p - 1)
    change = np.array([ipow(max(s - a, 0.0), p - 1) - start for s in path.values[stack.ends[:, 0]]])
    return _report(f"tanaka-meyer p={p} a={a}", hierarchy.level_labels, change - comp, rhs, exact=True)


def ito_residual(
    path: SampledPath, hierarchy: PartitionHierarchy, p: int, f, t: float
) -> IdentityReport:
    """Per-level residual of the order-p change-of-variable formula with
    the d[S]^p term discretized at the same level; converges only in the
    limit, so this is a trend report."""
    p = even_order(p)
    if getattr(f, "smoothness", None) is not None and f.smoothness < p:
        raise ParameterError(f"need continuous derivatives through order {p}")

    def terms(a, b):
        return _follmer_sums(a, b, p, f), f.derivative(a, p) * ipow(np.abs(b - a), p)

    stack = LevelStack.build(path, hierarchy, [t])
    comp, pv = (s[:, 0] for s in stack.sums(terms, path.values))
    lhs = f.value(path.values[stack.ends[:, 0]]) - f.value(path.values[0])
    return _report(f"ito order {p}", hierarchy.level_labels, lhs, comp + pv / math.factorial(p))


# -- local-time identity suite ------------------------------------------


def _tm_proxy_increments(a: np.ndarray, b: np.ndarray, p: int, x: float = 0.0) -> np.ndarray:
    """Per-interval increments of the Tanaka-Meyer local-time proxy at x."""
    pos_a = ipow(np.maximum(a - x, 0.0), p - 1)
    pos_b = ipow(np.maximum(b - x, 0.0), p - 1)
    return (pos_b - pos_a) - _tanaka_meyer_sums(a, b, p, x, "plus")


def _min_plus_max(Xa: np.ndarray, Xb: np.ndarray, Ya: np.ndarray, Yb: np.ndarray, p: int):
    """The terms of identity (7) of :func:`identity_suite`, from the values
    of X and Y at the ends of the intervals: the proxy increments dL of X,
    Y, max(X, Y) and min(X, Y).  Its sides are sum dL(max) + sum dL(min)
    and sum dL(X) + sum dL(Y)."""
    dLX = _tm_proxy_increments(Xa, Xb, p)
    dLY = _tm_proxy_increments(Ya, Yb, p)
    dLM = _tm_proxy_increments(np.maximum(Xa, Ya), np.maximum(Xb, Yb), p)
    dLm = _tm_proxy_increments(np.minimum(Xa, Ya), np.minimum(Xb, Yb), p)
    return dLX, dLY, dLM, dLm


def _part_sums(part_a: np.ndarray, part_b: np.ndarray, p: int, tie, band):
    """The terms of the local-time proxy at 0 of a part of X (or of |X|),
    of its exact-tie sum and of its band tie sum."""
    power = ipow(part_b, p - 1)
    return _tm_proxy_increments(part_a, part_b, p), tie * power, band * power


def identity_suite(
    X: SampledPath, Y: SampledPath, hierarchy: PartitionHierarchy, p: int
) -> list:
    """Evaluate the local-time identities for a pair of paths, per level.

    Zero-level sets are handled two ways, both reported: the literal
    indicator 1{value == 0} (meaningful for paths engineered to touch zero
    on-grid) and an osc-width band proxy in the details.  The band tie
    sums are diagnostics only: for p = 2 they overshoot the local time by
    a factor that grows with the level and must not be gated.
    """
    p = even_order(p)
    if (X.T, X.n_max) != (Y.T, Y.n_max):
        raise ParameterError("paths must share (T, n_max)")
    labels = hierarchy.level_labels
    # the band widths: per level, the oscillation of X, Y and |X|
    reads = ((X.values, None), (Y.values, None), (X.values, np.abs))
    osc_x, osc_y, osc_a = np.array([[_oscillation(v, lev, fn) for lev in hierarchy.parts] for v, fn in reads])
    osc_xy = np.maximum(osc_x, osc_y)
    stack = LevelStack.build(X, hierarchy)
    bands = stack.spread(np.array([osc_x, osc_y, osc_a]))

    def terms(Xa, Xb, Ya, Yb):
        """The terms of identities (1)-(7), one by one."""
        width_x, width_y, band_a = next(bands)
        tie_x = Xa == 0.0
        band_x = np.abs(Xa) <= width_x
        tie_both = tie_x & (Ya == 0.0)
        band_both = band_x & (np.abs(Ya) <= width_y)
        dLX, dLY, dLM, dLm = _min_plus_max(Xa, Xb, Ya, Yb, p)
        yield from (dLX, dLY, dLM, dLm)
        # (1) nonnegative path: local time at 0 equals the exact-tie sum (|X|
        # is 0 where X is), with the local time at the band level
        Aa, Ab = np.abs(Xa), np.abs(Xb)
        yield from _part_sums(Aa, Ab, p, tie_x, Aa <= band_a)
        yield bracket_contributions(Aa, Ab, p, band_a)
        # (2) positive part shares the local time at 0
        yield from _part_sums(np.maximum(Xa, 0.0), np.maximum(Xb, 0.0), p, tie_x, band_x)
        # (3) negative-part twin
        yield from _part_sums(np.maximum(-Xa, 0.0), np.maximum(-Xb, 0.0), p, tie_x, band_x)
        # (4) signed-power sum over the zero set vanishes in the limit
        power = ipow(Xb, p - 1)
        yield from (tie_x * power, band_x * power)
        Xpb, Ypb = np.maximum(Xb, 0.0), np.maximum(Yb, 0.0)
        # (5) local time of the maximum
        collision = ipow(np.maximum(Xpb, Ypb), p - 1)
        yield from ((Ya < 0.0) * dLX, (Xa < 0.0) * dLY, tie_both * collision, band_both * collision)
        # (6) local time of the minimum
        collision = ipow(np.minimum(Xpb, Ypb), p - 1)
        yield from ((Ya > 0.0) * dLX, (Xa > 0.0) * dLY, tie_both * collision, band_both * collision)

    s = [x[:, 0] for x in stack.sums(terms, X.values, Y.values)]
    zero = np.zeros(len(labels))
    # rows (lhs, rhs, d1, d2) of identities (1)-(7) from the sums, in order
    rows = [
        s[4:8],
        (s[0], *s[8:11]),
        (s[0], *s[11:14]),
        (s[14], zero, s[15], zero),
        (s[2], s[16] + s[17] + s[18], s[19], zero),
        (s[3], s[20] + s[21] + s[22], s[23], zero),
        (s[2] + s[3], s[0] + s[1], zero, zero),
    ]
    lhs, rhs, d1, d2 = np.array(rows).transpose(1, 0, 2)
    return [
        _report("nonneg local time vs exact-tie sum (|X|)", labels, lhs[0], rhs[0],
                {"band_tie_sum": d1[0], "lt_at_band_level": d2[0], "band_width": osc_a}, exact=True),
        _report("local time of X vs X^+ at 0", labels, lhs[1], rhs[1],
                {"tie_sum": d1[1], "band_tie_sum": d2[1], "band_width": osc_x}),
        _report("local time of X vs X^- at 0", labels, lhs[2], rhs[2],
                {"tie_sum": d1[2], "band_tie_sum": d2[2], "band_width": osc_x}),
        _report("signed power sum over the zero set", labels, lhs[3], rhs[3],
                {"band_tie_sum": d1[3], "band_width": osc_x}),
        _report("local time of max decomposition", labels, lhs[4], rhs[4],
                {"band_collision_term": d1[4], "band_width": osc_xy}),
        _report("local time of min decomposition", labels, lhs[5], rhs[5],
                {"band_collision_term": d1[5], "band_width": osc_xy}),
        _report("min plus max local times", labels, lhs[6], rhs[6]),
    ]


# -- monotone-map scaling ------------------------------------------------


def _is_affine(f) -> bool:
    return isinstance(f, TestFunction) and f.breakpoints.size == 0 and f.degree <= 1


def scaling_check(
    path: SampledPath,
    f,
    a: float,
    hierarchy: PartitionHierarchy,
    p: int,
) -> IdentityReport:
    """Compare the local time of f(S) at f(a) with |f'(a)|**(p-1) times the
    local time of S at a, per level.

    Exact per level for affine f (the chain-rule remainder vanishes
    identically); any other strictly monotone C^1 map gives a limit-only
    trend report.  Monotonicity is checked by sampling the sign of f'.
    """
    p = even_order(p)
    # before f and f' are evaluated at a
    check_level(a)
    vals = path.values
    xs = np.linspace(float(vals.min()), float(vals.max()), 1025)
    d1 = np.asarray(f.derivative(xs, 1), dtype=float)
    if not ((np.all(d1 >= 0) and np.any(d1 > 0)) or (np.all(d1 <= 0) and np.any(d1 < 0))):
        raise ParameterError("f must be strictly monotone on the path's range")
    mapped = np.asarray(f.value(vals), dtype=float)
    fa = float(f.value(a))
    factor = ipow(abs(float(f.derivative(a, 1))), p - 1)
    stack = LevelStack.build(path, hierarchy)

    def local_times(ga, gb, sa, sb):
        return bracket_contributions(ga, gb, p, fa), bracket_contributions(sa, sb, p, a)

    lhs, rhs = (s[:, 0] for s in stack.sums(local_times, mapped, path.values))
    rhs = factor * rhs
    name = f"local time scaling under {getattr(f, 'name', 'map')} at a={a}"
    return _report(name, hierarchy.level_labels, lhs, rhs, exact=_is_affine(f))


def scaling_root_preset(
    path: SampledPath, r: float, hierarchy: PartitionHierarchy, p: int
) -> IdentityReport:
    """The power-map corollary: for a nonnegative path Y and S = Y**(1/r)
    with r in (0, 1), both sides of the scaling relation at a = 0 vanish
    (the map has zero derivative at the origin)."""
    if not (0.0 < r < 1.0):
        raise ParameterError(f"r must be in (0, 1), got {r}")
    if float(path.values.min()) < 0.0:
        raise ParameterError("preset requires a nonnegative path")
    q = 1.0 / r

    def power(x):
        return np.power(np.maximum(x, 0.0), q)

    def dpower(x):
        return q * np.power(np.maximum(x, 0.0), q - 1.0)

    f = SmoothCallable([power, dpower], name=f"x**{q:g}")
    report = scaling_check(path, f, 0.0, hierarchy, p)
    report.identity = f"root-map preset r={r}: both sides vanish at 0"
    return report


# -- occupation-density check --------------------------------------------


class CellIndicator:
    """Indicator of a union of grid cells, evaluated through the same
    binning rule the histogram estimator uses, so the occupation-density
    identity is exact for it."""

    def __init__(self, grid: SpaceGrid, cell_indices: Sequence[int]):
        self.grid = grid
        self.cell_indices = unique_sorted(np.asarray(cell_indices, dtype=np.int64))
        if self.cell_indices.size and (
            self.cell_indices[0] < 0 or self.cell_indices[-1] >= grid.cells
        ):
            raise ParameterError("cell indices out of range")
        self.name = f"cell indicator ({self.cell_indices.size} cells)"
        self._member = np.zeros(grid.cells, dtype=bool)
        self._member[self.cell_indices] = True

    def value(self, x):
        return self._member[self.grid.cell_index(x)].astype(float)

    def derivative(self, x, k: int = 0):
        if k == 0:
            return self.value(x)
        raise ParameterError("cell indicators are not differentiable")


def occupation_check(
    path: SampledPath, p: int, g, grids: Sequence[SpaceGrid], t: float
) -> List[IdentityReport]:
    """Occupation-density identity at the finest sampling level, one report
    per grid:

        sum_{t_j <= t} g(S_{t_j}) |dS|**p   vs   p * cellwidth * sum_x g(x) L(x).

    Exact (1e-9 relative) when g is a union-of-cells indicator; for a
    Lipschitz g the two sides agree within 2 * Lip(g) * cellwidth * [S]^p(t),
    which halves as the cells shrink.  The lhs and [S]^p(t) are computed
    once, piece by piece, on the sampling grid's level credited at t; each
    grid's rhs is :func:`occupation_density_local_time` on that same level.
    """
    p = even_order(p)

    def terms(a, b):
        masses = ipow(np.abs(b - a), p)
        return np.asarray(g.value(a), dtype=float) * masses, masses

    # the finest-level intervals credited at t, as the rhs histograms credit them
    stack = _grid_level(path, [t])
    lhs, pv = (float(x[0, 0]) for x in stack.sums(terms, path.values))
    name = f"occupation density with {getattr(g, 'name', 'g')}"
    label = (path.n_max,)

    def report(grid):
        occ = _densities(path, grid, stack, p)[0][0]
        rhs = p * grid.cellwidth * float(np.sum(np.asarray(g.value(grid.centers), dtype=float) * occ))
        if isinstance(g, CellIndicator):
            return _report(name, label, [lhs], [rhs], exact=True)
        xs = np.linspace(grid.lo, grid.hi, 1025)
        lip = float(np.max(np.abs(g.derivative(xs, 1))))
        # accumulation-order floor keeps a zero Lipschitz bound (constant g,
        # where both sides are the same mass in different summation orders)
        # from demanding bit equality
        tol = max(2.0 * lip * grid.cellwidth * pv, 2.0**-40 * float(residual_scale(lhs, rhs)))
        return _report(name, label, [lhs], [rhs], details={"tolerance": tol, "lipschitz": lip, "pth_variation": pv},
                       tolerance=tol)

    return [report(grid) for grid in grids]
