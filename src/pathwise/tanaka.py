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
from typing import Optional, Sequence

import numpy as np

from ._util import LevelStack, Table, bracket_contributions, even_order, relative_gap
from .errors import ParameterError
from .integrate import (
    SmoothCallable,
    TestFunction,
    _follmer_sums,
    _intervals,
    _measure_remainder_sums,
    _tanaka_meyer_sums,
)
from .localtime import SpaceGrid, occupation_density_local_time
from .partitions import PartitionHierarchy, oscillation
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

    ``residuals`` are absolute gaps |lhs - rhs|; ``passed`` applies the
    relative threshold for exact-per-level identities and stays None for
    limit-only trend reports unless a desk-scale gate was requested.
    """

    identity: str
    level_labels: tuple
    lhs: np.ndarray
    rhs: np.ndarray
    residuals: np.ndarray
    exactness: str  # "exact-per-level" | "limit-only"
    threshold: Optional[float] = None
    passed: Optional[bool] = None
    details: dict = field(default_factory=dict)

    def csv_table(self) -> Table:
        """Rows ``identity,level,lhs,rhs,residual,class``."""
        return Table(((self.identity,), self.level_labels), (self.lhs, self.rhs, self.residuals, self.exactness))

    def __str__(self):
        status = "" if self.passed is None else f" passed={self.passed}"
        worst = np.max(self.residuals) if self.residuals.size else 0.0
        return f"{self.identity} [{self.exactness}] worst |lhs-rhs| = {worst:.3e}{status}"


def _exact_report(identity: str, labels, lhs, rhs, details=None) -> IdentityReport:
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    res = np.abs(lhs - rhs)
    rel = np.array([relative_gap(a, b) for a, b in zip(lhs, rhs)])
    return IdentityReport(
        identity=identity,
        level_labels=tuple(labels),
        lhs=lhs,
        rhs=rhs,
        residuals=res,
        exactness="exact-per-level",
        threshold=EXACT_THRESHOLD,
        passed=bool(np.all(rel <= EXACT_THRESHOLD)),
        details=details or {},
    )


def _limit_report(identity: str, labels, lhs, rhs, details=None) -> IdentityReport:
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    return IdentityReport(
        identity=identity,
        level_labels=tuple(labels),
        lhs=lhs,
        rhs=rhs,
        residuals=np.abs(lhs - rhs),
        exactness="limit-only",
        details=details or {},
    )


# -- the exact finite-level change-of-variable identity -----------------


def _change_of_variable_sides(path: SampledPath, levels, p: int, f: TestFunction, t: float):
    """Both sides of the order-p change-of-variable identity at each level.

    The smoothness guard, the change f(S_t) - f(S_0) and the Stieltjes
    measure d f^(p-1) are per (path, f), and the summands of both sums are
    evaluated once over the stacked intervals of all levels.
    """
    if f.smoothness is not None and f.smoothness < p - 2:
        raise ParameterError(
            f"test function must be C^{p - 2} across breakpoints; declared C^{f.smoothness}"
        )
    t_idx = path.grid_index(t)
    change = float(f.value(path.values[t_idx]) - f.value(path.values[0]))
    measure = f.stieltjes_measure(p - 1)
    stack, a, b = _intervals(path, levels, t)
    lhs = change - _follmer_sums(stack, a, b, p, f)
    rhs = _measure_remainder_sums(stack, a, b, p, measure) / math.factorial(p - 1)
    return lhs, rhs


def finite_n_identity(path: SampledPath, level: np.ndarray, p: int, f: TestFunction, t: float) -> float:
    """Relative residual of the order-p change-of-variable identity at one
    level; exact algebra, so the result is rounding noise (<= 1e-9) for
    any admissible test function, path and level."""
    (lhs,), (rhs,) = _change_of_variable_sides(path, (level,), even_order(p), f, t)
    return relative_gap(float(lhs), float(rhs))


def finite_n_report(
    path: SampledPath, hierarchy: PartitionHierarchy, p: int, f: TestFunction, t: float
) -> IdentityReport:
    """The change-of-variable identity of :func:`finite_n_identity` over a
    whole hierarchy, packaged with both sides per level."""
    p = even_order(p)
    lhs, rhs = _change_of_variable_sides(path, hierarchy.levels, p, f, t)
    return _exact_report(
        f"change of variable p={p} {getattr(f, 'name', 'f')}", hierarchy.level_labels, lhs, rhs
    )


def tanaka_meyer_report(
    path: SampledPath, hierarchy: PartitionHierarchy, p: int, a: float, t: float
) -> IdentityReport:
    """Per level: the plus-variant compensated sum subtracted from the
    positive-part power change, against the discrete local time at a;
    exact away from on-grid ties with the level a."""
    p = even_order(p)
    t_idx = path.grid_index(t)
    change = float(
        max(path.values[t_idx] - a, 0.0) ** (p - 1) - max(path.values[0] - a, 0.0) ** (p - 1)
    )
    stack, sa, sb = _intervals(path, hierarchy.levels, t)
    lhs = change - _tanaka_meyer_sums(stack, sa, sb, p, a, "plus")
    rhs = stack.sums(bracket_contributions(sa, sb, p, a))
    return _exact_report(f"tanaka-meyer p={p} a={a}", hierarchy.level_labels, lhs, rhs)


def ito_residual(
    path: SampledPath, hierarchy: PartitionHierarchy, p: int, f, t: float
) -> IdentityReport:
    """Per-level residual of the order-p change-of-variable formula with
    the d[S]^p term discretized at the same level; converges only in the
    limit, so this is a trend report."""
    p = even_order(p)
    if getattr(f, "smoothness", None) is not None and f.smoothness < p:
        raise ParameterError(f"need continuous derivatives through order {p}")
    t_idx = path.grid_index(t)
    change = float(f.value(path.values[t_idx]) - f.value(path.values[0]))
    stack, a, b = _intervals(path, hierarchy.levels, t)
    comp = _follmer_sums(stack, a, b, p, f)
    pv_term = stack.sums(f.derivative(a, p) * np.abs(b - a) ** p) / math.factorial(p)
    lhs = np.full(hierarchy.n_levels, change)
    return _limit_report(f"ito order {p}", hierarchy.level_labels, lhs, comp + pv_term)


# -- local-time identity suite ------------------------------------------


def _tm_proxy_increments(a: np.ndarray, b: np.ndarray, p: int, x: float = 0.0) -> np.ndarray:
    """Per-interval increments of the Tanaka-Meyer local-time proxy at x."""
    pos_a = np.maximum(a - x, 0.0) ** (p - 1)
    pos_b = np.maximum(b - x, 0.0) ** (p - 1)
    raw_a = (a - x) ** (p - 1)
    raw_b = (b - x) ** (p - 1)
    return (pos_b - pos_a) - (a > x) * (raw_b - raw_a)


def _min_plus_max(Xa: np.ndarray, Xb: np.ndarray, Ya: np.ndarray, Yb: np.ndarray, p: int):
    """Identity (7) of :func:`identity_suite` at one level, from the values
    of X and Y at the ends of its intervals.

    Returns the proxy increments of X, Y, max(X, Y) and min(X, Y), then
    both sides: sum dL(max) + sum dL(min) against sum dL(X) + sum dL(Y).
    """
    dLX = _tm_proxy_increments(Xa, Xb, p)
    dLY = _tm_proxy_increments(Ya, Yb, p)
    dLM = _tm_proxy_increments(np.maximum(Xa, Ya), np.maximum(Xb, Yb), p)
    dLm = _tm_proxy_increments(np.minimum(Xa, Ya), np.minimum(Xb, Yb), p)
    return dLX, dLY, dLM, dLm, np.sum(dLM) + np.sum(dLm), np.sum(dLX) + np.sum(dLY)


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
    t_idx = X.n_samples - 1

    absX = np.abs(X.values)
    Xp = np.maximum(X.values, 0.0)
    Xm = np.maximum(-X.values, 0.0)
    abs_path = SampledPath(X.T, X.n_max, absX, metadata={"kind": "abs"})

    def rowset():
        return {k: [] for k in ("lhs", "rhs", "d1", "d2", "d3")}

    rows = {name: rowset() for name in (
        "nonneg", "pos_part", "neg_part", "zero_set", "max", "min", "minmax")}

    for lev in hierarchy.levels:
        la, lb = lev[:-1], lev[1:]
        cnt = int(np.searchsorted(la, t_idx, side="right"))
        la, lb = la[:cnt], lb[:cnt]

        Xa, Xb = X.values[la], X.values[lb]
        Ya, Yb = Y.values[la], Y.values[lb]
        Aa, Ab = absX[la], absX[lb]
        Xpa, Xpb = Xp[la], Xp[lb]
        Xma, Xmb = Xm[la], Xm[lb]

        osc_x = oscillation(X, lev)
        osc_y = oscillation(Y, lev)
        osc_a = oscillation(abs_path, lev)

        # proxy increments shared between rows, each computed once per level
        dLA = _tm_proxy_increments(Aa, Ab, p)
        dLX, dLY, dLM, dLm, minmax_lhs, minmax_rhs = _min_plus_max(Xa, Xb, Ya, Yb, p)

        # (1) nonnegative path: local time at 0 equals the exact-tie sum
        r = rows["nonneg"]
        r["lhs"].append(np.sum(dLA))
        r["rhs"].append(np.sum((Aa == 0.0) * Ab ** (p - 1)))
        r["d1"].append(np.sum((Aa <= osc_a) * Ab ** (p - 1)))  # band tie sum
        r["d2"].append(np.sum(bracket_contributions(Aa, Ab, p, osc_a)))  # LT at band level
        r["d3"].append(osc_a)

        # (2) positive part shares the local time at 0
        r = rows["pos_part"]
        r["lhs"].append(np.sum(dLX))
        r["rhs"].append(np.sum(_tm_proxy_increments(Xpa, Xpb, p)))
        r["d1"].append(np.sum((Xa == 0.0) * Xpb ** (p - 1)))
        r["d2"].append(np.sum((np.abs(Xa) <= osc_x) * Xpb ** (p - 1)))
        r["d3"].append(osc_x)

        # (3) negative-part twin
        r = rows["neg_part"]
        r["lhs"].append(np.sum(dLX))
        r["rhs"].append(np.sum(_tm_proxy_increments(Xma, Xmb, p)))
        r["d1"].append(np.sum((Xa == 0.0) * Xmb ** (p - 1)))
        r["d2"].append(np.sum((np.abs(Xa) <= osc_x) * Xmb ** (p - 1)))
        r["d3"].append(osc_x)

        # (4) signed-power sum over the zero set vanishes in the limit
        r = rows["zero_set"]
        r["lhs"].append(np.sum((Xa == 0.0) * Xb ** (p - 1)))
        r["rhs"].append(0.0)
        r["d1"].append(np.sum((np.abs(Xa) <= osc_x) * Xb ** (p - 1)))
        r["d2"].append(0.0)
        r["d3"].append(osc_x)

        tie_both = (Xa == 0.0) & (Ya == 0.0)
        band_both = (np.abs(Xa) <= osc_x) & (np.abs(Ya) <= osc_y)

        # (5) local time of the maximum
        r = rows["max"]
        r["lhs"].append(np.sum(dLM))
        collision = np.maximum(Xpb, np.maximum(Yb, 0.0)) ** (p - 1)
        r["rhs"].append(
            np.sum((Ya < 0.0) * dLX) + np.sum((Xa < 0.0) * dLY) + np.sum(tie_both * collision)
        )
        r["d1"].append(np.sum(band_both * collision))
        r["d2"].append(0.0)
        r["d3"].append(max(osc_x, osc_y))

        # (6) local time of the minimum
        r = rows["min"]
        r["lhs"].append(np.sum(dLm))
        collision_min = np.minimum(Xpb, np.maximum(Yb, 0.0)) ** (p - 1)
        r["rhs"].append(
            np.sum((Ya > 0.0) * dLX) + np.sum((Xa > 0.0) * dLY) + np.sum(tie_both * collision_min)
        )
        r["d1"].append(np.sum(band_both * collision_min))
        r["d2"].append(0.0)
        r["d3"].append(max(osc_x, osc_y))

        # (7) min + max local times add up
        r = rows["minmax"]
        r["lhs"].append(minmax_lhs)
        r["rhs"].append(minmax_rhs)
        r["d1"].append(0.0)
        r["d2"].append(0.0)
        r["d3"].append(max(osc_x, osc_y))

    def details(r, names):
        return {name: np.asarray(r[key]) for name, key in names.items()}

    band_names = {"band_tie_sum": "d1", "lt_at_band_level": "d2", "band_width": "d3"}
    out = [
        _exact_report("nonneg local time vs exact-tie sum (|X|)", labels,
                      rows["nonneg"]["lhs"], rows["nonneg"]["rhs"],
                      details(rows["nonneg"], band_names)),
        _limit_report("local time of X vs X^+ at 0", labels,
                      rows["pos_part"]["lhs"], rows["pos_part"]["rhs"],
                      details(rows["pos_part"], {"tie_sum": "d1", "band_tie_sum": "d2", "band_width": "d3"})),
        _limit_report("local time of X vs X^- at 0", labels,
                      rows["neg_part"]["lhs"], rows["neg_part"]["rhs"],
                      details(rows["neg_part"], {"tie_sum": "d1", "band_tie_sum": "d2", "band_width": "d3"})),
        _limit_report("signed power sum over the zero set", labels,
                      rows["zero_set"]["lhs"], rows["zero_set"]["rhs"],
                      details(rows["zero_set"], {"band_tie_sum": "d1", "band_width": "d3"})),
        _limit_report("local time of max decomposition", labels,
                      rows["max"]["lhs"], rows["max"]["rhs"],
                      details(rows["max"], {"band_collision_term": "d1", "band_width": "d3"})),
        _limit_report("local time of min decomposition", labels,
                      rows["min"]["lhs"], rows["min"]["rhs"],
                      details(rows["min"], {"band_collision_term": "d1", "band_width": "d3"})),
        _limit_report("min plus max local times", labels,
                      rows["minmax"]["lhs"], rows["minmax"]["rhs"]),
    ]
    return out


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
    vals = path.values
    xs = np.linspace(float(vals.min()), float(vals.max()), 1025)
    d1 = np.asarray(f.derivative(xs, 1), dtype=float)
    if not ((np.all(d1 >= 0) and np.any(d1 > 0)) or (np.all(d1 <= 0) and np.any(d1 < 0))):
        raise ParameterError("f must be strictly monotone on the path's range")
    mapped = SampledPath(
        T=path.T, n_max=path.n_max, values=np.asarray(f.value(vals), dtype=float),
        metadata={"kind": "mapped"},
    )
    fa = float(f.value(a))
    factor = abs(float(f.derivative(a, 1))) ** (p - 1)
    stack = LevelStack.build(hierarchy.levels, [path.n_samples - 1])
    lhs = stack.sums(bracket_contributions(*stack.gather(mapped.values), p, fa))
    rhs = factor * stack.sums(bracket_contributions(*stack.gather(path.values), p, a))
    name = f"local time scaling under {getattr(f, 'name', 'map')} at a={a}"
    if _is_affine(f):
        return _exact_report(name, hierarchy.level_labels, lhs, rhs)
    return _limit_report(name, hierarchy.level_labels, lhs, rhs)


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
        self.cell_indices = np.unique(np.asarray(cell_indices, dtype=np.int64))
        if self.cell_indices.size and (
            self.cell_indices[0] < 0 or self.cell_indices[-1] >= grid.cells
        ):
            raise ParameterError("cell indices out of range")
        self.name = f"cell indicator ({self.cell_indices.size} cells)"

    def value(self, x):
        return np.isin(self.grid.cell_index(x), self.cell_indices).astype(float)

    def derivative(self, x, k: int = 0):
        if k == 0:
            return self.value(x)
        raise ParameterError("cell indicators are not differentiable")


def occupation_check(
    path: SampledPath, p: int, g, grid: SpaceGrid, t: float
) -> IdentityReport:
    """Occupation-density identity at the finest sampling level:

        sum_{t_j <= t} g(S_{t_j}) |dS|**p   vs   p * cellwidth * sum_x g(x) L(x).

    Exact (1e-9 relative) when g is a union-of-cells indicator; for a
    Lipschitz g the two sides agree within 2 * Lip(g) * cellwidth * [S]^p(t),
    which halves as the cells shrink.
    """
    p = even_order(p)
    t_idx = path.grid_index(t)
    a = path.values[:-1][:t_idx]
    b = path.values[1:][:t_idx]
    masses = np.abs(b - a) ** p
    lhs = float(np.sum(np.asarray(g.value(a), dtype=float) * masses))
    occ = occupation_density_local_time(path, p, grid, [t])
    rhs = p * grid.cellwidth * float(
        np.sum(np.asarray(g.value(grid.centers), dtype=float) * occ.values[0])
    )
    label = (path.n_max,)
    if isinstance(g, CellIndicator):
        return _exact_report(f"occupation density with {g.name}", label, [lhs], [rhs])
    xs = np.linspace(grid.lo, grid.hi, 1025)
    lip = float(np.max(np.abs(g.derivative(xs, 1))))
    pv = float(np.sum(masses))
    # accumulation-order floor keeps a zero Lipschitz bound (constant g,
    # where both sides are the same mass in different summation orders)
    # from demanding bit equality
    tol = max(2.0 * lip * grid.cellwidth * pv, 2.0**-40 * max(1.0, abs(lhs), abs(rhs)))
    rep = _limit_report(
        f"occupation density with {getattr(g, 'name', 'g')}", label, [lhs], [rhs],
        details={"tolerance": tol, "lipschitz": lip, "pth_variation": pv},
    )
    rep.threshold = tol
    rep.passed = bool(abs(lhs - rhs) <= tol)
    return rep
