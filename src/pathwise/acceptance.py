"""Acceptance suite: the checks that gate a release of this engine.

Every criterion is a function of the (fully pinned) acceptance
configuration; no tolerance or seed is decided at run time, so two runs of
the suite with the same configuration produce byte-identical CSV
artifacts.  Exact-algebra criteria gate at 1e-9 relative; each Monte
Carlo criterion gates the median over its pinned replicate seeds through
``_median_gate``, at a desk-scale threshold named by a module constant.
"""

from __future__ import annotations

import contextlib
import filecmp
import math
import os
import tempfile
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional

import numpy as np

from ._pool import parallel_map
from ._util import LevelStack, Table, field, known_keys, least_squares_slope, median, write_csv, write_summary
from .errors import ConfigError
from .integrate import SmoothCallable, tanaka_class
from .localtime import SpaceGrid, berman_ratio_check, gaussian_moment
from .partitions import PartitionHierarchy, _dyadic_levels, dyadic_hierarchy
from .paths import PathSpec, SampledPath, generate, range_anchors
from .ranks import build_rank_system, rank_decompositions, rank_sum_identity
from .tanaka import (
    CellIndicator,
    _min_plus_max,
    finite_n_report,
    occupation_check,
    scaling_check,
    tanaka_meyer_report,
)
from .variation import increment_power_sums

__all__ = [
    "DEFAULT_CONFIG",
    "Criterion",
    "CriterionResult",
    "CRITERIA",
    "run_criterion",
    "run_all",
    "emit_artifacts",
]

DEFAULT_CONFIG = {
    "schema_version": 1,
    "T": 1.0,
    "exact": {
        "n_max": 12,
        "levels": 12,
        "fbm_seeds": [11, 12, 13],
        "a_frac": 0.37,
        "a_fracs": [0.13, 0.31, 0.53, 0.71, 0.94],
        "checkpoints": [0.5, 1.0],
    },
    "ranks": {
        "seed_base": 51,
        "group_sizes": [2, 3],
    },
    "mc": {
        "n_max": 14,
        "level": 14,
        "n_seeds": 20,
        "variation_seed_base": 300,
        "rank_sum_seed_bases": [6000, 6100, 6200],
        "exp_scaling_seed_base": 7000,
        "minmax_seed_bases": [8000, 8100],
        "ratio_seed_base": 9000,
        "ratio_seed_base_h4": 9100,
        "grid_cells": 64,
    },
    "occupation": {
        "indicator_seed": 41,
        "indicator_cells": 64,
        "indicator_cell_range": [20, 36],
        "n_max": 12,
        "smooth_seed_base": 0,
        "smooth_cells": [32, 64, 128, 256, 512, 1024],
    },
    "scaling": {"affine_seed": 71, "a": 0.1234},
}


@dataclass
class CriterionResult:
    key: str
    title: str
    passed: bool
    gated: bool
    fieldnames: tuple
    rows: List[dict]
    info: dict = dc_field(default_factory=dict)
    seconds: float = 0.0

    def status_line(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"{self.key} {state} - {self.title}"

    def csv_table(self) -> Table:
        """The rows as columns in ``fieldnames`` order."""
        return Table(columns=[[row[k] for row in self.rows] for k in self.fieldnames])


@dataclass(frozen=True)
class Criterion:
    """One row of the criterion table.  ``check(cfg, *args)`` returns
    ``(passed, rows, info)``; ``_run`` times it and builds the result.  A
    runtime target, where given, is recorded in the result's ``info``."""

    key: str
    slug: str
    check: Callable
    title: str
    fieldnames: tuple
    runtime_target_seconds: Optional[float] = None


# range checks beyond the type, by dotted field name
_RANGES = {
    "T": (lambda t: t > 0, "a positive number"),
    "mc.n_seeds": (lambda n: n >= 1, "an integer >= 1"),
    "occupation.smooth_cells": (
        lambda c: len(c) >= 6 and c[0] >= 3 and all(b == 2 * a for a, b in zip(c, c[1:])),
        "a list of at least 6 cell counts from 3 up, each twice the one before",
    ),
}


def _read_section(cfg: dict, where: str, schema: dict) -> dict:
    """cfg read against its ``schema``, a section of DEFAULT_CONFIG: every
    key through :func:`field`, typed like the schema's value (a list like
    its first item), and no key the schema lacks."""
    known_keys(cfg, where, schema)
    out = {}
    for key, default in schema.items():
        name = f"{where}.{key}" if where else key
        if isinstance(default, dict):
            out[key] = _read_section(field(cfg, where, key, dict), name, default)
        else:
            typ = [type(default[0])] if isinstance(default, list) else type(default)
            ok, need = _RANGES.get(name, (None, None))
            out[key] = field(cfg, where, key, typ, ok=ok, need=need)
    return out


def validate_config(config: dict) -> dict:
    """The acceptance config read against DEFAULT_CONFIG, its schema: the
    typed copy that every criterion reads."""
    cfg = _read_section(config, "", DEFAULT_CONFIG)
    n_max = cfg["exact"]["n_max"]
    field(cfg["exact"], "exact", "levels", int, ok=lambda lv: 1 <= lv <= n_max,
          need=f"an integer from 1 to n_max ({n_max})")
    return cfg


def _fbm(hurst: float, seed: int, n_max: int, T: float = 1.0) -> SampledPath:
    return generate(PathSpec(kind="fbm", hurst=hurst, seed=seed, T=T, n_max=n_max))


def _identity_paths(p: int, cfg: dict):
    ex = cfg["exact"]
    T, n_max = cfg["T"], ex["n_max"]
    out = [
        ("constant", generate(PathSpec(kind="constant", value=0.7, T=T, n_max=n_max))),
        ("linear", generate(PathSpec(kind="linear", slope=1.0, T=T, n_max=n_max))),
        ("triangle", generate(PathSpec(kind="triangle", peak_time=0.5 * T, peak_value=1.0, T=T, n_max=n_max))),
    ]
    for s in ex["fbm_seeds"]:
        out.append((f"fbm_seed{s}", _fbm(1.0 / p, s, n_max, T)))
    return out


_POLY_COEFFS = {2: [0.3, 1.7], 4: [0.3, -1.2, 0.7, 1.1]}


def _test_functions(p: int, a: float):
    return [
        ("pos_part_pow", tanaka_class("pos_part_pow", p, a=a)),
        ("neg_part_pow", tanaka_class("neg_part_pow", p, a=a)),
        ("abs_pow", tanaka_class("abs_pow", p, a=a)),
        ("poly_deg_pm1", tanaka_class("poly", p, coeffs=_POLY_COEFFS[p])),
    ]


def criterion_01(cfg: dict):
    """Exact finite-level change-of-variable identity across the whole
    (order, path, test function, level) matrix at 1e-9 relative."""
    ex = cfg["exact"]
    rows = []
    ok = True
    for p in (2, 4):
        for path_name, path in _identity_paths(p, cfg):
            hier = dyadic_hierarchy(path, ex["levels"])
            (a,) = range_anchors(path, [ex["a_frac"]])
            for f_name, f in _test_functions(p, a):
                rep = finite_n_report(path, hier, p, f, cfg["T"])
                ok = ok and rep.passed
                for lab, resid, good in zip(hier.level_labels, rep.relative_residuals.tolist(),
                                            rep.level_passed.tolist()):
                    rows.append({"p": p, "path": path_name, "f": f_name, "level": lab,
                                 "relative_residual": resid, "ok": good})
    return ok, rows, {}


def criterion_02(cfg: dict):
    """Tanaka-Meyer plus-variant reproduces the discrete local time at five
    spatial anchors per path, exactly at every level."""
    ex = cfg["exact"]
    rows = []
    ok = True
    for p in (2, 4):
        for path_name, path in _identity_paths(p, cfg):
            hier = dyadic_hierarchy(path, ex["levels"])
            for a in range_anchors(path, ex["a_fracs"], (-0.5, -0.25, 0.1, 0.25, 0.5)):
                rep = tanaka_meyer_report(path, hier, p, a, cfg["T"])
                ok = ok and rep.passed
                rows.append({"p": p, "path": path_name, "a": a,
                             "worst_relative_residual": float(np.max(rep.relative_residuals)), "ok": rep.passed})
    return ok, rows, {}


def _finest_level(path: SampledPath, level: int) -> PartitionHierarchy:
    """Dyadic level ``level`` alone, built without the coarser ones.  The
    Monte Carlo gates read only their finest level, and every level is
    computed independently, so dropping the coarser ones leaves the finest
    values as they are."""
    return PartitionHierarchy(
        kind="dyadic", levels=_dyadic_levels(path, level, first=level), level_labels=(level,), nested=True
    )


# The Monte Carlo thresholds: each gates the median over a criterion's
# replicate seeds, is read when the criterion runs and is quoted in its title.
C3_VARIATION_TOL = {2: 0.05, 4: 0.10}  # a fraction of (p-1)!! T, per order p
# C4's median log-log slope: half the Lipschitz bound's first order. Twenty
# unpinned Brownian seed sets (1000-1019, ..., 1380-1399) read 0.82-1.13.
C4_MIN_SLOPE = 0.5
GAP_RATIO_MAX = 0.10  # C6 and C8
C7_RATIO_TOL = 0.15  # the exp side ratio's distance to 1
C9_RATIO_TOL = 0.15  # a fraction of (p-1)!!/p, p = 2


def _median_gate(values, threshold: float, deviation: Callable[[float], float]):
    """The one Monte Carlo verdict: the median of the replicate values and
    its margin ``threshold - deviation(median)``, in the statistic's own
    units.  A criterion passes where the margin is >= 0, which for finite
    numbers is ``deviation(median) <= threshold``."""
    med = median(values)
    return med, threshold - deviation(med)


def _c3_task(args):
    p, hurst, seed, n_max, level, T = args
    path = _fbm(hurst, seed, n_max, T)
    (val,) = increment_power_sums(path, _finest_level(path, level).parts[0], p)
    return float(val)


def criterion_03(cfg: dict):
    """Finest-level p-th variation of fBM at T = 1 matches t * E|Z|^p:
    median over the replicate seeds within C3_VARIATION_TOL[p] of it."""
    mc = cfg["mc"]
    rows = []
    margins = []
    for p, hurst in ((2, 0.5), (4, 0.25)):
        target = cfg["T"] * gaussian_moment(p)
        seeds = [mc["variation_seed_base"] + s for s in range(mc["n_seeds"])]
        vals = parallel_map(_c3_task, [(p, hurst, s, mc["n_max"], mc["level"], cfg["T"]) for s in seeds])
        med, margin = _median_gate(vals, C3_VARIATION_TOL[p] * target, lambda m: abs(m - target))
        margins.append(margin)
        for s, v in zip(seeds, vals):
            rows.append({"p": p, "hurst": hurst, "seed": s, "value": v,
                         "target": target, "median": med, "ok": margin >= 0})
    return min(margins) >= 0, rows, {"median_margin": min(margins)}


def _c4_task(args):
    """One Brownian path's x**2 occupation checks on every grid, and the
    least-squares slope of log(error) against log(cell width)."""
    seed, n_max, cells_list, T = args
    path = _fbm(0.5, seed, n_max, T)
    g = tanaka_class("poly", 2, coeffs=[0.0, 0.0, 1.0])
    grids = [SpaceGrid.cover([path], cells) for cells in cells_list]
    rows = [{
        "seed": seed, "cells": cells, "lhs": float(rep.lhs[0]), "rhs": float(rep.rhs[0]),
        "abs_err": float(rep.residuals[0]), "bound": rep.threshold, "within": rep.passed,
    } for cells, rep in zip(cells_list, occupation_check(path, 2, g, grids, T))]
    # a zero error has no log: the fit refuses its -inf as a ParameterError
    errors = [math.log(r["abs_err"]) if r["abs_err"] > 0 else -math.inf for r in rows]
    return least_squares_slope([math.log(grid.cellwidth) for grid in grids], errors), rows


def criterion_04(cfg: dict):
    """Occupation-density identity: exact for a union-of-cells indicator;
    for g(x) = x**2 every (seed, grid) error stays within the proven
    Lipschitz bound, and the median over seeds of the least-squares slope
    of log(error) against log(cell width) is at least C4_MIN_SLOPE (the
    bound is first order: slope 1)."""
    occ = cfg["occupation"]
    rows = []
    path = _fbm(0.5, occ["indicator_seed"], occ["n_max"], cfg["T"])
    grid = SpaceGrid.cover([path], occ["indicator_cells"])
    lo, hi = occ["indicator_cell_range"]
    (rep,) = occupation_check(path, 2, CellIndicator(grid, range(lo, hi)), [grid], cfg["T"])
    ok = bool(rep.passed)
    rows.append({
        "check": "cell_indicator", "seed": occ["indicator_seed"], "cells": occ["indicator_cells"],
        "lhs": float(rep.lhs[0]), "rhs": float(rep.rhs[0]), "abs_err": float(rep.residuals[0]),
        "bound": "", "slope": "", "median_slope": "", "ok": rep.passed,
    })
    seeds = [occ["smooth_seed_base"] + s for s in range(cfg["mc"]["n_seeds"])]
    out = parallel_map(_c4_task, [(s, occ["n_max"], occ["smooth_cells"], cfg["T"]) for s in seeds])
    med, margin = _median_gate((slope for slope, _ in out), 0.0, lambda m: C4_MIN_SLOPE - m)
    converges = margin >= 0
    ok = ok and converges
    for slope, grids in out:
        for r in grids:
            within = r.pop("within")
            ok = ok and within
            rows.append({"check": "smooth_x_squared", **r, "slope": slope,
                         "median_slope": med, "ok": within and converges})
    return ok, rows, {"median_slope": med, "median_margin": margin}


def criterion_05(cfg: dict):
    """Rank decomposition A = B + C + D at 1e-9 relative for every (order,
    group size, rank, test function, level, checkpoint); C is identically
    zero for p = 2."""
    ex = cfg["exact"]
    rk = cfg["ranks"]
    rows = []
    ok = True
    for p in (2, 4):
        fset = [("x", tanaka_class("poly", p, coeffs=[0.0, 1.0]))]
        if p > 2:
            fset.append(("x_pow_pm1", tanaka_class("x_pow_pm1", p)))
        for m in rk["group_sizes"]:
            paths = [_fbm(1.0 / p, rk["seed_base"] + i, ex["n_max"], cfg["T"]) for i in range(m)]
            system = build_rank_system(paths)
            hier = dyadic_hierarchy(paths[0], ex["levels"])
            decs = [rank_decompositions(system, hier, p, f, ex["checkpoints"]) for _, f in fset]
            for k in range(1, m + 1):
                for (f_name, _), per_rank in zip(fset, decs):
                    dec = per_rank[k - 1]
                    czero = float(np.max(np.abs(dec.C)))
                    good = dec.passed and (p != 2 or czero == 0.0)
                    ok = ok and good
                    rows.append({"p": p, "m": m, "k": k, "f": f_name,
                                 "worst_relative_residual": float(np.max(dec.relative_residual)),
                                 "max_abs_C": czero, "ok": good})
    return ok, rows, {}


def _c6_task(args):
    bases, rep, n_max, level, T = args
    paths = [_fbm(0.5, b + rep, n_max, T) for b in bases]
    system = build_rank_system(paths)
    hier = _finest_level(paths[0], level)
    report = rank_sum_identity(system, hier, 2, x=0.0)
    return float(report.lhs[-1]), float(report.rhs[-1])


def _gap_ratio_check(pairs, lhs_name: str, rhs_name: str, scale: Callable):
    """Rows of a replicated two-sided sum identity, gated on the median over
    the replicates of |lhs - rhs| / scale(lhs, rhs) against GAP_RATIO_MAX.
    A ratio is 0.0 where the scale is not positive."""
    ratios = [abs(lhs - rhs) / size if (size := scale(lhs, rhs)) > 0 else 0.0 for lhs, rhs in pairs]
    med, margin = _median_gate(ratios, GAP_RATIO_MAX, lambda m: m)
    rows = [{"replicate": rep, lhs_name: lhs, rhs_name: rhs, "gap_ratio": ratio, "median_gap_ratio": med,
             "ok": margin >= 0} for rep, ((lhs, rhs), ratio) in enumerate(zip(pairs, ratios))]
    return margin >= 0, rows, {"median_margin": margin}


def criterion_06(cfg: dict):
    """Summed local times of ranked vs original paths at zero: finest-level
    gap at most GAP_RATIO_MAX of the original-path total, median over
    seeds."""
    mc = cfg["mc"]
    tasks = [
        (mc["rank_sum_seed_bases"], rep, mc["n_max"], mc["level"], cfg["T"])
        for rep in range(mc["n_seeds"])
    ]
    pairs = parallel_map(_c6_task, tasks)
    return _gap_ratio_check(pairs, "ranked_sum", "original_sum", lambda lhs, rhs: rhs)


def _c7_task(args):
    seed, n_max, level, T = args
    path = _fbm(0.5, seed, n_max, T)
    hier = _finest_level(path, level)
    f = SmoothCallable([np.exp, np.exp], name="exp")
    rep = scaling_check(path, f, 0.0, hier, 2)
    return float(rep.lhs[-1]), float(rep.rhs[-1])


def criterion_07(cfg: dict):
    """Monotone-map scaling of local times: exact per level for affine
    maps; for exp the finest-level side ratio is within C7_RATIO_TOL of 1
    in the median over the seeds where it is defined.  A path that never
    goes below 0 has both sides 0 (0 = 0 holds, the ratio is undefined);
    its seed is left out of the median and named in ``info``."""
    mc = cfg["mc"]
    sc = cfg["scaling"]
    rows = []
    ok = True
    path = _fbm(0.5, sc["affine_seed"], cfg["exact"]["n_max"], cfg["T"])
    hier = dyadic_hierarchy(path, cfg["exact"]["levels"])
    for name, coeffs in (("2x", [0.0, 2.0]), ("x_plus_5", [5.0, 1.0])):
        f = tanaka_class("poly", 2, coeffs=coeffs)
        rep = scaling_check(path, f, sc["a"], hier, 2)
        ok = ok and rep.passed
        rows.append({"check": f"affine_{name}", "seed": sc["affine_seed"],
                     "value": float(np.max(rep.relative_residuals)), "median": "", "ok": rep.passed})
    seeds = [mc["exp_scaling_seed_base"] + s for s in range(mc["n_seeds"])]
    sides = parallel_map(_c7_task, [(s, mc["n_max"], mc["level"], cfg["T"]) for s in seeds])
    ratios = [lhs / rhs if rhs > 0 else None for lhs, rhs in sides]
    med, margin = _median_gate((r for r in ratios if r is not None), C7_RATIO_TOL, lambda m: abs(m - 1.0))
    good = margin >= 0
    ok = ok and good
    for s, r in zip(seeds, ratios):
        rows.append({"check": "exp_ratio", "seed": s, "value": "" if r is None else r, "median": med, "ok": good})
    return ok, rows, {"zero_rhs_seeds": [s for s, r in zip(seeds, ratios) if r is None], "median_margin": margin}


def _c8_task(args):
    sx, sy, n_max, level, T = args
    X = _fbm(0.5, sx, n_max, T)
    Y = _fbm(0.5, sy, n_max, T)
    stack = LevelStack.build(X, _finest_level(X, level))
    (lx,), (ly,), (lmax,), (lmin,) = stack.sums(lambda *ends: _min_plus_max(*ends, 2), X.values, Y.values)
    return float(lmax + lmin), float(lx + ly)


def criterion_08(cfg: dict):
    """Min + max local-time identity for two independent fBM paths:
    finest-level gap at most GAP_RATIO_MAX of the larger side, median over
    seeds."""
    mc = cfg["mc"]
    bx, by = mc["minmax_seed_bases"]
    tasks = [(bx + s, by + s, mc["n_max"], mc["level"], cfg["T"]) for s in range(mc["n_seeds"])]
    return _gap_ratio_check(parallel_map(_c8_task, tasks), "minmax_sum", "direct_sum", max)


def _c9_task(args):
    p, hurst, seed, n_max, cells, T = args
    path = _fbm(hurst, seed, n_max, T)
    grid = SpaceGrid.cover([path], cells)
    return float(berman_ratio_check(path, p, grid).average_ratio)


def criterion_09(cfg: dict):
    """Order-p variation density over occupation-time density equals
    (p-1)!!/p for fBM with H = 1/p: gated for p = 2 at C9_RATIO_TOL,
    informational repeat for p = 4."""
    mc = cfg["mc"]
    rows = []
    info = {}
    ok = True
    for p, hurst, base, gated in (
        (2, 0.5, mc["ratio_seed_base"], True),
        (4, 0.25, mc["ratio_seed_base_h4"], False),
    ):
        target = gaussian_moment(p) / p
        seeds = [base + s for s in range(mc["n_seeds"])]
        vals = parallel_map(
            _c9_task, [(p, hurst, s, mc["n_max"], mc["grid_cells"], cfg["T"]) for s in seeds]
        )
        med, margin = _median_gate(vals, C9_RATIO_TOL * target, lambda m: abs(m - target))
        within = margin >= 0
        if gated:
            ok = ok and within
            info["median_margin"] = margin
        else:
            info["informational_p4_median"] = med
            info[f"informational_p4_within_{C9_RATIO_TOL * 100:g}pct"] = within
        for s, v in zip(seeds, vals):
            rows.append({"p": p, "seed": s, "average_ratio": v, "target": target,
                         "median": med, "gated": gated, "ok": within})
    return ok, rows, info


def criterion_10(cfg: dict, primary_dir: Optional[str] = None):
    """Determinism: the full acceptance run executed twice with the same
    configuration produces byte-identical CSV artifacts."""
    with tempfile.TemporaryDirectory(prefix="pathwise-acceptance-") as tmp:
        if primary_dir is None:
            dir_a = os.path.join(tmp, "run_a")
            emit_artifacts(cfg, dir_a)
        else:
            dir_a = primary_dir
        dir_b = os.path.join(tmp, "run_b")
        emit_artifacts(cfg, dir_b)
        names_a = sorted(n for n in os.listdir(dir_a) if n.endswith(".csv"))
        names_b = sorted(n for n in os.listdir(dir_b) if n.endswith(".csv"))
        rows = []
        ok = names_a == names_b and bool(names_a)
        for name in names_a:
            pa, pb = os.path.join(dir_a, name), os.path.join(dir_b, name)
            same = os.path.exists(pb) and filecmp.cmp(pa, pb, shallow=False)
            ok = ok and same
            rows.append({"artifact": name, "byte_identical": same})
    return ok, rows, {}


# The criterion table.  C10 stays last: it reruns every criterion before it
# and compares their CSV artifacts.
CRITERIA = (
    Criterion("C1", "change_of_variable", criterion_01,
              "exact finite-level change-of-variable identity (<= 1e-9 relative)",
              ("p", "path", "f", "level", "relative_residual", "ok"), runtime_target_seconds=60.0),
    Criterion("C2", "tanaka_meyer", criterion_02,
              "Tanaka-Meyer plus-variant equals the discrete local time (<= 1e-9 relative)",
              ("p", "path", "a", "worst_relative_residual", "ok")),
    Criterion("C3", "pth_variation_limit", criterion_03,
              f"fBM p-th variation limit (median within {C3_VARIATION_TOL[2]:.0%} / {C3_VARIATION_TOL[4]:.0%} "
              "of (p-1)!! * T)",
              ("p", "hurst", "seed", "value", "target", "median", "ok"), runtime_target_seconds=300.0),
    Criterion("C4", "occupation_density", criterion_04,
              "occupation-density identity (indicator exact; smooth error within its "
              f"Lipschitz bound, median log-log slope >= {C4_MIN_SLOPE})",
              ("check", "seed", "cells", "lhs", "rhs", "abs_err", "bound", "slope", "median_slope", "ok")),
    Criterion("C5", "rank_decomposition", criterion_05,
              "rank decomposition exactness A = B + C + D (and C = 0 for p = 2)",
              ("p", "m", "k", "f", "worst_relative_residual", "max_abs_C", "ok")),
    Criterion("C6", "rank_sum_identity", criterion_06,
              f"rank local-time sum identity (median finest-level gap <= {GAP_RATIO_MAX:.0%})",
              ("replicate", "ranked_sum", "original_sum", "gap_ratio", "median_gap_ratio", "ok")),
    Criterion("C7", "scaling_law", criterion_07,
              f"local-time scaling law (affine exact; exp ratio within {C7_RATIO_TOL:.0%} of 1)",
              ("check", "seed", "value", "median", "ok")),
    Criterion("C8", "min_plus_max", criterion_08,
              f"min + max local-time identity (median finest-level gap <= {GAP_RATIO_MAX:.0%})",
              ("replicate", "minmax_sum", "direct_sum", "gap_ratio", "median_gap_ratio", "ok")),
    Criterion("C9", "berman_ratio", criterion_09,
              f"occupation-density/occupation-time ratio c_p/p (p=2 gated at {C9_RATIO_TOL:.0%}, p=4 informational)",
              ("p", "seed", "average_ratio", "target", "median", "gated", "ok")),
    Criterion("C10", "determinism", criterion_10,
              "determinism: repeated acceptance runs emit byte-identical CSVs",
              ("artifact", "byte_identical")),
)


def _run(criterion: Criterion, cfg: dict, *args) -> CriterionResult:
    """Time one criterion's check on the resolved config and build its
    result; every criterion gates a release."""
    t0 = time.perf_counter()
    passed, rows, info = criterion.check(cfg, *args)
    seconds = time.perf_counter() - t0
    target = criterion.runtime_target_seconds
    if target is not None:
        info = {**info, "runtime_target_seconds": target, "runtime_ok": seconds < target}
    return CriterionResult(
        key=criterion.key,
        title=criterion.title,
        passed=passed,
        gated=True,
        fieldnames=criterion.fieldnames,
        rows=rows,
        info=info,
        seconds=seconds,
    )


def emit_artifacts(config: Optional[dict], out_dir: str) -> List[CriterionResult]:
    """Run criteria 1-9 and write one CSV per criterion into out_dir."""
    cfg = DEFAULT_CONFIG if config is None else config
    os.makedirs(out_dir, exist_ok=True)
    results = []
    for criterion in CRITERIA[:-1]:
        res = _run(criterion, cfg)
        name = f"{criterion.key.lower()}_{criterion.slug}.csv"
        write_csv(os.path.join(out_dir, name), res.fieldnames, res.csv_table())
        results.append(res)
    return results


def run_criterion(key: str, config: Optional[dict] = None) -> CriterionResult:
    cfg = validate_config(DEFAULT_CONFIG if config is None else config)
    for criterion in CRITERIA:
        if criterion.key == key:
            return _run(criterion, cfg)
    raise ConfigError(f"unknown acceptance criterion {key!r}")


def run_all(config: Optional[dict] = None, out_dir: Optional[str] = None) -> List[CriterionResult]:
    """Run every criterion: criteria 1-9 once, writing their CSV artifacts,
    then the determinism criterion, which reruns them once more and
    compares against those artifacts.  When out_dir is given, the artifacts
    and a JSON summary are kept there; otherwise they go to a temporary
    directory."""
    cfg = validate_config(DEFAULT_CONFIG if config is None else config)
    if out_dir is None:
        primary = tempfile.TemporaryDirectory(prefix="pathwise-acceptance-")
    else:
        primary = contextlib.nullcontext(out_dir)
    with primary as primary_dir:
        results = emit_artifacts(cfg, primary_dir)
        results.append(_run(CRITERIA[-1], cfg, primary_dir))
    if out_dir is None:
        return results
    write_summary(out_dir, "acceptance", {
        "criteria": [
            {
                "key": r.key,
                "title": r.title,
                "passed": r.passed,
                "gated": r.gated,
                "rows": len(r.rows),
                "info": r.info,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results if r.gated),
    })
    return results
