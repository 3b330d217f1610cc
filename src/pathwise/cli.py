"""Experiment runner.

Subcommands map onto the analysis modules:

    generate    synthesize or ingest a path and write it as t,value CSV
    variation   cumulative p-th variation per level     (level,t,value)
    local-time  discrete local time field               (level,t,x,value)
    tanaka      change-of-variable / Tanaka-Meyer / Ito (identity CSV)
    identities  local-time identity suite + scaling + occupation checks
    ranks       integration-along-ranks decomposition   (k,level,t,A,B,C,D,residual)
    acceptance  full acceptance suite with artifacts and summary
    run         drive any combination from a JSON config

Outputs are deterministic functions of the configuration: floats are
written with shortest round-trip formatting, seeds are pinned, and the
worker count (env PATHWISE_WORKERS) never changes any byte of output.
A failing exact-class identity makes the exit status non-zero.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional

from ._util import MAX_ORDER, field, known_keys, release_free_heap, write_csv, write_summary
from .errors import ConfigError, ParameterError, PathwiseError
from .integrate import TANAKA_CLASS_NAMES, tanaka_class
from .localtime import SpaceGrid, discrete_local_time
from .partitions import dyadic_hierarchy, lebesgue_hierarchy
from .paths import PATH_KINDS, PathSpec, generate, range_anchors, write_path_csv
from .ranks import build_rank_system, rank_decompositions, rank_sum_identity
from .tanaka import (
    CellIndicator,
    finite_n_report,
    identity_suite,
    ito_residual,
    occupation_check,
    scaling_check,
    tanaka_meyer_report,
)
from .variation import pth_variation, variation_convergence_report

if TYPE_CHECKING:
    import argparse

DEFAULT_MAX_TENSOR_BYTES = 1 << 30

IDENTITY_FIELDS = ("identity", "level", "lhs", "rhs", "residual", "class")
RANK_FIELDS = ("k", "level", "t", "A", "B", "C", "D", "residual")
ANALYSES = ("variation", "local-time", "tanaka", "identities", "ranks")
_RUN_FIELDS = ("p", "paths", "partition", "levels", "analyses", "test_functions", "seeds", "checkpoints",
               "grid_cells", "max_tensor_bytes", "output_dir")
_PARTITIONS = ("dyadic", "lebesgue")


# -- config handling -----------------------------------------------------

# the config type of each optional PathSpec field; its default is PathSpec's
_SPEC_FIELDS = {"T": float, "n_max": int, "seed": int, "hurst": float, "slope": float,
                "peak_time": float, "peak_value": float, "value": float, "file": str}


def _path_spec_from(cfg: dict, where: str) -> PathSpec:
    known_keys(cfg, where, ("kind", *_SPEC_FIELDS))
    kind = field(cfg, where, "kind", str, ok=PATH_KINDS.__contains__, need=f"one of {PATH_KINDS}")
    kwargs = {key: field(cfg, where, key, typ, getattr(PathSpec, key)) for key, typ in _SPEC_FIELDS.items()}
    try:
        return PathSpec(kind, **kwargs)
    except PathwiseError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def validate_run_config(cfg: dict) -> dict:
    """Every field of a run config read through :func:`field` before
    anything is generated, and no other key; ``runs`` holds the seed
    replicates of the path specs as ``(tag, PathSpec)`` pairs."""
    known_keys(cfg, "", _RUN_FIELDS)
    p = field(cfg, "", "p", int, ok=lambda n: 2 <= n <= MAX_ORDER and n % 2 == 0,
              need=f"an even integer from 2 to {MAX_ORDER}")
    raw_paths = field(cfg, "", "paths", list, ok=bool, need="a non-empty list of path specs")
    specs = [_path_spec_from(pc, f"paths[{i}]") for i, pc in enumerate(raw_paths)]
    partition = field(cfg, "", "partition", str, "dyadic", _PARTITIONS.__contains__, f"one of {_PARTITIONS}")
    n_max = min(s.n_max for s in specs)
    levels = field(cfg, "", "levels", int, n_max, lambda lv: 1 <= lv <= n_max,
                   f"an integer from 1 to the smallest path n_max ({n_max})")
    analyses = field(cfg, "", "analyses", [str], ["variation"], lambda a: set(a) <= set(ANALYSES),
                     f"a list of analyses from {ANALYSES}")
    functions = []
    for i, item in enumerate(field(cfg, "", "test_functions", list, [{"name": "abs_pow", "params": {"a": 0.0}}])):
        f = _test_function(item, p, f"test_functions[{i}]")
        if any(g.name == f.name for g in functions):
            raise ConfigError(f"config field test_functions[{i}] repeats the test function {f.name}")
        functions.append(f)
    seeds = field(cfg, "", "seeds", dict, {})
    known_keys(seeds, "seeds", ("count", "base"))
    count = field(seeds, "seeds", "count", int, 1, lambda n: n >= 1, "an integer >= 1")
    base = field(seeds, "seeds", "base", int, None)
    runs = []
    for i, spec in enumerate(specs):
        # only the random kinds have seed replicates
        replicas = count if spec.kind in ("fbm", "bm") else 1
        start = base if base is not None and replicas > 1 else spec.seed
        try:
            runs += [(f"p{i}_s{start + j}", dataclasses.replace(spec, seed=start + j)) for j in range(replicas)]
        except ParameterError as exc:
            raise ConfigError(f"config fields 'seeds.base'/'seeds.count': replicate {exc}") from exc
    for analysis in ("identities", "ranks"):
        if analysis in analyses and len(runs) < 2:
            raise ConfigError(f"analysis {analysis!r} needs at least two paths (config field 'paths'/'seeds')")
    checkpoints = field(cfg, "", "checkpoints", [float], [0.25, 0.5, 0.75, 1.0], bool, "a non-empty list of numbers")
    cells = field(cfg, "", "grid_cells", int, 128, lambda c: c >= 3, "an integer >= 3")
    cap = field(cfg, "", "max_tensor_bytes", int, DEFAULT_MAX_TENSOR_BYTES)
    # both hierarchy kinds have exactly `levels` levels
    need = levels * len(checkpoints) * cells * 8
    if "local-time" in analyses and need > cap:
        raise ConfigError(f"config field 'grid_cells': the local-time output field (levels x checkpoints x cells) "
                          f"would need {need} bytes, over the max_tensor_bytes cap {cap}")
    return dict(
        p=p, runs=runs, partition=partition, levels=levels, analyses=analyses, test_functions=functions,
        checkpoints=checkpoints, grid_cells=cells,
        output_dir=field(cfg, "", "output_dir", str, "pathwise-out", bool, "a non-empty string"),
    )


# the params tanaka_class reads for each test function; it ignores others
_TEST_FUNCTION_PARAMS = {"pos_part_pow": ("a",), "neg_part_pow": ("a",), "abs_pow": ("a",),
                         "poly": ("coeffs",), "x_pow_pm1": ()}


def _test_function(item: dict, p: int, where: str):
    """The configured test function, named apart from every other one: a
    poly by its coefficients, ``x_pow_pm1`` (built as a poly) by its name.
    A param the function does not read is refused."""
    known_keys(item, where, ("name", "params"))
    name = field(item, where, "name", str, ok=TANAKA_CLASS_NAMES.__contains__, need=f"one of {TANAKA_CLASS_NAMES}")
    params = field(item, where, "params", dict, {})
    known_keys(params, f"{where}.params", _TEST_FUNCTION_PARAMS[name])
    a = field(params, f"{where}.params", "a", float, 0.0)
    coeffs = field(params, f"{where}.params", "coeffs", [float], None)
    try:
        f = tanaka_class(name, p, a=a, coeffs=coeffs)
    except ParameterError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if name == "poly":
        return dataclasses.replace(f, name=f"poly(coeffs={f.pieces[0].tolist()})")
    if name == "x_pow_pm1":
        return dataclasses.replace(f, name="x_pow_pm1")
    return f


# -- the run driver -------------------------------------------------------


def run(cfg: dict) -> int:
    """Execute the configured analyses; returns the process exit status.

    Deterministic for a fixed config.  Any exact-class identity row that
    misses its threshold flips the exit status to 1.
    """
    cfg = validate_run_config(cfg)
    # what earlier work in this process freed would otherwise stay resident,
    # and whether this run's noise buffers fit in it depends on the heap layout
    release_free_heap()
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    p = cfg["p"]
    t_final = max(cfg["checkpoints"])

    paths = []
    for tag, spec in cfg["runs"]:
        spec.warn_if_hurst_mismatch(p)
        paths.append((tag, generate(spec)))

    identity_tables = []
    exact_failures = []
    trend_stats = {}
    outputs = []

    def record(report, suffix=""):
        report.identity += suffix
        identity_tables.append(report.csv_table())
        if report.exactness == "exact-per-level" and report.passed is False:
            exact_failures.append(report.identity)
        if report.exactness == "limit-only" and report.residuals.size:
            trend_stats[report.identity] = {
                "first_residual": float(report.residuals[0]),
                "last_residual": float(report.residuals[-1]),
            }

    for i, (tag, path) in enumerate(paths):
        build = dyadic_hierarchy if cfg["partition"] == "dyadic" else lebesgue_hierarchy
        hier = build(path, cfg["levels"])
        if i == 0:
            # the pair identities and the ranks run on the first path's levels
            first_hier = hier

        if "variation" in cfg["analyses"]:
            curve = pth_variation(path, hier, p, cfg["checkpoints"])
            name = os.path.join(out_dir, f"variation_{tag}.csv")
            write_csv(name, ("level", "t", "value"), curve.csv_table())
            outputs.append(os.path.basename(name))
            if hier.n_levels >= 2:
                rep = variation_convergence_report(curve)
                trend_stats[f"variation convergence {tag}"] = {
                    "first_sup_diff": float(rep.sup_diffs[0]),
                    "last_sup_diff": float(rep.sup_diffs[-1]),
                    "monotone_decreasing": rep.monotone_decreasing,
                }

        if "local-time" in cfg["analyses"]:
            grid = SpaceGrid.cover([path], cfg["grid_cells"])
            field = discrete_local_time(path, hier, p, grid, cfg["checkpoints"])
            name = os.path.join(out_dir, f"localtime_{tag}.csv")
            write_csv(name, ("level", "t", "x", "value"), field.csv_table())
            outputs.append(os.path.basename(name))

        if "tanaka" in cfg["analyses"]:
            for f in cfg["test_functions"]:
                record(finite_n_report(path, hier, p, f, t_final), f" [{tag}]")
                if f.smoothness is None:
                    record(ito_residual(path, hier, p, f, t_final), f" {f.name} [{tag}]")
            (a,) = range_anchors(path, [0.37])
            record(tanaka_meyer_report(path, hier, p, a, t_final), f" [{tag}]")

        if "identities" in cfg["analyses"]:
            affine = tanaka_class("poly", p, coeffs=[0.0, 2.0])
            record(scaling_check(path, affine, 0.0, hier, p), f" [{tag}]")
            grid = SpaceGrid.cover([path], cfg["grid_cells"])
            (occ,) = occupation_check(
                path, p, CellIndicator(grid, range(cfg["grid_cells"] // 3, cfg["grid_cells"] // 2)),
                [grid], t_final,
            )
            record(occ, f" [{tag}]")

    if "identities" in cfg["analyses"]:
        (tag_x, X), (tag_y, Y) = paths[0], paths[1]
        for rep in identity_suite(X, Y, first_hier, p):
            record(rep, f" [{tag_x},{tag_y}]")

    if "ranks" in cfg["analyses"]:
        system = build_rank_system([path for _, path in paths])
        f = tanaka_class("poly", p, coeffs=[0.0, 1.0])
        rank_tables = []
        for dec in rank_decompositions(system, first_hier, p, f, cfg["checkpoints"]):
            rank_tables.append(dec.csv_table())
            if not dec.passed:
                exact_failures.append(f"rank decomposition k={dec.k}")
        name = os.path.join(out_dir, "ranks.csv")
        write_csv(name, RANK_FIELDS, *rank_tables)
        outputs.append(os.path.basename(name))
        record(rank_sum_identity(system, first_hier, p))

    if identity_tables:
        name = os.path.join(out_dir, "identities.csv")
        write_csv(name, IDENTITY_FIELDS, *identity_tables)
        outputs.append(os.path.basename(name))

    write_summary(out_dir, "run", {
        "p": p,
        "partition": cfg["partition"],
        "levels": cfg["levels"],
        "checkpoints": cfg["checkpoints"],
        "paths": [tag for tag, _ in paths],
        "outputs": sorted(outputs),
        "exact_identity_failures": exact_failures,
        "trend_stats": trend_stats,
        "ok": not exact_failures,
    })
    return 0 if not exact_failures else 1


# -- argument parsing ------------------------------------------------------


def _add_path_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--kind", default="fbm", choices=PATH_KINDS)
    sp.add_argument("--hurst", type=float, default=None)
    sp.add_argument("--slope", type=float, default=1.0)
    sp.add_argument("--peak-time", type=float, default=0.5)
    sp.add_argument("--peak-value", type=float, default=1.0)
    sp.add_argument("--value", type=float, default=0.0)
    sp.add_argument("--file", default=None, help="CSV input for --kind csv (header t,value)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--n-max", type=int, default=10, help="grid resolution exponent")


def _times(text: str) -> List[float]:
    """``--checkpoints``: comma-separated times."""
    try:
        return list(map(float, text.split(",")))
    except ValueError:
        # argparse calls this only while it parses, so it is loaded already
        import argparse

        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}") from None


def _add_common_args(sp: argparse.ArgumentParser) -> None:
    _add_path_args(sp)
    sp.add_argument("--p", type=int, default=2, help=f"variation order (even integer from 2 to {MAX_ORDER})")
    sp.add_argument("--partition", default="dyadic", choices=_PARTITIONS)
    sp.add_argument("--levels", type=int, default=None)
    sp.add_argument("--checkpoints", type=_times, default="0.25,0.5,0.75,1.0",
                    help="comma-separated checkpoint times")
    sp.add_argument("--grid-cells", type=int, default=128)
    sp.add_argument("--out-dir", default="pathwise-out")


def _spec_dict(args: argparse.Namespace) -> dict:
    # a path kind reads only its own fields
    return {key: getattr(args, key) for key in ("kind", *_SPEC_FIELDS)}


def _config_from_args(args: argparse.Namespace) -> dict:
    cfg = {
        "paths": [_spec_dict(args)],
        "p": args.p,
        "partition": args.partition,
        "levels": args.levels if args.levels is not None else min(args.n_max, 8),
        "checkpoints": args.checkpoints,
        "grid_cells": args.grid_cells,
        "analyses": [args.command],
        "output_dir": args.out_dir,
    }
    if getattr(args, "m", None):
        cfg["seeds"] = {"count": args.m, "base": args.seed}
    return cfg


def build_parser() -> argparse.ArgumentParser:
    # imported here: library calls into this module never parse arguments
    import argparse

    parser = argparse.ArgumentParser(
        prog="pathwise",
        description="pathwise calculus engine: p-th variation, order-p local times, "
        "compensated-sum integrals and rank decompositions",
        epilog="Worker count for seed-replicated work comes from PATHWISE_WORKERS "
        "(default 1); outputs are byte-identical for any worker count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a path as t,value CSV")
    _add_path_args(g)
    g.add_argument("--out", default=None, help="output file (default stdout)")

    for name in ANALYSES:
        sp = sub.add_parser(name, help=f"run the {name} analysis")
        _add_common_args(sp)
        if name == "identities":
            sp.add_argument("--m", type=int, default=2, help="number of seed replicates (>= 2)")
        if name == "ranks":
            sp.add_argument("--m", type=int, default=3, help="number of paths in the rank system")

    a = sub.add_parser("acceptance", help="run the acceptance suite")
    a.add_argument("--out-dir", default=None, help="artifact directory (default: report only)")
    a.add_argument("--criterion", default=None, help="run a single criterion, e.g. C5")

    r = sub.add_parser("run", help="drive analyses from a JSON config")
    r.add_argument("--config", required=True)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            spec = _path_spec_from(_spec_dict(args), "path")
            path = generate(spec)
            if args.out:
                write_path_csv(path, args.out)
            else:
                write_path_csv(path, sys.stdout)
            return 0
        if args.command == "acceptance":
            # imported here: no other command runs the suite
            from . import acceptance as acc

            if args.criterion:
                res = acc.run_criterion(args.criterion.upper())
                print(res.status_line())
                return 0 if res.passed else 1
            results = acc.run_all(out_dir=args.out_dir)
            for res in results:
                print(res.status_line())
            ok = all(r.passed for r in results if r.gated)
            print("acceptance suite:", "PASS" if ok else "FAIL")
            return 0 if ok else 1
        if args.command == "run":
            return run(load_config(args.config))
        return run(_config_from_args(args))
    except ConfigError as exc:
        print(f"pathwise: config error: {exc}", file=sys.stderr)
        return 2
    except PathwiseError as exc:
        print(f"pathwise: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
