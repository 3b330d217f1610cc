"""Acceptance gate: every release-blocking criterion at its pinned
tolerance, one pass/fail line per criterion on stdout."""

import contextlib
import copy
import math
import re
import sys

import numpy as np
import pytest

import pathwise.integrate
import pathwise.tanaka
from pathwise import (
    ConfigError,
    SpaceGrid,
    acceptance,
    build_rank_system,
    dyadic_hierarchy,
    identity_suite,
    scaling_check,
)
from pathwise.integrate import SmoothCallable
from pathwise.ranks import rank_sum_identity
from pathwise.tanaka import CellIndicator
from tests.conftest import modules_loaded


def _reduced_config():
    cfg = copy.deepcopy(acceptance.DEFAULT_CONFIG)
    cfg["exact"].update(n_max=6, levels=6)
    cfg["mc"].update(n_max=6, level=6, n_seeds=2)
    cfg["occupation"]["n_max"] = 8
    return cfg


@pytest.mark.parametrize("key", [c.key for c in acceptance.CRITERIA])
def test_criterion(key, suite_run):
    (result,) = [r for r in suite_run[0] if r.key == key]
    print(f"ACCEPTANCE {result.status_line()}  [{result.seconds:.2f}s]")
    assert result.passed, result.status_line()


def test_criterion_10_without_a_primary_dir_runs_the_suite_twice_itself():
    result = acceptance.run_criterion("C10", _reduced_config())
    assert result.passed, result.status_line()
    assert len(result.rows) == 9
    assert all(row["byte_identical"] for row in result.rows)


def test_runtime_targets_recorded(suite_run):
    results = {r.key: r for r in suite_run[0]}
    c1, c3 = results["C1"], results["C3"]
    assert c1.info["runtime_ok"], f"criterion 1 exceeded its runtime target: {c1.seconds}s"
    assert c3.info["runtime_ok"], f"criterion 3 exceeded its runtime target: {c3.seconds}s"


def test_summary_artifact(suite_run):
    results, out = suite_run
    assert all(r.passed for r in results if r.gated)
    import json

    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_passed"] and summary["schema_version"] == 1 and summary["suite"] == "acceptance"
    assert len(summary["criteria"]) == 10
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert len(csvs) == 9


def test_worker_count_does_not_change_results(monkeypatch):
    base = acceptance.run_criterion("C3")
    monkeypatch.setenv("PATHWISE_WORKERS", "2")
    pooled = acceptance.run_criterion("C3")
    assert base.rows == pooled.rows


@pytest.mark.parametrize("rep", [0, 1])
def test_monte_carlo_tasks_equal_the_full_hierarchy_finest_level(rep):
    # C6-C8 run only the level they gate; every level is computed on its
    # own, so their values must equal the finest level of the full hierarchy
    mc, n, T = acceptance.DEFAULT_CONFIG["mc"], 8, 1.0

    bases = mc["rank_sum_seed_bases"]
    paths = [acceptance._fbm(0.5, b + rep, n, T) for b in bases]
    full = rank_sum_identity(build_rank_system(paths), dyadic_hierarchy(paths[0], n), 2, x=0.0)
    assert acceptance._c6_task((bases, rep, n, n, T)) == (full.lhs[-1], full.rhs[-1])

    seed = mc["exp_scaling_seed_base"] + rep
    path = acceptance._fbm(0.5, seed, n, T)
    exp = SmoothCallable([np.exp, np.exp], name="exp")
    full = scaling_check(path, exp, 0.0, dyadic_hierarchy(path, n), 2)
    assert acceptance._c7_task((seed, n, n, T)) == (full.lhs[-1], full.rhs[-1])

    bx, by = mc["minmax_seed_bases"]
    X, Y = acceptance._fbm(0.5, bx + rep, n, T), acceptance._fbm(0.5, by + rep, n, T)
    minmax = identity_suite(X, Y, dyadic_hierarchy(X, n), 2)[-1]
    assert minmax.identity == "min plus max local times"
    assert acceptance._c8_task((bx + rep, by + rep, n, n, T)) == (minmax.lhs[-1], minmax.rhs[-1])


def test_c3_reads_the_configured_level():
    # like C6-C8, C3 sums only dyadic level mc.level of its n_max paths
    cfg = _reduced_config()
    cfg["mc"].update(n_max=8, level=5)
    result = acceptance.run_criterion("C3", cfg)
    for row in result.rows:
        path = acceptance._fbm(row["hurst"], row["seed"], 8, cfg["T"])
        coarse = np.sum(np.abs(np.diff(path.values[::2**3])) ** row["p"])
        assert row["value"] == pytest.approx(coarse, rel=1e-12)


def test_c7_leaves_seeds_without_a_ratio_out_of_its_median():
    # seed 307004 is a Brownian path that never goes below its start: both
    # finest-level local times at 0 are exactly 0, so its ratio is undefined
    cfg = copy.deepcopy(acceptance.DEFAULT_CONFIG)
    cfg["mc"]["exp_scaling_seed_base"] = 307000
    result = acceptance.run_criterion("C7", cfg)
    assert result.passed, result.status_line()
    assert result.info["zero_rhs_seeds"] == [307004]
    exp_rows = [r for r in result.rows if r["check"] == "exp_ratio"]
    assert len(exp_rows) == cfg["mc"]["n_seeds"]
    defined = [r["value"] for r in exp_rows if r["seed"] != 307004]
    assert [r["value"] for r in exp_rows if r["seed"] == 307004] == [""]
    assert exp_rows[0]["median"] == float(np.median(defined))


def test_c2_fails_on_a_nan_side(monkeypatch):
    # the triangle's reports get a NaN lhs at every level, gated by the
    # exact gate as the real report is; a max that skips NaN would pass
    # these rows at a worst residual of 0
    real = acceptance.tanaka_meyer_report

    def nan_on_the_triangle(path, hier, p, a, t):
        rep = real(path, hier, p, a, t)
        if path.metadata["kind"] != "triangle":
            return rep
        return pathwise.tanaka._report(rep.identity, rep.level_labels, np.full_like(rep.lhs, math.nan), rep.rhs,
                                       exact=True)

    monkeypatch.setattr(acceptance, "tanaka_meyer_report", nan_on_the_triangle)
    result = acceptance.run_criterion("C2", _reduced_config())
    assert not result.passed
    failed = [r for r in result.rows if not r["ok"]]
    assert [r["path"] for r in failed] == ["triangle"] * 10
    assert all(math.isnan(r["worst_relative_residual"]) for r in failed)


@pytest.mark.parametrize("key", ["C1", "C2", "C4", "C5", "C7"])
def test_every_exact_criterion_reads_the_one_exact_gate(key, monkeypatch):
    monkeypatch.setattr(pathwise.tanaka, "EXACT_THRESHOLD", -1)
    result = acceptance.run_criterion(key, _reduced_config())
    assert not result.passed
    if key == "C1":
        # C1 gates each level on the report's own verdict
        assert not any(r["ok"] for r in result.rows)


@pytest.mark.parametrize("key", ["C1", "C5"])
def test_the_taylor_step_is_covered_by_the_release_gate(key, monkeypatch):
    # one kernel gives every Taylor coefficient; with its last order read
    # as 0 in every module that imports it, the change of variable (C1) and
    # A = B + C + D along ranks (C5) both fail
    real = pathwise.integrate._taylor_shift

    def last_order_dropped(coeffs, h, order, pos=None):
        out = real(coeffs, h, order, pos).copy()
        out[order] = 0.0
        return out

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("pathwise") and getattr(module, "_taylor_shift", None) is real:
            monkeypatch.setattr(module, "_taylor_shift", last_order_dropped)
            patched.add(name)
    assert {"pathwise.integrate", "pathwise.ranks"} <= patched
    result = acceptance.run_criterion(key, _reduced_config())
    assert not result.passed


@pytest.mark.parametrize(
    "key, task, no_scale",
    [("C6", "_c6_task", lambda lhs, rhs: (lhs, 0.0)), ("C8", "_c8_task", lambda lhs, rhs: (0.0, 0.0))],
    ids=["C6", "C8"],
)
def test_gap_ratio_is_zero_where_the_scale_is_not_positive(monkeypatch, key, task, no_scale):
    # C6 scales the gap by the original-path sum, C8 by the larger side;
    # replicate 0 is given a zero scale
    monkeypatch.setenv("PATHWISE_WORKERS", "1")
    cfg = _reduced_config()
    cfg["mc"]["n_seeds"] = 3
    plain = acceptance.run_criterion(key, cfg)
    real, calls = getattr(acceptance, task), []

    def patched(args):
        calls.append(args)
        return no_scale(*real(args)) if len(calls) == 1 else real(args)

    monkeypatch.setattr(acceptance, task, patched)
    result = acceptance.run_criterion(key, cfg)
    lhs_name, rhs_name = result.fieldnames[1:3]
    first, plain_first = result.rows[0], plain.rows[0]
    assert first["gap_ratio"] == 0.0
    assert (first[lhs_name], first[rhs_name]) == no_scale(plain_first[lhs_name], plain_first[rhs_name])
    assert [list(r) for r in result.rows] == [list(r) for r in plain.rows]
    ratios = [r["gap_ratio"] for r in result.rows]
    assert ratios[1:] == [r["gap_ratio"] for r in plain.rows[1:]]
    med = sorted(ratios)[1]
    assert result.info["median_margin"] == acceptance.GAP_RATIO_MAX - med
    assert result.passed == (result.info["median_margin"] >= 0)
    assert all(r["median_gap_ratio"] == med and r["ok"] == result.passed for r in result.rows)


# the rows each Monte Carlo criterion's median gates
_MEDIAN_GATED_ROWS = {
    "C3": lambda rows: rows,
    "C4": lambda rows: [r for r in rows if r["check"] == "smooth_x_squared"],
    "C6": lambda rows: rows,
    "C7": lambda rows: [r for r in rows if r["check"] == "exp_ratio"],
    "C8": lambda rows: rows,
    "C9": lambda rows: [r for r in rows if r["gated"]],
}


@pytest.mark.parametrize("key", list(_MEDIAN_GATED_ROWS))
def test_median_margin_matches_the_gated_rows(key, suite_run):
    (result,) = [r for r in suite_run[0] if r.key == key]
    margin = result.info["median_margin"]
    assert isinstance(margin, float) and math.isfinite(margin)
    assert all(r["ok"] == (margin >= 0) for r in _MEDIAN_GATED_ROWS[key](result.rows))
    assert result.passed == (margin >= 0)


@pytest.mark.parametrize(
    "key, name, value",
    [("C3", "C3_VARIATION_TOL", {2: 0.0, 4: 0.0}), ("C4", "C4_MIN_SLOPE", 10.0), ("C6", "GAP_RATIO_MAX", 0.0),
     ("C7", "C7_RATIO_TOL", 0.0), ("C8", "GAP_RATIO_MAX", 0.0), ("C9", "C9_RATIO_TOL", 0.0)],
)
def test_each_monte_carlo_threshold_is_read_when_its_criterion_runs(key, name, value, monkeypatch):
    # at these thresholds no median of a continuous statistic passes
    plain = acceptance.run_criterion(key, _reduced_config())
    monkeypatch.setattr(acceptance, name, value)
    result = acceptance.run_criterion(key, _reduced_config())
    assert not result.passed and result.info["median_margin"] < 0
    assert not any(r["ok"] for r in _MEDIAN_GATED_ROWS[key](result.rows))
    # the threshold moves the margin and the verdicts, no value
    assert [{k: v for k, v in r.items() if k != "ok"} for r in result.rows] == \
        [{k: v for k, v in r.items() if k != "ok"} for r in plain.rows]


def test_default_run_emits_the_suite_twice_like_an_out_dir_run(monkeypatch, tmp_path):
    # C1-C9 once, then C10's rerun: with or without an output directory
    monkeypatch.setenv("PATHWISE_WORKERS", "1")
    calls = []
    generate = acceptance.generate
    monkeypatch.setattr(acceptance, "generate", lambda spec: calls.append(spec) or generate(spec))
    cfg = _reduced_config()

    def generate_calls(run, *args):
        calls.clear()
        run(cfg, *args)
        return len(calls)

    once = generate_calls(acceptance.emit_artifacts, str(tmp_path / "once"))
    assert once > 0
    assert generate_calls(acceptance.run_all) == 2 * once
    assert generate_calls(acceptance.run_all, str(tmp_path / "acc")) == 2 * once


def _smooth_occupation_checks(monkeypatch, change):
    """Route C4's smooth-g occupation checks through ``change``; the
    indicator check is left as it is."""
    monkeypatch.setenv("PATHWISE_WORKERS", "1")
    real = acceptance.occupation_check

    def check(path, p, g, grids, t):
        if isinstance(g, CellIndicator):
            return real(path, p, g, grids, t)
        return change(real, path, p, g, grids, t)

    monkeypatch.setattr(acceptance, "occupation_check", check)


def test_c4_fails_when_the_smooth_error_does_not_converge(monkeypatch):
    # every grid's rhs taken on the 32-cell grid: each error stays within
    # its (coarse) Lipschitz bound, but no longer shrinks with the cells
    _smooth_occupation_checks(
        monkeypatch,
        lambda real, path, p, g, grids, t: real(path, p, g, [SpaceGrid.cover([path], 32)] * len(grids), t),
    )
    result = acceptance.run_criterion("C4")
    assert not result.passed
    assert abs(result.info["median_slope"]) < 1e-6
    assert all(row["abs_err"] <= row["bound"] for row in result.rows[1:])


def test_c4_gates_every_grid_on_the_lipschitz_bound(monkeypatch):
    finest = acceptance.DEFAULT_CONFIG["occupation"]["smooth_cells"][-1]

    def out_of_bound(real, path, p, g, grids, t):
        reps = real(path, p, g, grids, t)
        for grid, rep in zip(grids, reps):
            if grid.cells == finest and path.metadata["seed"] == 7:
                rep.passed = False
        return reps

    _smooth_occupation_checks(monkeypatch, out_of_bound)
    result = acceptance.run_criterion("C4")
    assert not result.passed
    assert result.info["median_slope"] >= acceptance.C4_MIN_SLOPE
    assert [(r["seed"], r["cells"]) for r in result.rows if not r["ok"]] == [(7, finest)]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("smooth_cells", [32, 64, 128, 256, 512], "at least 6 cell counts"),
        ("smooth_cells", [32, 64, 128, 256, 512, 1000], "twice the one before"),
        ("smooth_cells", [2, 4, 8, 16, 32, 64], "from 3 up"),
        ("smooth_seed_base", None, "is missing"),
    ],
)
def test_c4_config_validation_names_fields(field, value, message):
    cfg = copy.deepcopy(acceptance.DEFAULT_CONFIG)
    if value is None:
        del cfg["occupation"][field]
    else:
        cfg["occupation"][field] = value
    with pytest.raises(ConfigError, match=rf"'occupation\.{field}'.*{message}"):
        acceptance.validate_config(cfg)


def _drop(cfg, section, key):
    del cfg[section][key]


@pytest.mark.parametrize(
    "edit, name",
    [
        (lambda cfg: cfg.update(T="1"), "'T'"),
        (lambda cfg: cfg.update(T=True), "'T'"),
        (lambda cfg: cfg.update(exact=3), "'exact'"),
        (lambda cfg: _drop(cfg, "exact", "levels"), "'exact.levels' is missing"),
        (lambda cfg: cfg["exact"].update(levels=13), "'exact.levels'"),
        (lambda cfg: _drop(cfg, "mc", "n_seeds"), "'mc.n_seeds' is missing"),
        (lambda cfg: cfg["mc"].update(n_seeds=0), "'mc.n_seeds'"),
        (lambda cfg: cfg["occupation"].update(smooth_cells="32"), "'occupation.smooth_cells'"),
        (lambda cfg: _drop(cfg, "mc", "grid_cells"), "'mc.grid_cells' is missing"),
        (lambda cfg: cfg["mc"].update(grid_cells="64"), "'mc.grid_cells' must be an integer"),
        (lambda cfg: cfg["mc"].update(n_seed=5), "'mc.n_seed' is unknown; did you mean 'n_seeds'?"),
        (lambda cfg: cfg.update(sclaing={}), "'sclaing' is unknown; did you mean 'scaling'?"),
        (lambda cfg: cfg["exact"].update(fbm_seeds=[11, 12.5]), "'exact.fbm_seeds' must be a list of integers"),
        (lambda cfg: cfg["scaling"].update(a="0.1"), "'scaling.a' must be a number"),
    ],
    ids=["T a string", "T a bool", "exact not an object", "no exact.levels", "levels over n_max",
         "no mc.n_seeds", "n_seeds below 1", "cells not a list", "no mc.grid_cells", "grid_cells a string",
         "misspelt n_seeds", "misspelt section", "seed not an int", "scaling.a a string"],
)
def test_acceptance_config_errors_name_their_field(edit, name):
    cfg = copy.deepcopy(acceptance.DEFAULT_CONFIG)
    edit(cfg)
    with pytest.raises(ConfigError, match=re.escape(name)):
        acceptance.validate_config(cfg)


def test_emit_artifacts_validates_its_config(tmp_path):
    # a public entry: an incomplete config is the ConfigError that run_all
    # raises on it, naming the field, before anything is written
    with pytest.raises(ConfigError, match="'schema_version' is missing"):
        acceptance.emit_artifacts({"T": 1.0}, str(tmp_path / "acc"))
    assert not (tmp_path / "acc").exists()


# -- held-out seeds ---------------------------------------------------------------

# every seed base of the Monte Carlo criteria, as (section, key); the exact
# criteria's seeds stay
_SEED_BASES = [(section, key) for section in ("mc", "occupation")
               for key in acceptance.DEFAULT_CONFIG[section] if "seed_base" in key]
HELDOUT_SETS = range(1, 11)


def _shifted_config(k: int) -> dict:
    """The default config with every Monte Carlo seed base moved by 100000 k."""
    cfg = copy.deepcopy(acceptance.DEFAULT_CONFIG)
    for section, key in _SEED_BASES:
        base = cfg[section][key]
        cfg[section][key] = [b + 100000 * k for b in base] if isinstance(base, list) else base + 100000 * k
    return cfg


@pytest.mark.heldout
@pytest.mark.parametrize("key", list(_MEDIAN_GATED_ROWS))
def test_monte_carlo_gates_hold_on_held_out_seeds(key):
    """A gate calibrated on lucky seeds shows here: the criterion runs on
    ten seed sets it was not tuned on, and the worst of the median margins
    it records (in the statistic's own units) is printed."""
    results = {k: acceptance.run_criterion(key, _shifted_config(k)) for k in HELDOUT_SETS}
    margins = {k: res.info["median_margin"] for k, res in results.items()}
    worst = min(margins, key=margins.get)
    print(f"\n{key}: worst median margin {margins[worst]:.4g} to its threshold (seed shift {100000 * worst})")
    assert [k for k, res in results.items() if not res.passed] == []


_ENGINE_PATHS = """
import os, tempfile
os.environ["PATHWISE_WORKERS"] = "1"
from pathwise import PathSpec, acceptance, cli, dyadic_hierarchy, generate, modified_follmer_integral, tanaka_class
with tempfile.TemporaryDirectory() as tmp:
    acceptance.emit_artifacts(None, os.path.join(tmp, "acc"))
    paths = [{"kind": "bm", "n_max": 10, "seed": s} for s in (1, 2)]
    assert cli.run({"paths": paths, "p": 2, "partition": "lebesgue", "levels": 6, "analyses": ["identities"],
                    "grid_cells": 32, "output_dir": os.path.join(tmp, "run")}) == 0
path = generate(PathSpec(kind="bm", n_max=8, seed=3))
modified_follmer_integral(path, dyadic_hierarchy(path, 4), 2, tanaka_class("abs_pow", 2), 1.0, m_schedule=(2,), cells=16)
"""


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy < 2 imports numpy.ma with numpy")
def test_engine_paths_load_no_masked_arrays():
    # np.median, np.unique and np.isin's sorting path import numpy.ma (14.5 ms,
    # +0.84 MiB resident) only to check their input for masks; acceptance
    # C1-C9, a Lebesgue run with the identities and a mollified integral
    # reach none of them
    assert [m for m in modules_loaded(_ENGINE_PATHS) if m.split(".")[:2] == ["numpy", "ma"]] == []


_LIBRARY_PATHS = """
import os, tempfile
os.environ["PATHWISE_WORKERS"] = "1"
from pathwise import acceptance, cli
with tempfile.TemporaryDirectory() as tmp:
    acceptance.emit_artifacts(None, os.path.join(tmp, "acc"))
    paths = [{"kind": "bm", "n_max": 10, "seed": s} for s in (1, 2)]
    # a poly of degree 5 >= p: its change of variable has a density remainder
    functions = [{"name": "abs_pow"}, {"name": "poly", "params": {"coeffs": [0.1, -0.3, 0.5, 0.25, -0.125, 0.2]}}]
    assert cli.run({"paths": paths, "p": 4, "levels": 6, "grid_cells": 32, "output_dir": os.path.join(tmp, "run"),
                    "analyses": ["variation", "local-time", "tanaka", "identities", "ranks"],
                    "test_functions": functions}) == 0
"""


def test_library_calls_load_no_argument_parser_or_polynomial_package():
    # importing the engine, its CLI module and the acceptance suite, then
    # running C1-C9 and a run of every analysis, the density remainder
    # among them: argparse (+0.37 MiB resident) loads only to parse a
    # command line, numpy.polynomial (+0.74 MiB) only for mollification's
    # Gauss-Legendre rule
    loaded = modules_loaded(_LIBRARY_PATHS)
    assert [m for m in loaded if m == "argparse" or m.startswith("numpy.polynomial")] == []


def _polyfit_module():
    """The module whose ``lstsq`` np.polyfit calls (it binds the name at
    import, so patching numpy.linalg alone would not reach it)."""
    import importlib

    for name in ("numpy.lib._polynomial_impl", "numpy.lib.polynomial"):
        with contextlib.suppress(ImportError):
            module = importlib.import_module(name)
            if getattr(module, "polyfit", None) is np.polyfit:
                return module
    pytest.skip("np.polyfit's module not found")


def test_c4_fits_its_slope_without_lapack(monkeypatch, suite_run):
    # C4's slope is a closed-form least-squares fit over math.log values:
    # no LAPACK call, whose bytes would depend on the OpenBLAS kernel
    def refuse(*args, **kwargs):
        raise AssertionError("lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(_polyfit_module(), "lstsq", refuse)
    res = acceptance.run_criterion("C4")
    assert res.passed, res.status_line()
    (kept,) = [r for r in suite_run[0] if r.key == "C4"]
    assert res.rows == kept.rows and res.info == kept.info
