import csv
import json
from collections import Counter

import pytest

from pathwise.cli import main
from tests.conftest import modules_loaded


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_generate_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        rc = run_cli("generate", "--kind", "fbm", "--hurst", "0.5", "--seed", "7",
                     "--n-max", "6", "--out", str(out))
        assert rc == 0
    assert read(a) == read(b)
    header, first = read(a).decode().splitlines()[:2]
    assert header == "t,value"
    assert first == "0.0,0.0"


def test_variation_subcommand_schema(tmp_path):
    out = tmp_path / "var"
    rc = run_cli("variation", "--kind", "fbm", "--hurst", "0.25", "--p", "4",
                 "--seed", "3", "--n-max", "8", "--levels", "6", "--out-dir", str(out))
    assert rc == 0
    csv = (out / "variation_p0_s3.csv").read_text().splitlines()
    assert csv[0] == "level,t,value"
    assert len(csv) == 1 + 6 * 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ok"] and summary["schema_version"] == 1


def test_tanaka_subcommand_exit_status_and_identities(tmp_path):
    out = tmp_path / "tk"
    rc = run_cli("tanaka", "--kind", "triangle", "--p", "2", "--n-max", "8",
                 "--levels", "6", "--out-dir", str(out))
    assert rc == 0
    rows = (out / "identities.csv").read_text().splitlines()
    assert rows[0] == "identity,level,lhs,rhs,residual,class"
    assert any("exact-per-level" in r for r in rows[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exact_identity_failures"] == []


def test_tanaka_subcommand_identities_are_exact_at_an_interior_checkpoint(tmp_path):
    out = tmp_path / "tk"
    rc = run_cli("tanaka", "--kind", "bm", "--p", "2", "--n-max", "10", "--levels", "8",
                 "--checkpoints", "0.25,0.5", "--out-dir", str(out))
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exact_identity_failures"] == []


def test_ranks_subcommand(tmp_path):
    out = tmp_path / "rk"
    rc = run_cli("ranks", "--kind", "fbm", "--hurst", "0.5", "--seed", "11",
                 "--n-max", "8", "--levels", "6", "--m", "3", "--out-dir", str(out))
    assert rc == 0
    rows = (out / "ranks.csv").read_text().splitlines()
    assert rows[0] == "k,level,t,A,B,C,D,residual"


def test_identities_subcommand(tmp_path):
    out = tmp_path / "ids"
    rc = run_cli("identities", "--kind", "fbm", "--hurst", "0.5", "--seed", "4",
                 "--n-max", "8", "--levels", "5", "--m", "2", "--out-dir", str(out))
    assert rc == 0
    text = (out / "identities.csv").read_text()
    assert "min plus max local times" in text
    assert "local time scaling" in text


def test_local_time_memory_guard(tmp_path):
    cfg = {
        "paths": [{"kind": "fbm", "hurst": 0.5, "seed": 1, "n_max": 8}],
        "p": 2,
        "levels": 6,
        "analyses": ["local-time"],
        "grid_cells": 64,
        "max_tensor_bytes": 128,
        "output_dir": str(tmp_path / "guard"),
    }
    file = tmp_path / "cfg.json"
    file.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(file)) == 2


def test_run_config_validation_names_fields(tmp_path, capsys):
    cfg = {"paths": [{"kind": "fbm", "hurst": 0.5}], "p": 3, "levels": 4}
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(file)) == 2
    err = capsys.readouterr().err
    assert "'p'" in err


def test_run_config_syntax_error_line_numbered(tmp_path, capsys):
    file = tmp_path / "syntax.json"
    file.write_text('{\n  "p": 2,\n  "paths": [\n')
    assert run_cli("run", "--config", str(file)) == 2
    err = capsys.readouterr().err
    assert "syntax.json:" in err


def test_run_is_byte_deterministic(tmp_path):
    cfg = {
        "paths": [{"kind": "fbm", "hurst": 0.5, "seed": 5, "n_max": 8}],
        "p": 2,
        "levels": 6,
        "checkpoints": [0.5, 1.0],
        "analyses": ["variation", "tanaka", "identities"],
        "seeds": {"count": 2, "base": 5},
        "grid_cells": 32,
    }
    outputs = []
    for tag in ("one", "two"):
        cfg["output_dir"] = str(tmp_path / tag)
        file = tmp_path / f"{tag}.json"
        file.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(file)) == 0
        outputs.append(sorted((tmp_path / tag).glob("*.csv")))
    for f1, f2 in zip(*outputs):
        assert f1.name == f2.name
        assert read(f1) == read(f2), f1.name


def test_acceptance_single_criterion():
    assert run_cli("acceptance", "--criterion", "C4") == 0


def test_constant_path_identities_pass_trivially(tmp_path):
    out = tmp_path / "const"
    rc = run_cli("tanaka", "--kind", "constant", "--value", "1.0", "--p", "2",
                 "--n-max", "6", "--levels", "4", "--out-dir", str(out))
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ok"]


def test_run_trims_the_heap_first(tmp_path, monkeypatch):
    import pathwise.cli
    from pathwise import _util

    calls = []
    monkeypatch.setattr(pathwise.cli, "release_free_heap", lambda: calls.append(1))
    assert run_cli("variation", "--kind", "fbm", "--hurst", "0.25", "--p", "4", "--seed", "3",
                   "--n-max", "6", "--levels", "4", "--out-dir", str(tmp_path / "var")) == 0
    assert calls == [1]
    monkeypatch.setattr(_util, "_MALLOC_TRIM", None)  # a C library without malloc_trim
    _util.release_free_heap()


@pytest.mark.parametrize("partition", ["dyadic", "lebesgue"])
def test_run_calls_the_hierarchy_builder_by_name(partition, tmp_path, monkeypatch):
    # a tracer that rebinds pathwise.cli's builders sees every call
    import pathwise.cli

    builder = f"{partition}_hierarchy"
    real, calls = getattr(pathwise.cli, builder), []

    def spy(path, levels):
        calls.append(levels)
        return real(path, levels)

    monkeypatch.setattr(pathwise.cli, builder, spy)
    assert run_cli("identities", "--kind", "bm", "--partition", partition, "--m", "2", "--n-max", "6",
                   "--levels", "4", "--out-dir", str(tmp_path / "ids")) == 0
    assert calls == [4, 4]


# -- config validation ----------------------------------------------------------

_GOOD = {"paths": [{"kind": "bm", "n_max": 6, "seed": 1}], "p": 2, "levels": 4, "analyses": ["variation"]}


def _without(field):
    return {k: v for k, v in _GOOD.items() if k != field}


BAD_CONFIGS = {
    "missing paths": (_without("paths"), "'paths'"),
    "paths not a list": ({**_GOOD, "paths": "bm"}, "'paths'"),
    "no paths": ({**_GOOD, "paths": []}, "'paths'"),
    "unknown path kind": ({**_GOOD, "paths": [{"kind": "walk"}]}, "paths[0].kind"),
    "bad path spec": ({**_GOOD, "paths": [{"kind": "bm", "n_max": 0}]}, "paths[0]"),
    "missing p": (_without("p"), "'p'"),
    "p not an int": ({**_GOOD, "p": 2.0}, "'p'"),
    "odd p": ({**_GOOD, "p": 3}, "'p'"),
    "bad partition": ({**_GOOD, "partition": "uniform"}, "'partition'"),
    "levels not an int": ({**_GOOD, "levels": "4"}, "'levels'"),
    "levels over n_max": ({**_GOOD, "levels": 7}, "'levels'"),
    "unknown analysis": ({**_GOOD, "analyses": ["spectra"]}, "'analyses'"),
    "unknown test function": ({**_GOOD, "test_functions": [{"name": "sin"}]}, "test_functions[0].name"),
    "poly without coefficients": ({**_GOOD, "test_functions": [{"name": "poly"}]}, "test_functions[0]"),
    "poly with no coefficient": (
        {**_GOOD, "test_functions": [{"name": "poly", "params": {"coeffs": []}}]}, "test_functions[0]"),
    "test function listed twice": (
        {**_GOOD, "test_functions": [{"name": "poly", "params": {"coeffs": [0, 0, 1]}},
                                     {"name": "poly", "params": {"coeffs": [0.0, 0.0, 1.0]}}]},
        "test_functions[1]"),
    "seed count below 1": ({**_GOOD, "seeds": {"count": 0}}, "'seeds.count'"),
    "seed count not an int": ({**_GOOD, "seeds": {"count": "2"}}, "'seeds.count'"),
    "no checkpoints": ({**_GOOD, "checkpoints": []}, "'checkpoints'"),
    "grid cells not an int": ({**_GOOD, "grid_cells": "many"}, "'grid_cells'"),
    "cap not an int": ({**_GOOD, "max_tensor_bytes": "1 GiB"}, "'max_tensor_bytes'"),
    "local-time field over the cap": (
        {**_GOOD, "analyses": ["local-time"], "grid_cells": 64, "max_tensor_bytes": 128}, "'grid_cells'"),
    "ranks of one path": ({**_GOOD, "analyses": ["ranks"]}, "'paths'"),
    "identities of one path": ({**_GOOD, "analyses": ["identities"]}, "'paths'"),
    "config not an object": ([_GOOD], "config must be a JSON object"),
    "path spec not an object": ({**_GOOD, "paths": [5]}, "'paths[0]'"),
    "n_max not an int": ({**_GOOD, "paths": [{"kind": "bm", "n_max": "x"}]}, "'paths[0].n_max'"),
    "n_max a float": ({**_GOOD, "paths": [{"kind": "bm", "n_max": 10.0}]}, "'paths[0].n_max'"),
    "seed a float": ({**_GOOD, "paths": [{"kind": "bm", "seed": 7.0}]}, "'paths[0].seed'"),
    "T a string": ({**_GOOD, "paths": [{"kind": "bm", "T": "1"}]}, "'paths[0].T'"),
    "hurst a string": ({**_GOOD, "paths": [{"kind": "fbm", "hurst": "half"}]}, "'paths[0].hurst'"),
    "hurst a bool": ({**_GOOD, "paths": [{"kind": "fbm", "hurst": True}]}, "'paths[0].hurst'"),
    "levels below 1": ({**_GOOD, "levels": 0}, "'levels'"),
    "analyses not a list": ({**_GOOD, "analyses": "variation"}, "'analyses' must be a list"),
    "checkpoints not a list": ({**_GOOD, "checkpoints": "0.5"}, "'checkpoints'"),
    "checkpoint not a number": ({**_GOOD, "checkpoints": ["a"]}, "'checkpoints'"),
    "seeds not an object": ({**_GOOD, "seeds": 3}, "'seeds'"),
    "seed base not an int": ({**_GOOD, "seeds": {"count": 2, "base": "x"}}, "'seeds.base'"),
    "test functions not a list": ({**_GOOD, "test_functions": {"name": "abs_pow"}}, "'test_functions'"),
    "test function anchor not a number": (
        {**_GOOD, "test_functions": [{"name": "abs_pow", "params": {"a": "zero"}}]}, "'test_functions[0].params.a'"),
    "poly coefficients not numbers": (
        {**_GOOD, "test_functions": [{"name": "poly", "params": {"coeffs": "abc"}}]},
        "'test_functions[0].params.coeffs'"),
    "grid cells below 3": ({**_GOOD, "analyses": ["local-time"], "grid_cells": 2}, "'grid_cells'"),
    "output dir not a string": ({**_GOOD, "output_dir": 5}, "'output_dir'"),
    # 171! is not a float64
    "p above 170": ({**_GOOD, "p": 172}, "'p' must be an even integer from 2 to 170, got 172"),
    # Philox keys are the seeds in [0, 2**64)
    "seed below 0": ({**_GOOD, "paths": [{"kind": "bm", "seed": -1}]}, "paths[0]: seed"),
    "seed of 2**64": ({**_GOOD, "paths": [{"kind": "bm", "seed": 2**64}]}, "paths[0]: seed"),
    "seed base below 0": ({**_GOOD, "seeds": {"count": 2, "base": -1}}, "'seeds.base'/'seeds.count'"),
    "replicate seeds past 2**64": (
        {**_GOOD, "seeds": {"count": 2, "base": 2**64 - 1}}, "'seeds.base'/'seeds.count'"),
    # a misspelt key would leave its field at the default: levels 6, seed 0
    "misspelt levels": ({**_GOOD, "level": 3}, "'level' is unknown; did you mean 'levels'?"),
    "misspelt path seed": (
        {**_GOOD, "paths": [{"kind": "bm", "n_max": 6, "sed": 5}]}, "'paths[0].sed' is unknown; did you mean 'seed'?"),
    "misspelt seed count": ({**_GOOD, "seeds": {"cout": 2}}, "'seeds.cout' is unknown; did you mean 'count'?"),
    "misspelt test function key": (
        {**_GOOD, "test_functions": [{"name": "abs_pow", "param": {}}]}, "'test_functions[0].param' is unknown"),
    "misspelt anchor": (
        {**_GOOD, "test_functions": [{"name": "abs_pow", "params": {"A": 0.5}}]},
        "'test_functions[0].params.A' is unknown"),
    "unknown key without a near one": ({**_GOOD, "zzz": 1}, "'zzz' is unknown; known keys are p, paths"),
    # tanaka_class reads a only for the power functions and coeffs only for poly
    "poly with an anchor": (
        {**_GOOD, "test_functions": [{"name": "poly", "params": {"coeffs": [0, 0, 1], "a": 0.5}}]},
        "'test_functions[0].params.a' is unknown; known keys are coeffs"),
    "x_pow_pm1 with an anchor": (
        {**_GOOD, "test_functions": [{"name": "x_pow_pm1", "params": {"a": 0.3}}]},
        "'test_functions[0].params.a' is unknown; 'test_functions[0].params' takes none"),
    "abs_pow with coefficients": (
        {**_GOOD, "test_functions": [{"name": "abs_pow", "params": {"a": 0.2, "coeffs": [1, 2]}}]},
        "'test_functions[0].params.coeffs' is unknown; known keys are a"),
}


@pytest.fixture
def nothing_generated(monkeypatch):
    """Validation must refuse a bad config before any path is generated."""
    import pathwise.cli

    def refuse(spec):
        raise AssertionError("a path was generated")

    monkeypatch.setattr(pathwise.cli, "generate", refuse)


@pytest.mark.parametrize("cfg,field", BAD_CONFIGS.values(), ids=list(BAD_CONFIGS))
def test_bad_configs_exit_2_and_name_their_field(cfg, field, tmp_path, monkeypatch, capsys, nothing_generated):
    monkeypatch.chdir(tmp_path)
    file = tmp_path / "bad.json"
    if isinstance(cfg, dict) and "output_dir" not in cfg:
        cfg = {**cfg, "output_dir": "out"}
    file.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(file)) == 2
    err = capsys.readouterr().err
    assert err.startswith("pathwise: config error:") and field in err
    # no output directory, not even the default one
    assert [f.name for f in tmp_path.iterdir()] == ["bad.json"]


def test_local_time_size_is_checked_before_anything_is_generated(tmp_path, capsys, nothing_generated):
    cfg = {**_GOOD, "analyses": ["variation", "local-time"], "grid_cells": 100_000_000,
           "output_dir": str(tmp_path / "out")}
    file = tmp_path / "big.json"
    file.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(file)) == 2
    assert "max_tensor_bytes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_unreadable_config_exits_2_and_names_the_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli("run", "--config", str(missing)) == 2
    err = capsys.readouterr().err
    assert "cannot read config" in err and "missing.json" in err


@pytest.mark.parametrize("command", ["tanaka", "ranks"])
@pytest.mark.parametrize("p", ["172", "200", "400"])
def test_orders_past_170_exit_2_naming_the_bound(command, p, tmp_path, capsys, nothing_generated):
    # these once ended in an OverflowError from a factorial
    assert run_cli(command, "--kind", "bm", "--p", p, "--n-max", "4", "--out-dir", str(tmp_path / "o")) == 2
    assert f"'p' must be an even integer from 2 to 170, got {p}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_identities_of_one_path_exit_2(tmp_path, capsys, nothing_generated):
    rc = run_cli("identities", "--kind", "bm", "--n-max", "6", "--levels", "4", "--m", "1",
                 "--out-dir", str(tmp_path / "ids"))
    assert rc == 2
    assert "'identities' needs at least two paths" in capsys.readouterr().err
    assert not (tmp_path / "ids").exists()


@pytest.mark.parametrize("checkpoints", ["x", "", "0.5,,1"])
def test_unparsable_checkpoints_exit_2_and_name_the_option(checkpoints, tmp_path, capsys, nothing_generated):
    with pytest.raises(SystemExit) as exit:
        run_cli("variation", "--kind", "bm", "--n-max", "6", "--checkpoints", checkpoints,
                "--out-dir", str(tmp_path / "var"))
    assert exit.value.code == 2
    assert "argument --checkpoints: must be comma-separated numbers" in capsys.readouterr().err
    assert not (tmp_path / "var").exists()


@pytest.mark.parametrize("command", ["variation", "ranks"])
def test_a_negative_seed_exits_2_before_any_output(command, tmp_path, capsys, nothing_generated):
    rc = run_cli(command, "--kind", "bm", "--n-max", "6", "--seed", "-1", "--out-dir", str(tmp_path / "out"))
    assert rc == 2
    assert "seed must be a Philox key in [0, 2**64), got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_engine_error_exits_2(tmp_path, capsys):
    rc = run_cli("variation", "--kind", "bm", "--n-max", "6", "--levels", "4", "--checkpoints", "2.0",
                 "--out-dir", str(tmp_path / "var"))
    assert rc == 2
    assert capsys.readouterr().err.startswith("pathwise: error: checkpoints must lie within [0, T]")


# -- identity names ---------------------------------------------------------------


@pytest.mark.parametrize("functions", [
    [{"name": "poly", "params": {"coeffs": [0, 0, 1]}}, {"name": "poly", "params": {"coeffs": [0, 1, 1]}}],
    [{"name": "poly", "params": {"coeffs": [0, 1]}}, {"name": "x_pow_pm1"}],  # x**(p-1) is that poly
], ids=["two polys", "poly and x_pow_pm1"])
def test_configured_test_functions_give_unique_identity_names(functions, tmp_path):
    levels = 8
    cfg = {"paths": [{"kind": "bm", "n_max": 10, "seed": 3}], "p": 2, "levels": levels,
           "analyses": ["tanaka"], "test_functions": functions, "output_dir": str(tmp_path / "out")}
    file = tmp_path / "cfg.json"
    file.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(file)) == 0
    with open(tmp_path / "out" / "identities.csv", newline="") as fh:
        names = Counter(row["identity"] for row in csv.DictReader(fh))
    # per function a change-of-variable and an Ito identity, then Tanaka-Meyer
    assert len(names) == 2 * len(functions) + 1
    assert set(names.values()) == {levels}
    ito = sorted(name for name in names if name.startswith("ito order 2 "))
    cv = sorted(name for name in names if name.startswith("change of variable p=2 "))
    # the Ito rows carry the change-of-variable rows' label
    assert [n[len("ito order 2 "):] for n in ito] == [n[len("change of variable p=2 "):] for n in cv]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert sorted(k for k in summary["trend_stats"] if k.startswith("ito")) == ito


# -- exit status ------------------------------------------------------------------


def test_generate_writes_to_stdout_without_out(capsys):
    assert run_cli("generate", "--kind", "bm", "--n-max", "4", "--seed", "7") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["t,value", "0.0,0.0"] and len(lines) == 1 + 2**4 + 1


@pytest.mark.parametrize("passed,status", [(True, 0), (False, 1)])
def test_acceptance_suite_exit_status_follows_the_gated_results(passed, status, monkeypatch, capsys):
    import pathwise.cli
    from pathwise.acceptance import CriterionResult

    results = [CriterionResult("C1", "first", True, True, (), []),
               CriterionResult("C2", "second", passed, True, (), []),
               CriterionResult("C3", "ungated", False, False, (), [])]
    monkeypatch.setattr(pathwise.acceptance, "run_all", lambda out_dir=None: results)
    assert run_cli("acceptance") == status
    out = capsys.readouterr().out.splitlines()
    assert out[1] == f"C2 {'PASS' if passed else 'FAIL'} - second"
    assert out[-1] == f"acceptance suite: {'PASS' if passed else 'FAIL'}"


def test_an_exact_identity_failure_exits_1(tmp_path, monkeypatch):
    import pathwise.tanaka

    monkeypatch.setattr(pathwise.tanaka, "EXACT_THRESHOLD", -1)
    out = tmp_path / "tk"
    rc = run_cli("tanaka", "--kind", "triangle", "--p", "2", "--n-max", "8", "--levels", "6",
                 "--out-dir", str(out))
    assert rc == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ok"] is False and summary["exact_identity_failures"]


def test_a_rank_decomposition_failure_exits_1(tmp_path, monkeypatch):
    import pathwise.tanaka

    # the rank decompositions take their verdict from the one exact gate
    monkeypatch.setattr(pathwise.tanaka, "EXACT_THRESHOLD", -1)
    out = tmp_path / "rk"
    rc = run_cli("ranks", "--kind", "bm", "--p", "2", "--m", "3", "--n-max", "8", "--levels", "6",
                 "--out-dir", str(out))
    assert rc == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ok"] is False
    assert summary["exact_identity_failures"] == [f"rank decomposition k={k}" for k in (1, 2, 3)]


_RUN_EVERY_ANALYSIS = """
import os, tempfile
os.environ["PATHWISE_WORKERS"] = "1"
from pathwise import cli
with tempfile.TemporaryDirectory() as tmp:
    paths = [{"kind": "bm", "n_max": 8, "seed": s} for s in (1, 2)]
    functions = [{"name": "abs_pow"}, {"name": "poly", "params": {"coeffs": [0.5, -0.25, 0.2, 0.1, -0.1, 0.05, 0.02,
                                                                            -0.01, 0.01]}}]
    for p in (6, 8):
        assert cli.run({"paths": paths, "p": p, "levels": 6, "grid_cells": 16, "test_functions": functions,
                        "analyses": list(cli.ANALYSES), "output_dir": os.path.join(tmp, str(p))}) == 0
"""


def test_a_run_of_every_analysis_loads_no_acceptance_suite_or_polynomial_package():
    # the acceptance suite loads only for the acceptance command, and a
    # degree-8 poly's density remainder at p = 6 and 8 is Taylor's tail in
    # closed form, with no quadrature rule from numpy.polynomial
    loaded = modules_loaded(_RUN_EVERY_ANALYSIS)
    assert "pathwise.cli" in loaded
    assert [m for m in loaded if m == "pathwise.acceptance" or m.startswith("numpy.polynomial")] == []
