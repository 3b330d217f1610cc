import json

from pathwise.cli import main


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
