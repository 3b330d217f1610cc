"""Golden digests: the bytes of the CLI and acceptance artifacts.

``golden.sha256`` holds, in ``sha256sum`` format, the SHA-256 of every CSV
that the CLI runs below write, and of the 9 CSVs of the acceptance suite.
The ``CLI_RUNS`` use Brownian paths, which draw their steps without
numpy's FFT, so their bytes must not depend on the numpy version.  The
fBM paths of the acceptance suite and of ``FFT_CLI_RUNS`` go through the
FFT, so their digests are listed under a ``[numpy N]`` header and checked
only under numpy major version N; a numpy major version without such a
section skips those checks.  CI checks the Brownian lines with
``sha256sum --check``.

A change that moves bytes on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py

which rewrites the numpy-free lines and this numpy's section and keeps the
other sections; the change then names the files whose digests moved.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pathwise import acceptance, cli

MANIFEST = Path(__file__).with_name("golden.sha256")
NUMPY_SECTION = f"numpy {np.__version__.split('.')[0]}"

_RUN = {
    "paths": [{"kind": "bm", "n_max": 12, "seed": 7}], "seeds": {"count": 2}, "p": 2, "levels": 12,
    "analyses": ["variation", "local-time", "tanaka", "identities", "ranks"], "grid_cells": 64,
    "output_dir": "run/",
}
# the Lebesgue run's 65k-interval levels split into four blocks of the
# interval kernel
_LEB_RUN = {**_RUN, "paths": [{"kind": "bm", "n_max": 16, "seed": 7}], "partition": "lebesgue",
            "levels": 10, "output_dir": "leb-run/"}
# four ranked paths at p = 4, so the rank decomposition's cross term C and
# its interior checkpoints are pinned too
_RANK_RUN = {"paths": [{"kind": "bm", "n_max": 12, "seed": 7}], "seeds": {"count": 4}, "p": 4, "levels": 12,
             "analyses": ["ranks"], "checkpoints": [0.3, 0.5, 1.0], "output_dir": "rank-run/"}

# what each run writes (a file, or every CSV of a directory), and its
# command line, run in the current directory
CLI_RUNS = {
    "bm.csv": ["generate", "--kind", "bm", "--n-max", "14", "--seed", "7", "--out", "bm.csv"],
    "lt/": ["local-time", "--kind", "bm", "--p", "2", "--n-max", "14", "--seed", "7", "--levels", "14",
            "--grid-cells", "128", "--out-dir", "lt/"],
    "run/": ["run", "--config", "run.json"],
    "leb-run/": ["run", "--config", "leb-run.json"],
    "rank-run/": ["run", "--config", "rank-run.json"],
    # exact identities at interior checkpoints: every side ends where the
    # last credited interval of its level ends
    "tk/": ["tanaka", "--kind", "bm", "--p", "2", "--n-max", "10", "--levels", "8", "--checkpoints", "0.25,0.5",
            "--out-dir", "tk/"],
    "ids/": ["identities", "--kind", "bm", "--p", "2", "--n-max", "10", "--levels", "8", "--checkpoints",
             "0.25,0.5", "--out-dir", "ids/"],
}
# fBM runs, whose bytes go through numpy's FFT: CI's "Lebesgue variation"
# step
FFT_CLI_RUNS = {
    "leb/": ["variation", "--partition", "lebesgue", "--kind", "fbm", "--hurst", "0.25", "--p", "4",
             "--n-max", "16", "--levels", "10", "--out-dir", "leb/"],
}
_CONFIGS = {"run/": ("run.json", _RUN), "leb-run/": ("leb-run.json", _LEB_RUN),
            "rank-run/": ("rank-run.json", _RANK_RUN)}


def _run_cli(target: str) -> None:
    if target in _CONFIGS:
        name, cfg = _CONFIGS[target]
        Path(name).write_text(json.dumps(cfg))
    assert cli.main({**CLI_RUNS, **FFT_CLI_RUNS}[target]) == 0


def _digests(root: Path, target: str, prefix: str = "") -> dict:
    """SHA-256 of ``target`` under root, or of every CSV in it if it is a
    directory, keyed by its name under root with ``prefix`` in front."""
    files = [root / target] if not target.endswith("/") else sorted((root / target).glob("*.csv"))
    return {prefix + f.relative_to(root).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def read_manifest(text: str) -> dict:
    """``{section: {file: digest}}``; section None holds the lines before
    the first ``[...]`` header."""
    sections, current = {None: {}}, None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            current = line.strip("[]")
            sections[current] = {}
            continue
        digest, name = line.split("  ", 1)
        sections[current][name] = digest
    return sections


def _expected(section, target: str) -> dict:
    listed = read_manifest(MANIFEST.read_text()).get(section)
    if listed is None:
        pytest.skip(f"no [{section}] digests in {MANIFEST.name}")
    return {name: d for name, d in listed.items() if name == target or name.startswith(target)}


@pytest.mark.parametrize("target", list(CLI_RUNS))
def test_cli_artifacts_match_the_manifest(target, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_cli(target)
    assert _digests(tmp_path, target) == _expected(None, target)


@pytest.mark.parametrize("target", list(FFT_CLI_RUNS))
def test_fft_cli_artifacts_match_this_numpys_section(target, tmp_path, monkeypatch):
    expected = _expected(NUMPY_SECTION, target)
    monkeypatch.chdir(tmp_path)
    _run_cli(target)
    assert _digests(tmp_path, target) == expected


def test_acceptance_artifacts_match_the_manifest(suite_run):
    _, out = suite_run
    assert _digests(out, "./", prefix="acc/") == _expected(NUMPY_SECTION, "acc/")


def regenerate() -> None:
    """Rewrite the numpy-free lines and this numpy's section from fresh
    runs in a temporary directory; other sections are kept."""
    sections = read_manifest(MANIFEST.read_text()) if MANIFEST.exists() else {None: {}}
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="pathwise-golden-") as tmp:
        os.chdir(tmp)
        try:
            sections[None] = {}
            for target in CLI_RUNS:
                _run_cli(target)
                sections[None].update(_digests(Path(tmp), target))
            acceptance.run_all(out_dir="acc")
            sections[NUMPY_SECTION] = _digests(Path(tmp), "acc/")
            for target in FFT_CLI_RUNS:
                _run_cli(target)
                sections[NUMPY_SECTION].update(_digests(Path(tmp), target))
        finally:
            os.chdir(here)
    lines = [
        "# SHA-256 of the artifacts that tests/test_golden.py writes, in sha256sum format.",
        "# Regenerate: PYTHONPATH=src python tests/test_golden.py",
    ]
    for section, digests in sorted(sections.items(), key=lambda item: (item[0] is not None, item[0] or "")):
        if section is not None:
            lines.append(f"[{section}]")
        lines += [f"{d}  {name}" for name, d in sorted(digests.items())]
    MANIFEST.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    regenerate()
