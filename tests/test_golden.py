"""Golden digests: the bytes of the CLI and acceptance artifacts.

``golden.sha256`` holds, in ``sha256sum`` format, the SHA-256 of every CSV
that the CLI runs below write, and of the 9 CSVs of the acceptance suite.
The ``CLI_RUNS`` use Brownian paths, which draw their steps without
numpy's FFT, so their bytes must not depend on the numpy version.  The
fBM paths of the acceptance suite and of ``FFT_CLI_RUNS`` go through the
FFT, so their digests are listed under a ``[numpy N]`` header and checked
only under numpy major version N; a numpy major version without such a
section skips those checks.  These tests are the one check of the
Brownian lines, on every CI matrix entry as part of tier-1.

A change that moves bytes on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py

which rewrites the numpy-free lines and this numpy's section, keeps the
other sections and prints each line whose digest changed, appeared or
disappeared; the change then names those files.

The numpy-free lines also pin the ranks and tie counts of a rank system
whose columns tie +0.0 with -0.0.  They and C4's file must keep their
bytes on other CPUs: one test recomputes them in child processes with
numpy's AVX-512 and AVX2 loops switched off and under four OpenBLAS
cores.
"""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pathwise import SampledPath, acceptance, build_rank_system, cli
from pathwise._util import write_csv

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
    # the ranks subcommand: three ranked paths at p = 4, so the cross term
    # C, interior checkpoints and the rank residuals are pinned
    "rk/": ["ranks", "--kind", "bm", "--p", "4", "--m", "3", "--n-max", "10", "--levels", "8", "--checkpoints",
            "0.3,0.5,1.0", "--out-dir", "rk/"],
    "var/": ["variation", "--kind", "bm", "--p", "2", "--n-max", "14", "--seed", "7", "--levels", "14",
             "--out-dir", "var/"],
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


# the acceptance file the dispatch check below recomputes: C4, on Brownian
# paths, with its slope fitted in closed form
_C4 = "acc/c4_occupation_density.csv"


# a rank system whose columns tie +0.0 with -0.0, whose order a per-column
# sort left to the CPU's dispatch
_RANKS = "rank-system/signed-zero-ties"


def rank_system_digest() -> dict:
    """Digest of the ranked rows and tie counts of eight walks on the
    levels -1, -0.0, +0.0, 0.5 and 1."""
    rng = np.random.default_rng(29)
    levels = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
    system = build_rank_system([SampledPath(1.0, 10, levels[rng.integers(0, 5, 2**10 + 1)]) for _ in range(8)])
    return {_RANKS: hashlib.sha256(system.ranked.tobytes() + system.counts.tobytes()).hexdigest()}


def test_regeneration_names_the_lines_that_moved():
    old = read_manifest("# a comment\naa  bm.csv\nbb  run/a.csv\ncc  run/b.csv\n[numpy 1]\ndd  acc/c1.csv\n"
                        "[numpy 2]\nee  acc/c1.csv\nff  acc/c2.csv\n")
    new = read_manifest("aa  bm.csv\nb2  run/a.csv\nc3  run/c.csv\n[numpy 1]\ndd  acc/c1.csv\n"
                        "[numpy 2]\nee  acc/c1.csv\nf2  acc/c2.csv\n[numpy 3]\ngg  acc/c1.csv\n")
    assert moved_lines(old, new) == [
        "changed: run/a.csv", "disappeared: run/b.csv", "appeared: run/c.csv",
        "changed: [numpy 2] acc/c2.csv", "appeared: [numpy 3] acc/c1.csv",
    ]
    assert moved_lines(new, new) == []


def test_rank_system_digest_matches_the_manifest():
    assert rank_system_digest() == _expected(None, _RANKS)


def numpy_free_digests() -> dict:
    """Digests of the numpy-free lines, the rank system's and C4's file,
    from fresh runs in a temporary directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="pathwise-golden-") as tmp:
        os.chdir(tmp)
        try:
            out = {}
            for target in CLI_RUNS:
                _run_cli(target)
                out.update(_digests(Path(tmp), target))
            os.mkdir("acc")
            res = acceptance.run_criterion("C4")
            write_csv(_C4, res.fieldnames, res.csv_table())
            out.update(_digests(Path(tmp), _C4))
        finally:
            os.chdir(here)
    return {**out, **rank_system_digest()}


def _dispatch_settings() -> dict:
    """Child environments that change how numpy and OpenBLAS compute: this
    machine's numpy dispatch targets for AVX-512 switched off, then those
    for AVX2 too, and four OpenBLAS cores."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    present = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    no_avx512 = [f for f in present if "AVX512" in f or f == "X86_V4"]
    no_avx2 = no_avx512 + [f for f in present if f in ("X86_V3", "AVX2", "FMA3")]
    settings = {f"no AVX-512 {no_avx512}": {"NPY_DISABLE_CPU_FEATURES": " ".join(no_avx512)},
                f"no AVX2 {no_avx2}": {"NPY_DISABLE_CPU_FEATURES": " ".join(no_avx2)}}
    for core in ("Haswell", "SkylakeX", "Zen", "Sandybridge"):
        settings[f"OpenBLAS {core}"] = {"OPENBLAS_CORETYPE": core}
    return settings


_CHILD = """
import json
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from test_golden import numpy_free_digests
print(json.dumps({"features": __cpu_features__, "digests": numpy_free_digests()}))
"""


def test_numpy_free_lines_hold_under_other_cpu_dispatch():
    # integer powers by multiplication, C4's closed-form slope and the
    # remainder's node sum leave these lines no numpy power loop and no
    # BLAS or LAPACK kernel whose rounding depends on the CPU
    sections = read_manifest(MANIFEST.read_text())
    expected = dict(sections[None])
    if _C4 in sections.get(NUMPY_SECTION, {}):
        expected[_C4] = sections[NUMPY_SECTION][_C4]
    src = os.path.dirname(os.path.dirname(acceptance.__file__))
    path = os.pathsep.join([src, str(MANIFEST.parent)])

    def child(env):
        out = subprocess.run([sys.executable, "-c", _CHILD], env={**os.environ, "PYTHONPATH": path, **env},
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    settings = _dispatch_settings()
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(settings, pool.map(child, settings.values())))
    for name, res in results.items():
        disabled = settings[name].get("NPY_DISABLE_CPU_FEATURES", "").split()
        assert not any(res["features"][f] for f in disabled), (name, "dispatch targets still on")
        got = {k: v for k, v in res["digests"].items() if k in expected}
        assert got == expected, (name, sorted(k for k in expected if got.get(k) != expected[k]))


def _section_order(section) -> tuple:
    """Sort key of manifest sections: the numpy-free lines first."""
    return section is not None, section or ""


def moved_lines(old: dict, new: dict) -> list:
    """One line per file whose digest changed, appeared or disappeared from
    manifest ``old`` to manifest ``new`` (both as :func:`read_manifest`
    returns them), by section and then by name."""
    out = []
    for section in sorted(old.keys() | new.keys(), key=_section_order):
        before, after = old.get(section, {}), new.get(section, {})
        where = "" if section is None else f"[{section}] "
        for name in sorted(before.keys() | after.keys()):
            how = ("appeared" if name not in before else "disappeared" if name not in after
                   else "changed" if before[name] != after[name] else None)
            if how:
                out.append(f"{how}: {where}{name}")
    return out


def regenerate() -> None:
    """Rewrite the numpy-free lines and this numpy's section from fresh
    runs in a temporary directory; other sections are kept.  Prints each
    line that moved (:func:`moved_lines`)."""
    text = MANIFEST.read_text() if MANIFEST.exists() else ""
    old, sections = read_manifest(text), read_manifest(text)
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="pathwise-golden-") as tmp:
        os.chdir(tmp)
        try:
            sections[None] = rank_system_digest()
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
    for section in sorted(sections, key=_section_order):
        if section is not None:
            lines.append(f"[{section}]")
        lines += [f"{d}  {name}" for name, d in sorted(sections[section].items())]
    MANIFEST.write_text("\n".join(lines) + "\n")
    for line in moved_lines(old, sections):
        print(line)


if __name__ == "__main__":
    regenerate()
