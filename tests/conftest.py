import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import pathwise
from pathwise import PathSpec, SampledPath, acceptance, dyadic_hierarchy, generate
from pathwise._util import write_csv


@pytest.fixture(scope="session")
def bm_path():
    return generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=10, seed=7))


@pytest.fixture(scope="session")
def rough_path():
    return generate(PathSpec(kind="fbm", hurst=0.25, T=1.0, n_max=10, seed=5))


@pytest.fixture(scope="session")
def linear_path():
    return generate(PathSpec(kind="linear", slope=1.0, T=1.0, n_max=8))


@pytest.fixture(scope="session")
def triangle_path():
    return generate(PathSpec(kind="triangle", peak_time=0.5, peak_value=1.0, T=1.0, n_max=8))


@pytest.fixture(scope="session")
def constant_path():
    return generate(PathSpec(kind="constant", value=2.0, T=1.0, n_max=3))


def make_walk(values, T=1.0):
    """Wrap explicit samples (length 2**k + 1) as a path."""
    values = np.asarray(values, dtype=float)
    n_max = int(np.log2(values.size - 1))
    assert 2**n_max + 1 == values.size, "walk length must be 2**k + 1"
    return SampledPath(T=T, n_max=n_max, values=values, metadata={"kind": "test-walk"})


def single_interval_path(v0, v1):
    """A path whose coarsest custom level [0, last] holds one interval."""
    return make_walk([v0, 0.5 * (v0 + v1), v1])


@pytest.fixture(scope="session")
def suite_run(tmp_path_factory):
    """One default acceptance run with artifacts: criteria 1-9 once, then
    C10, which reruns them and compares against the kept artifacts."""
    out = tmp_path_factory.mktemp("acc")
    return acceptance.run_all(out_dir=str(out)), out


@pytest.fixture(scope="session")
def hierarchy_bm(bm_path):
    return dyadic_hierarchy(bm_path, 8)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak, in bytes, of the memory tracemalloc
    traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def csv_rows(header, *tables):
    """The data rows of tables written as CSV, as csv.reader parses them."""
    buf = io.StringIO()
    write_csv(buf, header, *tables)
    rows = list(csv.reader(io.StringIO(buf.getvalue(), newline="")))
    assert rows[0] == list(header)
    return rows[1:]


def modules_loaded(code):
    """The names of the modules loaded by a fresh interpreter that runs
    ``code`` with this checkout's ``src`` first on its path."""
    src = os.path.dirname(os.path.dirname(pathwise.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])
