import os
import subprocess
import sys

import pytest

import pathwise
from pathwise import ConfigError
from pathwise._pool import worker_count


def test_worker_count_reads_environment(monkeypatch):
    monkeypatch.setenv("PATHWISE_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("PATHWISE_WORKERS", "0")
    assert worker_count() == 1


def test_worker_count_rejects_non_integer(monkeypatch):
    monkeypatch.setenv("PATHWISE_WORKERS", "two")
    with pytest.raises(ConfigError, match="'two'"):
        worker_count()


def test_import_loads_no_process_pool():
    # the process pool pulls in multiprocessing and socket; serial runs,
    # the default, never need them
    code = ("import sys, pathwise, pathwise.cli; print(sorted(m for m in sys.modules "
            "if m == 'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'))")
    src = os.path.dirname(os.path.dirname(pathwise.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
