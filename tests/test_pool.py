import pytest

from pathwise import ConfigError
from pathwise._pool import worker_count
from tests.conftest import modules_loaded


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
    loaded = modules_loaded("import pathwise, pathwise.cli")
    assert [m for m in loaded if m == "concurrent.futures.process" or m.split(".")[0] == "multiprocessing"] == []
