import pytest

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
