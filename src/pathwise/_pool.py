"""Deterministic worker pool for seed-replicated tasks.

Results are gathered in task-index order, so output is byte-identical
whatever the worker count.  The count comes from the PATHWISE_WORKERS
environment variable (default 1 = serial execution in-process).
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence

from .errors import ConfigError

__all__ = ["worker_count", "parallel_map"]


def worker_count() -> int:
    raw = os.environ.get("PATHWISE_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"PATHWISE_WORKERS must be an integer, got {raw!r}") from None
    return max(1, n)


def parallel_map(fn: Callable, items: Sequence) -> List:
    """Apply fn to every item; ordered like the input regardless of
    scheduling."""
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # imported here: it pulls in multiprocessing, which serial runs never use
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))
