"""Worker-count plumbing for the enumeration kernels.

The kernels partition work deterministically (by index or by diagonal
type) and merge in input order, so results do not depend on the degree
of parallelism.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


class SettingError(ValueError):
    """An environment setting such as SIMSUB_THREADS has an invalid value."""


def worker_count() -> int:
    """Workers to use: SIMSUB_THREADS if set, else all cores."""
    raw = os.environ.get("SIMSUB_THREADS")
    if raw:
        try:
            n = int(raw)
        except ValueError:
            n = 0
        if n < 1:
            raise SettingError(f"SIMSUB_THREADS must be an integer >= 1, got {raw!r}")
        return n
    return os.cpu_count() or 1


def map_ordered(fn, items, workers: int | None = None) -> list:
    """Map preserving input order, optionally on a thread pool."""
    items = list(items)
    if workers is None:
        workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
