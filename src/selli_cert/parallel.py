"""Deterministic work partitioning.

Enumeration work is split into fixed-size chunks whose boundaries depend
only on the problem size, never on the worker count; chunk results are
combined in chunk order with exact integer arithmetic.  Output is therefore
bitwise identical for any number of threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

__all__ = ["resolve_threads", "map_chunks", "chunk_ranges"]


def resolve_threads(requested: int | None) -> int:
    """The requested thread count, 1 when none is given."""
    if requested is None:
        return 1
    if requested < 1:
        raise ValueError("thread count must be >= 1")
    return requested


def chunk_ranges(total: int, chunk_size: int = 4096) -> list[tuple[int, int]]:
    """[start, stop) ranges of fixed size covering range(total)."""
    return [(lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)]


def map_chunks(fn, items, threads: int) -> list:
    """Apply fn to each item, preserving input order in the result list."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
