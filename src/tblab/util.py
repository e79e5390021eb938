"""Shared helpers: thread pool control, deterministic CSV formatting."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    """Worker cap from TBLAB_THREADS; defaults to 1 (serial)."""
    raw = os.environ.get("TBLAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"TBLAB_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def pmap(fn, items):
    """Map fn over items, preserving order.

    Each item is computed independently by the same code path, so the result
    is identical for any worker count; threads only change wall time.
    """
    items = list(items)
    nw = thread_count()
    if nw <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=nw) as pool:
        return list(pool.map(fn, items))


def fmt_float(v) -> str:
    """Round-trip stable decimal form (byte-identical across runs)."""
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def csv_table(header, rows) -> list:
    """CSV rows: the header, then the cells of each row, the one place a cell is
    formatted. None is an empty cell, a str is written as is, a tuple (a cube
    centre) as its entries joined by ';', anything else by fmt_float, so a
    flag reads 1 or 0."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        if isinstance(v, tuple):
            return ";".join(fmt_float(c) for c in v)
        return fmt_float(v)
    return [header] + [[cell(v) for v in row] for row in rows]
