"""Deterministic chunked execution for prime-range scans.

Every scan is one loop: walk the primes of a window in ascending order,
skip the bad ones, run an exact per-prime test at each good prime v, and
stop at the first witness (pattern searches stop at a hit limit, density
counts never stop). `scan_chunk` is that loop; a scan supplies only its
module-level test, which returns BAD_PRIME, None (nothing at v) or a hit
(a Witness for the condition scans, v and the orders for pattern searches).

Scans split their prime list into contiguous ascending chunks, run
`scan_chunk` on each through `map_chunks`, and merge the results so that
the report is a pure function of the inputs, never of the chunk count.
With more than one worker, the first HEAD primes form a head chunk that
runs in-process before anything is dispatched: a witness there (or the
hit limit) ends the scan with no pool round trip, and a window of at most
HEAD primes never reaches the pool. Only the rest of the window is split
across the workers. Worker pools are persistent (one per pool size: the
worker count capped at the CPU count) and fork based. An exception raised
by a test propagates once, as it would serially; only a pool that cannot
start, or one whose worker process died, makes the dispatched chunks run
in-process, with identical output.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

_POOLS: dict[int, ProcessPoolExecutor] = {}
_BROKEN = False

BAD_PRIME = object()

# Primes a scan tests in-process before it dispatches the rest of its
# window: a false hypothesis is usually refuted within the first few good
# primes, so most scans never pay a pool round trip.
HEAD = 64


def _shutdown():
    for pool in _POOLS.values():
        pool.shutdown(cancel_futures=True)
    _POOLS.clear()


atexit.register(_shutdown)


def split_chunks(items: list, parts: int) -> list[list]:
    """Split into contiguous ascending chunks.

    With parts > 1 the first HEAD items form a head chunk and the rest is
    split into at most `parts` chunks of near-equal size; a list of at most
    HEAD items, or parts <= 1, gives one chunk.
    """
    if parts <= 1 or len(items) <= HEAD:
        return [items]
    rest = len(items) - HEAD
    parts = min(parts, rest)
    base, extra = divmod(rest, parts)
    chunks, start = [items[:HEAD]], HEAD
    for i in range(parts):
        n = base + (1 if i < extra else 0)
        chunks.append(items[start : start + n])
        start += n
    return chunks


def scan_chunk(test, args: tuple, chunk: list[int], limit: int | None = 1) -> dict:
    """Run test(*args, v) at each prime v of an ascending chunk.

    Bad primes go to "bads", good ones are counted in "goods", and hits are
    collected in "hits" until there are `limit` of them (no limit: None).
    "witness" is the hit the chunk stopped at, or None when it ran to its
    end; merge_scan_results keeps the smallest-v one.
    """
    hits, bads, goods = [], [], 0
    for v in chunk:
        hit = test(*args, v)
        if hit is BAD_PRIME:
            bads.append(v)
            continue
        goods += 1
        if hit is not None:
            hits.append(hit)
            if len(hits) == limit:
                return {"witness": hit, "hits": hits, "bads": bads, "goods": goods}
    return {"witness": None, "hits": hits, "bads": bads, "goods": goods}


def map_chunks(fn, tasks: list[tuple], workers: int) -> list:
    """Apply a module-level function over task tuples, preserving task order.

    For `scan_chunk` tasks the first task is split_chunks' head: it runs
    in-process, and the rest go to the pool only if the head ran to its
    end. When the head stops, its result is the only one returned.
    """
    if workers <= 1 or len(tasks) <= 1 or _BROKEN:
        return [fn(*t) for t in tasks]
    if fn is not scan_chunk:
        return _pool_map(fn, tasks, workers)
    head = scan_chunk(*tasks[0])
    if head["witness"] is not None:
        return [head]
    return [head, *_pool_map(fn, tasks[1:], workers)]


def _pool_map(fn, tasks: list[tuple], workers: int) -> list:
    global _BROKEN
    # Chunks are split by `workers`; the pool itself never forks more
    # processes than there are CPUs, and one pool serves each capped size.
    size = min(workers, os.cpu_count() or 1)
    try:
        pool = _POOLS.get(size)
        if pool is None:
            import multiprocessing as mp

            pool = ProcessPoolExecutor(max_workers=size, mp_context=mp.get_context("fork"))
            _POOLS[size] = pool
        futures = [pool.submit(fn, *t) for t in tasks]
    except (ImportError, OSError, RuntimeError, ValueError):
        # No usable process pool here (restricted sandbox, missing fork):
        # run the identical chunks in-process. Merge logic is unchanged, so
        # output bytes are unchanged.
        _BROKEN = True
        return [fn(*t) for t in tasks]
    try:
        return [f.result() for f in futures]
    except BrokenProcessPool:
        # A worker process died; the pool cannot be reused.
        _BROKEN = True
        _POOLS.pop(size).shutdown(cancel_futures=True)
        return [fn(*t) for t in tasks]
    finally:
        for f in futures:
            f.cancel()
