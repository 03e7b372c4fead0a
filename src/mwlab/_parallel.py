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
Worker pools are persistent (one per worker count) and fork based. An
exception raised by a test propagates once, as it would serially; only a
pool that cannot start, or one whose worker process died, makes the same
chunks run in-process, with identical output.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

_POOLS: dict[int, ProcessPoolExecutor] = {}
_BROKEN = False

BAD_PRIME = object()


def _shutdown():
    for pool in _POOLS.values():
        pool.shutdown(cancel_futures=True)
    _POOLS.clear()


atexit.register(_shutdown)


def split_chunks(items: list, parts: int) -> list[list]:
    """Split into at most `parts` contiguous chunks of near-equal size."""
    if not items:
        return [[]]
    parts = max(1, min(parts, len(items)))
    base, extra = divmod(len(items), parts)
    chunks, start = [], 0
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
    """Apply a module-level function over task tuples, preserving task order."""
    global _BROKEN
    if workers <= 1 or len(tasks) <= 1 or _BROKEN:
        return [fn(*t) for t in tasks]
    try:
        pool = _POOLS.get(workers)
        if pool is None:
            import multiprocessing as mp

            pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=mp.get_context("fork")
            )
            _POOLS[workers] = pool
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
        _POOLS.pop(workers).shutdown(cancel_futures=True)
        return [fn(*t) for t in tasks]
    finally:
        for f in futures:
            f.cancel()
