"""Deterministic chunked execution for prime-range scans.

Every scan is one loop: walk the primes of a window in ascending order,
skip the bad ones, reduce the points once at each good prime v, run an
exact per-prime test on the reductions, and stop at the first witness
(pattern searches stop at a hit limit, density counts never stop).
`scan_chunk` is that loop: one `backend.reduce` call per prime gives the
reductions, or None at a bad prime. A scan supplies its backend, its points
and its module-level test, which returns None (nothing at v) or a hit (a
Witness for the condition scans, v and the orders for pattern searches).

Scans split their prime list into contiguous ascending chunks, run
`scan_chunk` on each through `map_chunks`, and merge the results so that
the report is a pure function of the inputs, never of the chunk count.
With a pool of more than one process (`pool_size`: the worker count
capped at the CPU count), the first HEAD primes form a head chunk that
runs in-process before anything is dispatched: a witness there (or the
hit limit) ends the scan with no pool round trip, and a window of at most
HEAD primes never reaches the pool. Only the rest of the window is split,
into one chunk per process of the pool. Worker pools are persistent (one
per pool size) and run no thread: each worker is an `os.fork`ed process
with its own task and result pipes, and the dispatching thread writes one
task per worker per round and reads that round's replies in task order.
The pool itself is in `mwlab._pool`, which loads, with `pickle`, at the
first dispatch, so a serial scan never imports either.
An exception raised by a test propagates once, as it would serially; only
a pool that cannot start, or one whose worker process died, makes the
dispatched chunks run in-process, with identical output.
"""

from __future__ import annotations

import atexit
import os
from functools import cache

_POOLS: dict[int, _pool.Pool] = {}
_BROKEN = False

# Primes a scan tests in-process before it dispatches the rest of its
# window: a false hypothesis is usually refuted within the first few good
# primes, so most scans never pay a pool round trip.
HEAD = 64


@atexit.register
def _shutdown():
    for pool in _POOLS.values():
        pool.close()


@cache  # os.cpu_count reads sysfs, a few microseconds per small scan
def pool_size(workers: int) -> int:
    """The processes of the pool that serves `workers`, and the number of
    chunks a scan splits the dispatched part of its window into."""
    return min(workers, os.cpu_count() or 1)


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


def scan_chunk(test, args: tuple, backend, points, chunk: list[int], limit: int | None = 1) -> dict:
    """Run test(*args, backend, raws, v) at each good prime v of an
    ascending chunk, raws being the points reduced at v, each once.

    Primes where `backend.reduce` returns None for the points go to "bads"
    and are never tested; good ones are counted in "goods", and hits are
    collected in "hits" until there are `limit` of them (no limit: None).
    "witness" is the hit the chunk stopped at, or None when it ran to its
    end; merge_scan_results keeps the smallest-v one.
    """
    hits, bads, goods = [], [], 0
    reduce = backend.reduce
    for v in chunk:
        if (raws := reduce(points, v)) is None:
            bads.append(v)
            continue
        goods += 1
        hit = test(*args, backend, raws, v)
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
    from ._pool import Pool

    size = pool_size(workers)  # one pool serves each capped size
    replies = None
    try:
        pool = _POOLS.get(size) or _POOLS.setdefault(size, Pool(size, _POOLS.values()))
    except (AttributeError, OSError):
        pass  # no os.fork, or no process to be had (a restricted sandbox)
    else:
        try:
            replies = pool.run(fn, tasks)
        finally:
            if replies is None:
                # A worker died, or the parent was interrupted mid-dispatch
                # while busy workers still owed replies: the pool goes.
                _POOLS.pop(size).close()
    if replies is None:  # rerun the identical chunks in-process: same bytes
        _BROKEN = True
        return [fn(*t) for t in tasks]
    for ok, value in replies:
        if not ok:
            raise value
    return [value for _, value in replies]
