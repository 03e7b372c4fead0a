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
With a pool of more than one process (`pool_size`: the worker count
capped at the CPU count), the first HEAD primes form a head chunk that
runs in-process before anything is dispatched: a witness there (or the
hit limit) ends the scan with no pool round trip, and a window of at most
HEAD primes never reaches the pool. Only the rest of the window is split,
into one chunk per process of the pool. Worker pools are persistent (one
per pool size) and run no thread: each worker is an `os.fork`ed process
with its own task and result pipes, and the dispatching thread writes one
task per worker per round and reads that round's replies in task order.
Only `pickle` loads at the first dispatch, so a serial scan never imports
it.
An exception raised by a test propagates once, as it would serially; only
a pool that cannot start, or one whose worker process died, makes the
dispatched chunks run in-process, with identical output.
"""

from __future__ import annotations

import atexit
import os
from functools import cache

_POOLS: dict[int, _Pool] = {}
_BROKEN = False

BAD_PRIME = object()

# Primes a scan tests in-process before it dispatches the rest of its
# window: a false hypothesis is usually refuted within the first few good
# primes, so most scans never pay a pool round trip.
HEAD = 64


class _Pool:
    """`size` forked workers; worker i answers each pickled (fn, args) on
    tasks[i] with a pickled (True, fn(*args)) or (False, exc) on results[i]."""

    def __init__(self, size: int):
        self.pids, self.tasks, self.results = [], [], []
        try:
            for _ in range(size):
                self._fork()
        except BaseException:
            self.close()
            raise

    def _fork(self):
        import pickle

        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        self.tasks.append(open(task_w, "wb"))
        self.results.append(open(result_r, "rb"))
        try:
            pid = os.fork()
            if pid == 0:  # the worker, until its task pipe closes; it never returns
                try:
                    for pool in (*_POOLS.values(), self):  # its own parent ends too
                        for f in (*pool.tasks, *pool.results):
                            f.close()
                    tasks, results = open(task_r, "rb"), open(result_w, "wb")
                    while True:
                        fn, args = pickle.load(tasks)
                        try:
                            reply = pickle.dumps((True, fn(*args)))
                        except Exception as exc:
                            reply = pickle.dumps((False, exc))
                        results.write(reply)
                        results.flush()
                finally:
                    os._exit(0)
        finally:  # only the parent gets here, whether or not the fork worked
            os.close(task_r)
            os.close(result_w)
        self.pids.append(pid)

    def run(self, fn, tasks: list[tuple]) -> list[tuple] | None:
        """The (ok, value) reply to each task, in task order, or None when a
        worker died (an end of file or a broken pipe)."""
        import pickle

        replies = []
        try:
            for start in range(0, len(tasks), len(self.pids)):
                batch = tasks[start : start + len(self.pids)]
                for f, task in zip(self.tasks, batch):
                    f.write(pickle.dumps((fn, task)))
                    f.flush()
                replies += [pickle.load(f) for f in self.results[: len(batch)]]
        except (EOFError, OSError, pickle.UnpicklingError):
            return None
        return replies

    def close(self):
        """Close the pipes, then kill and reap every worker."""
        import signal

        for f in (*self.tasks, *self.results):
            try:
                f.close()
            except OSError:
                pass  # the flush of a task that a dead worker never read
        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    size = pool_size(workers)  # one pool serves each capped size
    replies = None
    try:
        pool = _POOLS.get(size) or _POOLS.setdefault(size, _Pool(size))
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
