import os
from concurrent.futures import Future

import pytest

from mwlab import _parallel
from mwlab._parallel import BAD_PRIME, map_chunks, scan_chunk, split_chunks

_PARENT = os.getpid()
_CALLS: list[int] = []


class TaskFailed(Exception):
    pass


def _failing_task(x):
    _CALLS.append(x)
    raise TaskFailed(f"task {x} failed")


def _dies_in_worker(x):
    if os.getpid() != _PARENT:
        os._exit(1)
    return x * x


def _odd_test(bad, v):
    """Hit at odd v, BAD_PRIME at v in bad, nothing otherwise."""
    if v in bad:
        return BAD_PRIME
    return v if v % 2 else None


class TestScanChunk:
    def test_bookkeeping_and_stop(self):
        res = scan_chunk(_odd_test, ({2, 5},), [2, 3, 4, 5, 6, 7, 9], limit=2)
        assert res == {"witness": 7, "hits": [3, 7], "bads": [2, 5], "goods": 4}

    def test_no_limit_runs_to_the_end(self):
        res = scan_chunk(_odd_test, ({2},), [2, 3, 4, 5], limit=None)
        assert res == {"witness": None, "hits": [3, 5], "bads": [2], "goods": 3}

    def test_split_is_contiguous(self):
        assert split_chunks(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
        assert split_chunks([], 4) == [[]]


class TestMapChunksFailures:
    def test_task_error_propagates_once(self, monkeypatch):
        monkeypatch.setattr(_parallel, "_BROKEN", False)
        _CALLS.clear()
        with pytest.raises(TaskFailed):
            map_chunks(_failing_task, [(1,), (2,)], 2)
        assert _parallel._BROKEN is False
        # The tasks ran in worker processes only, never again in this one.
        assert _CALLS == []

    def test_dead_worker_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(_parallel, "_BROKEN", False)
        assert map_chunks(_dies_in_worker, [(2,), (3,)], 3) == [4, 9]
        assert _parallel._BROKEN is True
        assert min(3, os.cpu_count() or 1) not in _parallel._POOLS

    def test_pool_that_cannot_start_falls_back(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no processes here")

        monkeypatch.setattr(_parallel, "_BROKEN", False)
        monkeypatch.setattr(_parallel, "_POOLS", {})
        monkeypatch.setattr(_parallel, "ProcessPoolExecutor", no_pool)
        assert map_chunks(pow, [(2, 3), (3, 2)], 2) == [8, 9]
        assert _parallel._BROKEN is True

    def test_pool_size_is_capped_at_the_cpu_count(self, monkeypatch):
        # The recorder starts no process: it notes the requested size and
        # refuses, so the chunks run in-process.
        sizes = []

        def recorder(*args, max_workers, **kwargs):
            sizes.append(max_workers)
            raise OSError("recorded, not started")

        monkeypatch.setattr(_parallel, "_BROKEN", False)
        monkeypatch.setattr(_parallel, "_POOLS", {})
        monkeypatch.setattr(_parallel, "ProcessPoolExecutor", recorder)
        tasks = [(2, 3), (3, 2), (5, 2)]
        assert map_chunks(pow, tasks, 10**5) == [pow(*t) for t in tasks]
        assert sizes and sizes[0] <= (os.cpu_count() or 1)

    def test_one_pool_per_capped_size(self, monkeypatch):
        # An inline executor stands in for the process pool: it records each
        # pool built and runs tasks in-process.
        built = []

        class InlineExecutor:
            def __init__(self, max_workers, mp_context=None):
                built.append(max_workers)

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(_parallel, "_BROKEN", False)
        monkeypatch.setattr(_parallel, "_POOLS", {})
        monkeypatch.setattr(_parallel, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
        tasks = [(2, 3), (3, 2), (5, 2), (7, 2)]
        assert map_chunks(pow, tasks, 3) == [pow(*t) for t in tasks]
        assert map_chunks(pow, tasks, 4) == [pow(*t) for t in tasks]
        assert built == [2]
        assert list(_parallel._POOLS) == [2]
