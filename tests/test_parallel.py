import os

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
        assert 3 not in _parallel._POOLS

    def test_pool_that_cannot_start_falls_back(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no processes here")

        monkeypatch.setattr(_parallel, "_BROKEN", False)
        monkeypatch.setattr(_parallel, "_POOLS", {})
        monkeypatch.setattr(_parallel, "ProcessPoolExecutor", no_pool)
        assert map_chunks(pow, [(2, 3), (3, 2)], 2) == [8, 9]
        assert _parallel._BROKEN is True
