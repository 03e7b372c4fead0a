import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from mwlab import (
    MulPoint, MultiplicativeGroup, PrimeRange, ValuationPattern, find_pattern_primes,
    pattern_density, primes_in, scan_erdos_union,
)
from mwlab import _parallel
from mwlab._parallel import BAD_PRIME, HEAD, map_chunks, scan_chunk, split_chunks
from mwlab.reports import Witness, merge_scan_results

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


def _witness_at(target, bad, v):
    """A witness at v == target, BAD_PRIME at v in bad, nothing otherwise."""
    if v in bad:
        return BAD_PRIME
    return Witness(v=v, n=1, detail=f"hit at {v}") if v == target else None


def _fails_in_head(v):
    _CALLS.append(v)
    if v == 11:
        raise TaskFailed(f"test failed at {v}")


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
        # A head of HEAD items, then the rest in near-equal chunks.
        items = list(range(200))
        chunks = split_chunks(items, 3)
        assert [len(c) for c in chunks] == [HEAD, 46, 45, 45]
        assert [x for c in chunks for x in c] == items
        assert split_chunks(items[: HEAD + 2], 5) == [items[:HEAD], [HEAD], [HEAD + 1]]
        assert split_chunks(items, 1) == [items]
        assert split_chunks(items[:HEAD], 4) == [items[:HEAD]]
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

    def test_worker_death_seen_at_submit_drops_the_pool(self, monkeypatch):
        # A harmless dispatch builds the pool, then a worker of it dies, so
        # the next dispatch meets BrokenProcessPool at submit, not at result.
        monkeypatch.setattr(_parallel, "_BROKEN", False)
        monkeypatch.setattr(_parallel, "_POOLS", {})
        size = min(2, os.cpu_count() or 1)
        assert map_chunks(pow, [(2, 3), (3, 2)], 2) == [8, 9]
        death = _parallel._POOLS[size].submit(_dies_in_worker, 2)
        assert isinstance(death.exception(timeout=60), BrokenProcessPool)
        assert map_chunks(_dies_in_worker, [(2,), (3,)], 2) == [4, 9]
        assert _parallel._BROKEN is True
        assert size not in _parallel._POOLS

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


class NoPool:
    """Stands in for ProcessPoolExecutor where no pool may be built."""

    def __init__(self, *args, **kwargs):
        pytest.fail("a process pool was built")


@pytest.fixture
def no_pool(monkeypatch):
    monkeypatch.setattr(_parallel, "_BROKEN", False)
    monkeypatch.setattr(_parallel, "_POOLS", {})
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", NoPool)


class TestSerialHead:
    def test_head_witness_builds_no_pool(self, no_pool):
        scan = PrimeRange(3, 10**4)
        report = scan_erdos_union([2, 13], [8, 13], scan, workers=2)
        assert report.witness.v == 7
        assert report == scan_erdos_union([2, 13], [8, 13], scan, workers=1)

    def test_short_window_builds_no_pool(self, no_pool):
        primes = primes_in(PrimeRange(3, 313))
        assert len(primes) == HEAD
        tasks = [(_witness_at, (None, {5}), c) for c in split_chunks(primes, 2)]
        assert map_chunks(scan_chunk, tasks, 2) == [scan_chunk(*tasks[0])]

    @pytest.mark.parametrize("index", [HEAD - 2, HEAD - 1, HEAD, None],
                             ids=["63rd", "64th", "65th", "none"])
    def test_witness_around_the_head_edge(self, index):
        primes = primes_in(PrimeRange(3, 2000))
        target = None if index is None else primes[index]
        # Bad primes inside the head, at its edge and past every witness.
        bad = {primes[3], primes[HEAD - 3], primes[HEAD + 1], primes[200]}

        def report(workers):
            tasks = [(_witness_at, (target, bad), c) for c in split_chunks(primes, workers)]
            results = map_chunks(scan_chunk, tasks, workers)
            return merge_scan_results("torsion_stability", PrimeRange(3, 2000), results).to_dict()

        serial = report(1)
        assert serial["verdict"] == ("holds_on_scan" if index is None else "violated")
        assert report(2) == serial
        assert report(5) == serial

    @pytest.mark.parametrize("max_hits", [3, 6, 7, 100])
    def test_pattern_hits_straddling_the_head(self, max_hits):
        # Six of the 13 hits in 3..1000 lie among its first HEAD primes.
        points = [MulPoint(2), MulPoint(3)]
        pattern, scan, M = ValuationPattern(3, (1, 0)), PrimeRange(3, 1000), MultiplicativeGroup()
        serial = find_pattern_primes(points, pattern, M, scan, max_hits, 1)
        assert len(serial) == min(max_hits, 13)
        for workers in (2, 5):
            assert find_pattern_primes(points, pattern, M, scan, max_hits, workers) == serial

    def test_density_counts_the_head(self):
        points = [MulPoint(2), MulPoint(3)]
        pattern, scan, M = ValuationPattern(3, (1, 0)), PrimeRange(3, 1000), MultiplicativeGroup()
        serial = pattern_density(points, pattern, M, scan, 1)
        assert serial.hits == 13
        for workers in (2, 5):
            assert pattern_density(points, pattern, M, scan, workers) == serial

    def test_head_error_propagates_once(self, no_pool):
        _CALLS.clear()
        primes = primes_in(PrimeRange(3, 2000))
        tasks = [(_fails_in_head, (), c) for c in split_chunks(primes, 2)]
        with pytest.raises(TaskFailed):
            map_chunks(scan_chunk, tasks, 2)
        assert _CALLS == [3, 5, 7, 11]
        assert _parallel._BROKEN is False
