import os
import pickle
import signal
import threading
import time
import warnings
from fractions import Fraction

import pytest

from mwlab import (
    EllipticGroup, MulPoint, MultiplicativeGroup, PrimeRange, ValuationPattern, WeierstrassCurve,
    find_pattern_primes, pattern_density, primes_in, scan_erdos_union,
)
from mwlab import _parallel, _pool
from mwlab._parallel import HEAD, map_chunks, scan_chunk, split_chunks
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


def _killed_in_worker(x):
    if os.getpid() != _PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _slow_echo(x):
    time.sleep(0.2)
    return x


def _sleep_then_echo(seconds, x):
    time.sleep(seconds)
    return x


def _fails_at_three(x):
    _CALLS.append(x)
    if x == 3:
        raise TaskFailed(f"task {x} failed")
    return x * x


def _killed_at_three(x):
    if x == 3 and os.getpid() != _PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


class BadAt:
    """A stub backend: the primes in `bad` are bad for any points, and a
    point reduces at v to (point, v)."""

    def __init__(self, bad=()):
        self.bad = frozenset(bad)

    def reduce(self, points, v):
        return None if v in self.bad else [(P, v) for P in points]


def _witness_at(target, backend, raws, v):
    """A witness at v == target, nothing otherwise."""
    return Witness(v=v, n=1, detail=f"hit at {v}") if v == target else None


def _fails_in_head(backend, raws, v):
    _CALLS.append(v)
    if v == 11:
        raise TaskFailed(f"test failed at {v}")


def _odd_test(backend, raws, v):
    """Hit at odd v, nothing otherwise."""
    return v if v % 2 else None


@pytest.fixture
def pools(monkeypatch):
    """A fresh pool table, not broken, and pool sizes read afresh from a
    CPU count the test may patch; every pool left in the table is closed
    after the test, so no worker outlives it."""
    monkeypatch.setattr(_parallel, "_BROKEN", False)
    monkeypatch.setattr(_parallel, "_POOLS", {})
    _parallel.pool_size.cache_clear()
    yield _parallel._POOLS
    _parallel.pool_size.cache_clear()
    for pool in _parallel._POOLS.values():
        pool.close()


def _reaped(pid) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


E37 = EllipticGroup(WeierstrassCurve(0, 0, 1, -1, 0))  # 37a, discriminant 37


class TestScanChunk:
    def test_bookkeeping_and_stop(self):
        res = scan_chunk(_odd_test, (), BadAt({2, 5}), (), [2, 3, 4, 5, 6, 7, 9], limit=2)
        assert res == {"witness": 7, "hits": [3, 7], "bads": [2, 5], "goods": 4}

    def test_no_limit_runs_to_the_end(self):
        res = scan_chunk(_odd_test, (), BadAt({2}), (), [2, 3, 4, 5], limit=None)
        assert res == {"witness": None, "hits": [3, 5], "bads": [2], "goods": 3}

    @pytest.mark.parametrize("backend, points, bads", [
        # 5 and 11 are bad only as primes of S; 3 divides a numerator, 7 a denominator.
        (MultiplicativeGroup([5, 11]), [MulPoint(2), MulPoint(Fraction(3, 7))], [3, 5, 7, 11]),
        # 3 divides the denominators of (-5/9, 8/27), 37 the discriminant.
        (E37, [E37.curve.point(0, 0), E37.curve.point(Fraction(-5, 9), Fraction(8, 27))],
         [3, 37]),
    ], ids=["qstar-S", "37a"])
    def test_each_good_prime_gets_each_point_reduced_once(self, backend, points, bads):
        seen = []

        def record(backend, raws, v):
            seen.append((v, raws))
            return v if v % 4 == 1 else None

        primes = primes_in(PrimeRange(3, 200))
        goods = [v for v in primes if v not in bads]
        res = scan_chunk(record, (), backend, points, primes, None)
        assert res == {"witness": None, "hits": [v for v in goods if v % 4 == 1],
                       "bads": bads, "goods": len(goods)}
        assert [v for v, _ in seen] == goods  # never called at a bad prime
        for v, raws in seen:
            assert raws == backend.reduce(points, v), v
        seen.clear()
        res = scan_chunk(record, (), backend, points, primes, 3)
        assert res["witness"] == res["hits"][-1] == [v for v in goods if v % 4 == 1][2]
        assert seen[-1][0] == res["witness"]

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
    def test_task_error_propagates_once(self, pools):
        _CALLS.clear()
        with pytest.raises(TaskFailed):
            map_chunks(_failing_task, [(1,), (2,)], 2)
        assert _parallel._BROKEN is False
        # The tasks ran in worker processes only, never again in this one.
        assert _CALLS == []

    def test_dead_worker_falls_back_to_serial(self, pools):
        assert map_chunks(_dies_in_worker, [(2,), (3,)], 3) == [4, 9]
        assert _parallel._BROKEN is True
        assert pools == {}

    def test_worker_killed_mid_dispatch_falls_back_to_serial(self, pools):
        assert map_chunks(_killed_in_worker, [(2,), (3,), (4,)], 2) == [4, 9, 16]
        assert _parallel._BROKEN is True
        assert pools == {}

    def test_worker_death_seen_at_submit_drops_the_pool(self, pools):
        # A harmless dispatch builds the pool, then a worker of it dies
        # between dispatches, so the next dispatch meets a broken pipe or
        # an end of file before any reply.
        size = min(2, os.cpu_count() or 1)
        assert map_chunks(pow, [(2, 3), (3, 2)], 2) == [8, 9]
        pool = pools[size]
        os.kill(pool.pids[0], signal.SIGKILL)
        os.waitid(os.P_PID, pool.pids[0], os.WEXITED | os.WNOWAIT)
        assert map_chunks(_dies_in_worker, [(2,), (3,)], 2) == [4, 9]
        assert _parallel._BROKEN is True
        assert pools == {}
        assert all(_reaped(pid) for pid in pool.pids)

    def test_pool_that_cannot_start_falls_back(self, pools, monkeypatch):
        def no_pool(size, others):
            raise OSError("no processes here")

        monkeypatch.setattr(_pool, "Pool", no_pool)
        assert map_chunks(pow, [(2, 3), (3, 2)], 2) == [8, 9]
        assert _parallel._BROKEN is True

    def test_no_fork_on_the_platform_falls_back(self, pools, monkeypatch):
        # The supports agree everywhere, so the scan dispatches past its head.
        scan = PrimeRange(3, 2000)
        serial = scan_erdos_union([2, 3], [3, 2], scan, workers=1)
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
        monkeypatch.delattr(os, "fork")
        pooled = scan_erdos_union([2, 3], [3, 2], scan, workers=2)
        assert _parallel._BROKEN is True
        assert pools == {}
        assert pooled.to_dict() == serial.to_dict()

    def test_pool_size_is_capped_at_the_cpu_count(self, pools, monkeypatch):
        # The recorder starts no process: it notes the requested size and
        # refuses, so the chunks run in-process.
        sizes = []

        def recorder(size, others):
            sizes.append(size)
            raise OSError("recorded, not started")

        monkeypatch.setattr(_pool, "Pool", recorder)
        tasks = [(2, 3), (3, 2), (5, 2)]
        assert map_chunks(pow, tasks, 10**5) == [pow(*t) for t in tasks]
        assert sizes and sizes[0] <= (os.cpu_count() or 1)

    def test_one_pool_per_capped_size(self, pools, monkeypatch):
        # An inline pool stands in for the forked one: it records each pool
        # built and runs tasks in-process.
        built = []

        class InlinePool:
            def __init__(self, size, others):
                built.append(size)

            def run(self, fn, tasks):
                return [(True, fn(*t)) for t in tasks]

            def close(self):
                pass

        monkeypatch.setattr(_pool, "Pool", InlinePool)
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
        tasks = [(2, 3), (3, 2), (5, 2), (7, 2)]
        assert map_chunks(pow, tasks, 3) == [pow(*t) for t in tasks]
        assert map_chunks(pow, tasks, 4) == [pow(*t) for t in tasks]
        assert built == [2]
        assert list(pools) == [2]

    def test_scan_splits_by_the_pool_size(self, pools, monkeypatch):
        # Five workers on two CPUs: past the head, the window is split in
        # two chunks, one per pool process, so it runs in one round.
        rounds = []

        class InlinePool:
            def __init__(self, size, others):
                self.size = size

            def run(self, fn, tasks):
                rounds.append(-(-len(tasks) // self.size))
                return [(True, fn(*t)) for t in tasks]

            def close(self):
                pass

        monkeypatch.setattr(_pool, "Pool", InlinePool)
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
        scan = PrimeRange(3, 2000)
        serial = scan_erdos_union([2, 3], [3, 2], scan, workers=1)
        for workers in (2, 5):
            assert scan_erdos_union([2, 3], [3, 2], scan, workers=workers) == serial
        assert rounds == [1, 1]


class TestRounds:
    """More tasks than workers: two workers take five tasks in three rounds."""

    def test_replies_come_in_task_order(self):
        # The earlier task of each round sleeps longer, so a reply read in
        # the order the workers finish would come out of task order.
        pool = _pool.Pool(2)
        try:
            tasks = [(0.05 * (5 - i), i) for i in range(5)]
            assert pool.run(_sleep_then_echo, tasks) == [(True, i) for i in range(5)]
        finally:
            pool.close()

    def test_error_in_the_second_round_propagates_once(self, pools, monkeypatch):
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
        _CALLS.clear()
        with pytest.raises(TaskFailed, match="task 3 failed"):
            map_chunks(_fails_at_three, [(x,) for x in range(1, 6)], 2)
        assert _CALLS == []
        assert _parallel._BROKEN is False
        assert list(pools) == [2]

    def test_worker_killed_in_the_second_round_falls_back_to_serial(self, pools, monkeypatch):
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
        tasks = [(x,) for x in range(1, 6)]
        assert map_chunks(_killed_at_three, tasks, 2) == [1, 4, 9, 16, 25]
        assert _parallel._BROKEN is True
        assert pools == {}


class TestForkPool:
    def test_dispatch_starts_no_thread(self, pools):
        assert map_chunks(pow, [(2, 3), (3, 2)], 2) == [8, 9]
        assert pools
        assert threading.active_count() == 1

    def test_second_pool_size_forks_without_a_warning(self, pools, monkeypatch):
        # Python 3.12 and later warn when a process with threads forks; the
        # second pool is forked while the first one's workers are live. The
        # warnings are recorded, not raised: the interpreter drops an
        # exception that an "error" filter makes of this warning.
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 4)
        tasks = [(2, 3), (3, 2), (5, 2)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert map_chunks(pow, tasks, 2) == [8, 9, 25]
            assert map_chunks(pow, tasks, 3) == [8, 9, 25]
        assert [str(w.message) for w in caught] == []
        assert sorted(pools) == [2, 3]

    def test_worker_leaves_when_its_task_pipe_closes(self, pools, monkeypatch):
        # A later pool's workers hold no pipe end of an earlier pool, so
        # closing a pool's task pipes alone ends its workers, as the death
        # of the parent process would.
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 4)
        assert map_chunks(pow, [(2, 3), (3, 2)], 2) == [8, 9]
        assert map_chunks(pow, [(2, 3), (3, 2)], 3) == [8, 9]
        first = pools.pop(2)
        for f in first.tasks:
            f.close()
        deadline = time.monotonic() + 30
        for pid in first.pids:
            while not os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT):
                assert time.monotonic() < deadline, f"worker {pid} did not leave"
                time.sleep(0.01)
        first.close()

    def test_close_reaps_every_worker(self):
        pool = _pool.Pool(2)
        assert pool.run(pow, [(2, 5), (3, 3)]) == [(True, 32), (True, 27)]
        pool.close()
        assert len(pool.pids) == 2
        assert all(_reaped(pid) for pid in pool.pids)

    def test_error_in_the_parent_drops_the_pool(self, pools, monkeypatch):
        # The second task cannot be pickled, so the parent raises while the
        # first is still running; its reply must not reach a later dispatch.
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            map_chunks(_slow_echo, [("stale",), (lambda: None,)], 2)
        assert pools == {}
        assert _parallel._BROKEN is False
        assert map_chunks(_slow_echo, [("a",), ("b",)], 2) == ["a", "b"]


class NoPool:
    """Stands in for the fork pool where no pool may be built."""

    def __init__(self, size, others):
        pytest.fail("a process pool was built")


@pytest.fixture
def no_pool(pools, monkeypatch):
    monkeypatch.setattr(_pool, "Pool", NoPool)


class TestSerialHead:
    def test_head_witness_builds_no_pool(self, no_pool):
        scan = PrimeRange(3, 10**4)
        report = scan_erdos_union([2, 13], [8, 13], scan, workers=2)
        assert report.witness.v == 7
        assert report == scan_erdos_union([2, 13], [8, 13], scan, workers=1)

    def test_short_window_builds_no_pool(self, no_pool):
        primes = primes_in(PrimeRange(3, 313))
        assert len(primes) == HEAD
        tasks = [(_witness_at, (None,), BadAt({5}), (), c) for c in split_chunks(primes, 2)]
        assert map_chunks(scan_chunk, tasks, 2) == [scan_chunk(*tasks[0])]

    @pytest.mark.parametrize("index", [HEAD - 2, HEAD - 1, HEAD, None],
                             ids=["63rd", "64th", "65th", "none"])
    def test_witness_around_the_head_edge(self, index):
        primes = primes_in(PrimeRange(3, 2000))
        target = None if index is None else primes[index]
        # Bad primes inside the head, at its edge and past every witness.
        bad = {primes[3], primes[HEAD - 3], primes[HEAD + 1], primes[200]}

        def report(workers):
            tasks = [(_witness_at, (target,), BadAt(bad), (), c)
                     for c in split_chunks(primes, workers)]
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
        tasks = [(_fails_in_head, (), BadAt(), (), c) for c in split_chunks(primes, 2)]
        with pytest.raises(TaskFailed):
            map_chunks(scan_chunk, tasks, 2)
        assert _CALLS == [3, 5, 7, 11]
        assert _parallel._BROKEN is False
