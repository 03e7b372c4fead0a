"""The fork pool of `mwlab._parallel`, which imports it at its first
dispatch: no serial scan loads it."""

from __future__ import annotations

import os
import pickle
import signal


class Pool:
    """`size` forked workers; worker i answers each pickled (fn, args) on
    tasks[i] with a pickled (True, fn(*args)) or (False, exc) on results[i].
    Each worker closes the pipe ends of `others`, the pools already open."""

    def __init__(self, size: int, others=()):
        self.pids, self.tasks, self.results = [], [], []
        try:
            for _ in range(size):
                self._fork(others)
        except BaseException:
            self.close()
            raise

    def _fork(self, others):
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        self.tasks.append(open(task_w, "wb"))
        self.results.append(open(result_r, "rb"))
        try:
            pid = os.fork()
            if pid == 0:  # the worker, until its task pipe closes; it never returns
                try:
                    for pool in (*others, self):  # its own parent ends too
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
        for f in (*self.tasks, *self.results):
            try:
                f.close()
            except OSError:
                pass  # the flush of a task that a dead worker never read
        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
