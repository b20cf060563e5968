"""Order-preserving maps that split their items across forked workers.

forked_shares(fn, items, threads=n) cuts the items into min(n,
len(items)) contiguous shares of equal item count, at least one. On
entry it forks a worker for every share but the first and yields
gather(), which runs fn on share 0 in the calling process and returns fn
of each share in order; the caller may do other work before it calls
gather. On exit every worker is reaped and every pipe closed, whether
gather ran, returned or raised. map_shares(fn, items) is gather() called
at once, and parallel_map(fn, items) the flat list of fn of each item,
mapped share by share. report.build_bundle forks its per-user pass with
forked_shares before it reads the profiles: each worker cleans,
segments and featurizes one share of the users with a post, predicts
its scores, and sends back tuples and plain dicts, while the parent
reads and validates the profiles. After predict, parallel_map runs two
tasks: a child writes the features table and runs and writes the
correlations, the work that reads the feature matrix, while the parent
writes the scores table and runs the other analyses. Both fork only on
corpora large enough to pay for a fork. The threads= keyword of
clean_corpus, segment_corpus and lexicon.featurize goes through
parallel_map too.

One share (threads <= 1 or fewer than two items) runs in-process.
Otherwise each share after the first goes to a child made by os.fork.
A child inherits fn and the items, so nothing is pickled on the way in
and closures or one-shot generators work as items. It sends back its
pickled result, or the exception it raised, through a pipe. Results
come back in input order, so output is byte-identical for every worker
count as long as fn's results join to the same whole. pickle is
imported only when a map fans out, so a serial run never loads it.
Where os.fork does not exist, or another thread runs, the map runs
in-process as one share: callers size threads with fork_workers and
leave that decision here."""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from itertools import chain
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def fork_workers(work: int, min_work: int) -> int:
    """Workers for a task of size work: one per usable CPU while each gets min_work, at least 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, work // min_work))


def parallel_map(fn: Callable[[T], R], items: Iterable[T], *, threads: int = 1) -> list[R]:
    """fn of each item, in order, mapped over up to threads shares."""
    return [*chain.from_iterable(map_shares(lambda share: [fn(item) for item in share], items, threads=threads))]


def map_shares(fn: Callable[[list[T]], R], items: Iterable[T], *, threads: int = 1) -> list[R]:
    """fn of each of min(threads, len(items)) contiguous shares of items, at least one, in order."""
    with forked_shares(fn, items, threads=threads) as gather:
        return gather()


def _has_threads() -> bool:
    """Whether another thread runs; a fork would copy the locks it may hold."""
    threading = sys.modules.get("threading")
    return threading is not None and threading.active_count() > 1


@contextmanager
def forked_shares(
    fn: Callable[[list[T]], R], items: Iterable[T], *, threads: int = 1
) -> Iterator[Callable[[], list[R]]]:
    """Fork the workers of every share but the first; yield gather(), which runs
    share 0 here and returns fn of each share in order (module docstring)."""
    items = list(items)
    workers = min(threads, len(items))
    if workers <= 1 or not hasattr(os, "fork") or _has_threads():
        yield lambda: [fn(items)]
        return
    import pickle

    cuts = [len(items) * w // workers for w in range(workers + 1)]
    children = []  # (pid, read end of its pipe), in share order

    def gather() -> list[R]:
        results = [fn(items[: cuts[1]])]
        for pid, pipe in children:
            data = pipe.read()
            if not data:
                raise RuntimeError(f"worker process {pid} ended without a result")
            ok, payload = pickle.loads(data)
            if not ok:
                raise payload
            results.append(payload)
        return results

    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child never returns from _serve
                _serve(fn, items[lo:hi], write_fd, [read_fd, *(pipe.fileno() for _, pipe in children)])
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        yield gather
    finally:
        # a child still blocked on a full pipe gets EPIPE once the read end closes
        for _, pipe in children:
            pipe.close()
        for pid, _ in children:
            os.waitpid(pid, 0)


def _serve(fn: Callable, share: list, write_fd: int, read_fds: list[int]) -> None:
    """Run fn on one share in a forked child, send the outcome and exit without returning.

    read_fds are the read ends the child inherited. Closing them means a
    worker whose parent closed its read end gets EPIPE instead of waiting.
    """
    import pickle

    status = 1
    try:
        for fd in read_fds:
            os.close(fd)
        try:
            data = pickle.dumps((True, fn(share)), pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            try:
                data = pickle.dumps((False, err))
                pickle.loads(data)
            except Exception:  # an exception pickle cannot carry or rebuild
                data = pickle.dumps((False, RuntimeError(f"{type(err).__name__}: {err}")))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
