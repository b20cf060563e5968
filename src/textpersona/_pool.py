"""Order-preserving maps that split their items into two halves, one in a forked child.

forked_shares(fn, items) cuts the items into two halves of
len(items) // 2 and the rest. On entry it forks one child for the
second half and yields gather(), which runs fn on the first half in the
calling process and returns [fn(first half), fn(second half)]; the
caller may do other work before it calls gather. On exit the child is
reaped and its pipe closed, whether gather ran, returned or raised.
parallel_map(fn, items, threads=2) is the flat list of fn of each item,
mapped half by half; threads=1 maps in process. report.build_bundle
forks its per-user pass with forked_shares before it reads the
profiles: the child cleans, segments and featurizes the second half of
the users with a post, predicts its scores, and sends back tuples and
plain dicts, while the parent reads and validates the profiles. After
predict, parallel_map runs two tasks: a child writes the features table
and runs and writes the correlations, the work that reads the feature
matrix, while the parent writes the scores table and runs the other
analyses. The threads= keyword of clean_corpus, segment_corpus and
lexicon.featurize goes through parallel_map too.

One rule decides every fork, whatever the size of the work: the second
half goes to a child made by os.fork when there are at least two items
and two usable CPUs, os.fork exists, and no other thread runs (a fork
would copy the locks it may hold). Otherwise the items run in process
as one share. The child inherits fn and the items, so nothing is
pickled on the way in and closures or one-shot generators work as
items. It sends back its pickled result, or the exception it raised,
through a pipe. The halves come back in input order, so output is
byte-identical forked or not as long as fn's results join to the same
whole. pickle is imported only when a map forks, so a run in process
never loads it. More than one child was never measured to pay on more
than two CPUs, so none is made."""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from itertools import chain
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T], *, threads: int = 1) -> list[R]:
    """fn of each item, in order; threads > 1 maps the second half in one forked child (forked_shares).

    threads only chooses between in process and forked_shares. The
    kernels (clean_corpus, segment_corpus, lexicon.featurize) keep the
    keyword only for perfbench's pooled_reruns, which ROADMAP item 2
    removes."""
    if threads < 2:
        return [fn(item) for item in items]
    with forked_shares(lambda share: [fn(item) for item in share], items) as gather:
        return [*chain.from_iterable(gather())]


def _has_threads() -> bool:
    """Whether another thread runs; a fork would copy the locks it may hold."""
    threading = sys.modules.get("threading")
    return threading is not None and threading.active_count() > 1


@contextmanager
def forked_shares(fn: Callable[[list[T]], R], items: Iterable[T]) -> Iterator[Callable[[], list[R]]]:
    """Fork the child of the second half; yield gather(), which runs the
    first half here and returns fn of each half in order (module docstring)."""
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if len(items) < 2 or cpus < 2 or not hasattr(os, "fork") or _has_threads():
        yield lambda: [fn(items)]
        return
    import pickle

    half = len(items) // 2
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child never returns from _serve
        _serve(fn, items[half:], write_fd, read_fd)
    os.close(write_fd)

    def gather() -> list[R]:
        first = fn(items[:half])
        data = pipe.read()
        if not data:
            raise RuntimeError(f"worker process {pid} ended without a result")
        ok, payload = pickle.loads(data)
        if not ok:
            raise payload
        return [first, payload]

    try:
        # a child still blocked on a full pipe gets EPIPE once the read end closes
        with open(read_fd, "rb") as pipe:
            yield gather
    finally:
        os.waitpid(pid, 0)


def _serve(fn: Callable, share: list, write_fd: int, read_fd: int) -> None:
    """Run fn on one half in a forked child, send the outcome and exit without returning.

    read_fd is the pipe's read end, which the child inherited. Closing it
    means the child gets EPIPE once the parent closes its read end,
    instead of waiting.
    """
    import pickle

    status = 1
    try:
        os.close(read_fd)
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
