"""Order-preserving map over an optional worker-process pool.

Neither front end uses the pool: the CLI and report.build_bundle run
the stages serially. It stays only for the threads= keyword of
clean_corpus, segment_corpus and featurize, which perfbench's pool.t2
reruns call with two workers, and goes when they go. ProcessPoolExecutor
is imported only when a pool starts, so serial runs never load
multiprocessing.

threads <= 1 runs in-process. Larger values fan out over a
ProcessPoolExecutor; results come back in input order, so output is
byte-identical for every worker count. This module alone knows how state
reaches a worker: fn, with whatever a partial binds (a matcher, a word
list), is shipped once per worker by the pool's initializer. Callers
keep no module state, so calls from concurrent threads stay independent.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_worker_fn: Callable | None = None


def _install(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _call(item):
    return _worker_fn(item)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    threads: int = 1,
    chunksize: int = 256,
) -> list[R]:
    if threads <= 1 or len(items) < 2 * chunksize:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads, initializer=_install, initargs=(fn,)) as pool:
        return list(pool.map(_call, items, chunksize=chunksize))
