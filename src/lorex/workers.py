"""Forked worker processes: how many, and the two ways lorex uses them.

The worker count is ``W = min(items, usable cores // BLAS threads)``, at
least one (``_worker_count``), and one where ``os.fork`` or
``os.sched_getaffinity`` is missing. Each worker runs BLAS with the
caller's thread count, so the workers' BLAS threads never outnumber the
usable cores (two processes of two BLAS threads each on two cores train
experts 2-3x slower than one process).

``in_workers`` splits independent items among W processes: evaluation
scores tasks with it and ``train_experts`` trains experts with it.
``replicas`` runs one loop in W processes that swap per-shard results at
every step: router training computes its two half-batch gradients with it.

Children send their results back through pipes, each message a pickled
``(ok, value)`` behind its length. An exception raised in a child is
raised in the caller with its type and message, and a child that ends
without a result raises ``LorexError``. No child outlives the call: on any
failure the caller kills its children, and every child is reaped before
the caller returns or raises. Children end in ``os._exit``, which skips the
atexit handlers and the flush of stdio buffers copied from the parent.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import select
import signal
from typing import Callable, Iterator, Sequence

from .errors import LorexError


def _blas_threads() -> int:
    """The thread count the loaded OpenBLAS reports; 1 where none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return 1
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:         # a mapping whose file is gone
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            get = getattr(handle, name, None)
            if get is not None:
                get.argtypes = ()
                get.restype = ctypes.c_int
                return max(1, get())
    return 1


def _worker_count(items: int) -> int:
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(items, len(os.sched_getaffinity(0)) // _blas_threads()))


def _message(ok: bool, value) -> bytes:
    # (ok, value) pickled behind its length; an exception that does not
    # round-trip through pickle is sent as a LorexError naming its type
    if not ok:
        try:
            pickle.loads(pickle.dumps(value))
        except Exception:
            value = LorexError(f"{type(value).__name__}: {value}")
    blob = pickle.dumps((ok, value))
    return len(blob).to_bytes(8, "little") + blob


def _read(pipe) -> tuple | None:
    # the next (ok, value) from a pipe, or None if it ends first
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    blob = pipe.read(size) if len(head) == 8 else b""
    if len(head) < 8 or len(blob) < size:
        return None
    return pickle.loads(blob)


class _Link:
    """The pipes between the caller and one forked process, as either side
    holds them: ``pid`` is the other process's id in the caller and 0 in
    the forked process, ``inbox`` is read and ``outbox`` written (None
    where the link has no such pipe). ``code`` is the forked process's exit
    code once the caller reaps it."""

    def __init__(self, pid: int, inbox, outbox):
        self.pid, self.inbox, self.outbox = pid, inbox, outbox
        self.code: int | None = None

    def receive(self):
        """The forked process's next result; its exception raised, or
        ``LorexError`` if it ends first."""
        message = _read(self.inbox)
        if message is None:
            code = self.reap()
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise LorexError(f"worker process {self.pid} ended without a result ({how})")
        ok, value = message
        if not ok:
            raise value
        return value

    def reap(self) -> int:
        if self.code is None:
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code

    def kill(self) -> None:
        if self.code is None:
            os.kill(self.pid, signal.SIGKILL)

    def close(self) -> None:
        for pipe in (self.inbox, self.outbox):
            if pipe is not None:
                pipe.close()


def _fork(children: list[_Link], duplex: bool) -> _Link:
    """Fork one process, linked to the caller by a pipe from it and, if
    ``duplex``, one to it. The forked process closes the caller's links to
    the earlier ``children``."""
    up = os.pipe()
    down = os.pipe() if duplex else None
    try:
        pid = os.fork()
    except BaseException:
        for fd in up + (down or ()):
            os.close(fd)
        raise
    if pid == 0:
        os.close(up[0])
        if down:
            os.close(down[1])
        for child in children:
            child.close()
        return _Link(0, down and open(down[0], "rb"), open(up[1], "wb"))
    os.close(up[1])
    if down:
        os.close(down[0])
    return _Link(pid, open(up[0], "rb"), down and open(down[1], "wb"))


def in_workers(fn: Callable[[Sequence], list], items: Sequence) -> list:
    """``fn`` over ``items`` in ``W = _worker_count(len(items))`` processes;
    ``fn(share)`` returns one result per item of its share. Worker i gets
    ``items[i::W]``: the caller is worker 0 and runs ``fn`` on one item at a
    time, the others are forked children that run ``fn`` on their whole
    share and send the results back. Returns the results in item order.

    Between its items the caller polls the children's pipes, so a child
    that fails stops the caller after its current item rather than after
    its whole share. Failures are raised as the module docstring says.
    """
    workers = _worker_count(len(items))
    if workers == 1:
        return fn(items)
    children: list[_Link] = []
    shares: dict[int, list] = {}
    try:
        for i in range(1, workers):
            link = _fork(children, duplex=False)
            if link.pid == 0:
                _child(fn, items[i::workers], link.outbox)
            children.append(link)
        pending = {child.inbox: (i, child) for i, child in enumerate(children, 1)}
        own: list = []
        for item in items[0::workers]:
            own.extend(fn([item]))
            for inbox in select.select(list(pending), [], [], 0)[0]:
                i, child = pending.pop(inbox)
                shares[i] = child.receive()
        shares[0] = own
        for i, child in pending.values():
            shares[i] = child.receive()
    except BaseException:
        for child in children:
            child.kill()
        raise
    finally:
        for child in children:
            child.close()
            child.reap()
    results: list = [None] * len(items)
    for i, share in shares.items():
        results[i::workers] = share
    return results


def _child(fn, share, pipe) -> None:
    # never returns into the caller's code
    code = 1
    try:
        with pipe:
            try:
                message = _message(True, fn(share))
            except BaseException as exc:
                message = _message(False, exc)
            pipe.write(message)
        code = 0
    finally:
        os._exit(code)


Gather = Callable[[Callable[[int], object]], list]


@contextlib.contextmanager
def replicas(shards: int) -> Iterator[Gather]:
    """Run the ``with`` body in ``W = _worker_count(shards)`` processes that
    work on ``shards`` fixed shards of each step; yields ``gather``.

    ``gather(fn)`` returns ``[fn(0), ..., fn(shards - 1)]`` in every
    process. Process r computes ``fn(i)`` for the shards i = r, r + W, ...
    only: the caller is process 0, and W - 1 forked replicas are the
    others. A replica writes its results to the caller and then reads the
    caller's; the caller reads every replica's and then writes, so no
    message size can deadlock the swap. Every process then continues
    with the same results, so a body whose state depends only on them
    stays bit-identical across processes. With W = 1 the caller computes
    every shard in turn.

    A replica runs the body to its end and exits; only the caller leaves
    the ``with`` block. The body must therefore have no effect outside its
    process other than through ``gather``, and must call it the same number
    of times in every process. Failures are raised as the module docstring
    says.
    """
    count = _worker_count(shards)
    if count == 1:
        yield lambda fn: [fn(i) for i in range(shards)]
        return
    children: list[_Link] = []

    def gather(fn):
        results = {i: fn(i) for i in range(0, shards, count)}
        for child in children:
            results.update(child.receive())
        for rank, child in enumerate(children, 1):
            child.outbox.write(_message(True, {i: value for i, value in results.items()
                                               if i % count != rank}))
            child.outbox.flush()
        return [results[i] for i in range(shards)]

    try:
        for rank in range(1, count):
            link = _fork(children, duplex=True)
            if link.pid == 0:
                yield from _replica(rank, count, shards, link)
            children.append(link)
        yield gather
        for child in children:
            child.outbox.close()
            if child.reap() != 0:
                child.receive()     # the replica's exception, or LorexError
    except BaseException:
        for child in children:
            child.kill()
        raise
    finally:
        for child in children:
            child.close()
            child.reap()


def _replica(rank: int, count: int, shards: int, link: _Link) -> Iterator[Gather]:
    # the body of replica ``rank`` of ``replicas``; never returns into the
    # caller's code
    code = 1
    try:
        with link.outbox as up, link.inbox as down:
            def gather(fn):
                results = {i: fn(i) for i in range(rank, shards, count)}
                up.write(_message(True, results))
                up.flush()
                message = _read(down)
                if message is None:
                    raise LorexError("the calling process ended")
                results.update(message[1])
                return [results[i] for i in range(shards)]

            try:
                yield gather
                code = 0
            except BaseException as exc:
                up.write(_message(False, exc))
    finally:
        os._exit(code)
