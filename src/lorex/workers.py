"""Forked worker processes: how many, and the one way lorex runs work in them.

The worker count is ``W = min(items, usable cores)``, at least one
(``_worker_count``), and one where ``os.fork`` or ``os.sched_getaffinity``
is missing. Importing this module, as ``import lorex`` does, pins OpenBLAS
to one thread for the whole process (``_blas_threads``), which forked
workers inherit, so no result or worker count depends on its thread count.

``replicas`` runs one loop in W processes that split the shards of each
step among them and swap the results in its ``gather``, so every process
gets every shard's result: ``train_sharded``, the training step of router
training and base pretraining, computes its two half-batch gradients with
it. ``in_workers`` is one ``gather`` over independent items: evaluation
scores chunks of a task's images with it, ``train_experts`` trains
experts with it and ``make_dataset`` (``gen-data``) writes one image pair
per item.

Processes send their results through pipes, each message a pickled
``(ok, value)`` behind its length. An exception raised in a child is
raised in the caller with its type and message, and a child that ends
without a result raises ``LorexError``. No child outlives the call: on any
failure the caller kills its children, every child is reaped before the
caller returns or raises, and where libc has ``prctl`` (Linux) the kernel
kills a child whose caller is killed by a signal. Children end in
``os._exit``, which skips the atexit handlers and the flush of stdio
buffers copied from the parent.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import select
import signal
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn, Sequence

import numpy as np

from . import seeding
from .errors import LorexError
from .numerics import Adam, GradTape, Tensor, cosine_lr, scale

if TYPE_CHECKING:
    from .restorer import TrainConfig

# every data-parallel training step (train_sharded) sums the gradients of this
# many fixed shards of its batch
SHARDS = 2
_PR_SET_PDEATHSIG = 1      # <sys/prctl.h>


def _blas_threads() -> None:
    """Set every loaded OpenBLAS to one thread; nothing where none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:         # a mapping whose file is gone
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            pin = getattr(handle, name, None)
            if pin is not None:
                pin.argtypes = (ctypes.c_int,)
                pin.restype = None
                pin(1)
                break


_blas_threads()


def _worker_count(items: int) -> int:
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(items, len(os.sched_getaffinity(0))))


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
    the forked process, ``inbox`` is read and ``outbox`` written. ``code``
    is the forked process's exit code once the caller reaps it."""

    def __init__(self, pid: int, inbox, outbox):
        self.pid, self.inbox, self.outbox = pid, inbox, outbox
        self.code: int | None = None

    def receive(self):
        """The forked process's next result; its exception raised, or
        ``LorexError`` if it ends first."""
        message = _read(self.inbox)
        if message is None:
            self._ended()
        ok, value = message
        if not ok:
            raise value
        return value

    def finish(self) -> None:
        """Read the forked process's pipe to its end, so a process still
        writing can finish, then reap it; raise the exception it sent, or
        ``LorexError`` if it did not exit cleanly and sent none."""
        failure = None
        while (message := _read(self.inbox)) is not None:
            if not message[0]:
                failure = message[1]
        code = self.reap()
        if failure is not None:
            raise failure
        if code != 0:
            self._ended()

    def _ended(self) -> NoReturn:
        code = self.reap()
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise LorexError(f"worker process {self.pid} ended without a result ({how})")

    def reap(self) -> int:
        if self.code is None:
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code

    def kill(self) -> None:
        if self.code is None:
            os.kill(self.pid, signal.SIGKILL)

    def close(self) -> None:
        self.inbox.close()
        self.outbox.close()


def _fork(children: list[_Link]) -> _Link:
    """Fork one process, linked to the caller by a pipe each way. The
    forked process closes the caller's links to the earlier ``children``."""
    up, down = os.pipe(), os.pipe()
    parent, prctl = os.getpid(), getattr(ctypes.CDLL(None), "prctl", None)
    try:
        pid = os.fork()
    except BaseException:
        for fd in up + down:
            os.close(fd)
        raise
    if pid == 0:
        _end_with(parent, prctl)
        os.close(up[0])
        os.close(down[1])
        for child in children:
            child.close()
        return _Link(0, open(down[0], "rb"), open(up[1], "wb"))
    os.close(up[1])
    os.close(down[0])
    return _Link(pid, open(up[0], "rb"), open(down[1], "wb"))


def _end_with(parent: int, prctl) -> None:
    # in a forked process: ask for SIGKILL when the forking thread ends, and
    # exit if the caller ended before the request took effect (prctl is
    # looked up before the fork, so the child does not enter the loader)
    if prctl is None:
        return
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) == 0 and os.getppid() != parent:
        os._exit(1)


@contextlib.contextmanager
def _forked(count: int) -> Iterator[tuple[int, list[_Link]]]:
    """Run the ``with`` body in the caller and in ``count - 1`` processes
    forked by ``_fork``; yields ``(rank, links)``: 0 and the links to the
    children in the caller, r and the one link to the caller in child r.
    A child exits when its body ends, sending any exception it raised.
    After its body the caller closes its pipes to each child, reads what
    the child still sends to its end, reaps it and raises its exception, or
    ``LorexError`` if it did not exit cleanly and sent none. Failures are
    handled as the module docstring says.
    """
    children: list[_Link] = []
    try:
        for rank in range(1, count):
            link = _fork(children)
            if link.pid == 0:
                yield from _child(rank, link)
            children.append(link)
        yield 0, children
        for child in children:
            child.outbox.close()
            child.finish()
    except BaseException:
        for child in children:
            child.kill()
        raise
    finally:
        for child in children:
            child.close()
            child.reap()


def _child(rank: int, link: _Link) -> Iterator[tuple[int, list[_Link]]]:
    # the with body of ``_forked`` in child ``rank``; never returns into the
    # caller's code
    code = 1
    try:
        try:
            yield rank, [link]
        except BaseException as exc:
            link.outbox.write(_message(False, exc))
            link.close()
        else:
            link.close()        # flushes the body's last message
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

    The caller computes its shards one at a time and after each one takes
    in the results of any replica that has sent them, so a replica that
    fails stops the caller after its current shard rather than after all
    of them.

    A replica runs the body to its end and exits; only the caller leaves
    the ``with`` block. The body must therefore have no effect outside its
    process other than through ``gather``, and must call it the same number
    of times in every process. Failures are raised as the module docstring
    says.
    """
    count = _worker_count(shards)
    with _forked(count) as (rank, links):
        def gather(fn):
            if rank:
                results = {i: fn(i) for i in range(rank, shards, count)}
                links[0].outbox.write(_message(True, results))
                links[0].outbox.flush()
                message = _read(links[0].inbox)
                if message is None:
                    raise LorexError("the calling process ended")
                results.update(message[1])
            else:
                results, waiting = {}, {child.inbox: child for child in links}
                for i in range(0, shards, count):
                    results[i] = fn(i)
                    for inbox in select.select(list(waiting), [], [], 0)[0]:
                        results.update(waiting.pop(inbox).receive())
                for child in waiting.values():
                    results.update(child.receive())
                for r, child in enumerate(links, 1):
                    child.outbox.write(_message(True, {i: value for i, value in results.items()
                                                       if i % count != r}))
                    child.outbox.flush()
            return [results[i] for i in range(shards)]

        yield gather


def in_workers(fn: Callable[[object], object], items: Sequence) -> list:
    """``[fn(item) for item in items]``, computed by one ``gather`` of
    ``replicas(len(items))``: worker r of W runs ``fn`` on ``items[r::W]``,
    the caller being worker 0, and every worker gets every result. A
    worker that fails stops the caller after its current item.
    """
    with replicas(len(items)) as gather:
        return gather(lambda i: fn(items[i]))


def train_sharded(params: list[Tensor], config: TrainConfig, tag: str, population: int,
                  shard_loss: Callable[[np.ndarray, GradTape], Tensor],
                  after_step: Callable[[], None] = lambda: None) -> None:
    """Train ``params`` in place for ``config.iterations`` Adam steps at
    ``cosine_lr``, data-parallel, on ``population`` training examples.

    Step ``it`` draws ``batch_size`` example indices below ``population`` from
    ``seeding.stream(config.seed, tag, it)``, splits them into
    ``min(SHARDS, batch_size)`` fixed shards (``np.array_split``), and sums
    in shard order the gradients of each shard's ``shard_loss(idx, tape)``
    weighted by its share of the batch, computed in ``replicas``. The Adam
    step follows, then ``after_step()``. The result is bit-identical for
    any W.
    """
    if config.iterations == 0:
        return
    adam = Adam(params, lr=config.learning_rate)
    shards = min(SHARDS, config.batch_size)

    def shard_gradients(idx):
        tape = GradTape()
        loss = scale(shard_loss(idx, tape), len(idx) / config.batch_size, tape)
        return tape.gradients(loss, params)

    with replicas(shards) as gather:
        for it in range(config.iterations):
            idx = seeding.stream(config.seed, tag, it).integers(0, population, config.batch_size)
            parts = np.array_split(idx, shards)
            per_shard = gather(lambda i: shard_gradients(parts[i]))
            adam.step([sum(g[1:], g[0]) for g in zip(*per_shard)],
                      lr=cosine_lr(config.learning_rate, it, config.iterations))
            after_step()
