"""Child processes: when one may be forked (``_fork_context``), and how
every one is started, talks to this process over one-way pipes and is
reaped (``_child``); each caller keeps only its own messages."""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import tempfile
import threading
from contextlib import ExitStack, contextmanager


def _fork_context():
    """The fork context when a child process can run beside this one, else
    None: at least 2 usable CPUs, no other thread that a fork could catch
    holding a lock, and not a daemonic process, which may not have
    children.  The rule of all four callers: the threshold look-ahead,
    ``sweep`` and ``stability_chart`` through ``_fan_out``, and the
    ``simulate`` CSV writer."""
    try:
        cpus = len(os.sched_getaffinity(0))
        ctx = multiprocessing.get_context("fork")
    except (AttributeError, ValueError):  # no affinity mask or no fork here
        return None
    if cpus < 2 or threading.active_count() > 1 or multiprocessing.current_process().daemon:
        return None
    return ctx


def _run_child(target, args, child_ends, parent_ends) -> None:
    # Ctrl-C reaches the whole process group; the parent kills this child
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # so that reads here end when the parent closes its end, and sends fail once it is gone
    for conn in parent_ends:
        conn.close()
    target(*args, *child_ends)
    for conn in child_ends:  # the parent sees EOF now, not when this process exits
        conn.close()


@contextmanager
def _child(ctx, target, args, down=0):
    """Fork a child that runs ``target(*args, *ends)``, its ends being the
    readers of ``down`` pipes this process writes, then the writer of one
    pipe it reads.  Yields (process, this process's ends in the same
    order), or None where ``ctx`` is None or no descriptor or process is
    left to spare: the caller then does the work itself.  The child
    ignores Ctrl-C, and is killed and reaped before this returns or
    raises."""
    if ctx is None:
        yield None
        return
    pipes, child = [], None
    try:
        try:
            for _ in range(down + 1):
                pipes.append(ctx.Pipe(duplex=False))  # (reader, writer)
            child_ends = [r for r, _ in pipes[:down]] + [w for _, w in pipes[down:]]
            parent_ends = [w for _, w in pipes[:down]] + [r for r, _ in pipes[down:]]
            process = ctx.Process(target=_run_child, daemon=True,
                                  args=(target, args, child_ends, parent_ends))
            process.start()
            child = process  # only a started child is killed and reaped
        except OSError:  # no descriptor or process to spare
            pass
        # the child has its own copies; unforked, no end is used
        for conn in child_ends if child is not None else itertools.chain(*pipes):
            conn.close()
        yield None if child is None else (child, *parent_ends)
    finally:
        for conn in itertools.chain(*pipes):
            conn.close()
        if child is not None:
            child.kill()
            child.join()
            child.close()


def _take(fn, tasks, i, tickets) -> list:
    """[(i, fn(tasks[i]))] for task i, then for each next task the counter
    in the ``tickets`` file hands out, until the tasks run out."""
    import fcntl  # here, so that importing fishbone does not load it
    done = []
    while i < len(tasks):
        done.append((i, fn(tasks[i])))
        # a record lock, unlike a semaphore, dies with a process killed holding it
        fcntl.lockf(tickets, fcntl.LOCK_EX)
        i = int.from_bytes(os.pread(tickets, 8, 0), "little")
        os.pwrite(tickets, (i + 1).to_bytes(8, "little"), 0)
        fcntl.lockf(tickets, fcntl.LOCK_UN)
    return done


def _run_share(fn, tasks, first, tickets, writer) -> None:
    """Child of ``_fan_out``: send its ``_take`` of the tasks, or the
    exception of the first task that raised."""
    try:
        share = _take(fn, tasks, first, tickets)
    except Exception as exc:
        share = exc
    writer.send(share)


def _fan_out(fn, tasks, width):
    """[fn(t) for t in tasks] on at most ``width`` processes, and no more
    than tasks and usable CPUs: this process runs task 0 and each of width
    - 1 forked children (``_child``) task j, then each takes the next task
    left, so a process slowed by other load runs fewer.  Where a fork
    fails (no descriptor or process to spare), this process also runs
    that child's task j.  A task's exception is raised here, this
    process's first, then each child's in turn, and a child that died
    before it sent raises BrokenProcessPool."""
    ctx = _fork_context()
    width = 1 if ctx is None else min(width, len(tasks), len(os.sched_getaffinity(0)))
    if width < 2:
        return [fn(t) for t in tasks]
    with tempfile.TemporaryFile() as tickets, ExitStack() as children:
        fd = tickets.fileno()
        os.pwrite(fd, width.to_bytes(8, "little"), 0)
        forked = {j: children.enter_context(_child(ctx, _run_share, (fn, tasks, j, fd)))
                  for j in range(1, width)}
        shares = [_take(fn, tasks, 0, fd),
                  [(j, fn(tasks[j])) for j, ends in forked.items() if ends is None]]
        for _, reader in filter(None, forked.values()):
            try:
                shares.append(reader.recv())
            except EOFError:  # the child died
                from concurrent.futures.process import BrokenProcessPool
                raise BrokenProcessPool("a child died before sending its results") from None
            if isinstance(shares[-1], Exception):
                raise shares[-1]
    # every task's (index, result) once, in task order
    return [result for _, result in sorted(itertools.chain(*shares), key=lambda p: p[0])]
