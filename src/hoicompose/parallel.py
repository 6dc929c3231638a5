"""The CPUs this process may use, and one forked, BLAS-pinned child beside the caller."""
from __future__ import annotations

import os
import pickle
import threading
import warnings
from contextlib import suppress

from . import blas

# Set in a forked child: it and its caller, or its sibling, already fill the CPUs.
in_child = False


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write(fd: int, item) -> None:
    data = memoryview(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
    while data:
        data = data[os.write(fd, data):]


def _feed(f):
    with suppress(EOFError):
        while True:
            yield pickle.load(f)


def fork_pair(child, parent):
    """(child(feed), parent(send)) with child in a forked child, or None for the
    caller to run both inline: on one usable CPU, without os.fork, beside
    another Python thread, in a forked child, when no process starts, or when
    parent raises an Exception. Both sides run on one OpenBLAS
    thread; feed yields what parent sends, in order. The child raises every
    warning as an error and leaves by os._exit, flushing no buffer of the
    caller's; its result is read before the wait, so it may exceed a pipe's
    buffer. When the child raises, warns or dies, child(the items sent) runs
    here after parent, so each error and warning surfaces as inline."""
    global in_child
    if in_child or usable_cpus() < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    sent, (feed_r, feed_w), (result_r, result_w) = [], os.pipe(), os.pipe()
    with blas.one_thread():
        with warnings.catch_warnings():
            # Python 3.12+ warn on a fork beside other OS threads: here only OpenBLAS's,
            # whose fork handler stops them, and the child runs only numpy on this thread.
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning)
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                for fd in (feed_r, feed_w, result_r, result_w):
                    os.close(fd)
                return None
        if pid == 0:
            try:
                in_child = True
                warnings.simplefilter("error")
                os.close(feed_w), os.close(result_r)  # so that the caller's closing ends each pipe
                with open(feed_r, "rb") as f:  # closed before the result is sent: sends then go nowhere
                    result = child(_feed(f))
                _write(result_w, result)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(feed_r), os.close(result_w)

        def send(item):
            sent.append(item)
            with suppress(BrokenPipeError):  # the child has returned or died
                _write(feed_w, item)

        try:
            with open(result_r, "rb") as results:
                try:
                    here = parent(send)
                finally:
                    os.close(feed_w)
                with suppress(EOFError, pickle.UnpicklingError):  # a child that died before or mid-send exits nonzero
                    result = pickle.load(results)
        except Exception:
            return None
        finally:
            status = os.waitpid(pid, 0)[1]
        return (result if status == 0 else child(iter(sent))), here
