"""Two lanes of work on two CPUs, with the results of a serial run.

``run_lanes`` takes (lane, callable) pairs in suite order, each lane
"A" or "B".  Where ``os.fork`` exists and the process may run on two or
more CPUs, lane B runs in a forked child while the parent runs lane A;
on one CPU the two lanes would only take turns, so the calls then run
serially, in suite order.  Either way the results come back in suite
order, and if calls raise, the exception raised is that of the earliest
raising call in suite order, as in a serial run.  The calls run on one
BLAS thread, one per lane, so that two lanes do not share two CPUs
among four BLAS threads.  A lane B result or exception crosses back by
pickle.
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import CdworkError
from .oscillator import one_blas_thread


def _two_cpus() -> bool:
    """True where lane B can run beside lane A: ``os.fork`` exists and
    the process may run on two or more CPUs."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _run_lane(lane):
    """Run (position, call) pairs in order, up to the first that raises;
    returns the (position, result) pairs and that call's (position,
    exception), or None."""
    done = []
    for position, call in lane:
        try:
            done.append((position, call()))
        except Exception as exc:
            return done, (position, exc)
    return done, None


def _run_forked(lane_a, lane_b):
    """Lane B in a forked child, lane A here; returns both lanes'
    (position, result) pairs, or None if no child can be forked, or
    raises the exception of the earliest raising call, or CdworkError
    if the child ends without a result."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        # the child never returns and never flushes the stdio buffers it
        # inherited: a flush would print the parent's pending output twice
        status = 1
        try:
            os.close(read)
            outcome = _run_lane(lane_b)
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(outcome, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    finished = False
    try:
        with os.fdopen(read, "rb") as pipe:
            done_a, raised_a = _run_lane(lane_a)
            payload = pipe.read()
        finished = True
    finally:
        if not finished:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    try:
        done_b, raised_b = pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError):
        raise CdworkError(
            f"the forked lane ended without a result (exit status "
            f"{os.waitstatus_to_exitcode(status)})") from None
    raised = [r for r in (raised_a, raised_b) if r is not None]
    if raised:
        raise min(raised, key=lambda r: r[0])[1]
    return done_a + done_b


def run_lanes(steps) -> list:
    """Results of the (lane, call) pairs in suite order, on one BLAS
    thread: lane B forked beside lane A where both lanes hold calls,
    ``_two_cpus()`` holds and a child can be forked, every call in turn
    otherwise."""
    with one_blas_thread():
        lanes = {"A": [], "B": []}
        for position, (lane, call) in enumerate(steps):
            lanes[lane].append((position, call))
        if lanes["A"] and lanes["B"] and _two_cpus():
            done = _run_forked(lanes["A"], lanes["B"])
            if done is not None:
                return [result for _, result in sorted(done,
                                                       key=lambda r: r[0])]
        return [call() for _, call in steps]
