"""Start the benchmark's commands from a small process and report their cost.

    python3 perfbench/launcher.py

Reads one JSON request per line on stdin, ``{"argv", "env", "out", "err",
"timeout"}``, runs that command to its exit with stdin from /dev/null and
stdout and stderr to the named files, and answers with one JSON line (see
``run``).  It exits at end of input.

Why a separate process: Linux reports as a child's peak RSS (ru_maxrss) at
least the RSS of the process it was started from, and the benchmark process
grows large while it checks outputs.  This one stays at the size of a bare
interpreter, below that of any nbx command.

Why the calibration: the benchmark runs on shared machines whose speed
drifts by tens of percent within seconds.  Before, after, and every
``SAMPLE_EVERY_S`` during a command (with the command stopped by SIGSTOP,
so nothing runs beside the loop), the launcher times a fixed pure-Python
loop.  Each stretch of the command's run is then converted to the time it
would have taken at the speed where that loop takes ``CAL_REF_S``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
from time import perf_counter

SAMPLE_EVERY_S = 0.1
# The reference speed: the calibration loop takes this long at it, about its
# time on an idle core of a 2-vCPU Xeon VM with CPython 3.11.
CAL_REF_S = 0.002

_CAL_MASKS = list(range(1, 1300, 13))


def _compositions(total: int, parts: int, top: int, prefix: tuple):
    if parts == 1:
        if total <= top:
            yield prefix + (total,)
        return
    for first in range(min(top, total - parts + 1), 0, -1):
        yield from _compositions(total - first, parts - 1, first, prefix + (first,))


def calibrate() -> float:
    """Time of a fixed loop of int bit operations and popcounts, like nbx's
    pair loops, and of a recursive generator of integer partitions, like its
    optimizers: how fast this machine runs Python right now."""
    start = perf_counter()
    acc = 0
    for a in _CAL_MASKS:
        for b in _CAL_MASKS:
            acc += ((a & ~b) | (b >> 1)).bit_count()
    for parts in _compositions(30, 5, 30, ()):
        acc += parts[0] * parts[-1]
    return perf_counter() - start


def run(argv: list[str], env: dict, out: str, err: str, timeout: float) -> dict:
    """Run one command; one still running after ``timeout`` s is killed.

    Returns ``wall_s``, launch to exit with the calibration pauses left
    out; ``ref_wall_s``, the same at the reference speed; ``paused_s``;
    ``cpu_s``, user + system CPU; ``rss_kib``, peak RSS; and ``status``,
    the exit status.
    """
    cal = calibrate()
    out_fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err_fd = os.open(err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        start = perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out_fd, 1),
            (os.POSIX_SPAWN_DUP2, err_fd, 2),
        ])
    finally:
        os.close(out_fd)
        os.close(err_fd)
    wall = ref_wall = paused = 0.0
    reaped = None
    try:
        pidfd = os.pidfd_open(pid)
        try:
            while reaped is None:
                exited = bool(select.select([pidfd], [], [], SAMPLE_EVERY_S)[0])
                if not exited and wall + perf_counter() - start > timeout:
                    os.kill(pid, signal.SIGKILL)
                    exited = True
                if exited:
                    reaped = os.wait4(pid, 0)
                else:
                    os.kill(pid, signal.SIGSTOP)
                    reaped = os.wait4(pid, os.WUNTRACED)
                    if os.WIFSTOPPED(reaped[1]):
                        reaped = None
                stretch = perf_counter() - start
                after = calibrate()
                wall += stretch
                ref_wall += stretch * CAL_REF_S / ((cal + after) / 2)
                cal = after
                if reaped is None:
                    resumed = perf_counter()
                    os.kill(pid, signal.SIGCONT)
                    paused += resumed - start - stretch
                    start = resumed
        finally:
            os.close(pidfd)
    except BaseException:
        if reaped is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    _, status, usage = reaped
    return {"wall_s": wall, "ref_wall_s": ref_wall, "paused_s": paused,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_kib": usage.ru_maxrss,
            "status": os.waitstatus_to_exitcode(status)}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["env"], req["out"], req["err"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
