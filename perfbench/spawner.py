"""Start and time processes for the benchmark runner.

Usage: python -I -S spawner.py
Requests arrive on stdin and replies leave on stdout, one JSON line each:
  request {"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}
  reply   {"wall_s": ..., "rss_kb": ..., "exit": ..., "timed_out": ...}

Why a separate process: a child started with vfork, as posix_spawn does,
takes its parent's peak RSS as its own starting maximum, so a query started
straight from the runner, whose memory grows with the answers it checks,
would report the runner's peak instead of its own.  This helper stays small.

If stdin closes while a child runs, the runner is gone and the child is killed.
"""

import json
import os
import select
import signal
import sys
import time


def run(req: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
    pidfd, ready = None, []
    try:
        pidfd = os.pidfd_open(pid)
        ready = select.select([pidfd, sys.stdin], [], [], req["timeout"])[0]
    finally:
        exited = pidfd is not None and pidfd in ready
        if pidfd is not None:
            os.close(pidfd)
        if not exited:  # the child is not reaped yet, so its pid is still ours
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    if sys.stdin in ready and not exited:
        sys.exit("spawner: runner went away")
    return {
        "wall_s": wall,
        "rss_kb": usage.ru_maxrss,
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": not exited,
    }


def main() -> None:
    while line := sys.stdin.readline():
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
