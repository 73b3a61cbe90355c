"""A small process that starts the CLI commands and reports their rusage.

Linux carries the parent's resident-set high-water mark into a child's
`ru_maxrss` through fork and exec, so a child started by the benchmark
process would report at least the benchmark's own memory.  This spawner is
started first, while the benchmark is still small, and stays small; children
it starts report their own peak.  It reads one JSON request per line on
stdin and answers with one JSON line on stdout.

    python3 -S spawner.py CPU[,CPU...]

pins the spawner, and so every command it starts, to the CPUs named.  The
reply carries each command's start and end on CLOCK_MONOTONIC, so the
benchmark can match them with the samples of `cpuspeed.py`.
"""

import json
import os
import signal
import sys
import threading
import time


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def serve(requests, replies) -> None:
    for line in requests:
        request = json.loads(line)
        os.chdir(request["cwd"])
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions, setsid=True)
        timer = threading.Timer(request["timeout"], _kill_group, (pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
        reply = {
            "start": start,
            "end": end,
            "wall_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "returncode": os.waitstatus_to_exitcode(status),
        }
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(cpu) for cpu in sys.argv[1].split(",")})
    serve(sys.stdin, sys.stdout)
