"""Spawn a process with its output to files; report its exit code and peak RSS.

When a child execs, the kernel carries the peak RSS of the address space it
leaves into the child's ru_maxrss; a child spawned straight from the
benchmark runner (about 90 MB) could never read smaller than the runner.
Run as a script (`python3 -S spawner.py`), this module is a small server
that spawns on request: its own peak, about 10 MB, is below any CLI child,
so the peak it reports is the child's.
"""

import json
import os
import subprocess
import sys


def spawn(argv: list[str], stdout: str, stderr: str) -> tuple[int, int]:
    """Run argv to completion with stdout/stderr to files; exit code, peak RSS (KB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd, err_fd = os.open(stdout, flags, 0o644), os.open(stderr, flags, 0o644)
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out_fd, 1),
                                           (os.POSIX_SPAWN_DUP2, err_fd, 2)])
    finally:
        os.close(out_fd)
        os.close(err_fd)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


class Spawner:
    """Client of a spawner server in its own small process; close() stops it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", __file__],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, argv: list[str], stdout, stderr) -> tuple[int, int]:
        print(json.dumps([list(argv), str(stdout), str(stderr)]), file=self.proc.stdin,
              flush=True)
        code, rss = self.proc.stdout.readline().split()
        return int(code), int(rss)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def serve():
    for line in sys.stdin:
        print(*spawn(*json.loads(line)), flush=True)


if __name__ == "__main__":
    serve()
