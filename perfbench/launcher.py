"""Helper process that starts the benchmark's CLI calls, one at a time.

run.py starts this with `python -S` and sends one JSON request per line:
{"argv", "env", "stdout", "stderr", "timeout_s"}. For each, it spawns the
command with stdout and stderr sent to the named files, waits for it with
wait4, and answers with one JSON line: {"rc", "wall_s", "maxrss_kb"}, where
rc is null if the call outlived its timeout and was killed.

It exists because Linux carries the spawning process's peak RSS into the
child's ru_maxrss at exec. Spawned from run.py, which holds numpy and the
generated inputs, every child would look at least that large. This process
imports almost nothing and stays below the size of any Python child, so
each child's ru_maxrss is its own.
"""

import json
import os
import signal
import sys
import time


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644)]
        argv = request["argv"]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, request["timeout_s"])
        try:
            _, status, usage = os.wait4(pid, 0)
            rc = os.waitstatus_to_exitcode(status)
        except _Timeout:
            os.kill(pid, signal.SIGKILL)
            _, _, usage = os.wait4(pid, 0)
            rc = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        sys.stdout.write(json.dumps({"rc": rc, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
