"""Run one command and write its wall time, CPU time and peak RSS as JSON.

    python3 bench/launch.py RESULT.json TIMEOUT_S PROGRAM [ARGS...]

Linux charges a new program with the peak resident set of the process it
was started from. Started straight from the benchmark, whose own peak
holds the generated input and the reference tables, a child would report
that peak as its own. This small launcher starts the command from a fresh
interpreter instead, so the command's reported peak is its own (or the
launcher's few MB, whichever is larger). The command is killed after
TIMEOUT_S seconds. Standard streams pass through unchanged.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    result_path, timeout = sys.argv[1], float(sys.argv[2])
    argv = sys.argv[3:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"code": os.waitstatus_to_exitcode(status), "wall_s": wall_s,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_kib": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
