"""Run one command and record its wall time, exit status and peak RSS.

Usage: python3 -S launch.py REPORT_FILE PROGRAM [ARG ...]

The command inherits standard input, output and error.  The report is a
JSON object with ``wall_s``, ``exit_code`` and ``rss_kb`` written to
REPORT_FILE.  A process's peak RSS also counts the memory of the process
that spawned it, so commands are spawned from this small interpreter
rather than from the benchmark itself.
"""

import json
import os
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "exit_code": os.waitstatus_to_exitcode(status), "rss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
