"""Run a command to exit and write its wall time, CPU time and peak RSS as JSON.

Usage: launch.py REPORT_JSON PROGRAM ARG...

The benchmark starts every timed child through this small process. Linux
carries the RSS high-water mark of the process that execs into the new
program's ru_maxrss, so a child spawned straight from the benchmark, which
holds the stub's logs and numpy, would report the benchmark's RSS instead
of its own.
"""

import json
import os
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "code": os.waitstatus_to_exitcode(status),
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
