"""Run commands for run.py from a process that stays small.

    python3 -I -S perfbench/spawn.py OUT_PATH TIMEOUT_S

A child's ru_maxrss is at least the peak RSS of the process that spawned
it, because the child shares that process's memory until it execs.  run.py
holds and parses the outputs it checks, so it does not spawn the timed
calls itself: this helper does, and never reads their output.

Reads one JSON list, a command, per line of stdin.  Runs it with stdout
to OUT_PATH (truncated first) and stderr discarded, kills it after
TIMEOUT_S, and writes one JSON line [exit code, wall seconds from spawn to
exit, the child's peak RSS in KiB] to stdout.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    out_path, timeout_s = sys.argv[1], float(sys.argv[2])
    for line in sys.stdin:
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(json.loads(line), stdout=out, stderr=subprocess.DEVNULL)
            timer = threading.Timer(timeout_s, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, seconds, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
