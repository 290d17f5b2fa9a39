"""Start the benchmark's commands from a small process.

A child's ru_maxrss counts the memory of the process it was forked (or
vforked) from, until it execs.  Started from the benchmark process, which
holds graphs and NumPy, every child would report at least that much; started
from this process it reports its own peak.

Protocol: one JSON request per line on stdin, {"argv", "cwd", "log",
"timeout"}, where an argv item "T0" is replaced by time.monotonic() taken
just before the start; one JSON reply per line on stdout, {"code",
"seconds", "rss_kb"}.  The process exits when stdin closes.  Commands
stay in this process's group, so killing the group stops them all.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], cwd: str, log: str, timeout: float) -> dict:
    with open(log, "wb") as out:
        t0 = time.monotonic()
        argv = [repr(t0) if arg == "T0" else arg for arg in argv]
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        done: dict = {}

        def reap() -> None:
            _, status, usage = os.wait4(proc.pid, 0)
            done.update(end=time.monotonic(), status=status, usage=usage)

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(timeout)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(done["status"])
    return {
        "code": proc.returncode,
        "seconds": done["end"] - t0,
        "rss_kb": done["usage"].ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
