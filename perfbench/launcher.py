"""Runs ``python -m qsvkit.cli`` subprocesses for the worker and reaps each one.

Linux counts a child's peak RSS from the memory of the process that forked
it, so a command line started by the worker, which holds numpy, the inputs
and the sampling tables, would report at least the worker's own peak. This
process imports nothing beyond the standard library and is started before
the worker imports anything, so its children report their own peak.

Protocol: one JSON request per stdin line, ``{"argv": [...], "cwd": DIR,
"stdout": FILE, "stderr": FILE}``, answered by one JSON line
``{"code": int, "wall_s": float, "maxrss_kb": int}``. Ends at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "qsvkit.cli", *req["argv"]],
                                    stdout=out, stderr=err, cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
