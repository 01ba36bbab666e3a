"""Process launcher for bench/run.py.

Runs each requested command to completion and reports its wall time, exit
code and peak resident set.  On Linux a child's ru_maxrss also counts the
resident set of the process that forked it.  So bench/run.py starts this
small process before it loads numpy and qlprob, and starts every timed
command from here.

Protocol: one JSON request per line on stdin, {"argv", "cwd", "out"},
where out is the file that receives the command's standard output; one
JSON reply per line on stdout, {"seconds", "code", "rss_mb"}.  The
launcher exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out,
                                    stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
