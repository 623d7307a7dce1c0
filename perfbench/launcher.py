"""Starts and times the `prune` processes on behalf of run.py.

On Linux a child's peak RSS (`ru_maxrss`) starts from the high-water RSS of
the process that forked it. The benchmark process holds numpy arrays for
set-up and checks, so if it forked the timed processes itself their peak
RSS would read as its own. This launcher imports nothing heavy and stays
small. Each request is one JSON line on stdin, each reply one JSON line on
stdout; it exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def spawn(argv: list[str], env: dict, cwd: str, err_path: str, timeout: float) -> dict:
    """Run one process to completion: wall seconds from spawn to exit, exit
    code, and the peak RSS in KiB of that process alone."""
    box: dict = {}
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)

    def reap() -> None:
        _, status, usage = os.wait4(proc.pid, 0)
        box.update(end=time.perf_counter(), status=status, usage=usage)

    reaper = threading.Thread(target=reap)
    reaper.start()
    reaper.join(max(timeout, 1.0))
    if reaper.is_alive():
        proc.kill()
        reaper.join()
    code = os.waitstatus_to_exitcode(box["status"])
    proc.returncode = code  # already reaped by wait4
    return {"wall_s": box["end"] - start, "exit_code": code, "maxrss_kb": box["usage"].ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(
            request["argv"], request["env"], request["cwd"], request["stderr"], request["timeout"]
        )
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
