"""Peak RSS of a Python child process, measured apart from the test process.

On Linux a process's peak RSS (`ru_maxrss`) starts from the high-water RSS of
the process it was spawned from, so a child of the test process would read the
test process's own peak. The child is therefore started by a small Python
launcher, which reads the child's peak with `os.wait4` and prints it last.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:])\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "proc.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(proc.returncode, usage.ru_maxrss)\n"
)


def child_peak(code: str, *args: str) -> tuple[list[str], float]:
    """Run `python -c code *args` with src/ and tests/ importable; return its
    output lines and its peak RSS in MiB. The child must exit 0."""
    path = os.pathsep.join([SRC, str(Path(__file__).resolve().parent)])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    *lines, last = out.stdout.splitlines()
    exit_code, maxrss_kib = map(int, last.split())
    assert exit_code == 0, out.stderr
    return lines, maxrss_kib / 1024
