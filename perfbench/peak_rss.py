"""Run `python3 -m linlam ARGS...` and record the process's peak resident set.

Usage: python3 perfbench/peak_rss.py PEAK_FILE LINLAM_ARGS...

On Linux a child's rusage maximum RSS starts from the high-water mark of the
process that spawned it (exec records the old address space's peak), so a
parent that has grown would hide the child's own figure.  VmHWM in
/proc/self/status belongs to the address space created by exec alone; it is
written to PEAK_FILE, in kB, when the interpreter exits.
"""

import atexit
import runpy
import sys


def record_peak(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as out:
        out.write(peak)


if __name__ == "__main__":
    atexit.register(record_peak, sys.argv[1])
    sys.argv = ["linlam", *sys.argv[2:]]
    runpy.run_module("linlam", run_name="__main__", alter_sys=True)
