"""Keeps one CPU from going idle while a benchmark run lasts.

    python3 perfbench/keepawake.py CPU

The process pins itself to CPU, moves to the SCHED_IDLE scheduling class
and spins.  The kernel runs an idle-class task only when nothing else on
that CPU is runnable and preempts it as soon as something is, so it takes
no CPU time from the benchmark's own processes.  What it changes is that
the CPU never halts.  On a virtual machine a halted vCPU is woken through
the hypervisor, and a closed loop pays that wake-up on every reply it
waits for; on a shared host its cost follows the host's load, and it moved
per-message latency by more than the program's own work did.

It exits as soon as its standard input closes, which happens when the
benchmark closes the pipe or exits.
"""
from __future__ import annotations

import os
import sys
import threading


def _exit_at_eof() -> None:
    sys.stdin.buffer.read()
    os._exit(0)


def main() -> None:
    cpu = int(sys.argv[1])
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    threading.Thread(target=_exit_at_eof, daemon=True).start()
    while True:
        pass


if __name__ == "__main__":
    main()
