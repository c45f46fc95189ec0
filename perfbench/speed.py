"""Host-speed calibration of op times (stdlib only).

The CPU of a shared host runs fast and slow in phases of seconds to minutes
(``BASELINE.md``, Noise): a fixed loop takes up to twice as long in a slow
phase, so a run's wall-clock times mostly show the phase it ran in. The
benchmark therefore runs a fixed calibration task after every op, a task of
the same kind as the op that never touches the program, and reports each op
at reference speed:

    op time = wall time * NOMINAL_S[task] / local calibration time

where the local calibration time is the median of the calibrations around
the op. The result is in seconds on a host on which the task takes
``NOMINAL_S[task]`` (about the fast phase of the host in ``BASELINE.md``). A
slower program still reads slower by the same factor; the calibration
task, not the program, absorbs the host's phase.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

#: the calibration task of each workload: the in-process workloads run the
#: solver's scalar Python; a CLI op is a fresh process that spends most of
#: its time importing scipy.optimize, as a set-up does
TASK = {"solve_sweep": "cpu", "pigouvian": "cpu", "cli_cold": "process", "validate": "process"}

#: the ``process`` task: a fresh ``python -I`` that imports scipy.optimize;
#: -I ignores PYTHONPATH, so it never loads the program
PROCESS_CODE = "import scipy.optimize"

#: calibration time of each task on the reference host, in seconds
NOMINAL_S = {"cpu": 0.5e-3, "process": 0.5}

#: calibrations on each side of an op that make its local calibration time
WINDOW = {"cpu": 10, "process": 3}


def cpu_task() -> float:
    """In-process calibration: scalar floating point in a Python loop, as the solver does."""
    s = 0.0
    for i in range(1, 4000):
        s += math.exp(-i * 1e-4) * (i % 7)
    return s


def run_task(task: str) -> None:
    if task == "cpu":
        cpu_task()
    else:
        subprocess.run([sys.executable, "-I", "-c", PROCESS_CODE], check=True,
                       stdout=subprocess.DEVNULL, timeout=60)


def time_task(task: str) -> float:
    """Wall time of one run of a calibration task."""
    t0 = time.perf_counter()
    run_task(task)
    return time.perf_counter() - t0


def scaled(times: list[float], calibrations: list[float], task: str) -> list[float]:
    """Each time at reference speed; ``calibrations[i]`` ran right after ``times[i]``."""
    w = WINDOW[task]
    return [
        t * NOMINAL_S[task] / statistics.median(calibrations[max(0, i - w):i + w + 1])
        for i, t in enumerate(times)
    ]
