"""Timing discipline: the calibration spin, per-call deadlines, the closed
sampling loop and the order statistics reported from it.

Why wall times are calibrated.  On the 2-vCPU sandbox this benchmark was
written on, the host changes speed in phases that last tens of seconds: the
same ``run_pared`` call had a 20-second median anywhere between 0.27 s and
0.61 s, and ten back-to-back 20-second runs of unchanged code spread over
28-32 % (IQR / median), beyond any bound the benchmark could fix.  A fixed
spin of mixed Python and numpy work, run where the workload's ranks run and
timed next to every sample, slows down by the same factor; the ratio
``call wall / spin wall`` of the same runs spread over 3-7 %.  So every
end-to-end time is reported as ``wall * SPIN_REF_S / spin wall``: seconds on
a host whose spin takes ``SPIN_REF_S``.  The raw medians are kept beside them
as ``harness.*_raw_s``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy

from bench import ROOT
from repro.runtime.envflags import effective_cpu_count
from repro.runtime.shm import shutdown_pools

#: spin wall time that calibrated seconds refer to (about what the spin took
#: in this host's fast phases when the benchmark was written)
SPIN_REF_S = 0.050

_SPIN_SMALL = np.arange(64)
_SPIN_BIG = np.random.default_rng(0).integers(0, 1 << 20, size=50_000)


def spin() -> float:
    """Fixed work in the four flavours the program mixes, a quarter of the
    time each: an integer loop, container churn, many tiny numpy calls, a few
    large ones.  A single flavour tracked the workloads' slowdown two to
    five times worse than the mix.  Returns wall seconds."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    table, items, seen = {}, [], set()
    for i in range(50_000):
        items.append((i, i + 1))
        table[i] = items[-1]
        seen.add(i & 1023)
        if i & 7 == 0:
            table.pop(i >> 1, None)
    small = _SPIN_SMALL
    for i in range(18_000):
        window = small[i & 31:(i & 31) + 8]
        cell = np.empty(4, dtype=np.int64)
        cell[0] = int(window[3])
    order = np.argsort(_SPIN_BIG, kind="stable")
    uniq = np.unique(_SPIN_BIG)
    _SPIN_BIG[order][::2].cumsum()
    np.isin(_SPIN_BIG, uniq[:1000])
    return perf_counter() - t0


def spin_rank(comm) -> float:
    """The spin as an SPMD job, so it runs in the rank processes (or
    threads) the workload itself uses, all ranks at once."""
    comm.barrier()
    return spin()


def calibrated(wall: float, spin_wall: float) -> float:
    return wall * SPIN_REF_S / spin_wall


# ---------------------------------------------------------------------- #
# deadlines
# ---------------------------------------------------------------------- #


class CallTimeout(Exception):
    """A timed call outlived its deadline (a protocol hang, most likely)."""


@contextmanager
def deadline(seconds: float):
    """Raise :class:`CallTimeout` in the main thread after ``seconds``.

    ``run_pared`` blocks the main thread in a join (thread backend) or a
    select loop (forked backends); the alarm interrupts either, and the
    forked backends tear their workers down on the way out."""

    def on_alarm(signum, frame):
        raise CallTimeout(f"call exceeded its {seconds:.0f} s deadline")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------- #
# child processes
# ---------------------------------------------------------------------- #


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Besides the pooled ranks, the shm backend's ``SharedMemory`` segment
    starts multiprocessing's resource tracker, which the interpreter never
    stops (before 3.13): it outlives this process by a moment and, where
    pid 1 does not reap, stays as a zombie.  So: pools down, stray ranks
    killed, then the tracker's pipe closed and the tracker waited for."""
    from multiprocessing import resource_tracker

    shutdown_pools()
    for child in multiprocessing.active_children():  # reaps the finished
        child.kill()
        child.join()
    # private, but the only handle on the tracker; a no-op when none runs
    resource_tracker._resource_tracker._stop()


# ---------------------------------------------------------------------- #
# sampling
# ---------------------------------------------------------------------- #


@dataclass
class Sample:
    wall: float  # raw wall seconds of the call
    spin: float  # mean of the spins before and after it
    problems: list  # correctness failures; empty means the call passed

    @property
    def cal(self) -> float:
        return calibrated(self.wall, self.spin)


@dataclass
class Samples:
    rows: list = field(default_factory=list)
    spins: list = field(default_factory=list)
    #: the last call that passed, for quality metrics and the stats harvest
    last_good: object = None
    last_good_spin: float = 0.0
    #: a call hit its deadline: rank threads may be stuck, exit hard
    hung: bool = False

    @property
    def attempted(self) -> int:
        return len(self.rows)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.rows if s.problems)

    def good(self) -> list:
        return [s for s in self.rows if not s.problems]


def guarded_call(workload, reference, timeout: float):
    """One call under a deadline plus its correctness check.  Returns
    ``(wall, out, problems)``; the check runs outside the timed region."""
    gc.collect()
    t0 = perf_counter()
    try:
        with deadline(timeout):
            out = workload.call()
    except CallTimeout as exc:
        return perf_counter() - t0, None, [f"timeout: {exc}"]
    except Exception as exc:  # boundary: a raising call is a counted failure
        return perf_counter() - t0, None, [f"raised {type(exc).__name__}: {exc}"]
    wall = perf_counter() - t0
    return wall, out, workload.check(out, reference)


def timed_loop(workload, reference, seconds: float, timeout: float) -> Samples:
    """Closed loop, one client: spin, call, check, repeat until ``seconds``
    are used.  Fixed order; ``gc.collect()`` before every call."""
    res = Samples()
    t_end = perf_counter() + seconds
    spin_before = workload.spin()
    res.spins.append(spin_before)
    while perf_counter() < t_end:
        wall, out, problems = guarded_call(workload, reference, timeout)
        if problems and problems[0].startswith("timeout"):
            # a hang will repeat; stop here so the run itself cannot hang
            res.rows.append(Sample(wall, spin_before, problems))
            res.hung = True
            workload.teardown()
            break
        spin_after = workload.spin()
        res.spins.append(spin_after)
        res.rows.append(Sample(wall, (spin_before + spin_after) / 2, problems))
        if not problems:
            res.last_good = out
            res.last_good_spin = res.rows[-1].spin
        spin_before = spin_after
    return res


# ---------------------------------------------------------------------- #
# order statistics
# ---------------------------------------------------------------------- #


def median(values) -> float:
    return float(statistics.median(values))


def iqr_frac(values) -> float:
    """Distance between the quartiles as a share of the median."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return float((q[2] - q[0]) / statistics.median(values))


def tail(values) -> float:
    """The highest order statistic with ten samples beyond it (p66 at
    n = 30); with fewer than 30 samples, with a third of them beyond."""
    ordered = sorted(values)
    beyond = min(10, len(ordered) // 3)
    return float(ordered[len(ordered) - 1 - beyond])


# ---------------------------------------------------------------------- #
# host
# ---------------------------------------------------------------------- #


def peak_rss_mb() -> float:
    """Peak resident set (``VmHWM``) of this process plus its live child
    processes (the pooled ranks), in MiB."""
    total_kb = 0
    for pid in [os.getpid()] + [c.pid for c in multiprocessing.active_children()]:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # child exited between listing and reading
    return total_kb / 1024.0


def host_info(seed: int) -> dict:
    """What the numbers were measured on, written next to them."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        sha = "git unavailable"
    return {
        "nproc": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
        "spin_ref_s": SPIN_REF_S,
    }
