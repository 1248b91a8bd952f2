"""Host hygiene and host-clock readings: BLAS pinning, CPU time, peak RSS.

:func:`pin_blas` must run before numpy is first imported: the BLAS thread
pools read these variables once, at load time.  Worker processes started
with ``spawn`` inherit them through the environment.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")


def pin_blas() -> None:
    """One BLAS thread per process.  With BLAS threads floating, the CPU
    spent per request rises several-fold at the same latency on a small
    host, and varies with what else runs there."""
    for name in BLAS_VARIABLES:
        os.environ[name] = "1"


def stop_helper_processes() -> None:
    """Stop, and wait for, every process this run started that is still
    running: children not yet joined, and the shared-memory resource
    tracker that ``multiprocessing`` starts for the process pool.  Left
    alone, the tracker outlives this process and, orphaned, is never
    reaped.  Call it last, after every pool is shut down."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha(root: Path) -> Optional[str]:
    """The checkout's commit, or None outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources; keys fingerprints so that
    runs of different code are never compared."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(root: Path) -> Dict[str, object]:
    import numpy

    return {"nproc": nproc(),
            "blas_threads": {name: os.environ.get(name)
                             for name in BLAS_VARIABLES},
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "git_sha": git_sha(root)}


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc (0 if unreadable)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process, from /proc."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


#: what one :func:`probe` takes on the nominal host; wall times normalised
#: by :class:`HostSpeed` are seconds on a host of exactly this speed
NOMINAL_PROBE_S = 0.010


def probe() -> float:
    """Seconds one fixed pure-Python loop takes now (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class HostSpeed:
    """Host speed sampled between the operations of a timed phase.

    Other tenants of a shared machine slow this process by tens of percent
    for seconds at a time.  Probing between operations, never during one,
    and scaling an operation's wall time by ``NOMINAL_PROBE_S`` over the
    probes around it (a phase's by the median probe) removes most of that
    drift from compile and tuning times, which are pure computation.
    """

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> float:
        """Take one probe; returns the wall seconds it cost, which the
        caller leaves out of the operation it times."""
        start = time.perf_counter()
        self.samples.append(probe())
        return time.perf_counter() - start

    def factor(self) -> float:
        """Scale for a whole phase: from the median probe."""
        return NOMINAL_PROBE_S / statistics.median(self.samples)

    def local_factor(self, index: int) -> float:
        """Scale for the operation between probes ``index`` and
        ``index + 1``."""
        pair = self.samples[index:index + 2]
        return NOMINAL_PROBE_S / (sum(pair) / len(pair))


class ScaledStopwatch:
    """Wall time of a computation that marks its steps, each step scaled to
    the nominal host speed by the probes at its two ends; the probes are
    not timed.  The host's speed changes within seconds, so a long
    computation marks a step every second or so."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.speed = HostSpeed()
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.speed.sample()
        self._start = clock()

    def step(self) -> None:
        elapsed = self.clock() - self._start
        self.speed.sample()
        self.raw_s += elapsed
        self.scaled_s += elapsed * self.speed.local_factor(
            len(self.speed.samples) - 2)
        self._start = self.clock()


class CpuClock:
    """CPU seconds of this process plus a set of worker processes."""

    def __init__(self, worker_pids: Iterable[int] = ()):
        self.worker_pids = [pid for pid in worker_pids if pid]
        self._start = self._read()

    def _read(self) -> float:
        return time.process_time() + sum(process_cpu_s(pid)
                                         for pid in self.worker_pids)

    def elapsed(self) -> float:
        return self._read() - self._start
