"""Host record, host-speed calibration, and process accounting
(memory, CPU) read from /proc.

Every result carries the host it was measured on: core count, Python
and numpy versions, the BLAS library with its live thread count, and
the git revision of the checkout (``unknown`` outside a git checkout).
BLAS threads are recorded, never pinned: the thread count changes how
long ensemble training takes, and pinning it here would hide that.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def blas_record() -> Dict[str, object]:
    """Name, version and live thread count of numpy's BLAS."""
    import numpy as np

    name = version = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name", name), blas.get("version", version)
    except (TypeError, KeyError):   # numpy < 1.25 has no dict mode
        pass
    return {"name": name, "version": version, "threads": blas_threads()}


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, or None if it is not OpenBLAS."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_revision(root: Path) -> str:
    """HEAD commit of the checkout at ``root``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(root: Path, seed: int) -> Dict[str, object]:
    import numpy as np

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "machine": platform.machine(),
        "seed": seed,
        "git_revision": git_revision(root),
    }


# -- host speed -------------------------------------------------------------------

#: Median time of one ``calibration_kernel`` call on the host the
#: reference figures were taken on (a 2-vCPU Intel Xeon VM, Python 3.11).
#: Wall times are reported scaled by this over the kernel's median around
#: the same moment: "milliseconds on the reference host".
CALIBRATION_REFERENCE_S = 2.0e-3
#: Kernel samples on either side of a round that judge its host speed.
CALIBRATION_RADIUS = 3


def calibration_kernel() -> int:
    """A fixed piece of pure-Python work, independent of the library.

    Timed between the rounds of a measured loop, it tracks how fast this
    shared host runs the interpreter at that moment.  On a shared VM the
    speed of the same code drifts by a third within minutes.  The
    library's loops drift with the kernel almost one for one, while a
    change to the library leaves the kernel's time alone.
    """
    total = 0
    for i in range(20_000):
        total += i * i % 7
    table = {}
    for i in range(3_000):
        table[str(i)] = i
    return total + len(table)


class HostCalibration:
    """Samples of the kernel's duration taken through one run."""

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        calibration_kernel()
        self.samples.append(time.perf_counter() - t0)


def speed_factor(samples: List[float]) -> float:
    """Reference kernel time over the median of ``samples``: the factor
    that turns wall seconds spent among them into reference seconds."""
    return CALIBRATION_REFERENCE_S / statistics.median(samples)


def speed_factors(samples: List[float], radius: int = CALIBRATION_RADIUS) -> List[float]:
    """Per round, the factor that turns its wall seconds into
    reference-host seconds: the reference kernel time over the median of
    the kernel samples taken within ``radius`` rounds of it.

    The host's slow spells last seconds, many rounds, so a local median
    follows them; a median over the whole run would not, and would
    misjudge the rounds run in a spell.
    """
    return [
        speed_factor(samples[max(0, i - radius) : i + radius + 1]) for i in range(len(samples))
    ]


# -- process accounting ---------------------------------------------------------


def child_pids() -> List[int]:
    """Live child processes of this process (e.g. pool workers)."""
    pids: List[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return sorted(set(pids))


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has used."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def children_cpu_s() -> float:
    """CPU seconds of the live children, summed."""
    total = 0.0
    for pid in child_pids():
        try:
            total += process_cpu_s(pid)
        except OSError:     # exited between listing and reading
            continue
    return total


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids():
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
        except OSError:
            continue
    return kib / 1024.0
