"""Paths, statistics, resource readings and child-process clean-up shared
by the benchmark files."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

#: root of the checkout the benchmark runs in (this file's parent's parent)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: generated files: reference-digest cache, span dumps, Chrome traces
OUT = ROOT / ".perfbench_out"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` (nothing to build)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_hash() -> str:
    """Digest of every ``src/repro`` Python file, keying cached references
    so a code change never reuses a reference the old code computed."""
    h = hashlib.sha256()
    for p in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cached_reference(key: str, compute) -> dict:
    """Load the reference stored under ``key``, computing it on a miss."""
    path = OUT / "refs" / f"{key}-{source_hash()}.json"
    if path.is_file():
        return json.loads(path.read_text())
    ref = compute()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ref))
    tmp.replace(path)
    return ref


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every worker process this run started has exited;
    terminate any still running after ``timeout`` seconds."""
    deadline = perf_counter() + timeout
    while multiprocessing.active_children() and perf_counter() < deadline:
        for p in multiprocessing.active_children():
            p.join(timeout=0.1)
    for p in multiprocessing.active_children():
        p.terminate()
        p.join()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker helper and wait for it.

    The first shared-memory segment (``mode="process"`` publishes the
    graph in them) starts the tracker as a separate process.  It is no
    ``multiprocessing`` child, and left alone it outlives this process
    until it notices the exit.  Call only after every worker is reaped:
    the tracker ends when the last copy of its pipe is closed.
    """
    from multiprocessing import resource_tracker

    # closes the pipe and waits for the process; a no-op if none started
    resource_tracker._resource_tracker._stop()


def stop_child_processes() -> None:
    """Reap every worker, then stop the resource tracker."""
    reap_children()
    stop_resource_tracker()


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set among reaped child processes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: Sequence[float], min_beyond: int = 10) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(percentile, value, n)`` or None when the sample is too
    small for any percentile above the median to qualify.
    """
    n = len(values)
    p = (100 * (n - min_beyond)) // n if n > min_beyond else 0
    if p <= 50:
        return None
    rank = -(-n * p // 100)  # nearest-rank: ceil(n * p / 100)
    return float(p), sorted(values)[rank - 1], n


def print_metrics(metrics: Dict[str, Tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def median(values: List[float]) -> float:
    return float(statistics.median(values))
