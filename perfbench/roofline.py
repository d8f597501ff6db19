"""Host memory-bandwidth probe: ``np.bitwise_xor`` over large arrays.

The guide for bandwidth roofs asks for arrays at least four times the
last-level cache.  When that would exceed :data:`PROBE_BYTES_MAX` per
array (hosts reporting very large shared caches), the probe runs at the
cap and the result is flagged: a kernel's bytes per operation is then
reported without a roofline ratio.
"""

from __future__ import annotations

import re
import subprocess
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

PROBE_BYTES_MAX = 128 << 20  # per array; the probe holds two
_UNITS = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def llc_bytes() -> Optional[int]:
    """Size of the largest cache level ``lscpu`` reports (all instances)."""
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    sizes = [int(float(num) * _UNITS[unit[0]])
             for num, unit in re.findall(
                 r"^L\d\w? cache:\s+([\d.]+)\s*([KMG])i?B", out, re.M)]
    return max(sizes) if sizes else None


@dataclass
class Probe:
    gbps: float  # bytes read + written per second / 1e9
    array_bytes: int
    llc_bytes: Optional[int]

    @property
    def roofline_valid(self) -> bool:
        return self.llc_bytes is not None and self.array_bytes >= 4 * self.llc_bytes


def xor_probe(repeats: int = 7) -> Probe:
    """Median bandwidth of ``a ^= b`` (two reads, one write per word)."""
    llc = llc_bytes()
    want = 4 * llc if llc else PROBE_BYTES_MAX
    nbytes = min(want, PROBE_BYTES_MAX) // 8 * 8
    a = np.full(nbytes // 8, 0x5555, dtype=np.uint64)
    b = np.arange(nbytes // 8, dtype=np.uint64)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        np.bitwise_xor(a, b, out=a)
        times.append(perf_counter() - t0)
    times.sort()
    return Probe(3 * nbytes / times[len(times) // 2] / 1e9, nbytes, llc)
