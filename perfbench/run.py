"""Run one lagflow benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload hw_stopgo --seed 0 --seconds 40 --trace 0

Run it from the root of a lagflow checkout.  The program under test is
imported from that checkout's ``src/``; without it the benchmark stops with
exit code 2 and prints no result.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  ``--quick`` runs a few steps
only, for the self-check in ``suite.py``; its numbers are not comparable.

NumPy's thread pools are pinned to one thread before NumPy is imported, so
a run uses one core whatever the machine offers.

glibc's malloc thresholds are fixed for the whole run (see ``fix_malloc``).
By default glibc moves them as blocks are freed, trims the top of the heap
when enough of it is free, and maps blocks of 128 kB or more afresh when
the heap top cannot serve them.  Which of these happens to lf_box_delay's
entropy temporaries on each step depends on what else lies on the heap: in
a fresh process a simulate takes about 150 000 minor page faults and
1.3-1.7x the time, and the count drifts during a run (150 000 to 190 000)
and falls to 0 once other blocks sit above the temporaries.  With the mmap
threshold at glibc's largest dynamic value (32 MB) and no trimming, blocks
under 32 MB come from a heap that only grows, so once the first sample has
grown it, no sample pays page faults in either mode.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: mallopt parameters from glibc's malloc.h, and the values they are fixed
#: to: the largest mmap threshold glibc sets by itself, and a trim
#: threshold no run reaches.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_FIXED = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 1 << 30))


def fix_malloc() -> str:
    """Fix glibc's malloc thresholds for this process; describe the result."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default (no mallopt in this C library)"
    if not all(mallopt(param, value) == 1 for param, value in MALLOC_FIXED):
        return "not fixed (mallopt refused)"
    return " ".join(f"{name}={value}" for name, (_, value) in zip(("mmap", "trim"), MALLOC_FIXED))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "lagflow" / "__init__.py").is_file():
        print(f"perfbench: no lagflow sources under {src}", file=sys.stderr)
        return 2
    for var in PIN_VARS:
        os.environ[var] = "1"
    args.malloc = fix_malloc()
    sys.path.insert(0, str(src))

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)}")
    return bench.main(args, root)


if __name__ == "__main__":
    sys.exit(main())
