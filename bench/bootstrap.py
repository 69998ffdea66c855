"""Process set-up shared by the benchmark's entry points.

``prepare()`` must run before NumPy is first imported: OpenBLAS reads its
thread count once, at load time.  It also makes ``cvrep`` importable from
this checkout's ``src/`` and refuses to run against any other copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if not (SRC / "cvrep" / "cli.py").is_file():
        sys.exit(f"error: no cvrep sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cvrep

    if Path(cvrep.__file__).resolve().parent != SRC / "cvrep":
        sys.exit(f"error: imported cvrep from {cvrep.__file__}, not from {SRC}")
