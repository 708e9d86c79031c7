"""Process set-up shared by the benchmark's entry points.

``prepare()`` must run before numpy is imported: OpenBLAS and its peers
read their thread count once, when the library loads.  This module itself
imports only the standard library.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# every variable a BLAS or OpenMP runtime reads for its thread count
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> dict:
    """Pin BLAS to one thread, unset ``DISTILL_LAB_THREADS`` and import from ``src/``.

    Exits with status 2 when the checkout holds no ``src/distill_lab``, so
    the benchmark never measures an installed copy of the library by
    mistake.  Returns what it found, for the environment record.
    """
    package = SRC / "distill_lab" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no library sources at {package.relative_to(ROOT)}", file=sys.stderr)
        raise SystemExit(2)
    found = {"DISTILL_LAB_THREADS_was_set": "DISTILL_LAB_THREADS" in os.environ}
    os.environ.pop("DISTILL_LAB_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return found


def check_import_origin(module) -> None:
    """Exit with status 2 unless ``module`` was loaded from this checkout's ``src/``."""
    origin = Path(module.__file__).resolve()
    if not origin.is_relative_to(SRC):
        print(f"perfbench: imported {module.__name__} from {origin}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
