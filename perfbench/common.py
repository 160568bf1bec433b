"""Shared pieces of the benchmark: paths, the BLAS setting, statistics and
resource readings.

Every process the benchmark starts, and the benchmark process itself, runs
with the BLAS and OpenMP thread counts fixed to ``BLAS_THREADS`` (set in the
environment before numpy is first imported).
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
from pathlib import Path

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def pin_blas_threads(env=None):
    """Fix the BLAS thread count in ``env`` (default: this process)."""
    env = os.environ if env is None else env
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def child_env() -> dict:
    """Environment for a child interpreter: pinned BLAS, qmetric from ./src."""
    env = pin_blas_threads(dict(os.environ))
    env["PYTHONPATH"] = str(SRC)
    env.pop("QMETRIC_CAP", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class CheckoutError(RuntimeError):
    """The checkout holds no qmetric sources to measure."""


def import_qmetric():
    """Import qmetric from the checkout's ``src`` and nowhere else."""
    init = SRC / "qmetric" / "__init__.py"
    if not init.is_file():
        raise CheckoutError(f"no qmetric sources at {init.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("QMETRIC_CAP", None)
    import qmetric

    if Path(qmetric.__file__).resolve() != init.resolve():
        raise CheckoutError(f"qmetric imported from {qmetric.__file__}, not from the checkout")
    return qmetric


def median(values) -> float:
    return float(statistics.median(values))


def cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_self_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
