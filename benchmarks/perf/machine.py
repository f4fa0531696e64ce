"""Machine shape and environment pinning, recorded with every result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

#: Single-threaded BLAS: on a shared 2-core box multi-threaded BLAS gave
#: 1.2x CPU/wall and +-40 % wall spread in sizing runs.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(environ=os.environ) -> None:
    """Cap every BLAS pool at one thread, for this process and children.

    Must run before numpy is first imported; ``__main__`` does so.
    """
    for name in BLAS_THREAD_VARS:
        environ[name] = "1"


def usable_cores() -> int:
    """Cores this process may run on — the ``nproc`` of the run protocol."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def machine_shape(seed: int) -> dict:
    """Everything needed to tell whether two results are comparable."""
    import numpy
    import scipy

    from repro.nn import precision

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "usable_cores": usable_cores(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_caps": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "default_dtype": str(precision.default_dtype()),
        "git_commit": _git_commit(),
        "seed": seed,
    }
