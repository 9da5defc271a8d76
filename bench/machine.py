"""Worker environment (BLAS threads pinned before numpy loads) and the
per-run environment record."""

import os
import platform

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def worker_env():
    """Environment for a worker process: the checkout's ``src`` first on the
    path, BLAS pinned, and no ``FRACSPEC_THREADS`` (it cannot act after
    numpy has loaded, so the benchmark pins the count itself)."""
    env = dict(os.environ)
    env.pop("FRACSPEC_THREADS", None)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _openblas_runtime():
    """(threads, config) reported by the OpenBLAS that numpy loaded, or
    (None, None) when it cannot be queried."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return get_threads(), get_config().decode()
    return None, None


def record():
    """nproc, BLAS threads (pinned and as OpenBLAS reports them) and the
    versions the run used. Call after numpy is imported."""
    import numpy
    import scipy

    threads, config = _openblas_runtime()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": threads,
        "openblas": config,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
