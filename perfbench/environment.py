"""Environment record: interpreter, numeric stack, BLAS, machine, sources."""

from __future__ import annotations

import os
from pathlib import Path

from workloads import ROOT


def environment(workload_threads, blas_vars):
    """Interpreter, numeric stack, BLAS and machine facts for the result file."""
    import platform

    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in blas_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload_threads": workload_threads,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def blas_threads():
    """Thread count reported by each OpenBLAS that numpy and scipy bundle."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    out[path.name] = fn()
                    break
    return out


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest():
    """sha256 over the program, its configs and the benchmark's own files."""
    import hashlib

    h = hashlib.sha256()
    for sub, ext in (("src/espritsim", ".py"), ("configs", ".json"), ("perfbench", ".py")):
        folder = os.path.join(ROOT, sub)
        for name in sorted(os.listdir(folder)):
            if name.endswith(ext):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(f"{sub}/{name}\n".encode() + fh.read())
    return h.hexdigest()
