"""The machine and software a result was measured on."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    """{"L2": "4096K", "L3": ...} from sysfs for cpu0."""
    out = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _openblas_threads(package, pattern, symbol):
    """Thread count of the OpenBLAS that ``package`` bundles, via ctypes."""
    libs = glob.glob(os.path.join(os.path.dirname(package.__file__), os.pardir, pattern))
    if not libs:
        return None
    try:
        fn = getattr(ctypes.CDLL(libs[0]), symbol)
    except (OSError, AttributeError):
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return {"library": os.path.basename(libs[0]), "threads": int(fn())}


def _git_commit(root):
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = Path(root, ".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, nproc):
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {
            "numpy": _openblas_threads(numpy, "numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
            "scipy": _openblas_threads(scipy, "scipy.libs/libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
        },
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "git_commit": _git_commit(root),
    }
