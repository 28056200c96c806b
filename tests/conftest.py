import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def banded_csr(B):
    """The canonical CSR of a ``specnorm.BandedMatrix``, the reference its
    tests compare against: scipy's DIA matrix of the full layout, folded onto
    n columns.  Each entry is one nonzero term of the fold, so it is exact."""
    n, width = B.shape[0], B.wrap.shape[0]
    fold = sp.csr_array((np.ones(width), B.wrap, np.arange(width + 1)), shape=(width, n))
    X = B._ext().tocsr() @ fold
    X.sort_indices()
    return X


def owned_nbytes(M):
    """Bytes that an array, or a CSR's data, indices and indptr, store of
    their own.  A stride-0 buffer counts 0: its ``nbytes`` counts every
    element of the one value it stores."""
    buffers = (M.data, M.indices, M.indptr) if sp.issparse(M) else (M,)
    return sum(b.nbytes for b in buffers if any(b.strides))


@pytest.fixture
def fresh_python():
    """Run ``python *args`` in a fresh interpreter that imports specbound from src/.

    ``env`` entries override the inherited environment (OpenBLAS thread
    counts, say), and an entry of ``None`` removes that variable.  Returns
    the CompletedProcess with text stdout/stderr; a nonzero exit fails the
    test with the child's stderr.
    """

    def run(*args, env=None, timeout=120):
        child_env = dict(os.environ)
        child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        for name, value in (env or {}).items():
            if value is None:
                child_env.pop(name, None)
            else:
                child_env[name] = value
        proc = subprocess.run(
            [sys.executable, *args], env=child_env, capture_output=True, text=True, timeout=timeout
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    return run


@pytest.fixture
def specbound_cli(fresh_python):
    """Run ``python -m specbound.cli *argv`` in a fresh interpreter (see ``fresh_python``)."""

    def run(*argv, env=None):
        return fresh_python("-m", "specbound.cli", *argv, env=env)

    return run
