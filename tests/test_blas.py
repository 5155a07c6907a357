"""Importing avfusion sets numpy's bundled OpenBLAS to one thread even when
numpy was imported first, unless the user set OPENBLAS_NUM_THREADS."""

import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import avfusion

LIBS = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*"))

# imports numpy first, then avfusion; prints OpenBLAS's thread count before
# and after. With HIDE set, avfusion finds the library without its symbol.
SCRIPT = """
import ctypes, os, sys
import numpy
lib = ctypes.CDLL(sys.argv[1])
get_threads = lib.scipy_openblas_get_num_threads64_
if os.environ.get("HIDE"):
    class Hidden(ctypes.CDLL):
        def __getattr__(self, name):
            if name.startswith("scipy_openblas"):
                raise AttributeError(name)
            return super().__getattr__(name)
    ctypes.CDLL = Hidden
before = get_threads()
import avfusion
print(before, get_threads())
"""


def _threads(**env) -> tuple[int, int]:
    src = Path(avfusion.__file__).resolve().parent.parent
    clean = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(src), **env}
    done = subprocess.run([sys.executable, "-c", SCRIPT, LIBS[0]], env=clean,
                          capture_output=True, text=True, timeout=60, check=True)
    before, after = done.stdout.split()
    return int(before), int(after)


pytestmark = pytest.mark.skipif(not LIBS, reason="numpy does not bundle scipy-openblas")


def test_numpy_imported_first_still_gets_one_blas_thread():
    assert _threads()[1] == 1


def test_a_thread_count_the_user_set_wins():
    cores = len(os.sched_getaffinity(0))  # OpenBLAS caps the count at the usable cores
    assert _threads(OPENBLAS_NUM_THREADS="2") == (min(2, cores),) * 2


def test_a_library_without_the_symbol_is_left_as_it_is():
    before, after = _threads(HIDE="1")
    assert after == before
