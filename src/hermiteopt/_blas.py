"""Hold numpy's OpenBLAS to one thread while a solve runs.

At the solver's matrix sizes OpenBLAS worker threads cost CPU time
without saving wall time, and they compete with the processes of a
parallel plan for the cores.  The lookup reopens numpy's `linalg`
extension with `RTLD_NOLOAD`, so it touches only a library the process
has loaded, and finds OpenBLAS's own thread-count entry points through
it (a symbol lookup on a handle also searches the libraries it links).
It runs on first use, not at import.  Where it finds none (MKL,
Accelerate, no `RTLD_NOLOAD` as on Windows) a hold changes nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading

# symbol names of numpy's scipy-openblas wheels (64- and 32-bit integer
# builds) and of a plain OpenBLAS build
_ENTRY_NAMES = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def find_openblas():
    """OpenBLAS's ``(get_num_threads, set_num_threads)`` as linked by
    numpy's linear algebra, or None when they cannot be found."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__, mode=noload | os.RTLD_LAZY)
    except OSError:
        return None
    for name in _ENTRY_NAMES:
        try:
            get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class ThreadLimit:
    """Reusable context manager that holds the BLAS `lookup` finds to one
    thread.  Holds nest and may overlap across Python threads: the first
    one in saves the count and sets it to one, the last one out restores
    it, on an exception too."""

    def __init__(self, lookup=find_openblas):
        self._lookup = lookup
        self._entry = None
        self._looked_up = False
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    def __enter__(self) -> None:
        with self._lock:
            if not self._looked_up:
                self._entry, self._looked_up = self._lookup(), True
            if self._entry is not None and self._depth == 0:
                get, set_ = self._entry
                self._saved = get()
                set_(1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._entry is not None and self._depth == 0:
                self._entry[1](self._saved)


one_blas_thread = ThreadLimit()
