"""Thread control of the OpenBLAS behind numpy.linalg.

``one_thread()`` runs BLAS at one thread for the duration of a block.  A
multi-threaded BLAS splits its sums differently at different thread counts,
so the last digits of a result depend on the count.  Every sweep, of one
point (``measure_state``) or many, runs inside such a block (``figures``),
so its output does not depend on the BLAS thread settings.  Without
OpenBLAS's thread control (MKL, Accelerate builds) the block does nothing.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

import numpy as np

#: (get, set) thread-count symbols: the bundled scipy-openblas of numpy's
#: wheels, then a plain OpenBLAS.
SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# the BLAS thread count belongs to the process, and so do the number of
# blocks holding it at one thread and the count to put back after them
_lock = threading.Lock()
_pins = 0
_saved = None


def thread_control():
    """(get, set) of the BLAS thread count numpy.linalg runs at, or None.

    dlsym on numpy's linalg extension also searches the libraries it links,
    so this finds a bundled or a system OpenBLAS.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for get_name, set_name in SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.restype, get.argtypes = ctypes.c_int, ()
        set_.restype, set_.argtypes = None, (ctypes.c_int,)
        return get, set_
    return None


@contextmanager
def one_thread():
    """BLAS at one thread until the outermost of any concurrent such blocks
    ends, which puts back the count the first one found."""
    global _pins, _saved
    control = thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    with _lock:
        if _pins == 0:
            _saved = get()
            set_(1)
        _pins += 1
    try:
        yield
    finally:
        with _lock:
            _pins -= 1
            if _pins == 0:
                set_(_saved)
