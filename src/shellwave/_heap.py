"""Keep freed solver arrays in the process heap, where the C library allows.

A full collocation solve allocates arrays of a few MB and frees them when it
returns.  glibc serves blocks that large with mmap and gives them back to the
OS on free, or trims them off the heap top, so the next solve faults the same
memory in again page by page.  Here the mmap threshold is raised to 32 MiB and
the trim threshold to 256 MiB; setting either turns off glibc's dynamic
threshold, so both are set.  The heap then keeps its high-water mark until the
process exits.  Where the C library has no ``mallopt`` (not glibc) this does
nothing.
"""

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_arrays() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_arrays()
