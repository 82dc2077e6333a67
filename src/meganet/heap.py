"""Give freed heap memory back to the operating system around whole-graph work.

A training run or an eval forward allocates and frees many temporaries of
a few hundred KB to a few MB. glibc keeps freed heap memory resident and
places later allocations in whatever holes fit, so without a trim the
resident size of a pass depends on the allocation history of the whole
process: on what ran before it, and on how many passes ran. Trimming when
the outermost such call starts makes its peak the memory still live plus
its own working set. train_model, whose working set is the largest and is
dead once it returns, trims when it ends as well; an eval forward does not,
so what it frees stays resident for whatever runs next.

Where the C library has no malloc_trim (macOS, musl, Windows) this does
nothing.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager


def _find_malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


_malloc_trim = _find_malloc_trim()
_inside = threading.local()


@contextmanager
def trimmed_heap(on_exit: bool = True):
    """Trim the heap on entering the outermost such block, and on leaving it.

    Nested blocks, as an eval forward inside train_model, trim nothing.
    Usable as a decorator: @trimmed_heap().
    """
    if _malloc_trim is None or getattr(_inside, "flag", False):
        yield
        return
    _inside.flag = True
    _malloc_trim(0)
    try:
        yield
    finally:
        _inside.flag = False
        if on_exit:
            _malloc_trim(0)
