"""A batch as two halves on two threads, with OpenBLAS at one thread while they run.

Most of a step is elementwise numpy work on one thread, and idle OpenBLAS
threads spin on the second core, so the halves run concurrently only with
BLAS set to one thread; the count it had is put back afterwards. Two
workers run only when OpenBLAS (found through numpy's own extension) has at
least two threads and the process may run on at least two CPUs; otherwise
the halves run one after the other. The split itself never depends on that.
"""

from __future__ import annotations

import os
import threading

_lock = threading.Lock()  # held over set-and-restore of the BLAS thread count
_openblas_functions: tuple | None = None  # (get, set), or () when not found; looked up once
_pool = None  # the one worker thread, started on first use
_malloc_trim = None  # glibc's, looked up when the worker starts
_worker_ran = False  # a half ran on the worker since its memory was last released


def _openblas():
    """OpenBLAS's ``(get_num_threads, set_num_threads)``, or None for another BLAS."""
    global _openblas_functions
    if _openblas_functions is None:
        import ctypes
        try:
            from numpy._core import _multiarray_umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath
        try:
            lib = ctypes.CDLL(_multiarray_umath.__file__)  # dlsym searches its dependencies
        except OSError:
            lib = None
        names = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")
        pairs = ((getattr(lib, name.format("get_num_threads"), None),
                  getattr(lib, name.format("set_num_threads"), None)) for name in names)
        found = next((pair for pair in pairs if all(pair)), ())
        if found:
            found[0].restype, found[0].argtypes = ctypes.c_int, []
            found[1].restype, found[1].argtypes = None, [ctypes.c_int]
        _openblas_functions = found
    return _openblas_functions or None


def workers() -> int:
    """2 when OpenBLAS runs two or more threads on two or more usable CPUs, else 1."""
    blas = _openblas()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 2 if blas is not None and blas[0]() >= 2 and (cpus or 1) >= 2 else 1


def halves(n: int) -> list[slice]:
    """``[0, ceil(n/2))`` and the rest of ``n`` examples, or all of them when ``n < 2``."""
    if n < 2:
        return [slice(0, n)]
    return [slice(0, (n + 1) // 2), slice((n + 1) // 2, n)]


def run_halves(fn, args: list[tuple]) -> list:
    """``[fn(*a) for a in args]``; with two argument tuples and two workers the
    second runs on the worker thread while the caller runs the first.

    ``np.errstate`` does not carry over to the worker: ``fn`` enters its own.
    An exception of either half reaches the caller unchanged, the first
    half's when both raise, and only after both halves have finished.
    """
    if len(args) < 2 or workers() < 2:
        return [fn(*a) for a in args]
    global _pool, _malloc_trim, _worker_ran
    get, set_ = _openblas()
    with _lock:
        if _pool is None:
            import ctypes
            from concurrent.futures import ThreadPoolExecutor
            libc = ctypes.CDLL(None) if os.name == "posix" else None
            _malloc_trim = getattr(libc, "malloc_trim", None)
            if _malloc_trim is not None:
                _malloc_trim.restype, _malloc_trim.argtypes = ctypes.c_int, [ctypes.c_size_t]
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hashmixer-half")
        _worker_ran = True
        threads = get()
        set_(1)
        try:
            second = _pool.submit(fn, *args[1])
            try:
                first = fn(*args[0])
            finally:
                second.exception()  # waits; the worker half never outlives this call
            return [first, second.result()]
        finally:
            set_(threads)


def release_memory() -> None:
    """Give back the memory the worker's halves freed, if a half ran there since the last call.

    glibc keeps freed memory in each thread's own malloc arena, up to a trim
    threshold that grows to 64 MB with large arrays, and only that thread
    reuses it; without this, the worker's share of a batch stays resident
    while the caller goes on to other work. ``malloc_trim`` is glibc's;
    elsewhere this does nothing.
    """
    global _worker_ran
    with _lock:
        if _worker_ran and _malloc_trim is not None:
            _malloc_trim(0)
        _worker_ran = False
