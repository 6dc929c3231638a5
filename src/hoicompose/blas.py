"""The BLAS numpy loaded, and a pin of OpenBLAS to one thread.

OpenBLAS picks other kernels for the classifiers' small products when it runs
on more than one thread, which changes the spatial classifier's bytes, and at
those sizes the second thread costs more than it saves. The library is the
one /proc/self/maps shows loaded. Without one whose thread count can be set
(another BLAS, or no /proc), one_thread() does nothing and blas_info()
reports core and threads as None.
"""
from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache

import numpy as np

# (prefix, suffix) of the OpenBLAS symbols: scipy-openblas's 64-bit integer
# build, a plain 64-bit integer build, and the plain library
SPELLINGS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))
# name -> (argtypes, restype) of the calls read
CALLS = {"get_num_threads": ([], ctypes.c_int), "set_num_threads": ([ctypes.c_int], None),
         "get_corename": ([], ctypes.c_char_p)}


@cache
def _openblas() -> dict:
    """{name: ctypes function} of CALLS in the loaded OpenBLAS; {} when no loaded
    library has all of them."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping that is not a loadable file, such as a deleted one
            continue
        for prefix, suffix in SPELLINGS:
            fns = {name: getattr(lib, f"{prefix}{name}{suffix}", None) for name in CALLS}
            if all(fns.values()):
                for name, fn in fns.items():
                    fn.argtypes, fn.restype = CALLS[name]
                return fns
    return {}


def blas_info() -> dict:
    """numpy's BLAS: {"name", "version", "core", "threads"}, the last two the
    core type OpenBLAS picked its kernels for and its thread count now, both
    None without an OpenBLAS whose thread count can be set."""
    try:
        build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 only prints its build configuration
        build = {}
    fns = _openblas()
    return {"name": build.get("name"), "version": build.get("version"),
            "core": fns["get_corename"]().decode() if fns else None,
            "threads": fns["get_num_threads"]() if fns else None}


@contextmanager
def one_thread():
    """Run the block with OpenBLAS on one thread, then give it back the count
    it had, also when the block raises. Pins nest. The count is the process's,
    so two threads must not hold pins at once."""
    fns = _openblas()
    if not fns:
        yield
        return
    threads = fns["get_num_threads"]()
    fns["set_num_threads"](1)
    try:
        yield
    finally:
        fns["set_num_threads"](threads)
