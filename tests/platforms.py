"""What an emulated-platform test needs to know of the running numpy: its CPU features and BLAS kernels."""

import ctypes
import glob
import os

import numpy as np


def cpu_features():
    """numpy's map of CPU feature names to whether its SIMD dispatch may use them."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def openblas_core():
    """The kernel family numpy's bundled OpenBLAS runs, or None where it bundles no OpenBLAS."""
    root = os.path.dirname(np.__file__)
    for lib in glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*")) + glob.glob(
        os.path.join(root, ".dylibs", "*openblas*")
    ):
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            if hasattr(dll, name):
                corename = getattr(dll, name)
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None
