"""Numba/numpy backend selection for the hot kernels.

The environment variable CRITGYRO_BACKEND picks the implementation of the
compute kernels:

    auto   -- numba if importable (the optional `fast` extra), else numpy
              (default)
    numba  -- require numba, fail loudly if missing
    numpy  -- force the pure-numpy/python fallback

Selection happens once at import time; `active_backend()` reports the choice.
Kernels are compiled without fastmath so both paths stay deterministic.
"""

import os

_requested = os.environ.get("CRITGYRO_BACKEND", "auto").strip().lower()
if _requested not in ("auto", "numba", "numpy"):
    raise RuntimeError(
        f"CRITGYRO_BACKEND must be auto, numba or numpy (got {_requested!r})"
    )

_numba_error = None
if _requested in ("auto", "numba"):
    try:
        from numba import njit as _njit
        HAVE_NUMBA = True
    except ImportError as exc:  # pragma: no cover - depends on environment
        HAVE_NUMBA = False
        _numba_error = exc
else:
    HAVE_NUMBA = False

if _requested == "numba" and not HAVE_NUMBA:  # pragma: no cover
    raise RuntimeError("CRITGYRO_BACKEND=numba but numba is not importable") from _numba_error

USE_NUMBA = HAVE_NUMBA and _requested in ("auto", "numba")


def active_backend() -> str:
    """Name of the kernel implementation in use ('numba' or 'numpy')."""
    return "numba" if USE_NUMBA else "numpy"


def jit_kernel(func):
    """Compile `func` with numba when the numba backend is active.

    No-op on the numpy backend, so the same scalar-loop source serves as the
    reference implementation (slow) and the compiled kernel (fast).
    """
    if USE_NUMBA:
        return _njit(cache=True, fastmath=False)(func)
    return func
