"""Kernel backend selection.

The compute kernels have one implementation, in numpy. The environment
variable CRITGYRO_BACKEND may be unset, `auto` or `numpy`, which all select
it. It is read once, at import; any other value makes `active_backend()`
raise ParameterError, and the estimator calls it before its first kernel,
so a run never silently uses a backend other than the one it asked for.
The CLI checks it first and reports a usage error. `active_backend()` names
the implementation for run manifests.
"""

import os

from .errors import ParameterError

_requested = os.environ.get("CRITGYRO_BACKEND", "auto").strip().lower()


def active_backend() -> str:
    """Name of the kernel implementation in use (always 'numpy')."""
    if _requested not in ("auto", "numpy"):
        raise ParameterError(
            f"CRITGYRO_BACKEND must be auto or numpy (got {_requested!r})"
        )
    return "numpy"
