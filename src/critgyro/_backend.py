"""Kernel backend selection.

The compute kernels have one implementation, in numpy. The environment
variable CRITGYRO_BACKEND may be unset, `auto` or `numpy`, which all select
it; any other value is refused at import, so a run never silently uses a
backend other than the one it asked for. `active_backend()` names the
implementation for run manifests.
"""

import os

_requested = os.environ.get("CRITGYRO_BACKEND", "auto").strip().lower()
if _requested not in ("auto", "numpy"):
    raise RuntimeError(
        f"CRITGYRO_BACKEND must be auto or numpy (got {_requested!r})"
    )


def active_backend() -> str:
    """Name of the kernel implementation in use (always 'numpy')."""
    return "numpy"
