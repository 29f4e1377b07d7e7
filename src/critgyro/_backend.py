"""Kernel backend name.

The compute kernels have one implementation, in numpy; `active_backend()`
names it for run manifests.
"""


def active_backend() -> str:
    """Name of the kernel implementation in use (always 'numpy')."""
    return "numpy"
