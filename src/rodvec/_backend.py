"""Kernel backend selection.

The compiled extension ``_kernels_cy`` is used when it imports, the
pure-Python ``_kernels_py`` otherwise.  ``python setup.py build_ext
--inplace`` builds the extension; deleting the built ``.so`` brings back
the fallback.
"""

from __future__ import annotations

try:
    from rodvec import _kernels_cy as kernels
except ImportError:
    from rodvec import _kernels_py as kernels  # type: ignore[no-redef]


def backend_name() -> str:
    """Name of the active kernel backend: "compiled" or "python"."""
    return kernels.BACKEND
