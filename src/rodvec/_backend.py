"""Kernel backend selection.

The compiled extension ``_kernels_c``, built from the hand-written
``_kernels_c.c``, is used when it imports, the pure-Python reference
``_kernels_py`` otherwise; the two give the same bits.  ``python setup.py
build_ext --inplace`` builds the extension; deleting the built ``.so``
brings back the fallback.
"""

try:
    from rodvec import _kernels_c as kernels
except ImportError:
    from rodvec import _kernels_py as kernels  # type: ignore[no-redef]


def backend_name() -> str:
    """Name of the active kernel backend: "compiled" or "python"."""
    return kernels.BACKEND
