"""Kernel selection: compiled extension when available, pure Python otherwise.

Callers that need a particular kernel pass its name to ``get_backend``.
"""

from . import _gen_py

try:
    from . import _gen_c
except ImportError:
    _gen_c = None

_active = _gen_py if _gen_c is None else _gen_c

BACKEND = _active.BACKEND


def available_backends():
    names = []
    if _gen_c is not None:
        names.append("c")
    names.append("python")
    return names


def get_backend(name=None):
    """Resolve a kernel module by name ("c", "python", or None for default)."""
    if name is None:
        return _active
    if name == "python":
        return _gen_py
    if name == "c":
        if _gen_c is None:
            raise ValueError("compiled kernel is not available")
        return _gen_c
    raise ValueError(f"unknown kernel backend: {name!r}")
