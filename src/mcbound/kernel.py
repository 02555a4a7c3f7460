"""Kernel selection: compiled extension when available, pure Python otherwise.

``BACKEND`` names the default kernel, known from whether the compiled one
imports, so reading it loads no pure-Python kernel: ``_gen_py`` is imported
the first time ``get_backend`` returns it.  Callers that need a particular
kernel pass its name to ``get_backend``.
"""

try:
    from . import _gen_c
except ImportError:
    _gen_c = None

# The default kernel; None until get_backend first needs the pure-Python one.
_active = _gen_c

BACKEND = "python" if _gen_c is None else _gen_c.BACKEND


def available_backends():
    names = []
    if _gen_c is not None:
        names.append("c")
    names.append("python")
    return names


def _python():
    from . import _gen_py
    return _gen_py


def get_backend(name=None):
    """Resolve a kernel module by name ("c", "python", or None for default)."""
    global _active
    if name is None:
        if _active is None:
            _active = _python()
        return _active
    if name == "python":
        return _python()
    if name == "c":
        if _gen_c is None:
            raise ValueError("compiled kernel is not available")
        return _gen_c
    raise ValueError(f"unknown kernel backend: {name!r}")
