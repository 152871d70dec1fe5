"""Ulrich partitions: classification, structure theory, and geometry checks.

``import ulrich`` loads no submodule.  Each of ``analysis``, ``core``,
``diagram``, ``families``, ``geometry`` and ``search`` loads on first use:
``ulrich.search`` imports ``search`` then (PEP 562), as does ``from ulrich
import search``.  A CLI start thus loads only what its command runs.
"""

__version__ = "0.1.0"

_LAZY = ("analysis", "core", "diagram", "families", "geometry", "search")


def __getattr__(name):
    if name in _LAZY:
        # The import binds the submodule on the package, so this hook runs
        # at most once per name.  __import__ spares a start the importlib
        # package.
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
