"""Ulrich partitions: classification, structure theory, and geometry checks."""

__version__ = "0.1.0"

from . import analysis, core, diagram, families, geometry, search  # noqa: F401
from .core import (  # noqa: F401
    BlockedPartition,
    FlagType,
    UlrichVerdict,
    canonicalize,
    congruence_ok,
    dual,
    evolve,
    format_partition,
    from_blocks,
    is_ulrich,
    parse_partition,
    shift,
    symmetric,
)
