"""Evolution diagrams: watch the blocks drift and collide.

The evolution table records every entry's position at integer times
t = 0..N+1.  For display the velocities are shifted by a common drift
(r // 2, so a three-block partition moves as -1, 0, +1), which changes no
coincidence: collisions are velocity-difference phenomena.

``render_ascii`` draws one text row per time with coincidences marked;
``render_svg`` draws the world lines as an SVG string with collision dots.
Both are meant for inspecting small examples; widths grow linearly with the
position span.
"""

from __future__ import annotations

from . import core
from .core import BlockedPartition, Frozen


class EvolutionTable(Frozen):
    """Positions of every entry at times 0..N+1 under display velocities.

    ``velocities`` has one per entry, drift applied; ``rows[t][i]`` is the
    position of entry i at time t.
    """

    __slots__ = ("partition", "velocities", "rows")
    _fields = __slots__

    def __init__(self, partition: BlockedPartition,
                 velocities: tuple[int, ...],
                 rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "velocities", velocities)
        object.__setattr__(self, "rows", rows)

    @property
    def times(self) -> range:
        return range(len(self.rows))

    def coincidences(self, t: int) -> tuple[tuple[int, ...], ...]:
        """Groups of entry indices sharing a position at time t (size >= 2)."""
        where: dict[int, list[int]] = {}
        for i, p in enumerate(self.rows[t]):
            where.setdefault(p, []).append(i)
        return tuple(tuple(g) for _, g in sorted(where.items()) if len(g) > 1)


def evolution_table(P: BlockedPartition) -> EvolutionTable:
    """Tabulate positions for t = 0..N+1.

    An entry of block b moves with velocity ``core.velocity(b, r)`` plus
    the centering drift r // 2.
    """
    r = P.type.r
    drift = r // 2
    velocities = tuple(core.velocity(b, r) + drift
                       for b, l in enumerate(P.type.lengths) for _ in range(l))
    N = P.dimension
    rows = tuple(tuple(e + t * v for e, v in zip(P.entries, velocities))
                 for t in range(N + 2))
    return EvolutionTable(P, velocities, rows)


def render_ascii(P: BlockedPartition) -> str:
    """One row per time; 'o' is an entry, '#' a coincidence of two or more."""
    table = evolution_table(P)
    lo = min(min(row) for row in table.rows)
    hi = max(max(row) for row in table.rows)
    width = hi - lo + 1
    lines = []
    for t in table.times:
        strip = [" "] * width
        seen: dict[int, int] = {}
        for p in table.rows[t]:
            seen[p] = seen.get(p, 0) + 1
        for p, count in seen.items():
            strip[p - lo] = "o" if count == 1 else "#"
        marker = "*" if table.coincidences(t) else " "
        lines.append(f"t={t:>3}{marker} {''.join(strip).rstrip()}")
    return "\n".join(lines)


def render_svg(P: BlockedPartition, pitch: int = 12) -> str:
    """World lines as SVG; collision times carry a dot per coincident group."""
    table = evolution_table(P)
    lo = min(min(row) for row in table.rows)
    hi = max(max(row) for row in table.rows)
    tmax = len(table.rows) - 1
    margin = pitch
    w = (hi - lo) * pitch + 2 * margin
    h = tmax * pitch + 2 * margin

    def X(p):
        return margin + (p - lo) * pitch

    def Y(t):
        return margin + t * pitch

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
               "#e377c2"]
    block_of = [b for b, l in enumerate(P.type.lengths) for _ in range(l)]
    for i, (e, v) in enumerate(zip(P.entries, table.velocities)):
        color = palette[block_of[i] % len(palette)]
        parts.append(
            f'<line x1="{X(e)}" y1="{Y(0)}" x2="{X(e + tmax * v)}" '
            f'y2="{Y(tmax)}" stroke="{color}" stroke-width="1.5"/>')
    for t in table.times:
        for group in table.coincidences(t):
            p = table.rows[t][group[0]]
            parts.append(
                f'<circle cx="{X(p)}" cy="{Y(t)}" r="{pitch / 4}" '
                f'fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)
