"""Tests for the evolution diagrams."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from fractions import Fraction

from ulrich import families
from ulrich.core import parse_partition
from ulrich.diagram import evolution_table, render_ascii, render_svg

from helpers import meetings


def pair_count(table, t: int) -> int:
    """Pairs of entries that share a position at time t."""
    return sum(len(g) * (len(g) - 1) // 2 for g in table.coincidences(t))


class TestEvolutionTable:
    def test_row_count(self):
        P = families.sporadic("121")  # N = 5
        table = evolution_table(P)
        assert len(table.rows) == 7
        assert table.times == range(7)

    def test_default_velocities_centered(self):
        table = evolution_table(families.sporadic("222"))
        assert table.velocities == (-1, -1, 0, 0, 1, 1)

    def test_rows_match_positions(self):
        P = parse_partition("4|3,0|-2")
        table = evolution_table(P)
        assert table.rows[0] == (4, 3, 0, -2)
        assert table.rows[2] == (2, 3, 0, 0)  # velocities -1, 0, 0, +1

    def test_coincidences(self):
        P = parse_partition("4|3,0|-2")
        table = evolution_table(P)
        assert table.coincidences(0) == ()
        # t = 2: entries 4-2=2 and... positions (2, 3, 0, 0): entries 2,3 meet
        assert table.coincidences(2) == ((2, 3),)

    def test_pair_counts_match_schedule(self):
        # for an Ulrich partition the display table shows, at each integer
        # time, exactly the pairs that meet there by the exact definition
        for P in (families.sporadic("322"), families.p_u(1),
                  families.one_n_one(3, (1, -1, 1))):
            table = evolution_table(P)
            times = [t for t, *_ in meetings(P.blocks)]
            for t in range(1, P.dimension + 1):
                want = times.count(Fraction(t))
                assert pair_count(table, t) == want

    def test_triple_coincidence_counts_three_pairs(self):
        # three entries at one spot = three coincident pairs
        P = parse_partition("2|1|0")
        table = evolution_table(P)
        assert table.rows[1] == (1, 1, 1)
        assert table.coincidences(1) == ((0, 1, 2),)
        assert pair_count(table, 1) == 3


class TestAsciiRendering:
    def test_marks_collision_rows(self):
        art = render_ascii(families.sporadic("121"))
        lines = art.splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("t=  0")
        # every time 1..5 hits a collision; 0 and 6 do not
        for t, line in enumerate(lines):
            assert ("*" in line) == (1 <= t <= 5)
            assert ("#" in line) == (1 <= t <= 5)

    def test_shows_all_entries(self):
        art = render_ascii(parse_partition("9|0"))
        first = art.splitlines()[0]
        assert first.count("o") == 2

    def test_no_trailing_whitespace(self):
        art = render_ascii(families.sporadic("222"))
        assert all(line == line.rstrip() for line in art.splitlines())


class TestSvgRendering:
    def test_well_formed_xml(self):
        svg = render_svg(families.sporadic("222"))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_one_line_per_entry(self):
        P = families.sporadic("322")
        root = ET.fromstring(render_svg(P))
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        assert len(lines) == len(P.entries)

    def test_one_dot_per_collision(self):
        P = families.sporadic("121")  # N = 5 simple collisions
        root = ET.fromstring(render_svg(P))
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        assert len(circles) == 5

    def test_block_colors_distinct(self):
        P = parse_partition("4|3,0|-2")
        root = ET.fromstring(render_svg(P))
        colors = {el.get("stroke") for el in root.iter()
                  if el.tag.endswith("line")}
        assert len(colors) == 3  # one color per block
