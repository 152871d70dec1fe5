"""The package's value types: the frozen-dataclass contract and a light import.

Every value class derives from ``core.Frozen``.  These tests pin the
frozen-dataclass contract it keeps (equality, hash, ``repr``, immutability,
pickling, keyword construction with defaults), the type constants
``FlagType`` computes once, and that starting the CLI loads no module it
does not use.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import shutil
from fractions import Fraction

import pytest

from ulrich import analysis, cli, core, diagram, geometry, search
from ulrich.core import FlagType

from helpers import fresh_stdout

_P = core.parse_partition("5|3,-1,-2,-4|-5")

# One sample per class: its constructor arguments by keyword, in order.
SAMPLES = [
    (core.FlagType, dict(lengths=(1, 2, 1))),
    (core.BlockedPartition, dict(type=FlagType((1, 4, 1)),
                                 entries=(5, 3, -1, -2, -4, -5))),
    (search.SearchReport, dict(type=FlagType((1, 4, 1)), classes=(_P,),
                               nodes=7, elapsed=0.25, completed=True,
                               mirror_of=(1, 4, 1))),
    (analysis.PreUlrichTriple, dict(a=(5,), b=(3, -1), c=(-5,))),
    (analysis.GreedyWord, dict(letters="aca")),
    (geometry.SchurWeight, dict(type=FlagType((1, 2)), entries=(4, 2, 2))),
    (geometry.CohomologyAnswer, dict(degree=1, dimension=6,
                                     weight=(2, 1, 0))),
    (geometry.PolarizationWeights, dict(a=(1, 2))),
    (diagram.EvolutionTable, dict(velocities=(-1, 0, 1),
                                  rows=((5, 3, -1), (4, 3, 0)))),
]

# Modules a CLI start does not use; dataclasses would pull in inspect, and
# fractions would pull in decimal.  The handlers import json and the
# submodules they run; core imports math when it finds a witness; and
# argparse's own width lookup would import shutil, which loads zlib, bz2
# and lzma.
HEAVY = ("dataclasses", "inspect", "multiprocessing", "fractions", "decimal",
         "json", "_json", "math", "shutil", "zlib", "_bz2", "_lzma",
         "ulrich.search", "ulrich.geometry", "ulrich.diagram")


def _ids(sample):
    return sample[0].__name__


class TestContract:
    @pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
    def test_equal_fields_equal_objects(self, sample):
        cls, kwargs = sample
        a, b = cls(**kwargs), cls(*kwargs.values())
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
    def test_not_equal_to_other_class_or_field_tuple(self, sample):
        cls, kwargs = sample
        value = cls(**kwargs)
        other_cls, other_kwargs = SAMPLES[(SAMPLES.index(sample) + 1)
                                          % len(SAMPLES)]
        assert value != other_cls(**other_kwargs)
        fields = tuple(kwargs.values())
        assert value != fields and value != fields[0]

    def test_same_fields_in_another_class_differ(self):
        ft = FlagType((1, 2))
        P = core.BlockedPartition(ft, (4, 2, 1))
        w = geometry.SchurWeight(ft, (4, 2, 1))
        assert P != w and w != P

    @pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
    def test_repr_has_the_dataclass_form(self, sample):
        cls, kwargs = sample
        fields = ", ".join(f"{k}={v!r}" for k, v in kwargs.items())
        assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"

    @pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
    def test_frozen(self, sample):
        cls, kwargs = sample
        value = cls(**kwargs)
        name = next(iter(kwargs))
        with pytest.raises(AttributeError):
            setattr(value, name, kwargs[name])
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == kwargs[name]

    @pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
    def test_pickle_and_copy(self, sample):
        cls, kwargs = sample
        value = cls(**kwargs)
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert type(twin) is cls
            assert twin == value and hash(twin) == hash(value)

    def test_keyword_defaults(self):
        report = search.SearchReport(type=FlagType((1, 1)), classes=(),
                                     nodes=1, elapsed=0.0, completed=True)
        assert report.mirror_of is None

    def test_validation_holds(self):
        with pytest.raises(ValueError):
            core.BlockedPartition(FlagType((1, 1)), (0, 0))
        with pytest.raises(ValueError):
            core.BlockedPartition(FlagType((1, 2)), (3, 2))
        with pytest.raises(ValueError):
            analysis.PreUlrichTriple((1,), (3,), ())
        with pytest.raises(ValueError):
            geometry.SchurWeight(FlagType((1, 2)), (4, 1, 2))
        with pytest.raises(ValueError):
            geometry.PolarizationWeights((1, 0))


def _types(max_blocks: int, max_total: int):
    """Every length vector with 2..max_blocks blocks, zeros allowed, whose
    total is 2..max_total."""
    for blocks in range(2, max_blocks + 1):
        for total in range(2, max_total + 1):
            for cuts in itertools.combinations_with_replacement(
                    range(total + 1), blocks - 1):
                bounds = (0,) + cuts + (total,)
                yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


class TestFlagTypeConstants:
    def test_n_and_dimension_by_definition(self):
        for lengths in _types(5, 12):
            ft = FlagType(lengths)
            assert ft.n == sum(lengths)
            assert ft.dimension == sum(
                lengths[i] * lengths[j] for i in range(len(lengths))
                for j in range(i + 1, len(lengths)))

    def test_constants_take_no_part_in_equality(self):
        assert repr(FlagType((2, 3))) == "FlagType(lengths=(2, 3))"
        assert pickle.loads(pickle.dumps(FlagType((2, 3)))).dimension == 6


class TestLightImport:
    def test_cli_start_loads_no_heavy_module(self):
        out = fresh_stdout("import ulrich.cli; ulrich.cli.build_parser(); "
                           f"print(' '.join(m for m in {HEAVY!r} "
                           "if m in sys.modules))")
        assert out.split() == []

    def test_submodules_load_on_first_use(self):
        out = fresh_stdout("import ulrich; "
                           "print('ulrich.search' in sys.modules, "
                           "ulrich.search.__name__, ulrich.geometry.__name__, "
                           "'search' in dir(ulrich))\n"
                           "try:\n    ulrich.nope\n"
                           "except AttributeError as exc:\n    print(exc)")
        assert out.splitlines() == [
            "False ulrich.search ulrich.geometry True",
            "module 'ulrich' has no attribute 'nope'"]

    @pytest.mark.parametrize("columns", [None, "0", "x", "30", "120"])
    def test_help_width_matches_shutil(self, columns, monkeypatch):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        assert cli._terminal_columns() == shutil.get_terminal_size().columns

    def test_failure_witness_still_a_fraction(self):
        witness = core.witness(core.parse_partition("5|3,-1|-5"))
        assert witness == ("missing-time", Fraction(1))
        assert isinstance(witness[1], Fraction)
