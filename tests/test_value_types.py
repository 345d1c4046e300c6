"""The contract every immutable value type keeps.

Each type is built from its fields, positionally or by keyword, with the
defaults it documents.  Two values are equal when they are of the same
class with equal fields, equal values hash alike (a type with a dict
field is unhashable), ``repr`` reads ``Name(field=value, ...)``, no field
can be assigned or deleted, and a value survives ``pickle`` and
``copy.copy``.  An unknown field, a field given twice and a missing
field are each a ``TypeError``.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import bibmet
from bibmet.collab import ClassSummary, CollabReport, CollabRow
from bibmet.corpus import Corpus, PublicationRecord
from bibmet.growth import (
    BlockMeans, BlockSummary, GrowthRatios, GrowthReport, GrowthRow, RgrSeries)
from bibmet.lotka import KSReport, KSRow, LotkaFit
from bibmet.synth import CorpusSpec, PowerLawSpec
from bibmet.tables import AuthorshipMatrix, ProductivityDistribution, Value, YearlySeries
from bibmet.wos import ExportRun, WosParseResult

RECORD = PublicationRecord("WOS:1", 2001, ("Ames, A", "Bell, B"))
GROWTH_ROW = GrowthRow(2002, 5, 12, 0.5, 0.4, None)
BLOCK = BlockSummary(2002, 2005, 0.4, 1.7)
COLLAB_ROW = CollabRow("2001", 3, 5, 1.67, 0.67, 120.0, {"single": 80.0, "multi": 120.0},
                       0.3, None)
CLASS_SUMMARY = ClassSummary(2, 3, 6, 50.0)
KS_ROW = KSRow(1, 10, 0.7, 0.7, 0.6, 0.6, 0.1)

# (type, its fields in order, a value for each, how many have no default,
#  (index, another valid value) of one field to change)
CASES = [
    (YearlySeries, ("entries",), (((2001, 5), (2002, 0), (2004, 7)),), 1,
     (0, ((2001, 5),))),
    (AuthorshipMatrix, ("classes", "years", "counts", "collapsed", "cap"),
     ((1, 2), (2001, 2002), ((1, 2), (3, 4)), True, 2), 3, (2, ((1, 2), (3, 5)))),
    (ProductivityDistribution, ("pairs",), (((1, 10), (2, 3)),), 1, (0, ((1, 10),))),
    (PublicationRecord, ("id", "year", "authors"), ("WOS:1", 2001, ("Ames, A", "Bell, B")),
     3, (1, 2002)),
    (Corpus, ("records",), ((RECORD,),), 1, (0, ())),
    (GrowthRatios, ("entries",), (((2001, None), (2002, 0.5)),), 1, (0, ((2001, None),))),
    (RgrSeries, ("convention", "entries"), ("paper", ((2001, None), (2002, 0.4))), 2,
     (0, "standard")),
    (BlockMeans, ("per_block",), ((0.5, 0.25),), 1, (0, (0.5,))),
    (GrowthRow, ("year", "papers", "cumulative", "growth_ratio", "rgr", "doubling_time"),
     (2002, 5, 12, 0.5, 0.4, None), 6, (5, 1.7)),
    (BlockSummary, ("start_year", "end_year", "mean_rgr", "mean_doubling_time"),
     (2002, 2005, 0.4, 1.7), 4, (3, 1.8)),
    (GrowthReport, ("convention", "rows", "blocks", "mean_growth_ratio", "mean_rgr",
                    "mean_doubling_time", "ln2"),
     ("paper", (GROWTH_ROW,), (BLOCK,), 0.5, 0.4, 1.7, 0.693), 7, (6, 0.6931)),
    (CollabRow, ("label", "papers", "author_slots", "ci", "dc", "cai_multi", "cai_by_class",
                 "cc", "mcc"),
     ("2001", 3, 5, 1.67, 0.67, 120.0, {"single": 80.0, "multi": 120.0}, 0.3, None), 9,
     (6, {"single": 80.0})),
    (ClassSummary, ("authors", "papers", "author_slots", "percent"), (2, 3, 6, 50.0), 4,
     (3, 25.0)),
    (CollabReport, ("rows", "total", "class_summary"),
     ((COLLAB_ROW,), COLLAB_ROW, (CLASS_SUMMARY,)), 3, (0, ())),
    (LotkaFit, ("n", "slope", "sum_x", "sum_y", "sum_xy", "sum_x2", "n_points", "points_used",
                "warnings", "c"),
     (2.0, -2.0, 1.0, 2.0, 3.0, 4.0, 3, (1, 2, 3), ("few points",), 0.6), 8, (9, None)),
    (KSReport, ("rows", "d_max", "x_at_dmax", "critical_value", "alpha", "mode", "n", "c",
                "total_authors"),
     ((KS_ROW,), 0.1, 1, 0.3, 0.01, "standard", 2.0, 0.6, 14), 9, (5, "paper")),
    (PowerLawSpec, ("n0", "total_authors", "x_max", "seed"), (2.0, 1000, 20, 5), 4, (3, 6)),
    (CorpusSpec, ("start_year", "papers_per_year", "author_count_dist", "seed", "author_pool"),
     (2010, (6, 9), ((1, 0.5), (2, 0.5)), 11, 150), 4, (4, 151)),
    (WosParseResult, ("corpus", "skipped_lines"), (Corpus((RECORD,)), (3, 9)), 2, (1, ())),
]
DEFAULTS = {
    AuthorshipMatrix: {"collapsed": False, "cap": 10},
    LotkaFit: {"warnings": (), "c": None},
    CorpusSpec: {"author_pool": 10000},
}
UNHASHABLE = {CollabRow, CollabReport}  # a CollabRow holds the dict cai_by_class
IDS = [case[0].__name__ for case in CASES]


def test_every_immutable_type_is_listed():
    assert len(CASES) == len({case[0] for case in CASES}) == 19
    assert set(DEFAULTS) <= {case[0] for case in CASES}
    for module in pkgutil.iter_modules(bibmet.__path__):
        importlib.import_module(f"bibmet.{module.name}")

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    defined = {cls for cls in subclasses(Value) if cls.__module__.split(".")[0] == "bibmet"}
    assert defined - {ExportRun} == {case[0] for case in CASES}
    for cls in defined:
        for default in cls._defaults.values():
            hash(default)  # one object serves every instance, so it must be immutable


@pytest.mark.parametrize("cls, fields, values, required, changed", CASES, ids=IDS)
def test_construction_by_position_keyword_and_default(cls, fields, values, required, changed):
    by_position = cls(*values)
    assert tuple(getattr(by_position, name) for name in fields) == values
    assert cls(**dict(zip(fields, values))) == by_position
    defaulted = cls(*values[:required])
    assert {name: getattr(defaulted, name) for name in fields[required:]} == DEFAULTS.get(cls, {})
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls, fields, values, required, changed", CASES, ids=IDS)
def test_construction_rejects_unknown_repeated_and_missing_fields(cls, fields, values, required,
                                                                  changed):
    keywords = dict(zip(fields, values))
    with pytest.raises(TypeError):
        cls(**keywords, unknown=None)
    with pytest.raises(TypeError):
        cls(values[0], **keywords)
    with pytest.raises(TypeError):
        cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in keywords.items() if name != fields[0]})


@pytest.mark.parametrize("cls, fields, values, required, changed", CASES, ids=IDS)
def test_equality_and_hash_by_class_and_fields(cls, fields, values, required, changed):
    value, same = cls(*values), cls(*values)
    index, other = changed
    different = cls(*values[:index], other, *values[index + 1:])
    assert value == same and not value != same
    assert value != different and not value == different
    assert value.__eq__(values) is NotImplemented
    assert value != values

    class Sub(cls):
        pass

    assert value != Sub(*values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
        assert {value, same} == {value}


@pytest.mark.parametrize("cls, fields, values, required, changed", CASES, ids=IDS)
def test_repr_names_each_field(cls, fields, values, required, changed):
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, values, required, changed", CASES, ids=IDS)
def test_no_field_can_be_assigned_or_deleted(cls, fields, values, required, changed):
    value = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert tuple(getattr(value, name) for name in fields) == values


@pytest.mark.parametrize("cls, fields, values, required, changed", CASES, ids=IDS)
def test_pickle_and_copy_keep_the_value(cls, fields, values, required, changed):
    value = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(value, protocol))
        assert restored == value and type(restored) is cls
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value


def test_an_export_run_is_mutable_equal_by_fields_with_containers_of_its_own():
    first, second = ExportRun(), ExportRun()
    first.uts.add("WOS:1")
    first.skipped_lines.append(3)
    first.merged_lines.append(5)
    first.records += 1
    assert (second.uts, second.skipped_lines, second.merged_lines, second.records) == (
        set(), [], [], 0)
    assert (second.synthetic, second.lines, second.ended) == (0, 0, False)
    uts = {"WOS:2"}
    run = ExportRun(uts=uts)
    assert run.uts is uts
    assert run == ExportRun({"WOS:2"}) and run != second
    assert copy.copy(run) == run == pickle.loads(pickle.dumps(run))
    with pytest.raises(TypeError):
        hash(run)
