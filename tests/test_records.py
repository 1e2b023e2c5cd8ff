"""Value semantics of nbx's record classes.

Every record is immutable, compares and hashes by its fields, prints them
in order, and survives ``pickle`` and ``copy.deepcopy``.  The exceptions
are kept on purpose: the two reports compare by identity, a search result
ignores its ``stats`` in comparisons, and a search config is mutable and
unhashable.  ``import nbx.cli`` loads neither ``dataclasses`` nor
``inspect``, so every command starts without them.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from nbx import (
    BicliqueCover,
    Family,
    SearchConfig,
    TernaryString,
    family_to_cover,
    verify_cover,
    verify_neighborly,
)
from nbx.bounds import Bound, BoundsEntry, GreedyProfile, PascalFinding
from nbx.constructions import FragmentPlan, MValueResult
from nbx.search import SearchResult

ROOT = Path(__file__).resolve().parent.parent

A, B = TernaryString.parse("01*"), TernaryString.parse("10*")
PLAN = FragmentPlan(2, 7, 3, (2, 2, 1))
PAIR = Family(3, (A, B))

# class, field names in order, one set of field values, and the repr it prints
RECORDS = [
    (TernaryString, ("length", "zero_mask", "one_mask"), (3, 0b001, 0b010),
     "TernaryString('01*')"),
    (Family, ("dimension", "members"), (3, (A, B)),
     "Family(dimension=3, members=(TernaryString('01*'), TernaryString('10*')))"),
    (BicliqueCover, ("n", "bicliques"), (2, ((frozenset({0}), frozenset({1})),)),
     "BicliqueCover(n=2, bicliques=((frozenset({0}), frozenset({1})),))"),
    (GreedyProfile, ("a", "total"), ((1, 2), 3), "GreedyProfile(a=(1, 2), total=3)"),
    (BoundsEntry, ("k", "d", "lower", "upper"), (2, 3, Bound(5, "lo"), Bound(6, "hi")),
     "BoundsEntry(k=2, d=3, lower=Bound(value=5, method='lo'), "
     "upper=Bound(value=6, method='hi'))"),
    (PascalFinding, ("k", "d", "lhs", "rhs"), (2, 3, 4, 5),
     "PascalFinding(k=2, d=3, lhs=4, rhs=5)"),
    (FragmentPlan, ("k", "d", "m", "a"), (2, 7, 3, (2, 2, 1)),
     "FragmentPlan(k=2, d=7, m=3, a=(2, 2, 1))"),
    (MValueResult, ("value", "plan", "parts"), (21, PLAN, None),
     "MValueResult(value=21, plan=FragmentPlan(k=2, d=7, m=3, a=(2, 2, 1)), parts=None)"),
    (SearchResult, ("k", "d", "optimum", "witness", "proven_optimal", "stats"),
     (1, 3, 2, PAIR, False, {"nodes": 0}),
     "SearchResult(k=1, d=3, optimum=2, witness=Family(dimension=3, members=("
     "TernaryString('01*'), TernaryString('10*'))), proven_optimal=False, "
     "stats={'nodes': 0})"),
]

ids = [r[0].__name__ for r in RECORDS]


def values_of(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=ids)
class TestValueRecords:
    def test_positional_and_keyword_construction(self, cls, names, values, text):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        assert values_of(by_position, names) == values_of(by_keyword, names) == values
        assert by_position == by_keyword

    def test_equal_fields_equal_hash(self, cls, names, values, text):
        one, two = cls(*values), cls(*values)
        assert one == two and not one != two
        assert hash(one) == hash(two)
        assert len({one, two}) == 1
        assert one != values and one != object()

    def test_fields_cannot_be_assigned_or_deleted(self, cls, names, values, text):
        record = cls(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert values_of(record, names) == values

    def test_pickle_and_deepcopy_round_trip(self, cls, names, values, text):
        record = cls(*values)
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert type(twin) is cls
            assert twin == record and hash(twin) == hash(record)
            assert values_of(twin, names) == values

    def test_repr(self, cls, names, values, text):
        assert repr(cls(*values)) == text


def test_defaults():
    assert values_of(MValueResult(21), ("value", "plan", "parts")) == (21, None, None)
    assert MValueResult(21) == MValueResult(21, None, None)
    assert MValueResult(21) != MValueResult(21, PLAN)


def test_init_checks_fields():
    bad = [
        (TernaryString, (-1, 0, 0)), (TernaryString, (2, 0b100, 0)), (TernaryString, (2, 1, 1)),
        (Family, (2, (A,))), (Family, (3, (A, A))),
        (BicliqueCover, (-1, ())), (BicliqueCover, (2, ((frozenset({0}), frozenset({0})),))),
        (BicliqueCover, (2, ((frozenset({2}), frozenset()),))),
        (GreedyProfile, ((1, 2), 4)),
        (BoundsEntry, (2, 3, Bound(7, "lo"), Bound(6, "hi"))),
        (BoundsEntry, (2, 3, Bound(0, "lo"), Bound(6, "hi"))),
        (FragmentPlan, (2, 7, 3, (2, 2, 2))), (FragmentPlan, (3, 7, 2, (2, 2))),
    ]
    for cls, values in bad:
        with pytest.raises(ValueError):
            cls(*values)


class TestReports:
    def reports(self):
        family = Family.of(["00", "01", "11"])
        cover = family_to_cover(family)
        return [
            (verify_neighborly(family, 1), verify_neighborly(family, 1),
             ("is_valid", "min_distance", "max_distance")),
            (verify_cover(cover, 1), verify_cover(cover, 1), ("is_valid", "histogram")),
        ]

    def test_compare_by_identity(self):
        for one, two, names in self.reports():
            assert values_of(one, names) == values_of(two, names)
            assert tuple(one.violations) == tuple(two.violations)
            assert one == one and one != two
            assert hash(one) == hash(one) and len({one, two}) == 2

    def test_fields_cannot_be_assigned_or_deleted(self):
        for report, _, names in self.reports():
            for name in names + ("violations",):
                with pytest.raises(AttributeError):
                    setattr(report, name, None)
                with pytest.raises(AttributeError):
                    delattr(report, name)

    def test_pickle_and_deepcopy_keep_the_fields(self):
        for report, _, names in self.reports():
            for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
                assert type(twin) is type(report) and twin != report
                assert values_of(twin, names) == values_of(report, names)
                assert tuple(twin.violations) == tuple(report.violations)
                assert twin.as_dict() == report.as_dict()

    def test_repr_names_the_fields(self):
        (neighborly, _, _), (cover, _, _) = self.reports()
        assert repr(neighborly).startswith(
            "NeighborlinessReport(is_valid=False, min_distance=1, max_distance=2, "
            "violations=<nbx.families.Violations object at ")
        assert repr(cover).startswith(
            "CoverReport(is_valid=False, histogram=((1, 2), (2, 1)), "
            "violations=<nbx.families.Violations object at ")


class TestSearchResult:
    def test_equality_ignores_stats(self):
        one = SearchResult(1, 3, 2, PAIR, False, {"nodes": 0})
        two = SearchResult(1, 3, 2, PAIR, False, {"nodes": 5, "stopped": "cutoff"})
        assert one == two and hash(one) == hash(two)
        assert one != SearchResult(1, 3, 2, PAIR, True, {"nodes": 0})
        assert repr(one) != repr(two)


class TestSearchConfig:
    NAMES = ("budget_nodes", "budget_secs", "symmetry", "max_candidates", "use_known_bounds")

    def test_defaults_and_construction(self):
        cfg = SearchConfig()
        assert values_of(cfg, self.NAMES) == (None, None, True, 60_000, True)
        assert SearchConfig(10, 1.5, False, 7, False) == SearchConfig(
            budget_nodes=10, budget_secs=1.5, symmetry=False, max_candidates=7,
            use_known_bounds=False)
        assert SearchConfig(symmetry=False) != cfg

    def test_mutable_and_unhashable(self):
        cfg = SearchConfig()
        cfg.max_candidates = 1 << 62
        assert cfg.max_candidates == 1 << 62
        assert cfg == SearchConfig(max_candidates=1 << 62)
        with pytest.raises(TypeError):
            hash(cfg)

    def test_budgets_validated(self):
        for kwargs in ({"budget_nodes": 0}, {"budget_nodes": -3}, {"budget_secs": 0},
                       {"budget_secs": -1.0}, {"budget_secs": float("inf")},
                       {"budget_secs": float("nan")}):
            with pytest.raises(ValueError, match="must be"):
                SearchConfig(**kwargs)
        assert SearchConfig(budget_nodes=1, budget_secs=1e-9).budget_nodes == 1

    def test_pickle_and_deepcopy_round_trip(self):
        cfg = SearchConfig(10, 1.5, False, 7, False)
        for twin in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
            assert twin == cfg and twin is not cfg
            assert values_of(twin, self.NAMES) == (10, 1.5, False, 7, False)

    def test_repr(self):
        assert repr(SearchConfig()) == (
            "SearchConfig(budget_nodes=None, budget_secs=None, symmetry=True, "
            "max_candidates=60000, use_known_bounds=True)")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps the interpreter's site .pth imports out of the check
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys, nbx.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
