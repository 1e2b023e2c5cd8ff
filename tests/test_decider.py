"""The validity decider ``families._is_neighborly`` and the valid route of
``verify_neighborly``, against a symbol-level pair oracle.

``_is_neighborly(f, k)`` must say whether ``_oracles.sym_distance`` puts
every pair of members in [1, k].  It takes one of two routes: marking the
points of every member (then the kernel over the members with fewer than
d - k jokers, or the complement lookup at k = d - 1), or the kernel over
every pair.  ``verify_neighborly`` asks the same screens first, and where
they prove the family valid it reads rows only until the extremes reach 1
and k; each of its report fields must still equal the oracle's.  The
properties run with the measured threshold and with each route forced,
so every route is checked on the same examples.  Hypothesis runs
derandomized, so the examples are the same on every run.
"""

import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from nbx import (Family, TernaryString, canonical, extremal_dminus1, is_partition, realize_mbar,
                 verify_neighborly)
from nbx import families
from nbx.constructions import _checked
from nbx.families import _is_neighborly

from _oracles import all_cube_partitions, sym_distance, sym_partition, twin_split_partition

DECIDER = settings(derandomize=True, max_examples=200, deadline=None, database=None)

# never mark, the measured threshold, and mark whenever a kernel row is spared (d <= 12)
THRESHOLDS = (0, families._MARKS_PER_ROW_COORD, 1 << 20)


def on_every_route(check, fam: Family, k: int) -> list:
    out = []
    for factor in THRESHOLDS:
        with mock.patch.object(families, "_MARKS_PER_ROW_COORD", factor):
            out.append(check(fam, k))
    return out


def decide_on_every_route(fam: Family, k: int) -> list[bool]:
    return on_every_route(_is_neighborly, fam, k)


def oracle_pairs(words: list[str]) -> list[tuple[int, int, int]]:
    """``(i, j, dist)`` for every pair i < j, in (i, j) order, by ``sym_distance``."""
    return [(i, j, sym_distance(a, b)) for i, a in enumerate(words)
            for j, b in enumerate(words[i + 1:], i + 1)]


def oracle_report(pairs: list[tuple[int, int, int]], k: int) -> tuple:
    """The report's four fields, from the oracle's pairs."""
    bad = [p for p in pairs if not 1 <= p[2] <= k]
    dists = [x for _, _, x in pairs]
    return not bad, min(dists, default=None), max(dists, default=None), bad


def report_fields(fam: Family, k: int) -> tuple:
    report = verify_neighborly(fam, k)
    return report.is_valid, report.min_distance, report.max_distance, list(report.violations)


@st.composite
def families_and_k(draw):
    """Random word sets, all-joker words included, and subsets of random
    partitions, which are disjoint, so only the upper side can fail."""
    d = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        members = list(twin_split_partition(d, rng, max_members=64).members)
        members = rng.sample(members, rng.randint(1, len(members)))
    else:
        joker_rate = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]))
        words = {
            "".join("*" if rng.random() < joker_rate else rng.choice("01") for _ in range(d))
            for _ in range(draw(st.integers(1, 40)))
        }
        members = [TernaryString.parse(w) for w in sorted(words)]
    k = draw(st.sampled_from([d, d - 1, d - 2]).filter(lambda k: k >= 1) | st.integers(1, d))
    return Family(d, tuple(members)), k


@DECIDER
@given(families_and_k())
@example((Family.of(["*"]), 1))  # a single member
@example((Family.of(["0*", "00"]), 2))  # distinct words at distance 0
@example((Family.of(["**", "0*"]), 2))  # volume 6 > 2^2
@example((Family.of(["000", "111", "01*"]), 2))  # a complement pair at k = d - 1
@example((Family.of(["0000", "1100", "0011"]), 3))  # joker-free, distances 2 and 4
@example((Family.of(["00*0", "11*1", "10**"]), 2))  # low-joker pair at distance 3
def test_decider_matches_the_pair_oracle(fam_and_k):
    fam, k = fam_and_k
    expected = all(1 <= x <= k for _, _, x in oracle_pairs(fam.texts()))
    assert decide_on_every_route(fam, k) == [expected] * len(THRESHOLDS)


def test_valid_and_invalid_extremal_families():
    for d in range(2, 11):
        fam = extremal_dminus1(d)
        pairs = oracle_pairs(fam.texts())
        for k in range(1, d + 1):
            expected = all(1 <= x <= k for _, _, x in pairs)
            assert expected == (k >= d - 1)
            assert decide_on_every_route(fam, k) == [expected] * len(THRESHOLDS)
            if k >= d - 1:
                want = oracle_report(pairs, k)
                assert on_every_route(report_fields, fam, k) == [want] * len(THRESHOLDS)


def assert_reports_match_oracle(fam: Family) -> None:
    """Every report field at every k, on every route, equals the oracle's."""
    pairs = oracle_pairs(fam.texts())
    for k in range(1, fam.dimension + 1):
        want = oracle_report(pairs, k)
        assert on_every_route(report_fields, fam, k) == [want] * len(THRESHOLDS), (fam.texts(), k)


def test_reports_on_partitions():
    # partitions are d-neighborly, so the screen proves them valid at k = d
    # (and at k = d - 1 unless two joker-free words are complements)
    rng = random.Random(40)
    for d in range(1, 9):
        for _ in range(6):
            assert_reports_match_oracle(twin_split_partition(d, rng, max_members=40))
    for members in all_cube_partitions(3):
        assert_reports_match_oracle(Family(3, members))


@pytest.mark.parametrize("words, k, lo, hi", [
    # the 8 even-weight words of d = 4: no pair at distance 1, so lo never
    # reaches 1 and every row is read
    (["0000", "0011", "0101", "0110", "1001", "1010", "1100", "1111"], 4, 2, 4),
    # the first row in trie order, 000, reaches k = 3 with its minimum at 2;
    # distance 1 lies in a later row
    (["000", "011", "110", "111"], 3, 1, 3),
    # extremal(4) is 3-neighborly, so at k = 4 hi never reaches k
    (extremal_dminus1(4).texts(), 4, 1, 3),
    (["*"], 1, None, None),  # one member
    (["01*"], 3, None, None),
    (["01*", "10*"], 2, 2, 2),  # two members
    (["01*", "11*"], 3, 1, 1),
])
def test_valid_route_edge_cases(words, k, lo, hi):
    fam = Family.of(words)
    zs, os_ = [m.zero_mask for m in fam], [m.one_mask for m in fam]
    assert families._screen(zs, os_, fam.dimension, k) is True  # the valid route is taken
    assert report_fields(fam, k) == (True, lo, hi, [])
    assert_reports_match_oracle(fam)


def count_rows(monkeypatch) -> list[int]:
    """Wrap the kernel: one entry per call, the number of rows it yielded."""
    calls = []
    real = families._distance_rows

    def rows(zs, os_, d):
        calls.append(0)
        for row in real(zs, os_, d):
            calls[-1] += 1
            yield row

    monkeypatch.setattr(families, "_distance_rows", rows)
    return calls


def test_valid_route_stops_at_the_extremes(monkeypatch):
    # the kernel yields rows in trie order, so the shuffle does not move the count
    words = extremal_dminus1(10).texts()
    random.Random(10).shuffle(words)
    fam = Family.of(words)
    calls = count_rows(monkeypatch)
    assert report_fields(fam, 9) == (True, 1, 9, [])
    assert len(calls) == 1 and calls[0] < 10


def test_unscreened_family_reads_every_row_once(monkeypatch):
    # realize_mbar(4, 16) is 4-neighborly, and marking 2^16 points costs more
    # than its 729 rows: the screen leaves it to the kernel, and verify runs
    # its one pass over every row and no pass of the decider's
    fam = realize_mbar(4, 16)
    calls = count_rows(monkeypatch)
    report = verify_neighborly(fam, 8)
    assert (report.is_valid, report.min_distance, report.max_distance) == (True, 1, 4)
    assert calls == [729]


def test_over_volume_family_fails_before_the_kernel(monkeypatch):
    # volume 2^12 + 2^11 > 2^12, and marking would not pay (2^12 > 4·2·12):
    # the volume test alone decides, and no kernel row is read
    fam = Family.of(["*" * 12, "0" + "*" * 11])
    calls = count_rows(monkeypatch)
    assert not _is_neighborly(fam, 12)
    assert calls == []
    assert tuple(verify_neighborly(fam, 12).violations) == ((0, 1, 0),)


def test_input_errors_match_the_report():
    for fam, k in ((Family(3, ()), 1), (Family.of(["01"]), 0), (Family.of(["01"]), 3)):
        with pytest.raises(ValueError) as full:
            verify_neighborly(fam, k)
        with pytest.raises(ValueError) as fast:
            _is_neighborly(fam, k)
        assert str(fast.value) == str(full.value)


def near_miss(members: tuple, rng: random.Random) -> tuple | None:
    """The members with one 0/1 symbol of one member flipped, which keeps
    the volume at 2^d; None when every flip repeats a member."""
    i = rng.randrange(len(members))
    m = members[i]
    keys = {(w.zero_mask, w.one_mask) for w in members}
    for c in rng.sample(range(m.length), m.length):
        bit = 1 << c
        if m.prop_mask & bit and (m.zero_mask ^ bit, m.one_mask ^ bit) not in keys:
            flipped = TernaryString(m.length, m.zero_mask ^ bit, m.one_mask ^ bit)
            return members[:i] + (flipped,) + members[i + 1:]
    return None


def test_every_partition_of_the_4_cube_and_a_near_miss_of_each():
    # the oracle's partitions are built by exact covering, so sym_partition
    # holds on each; a near miss breaks the cover while keeping the volume
    rng = random.Random(4)
    misses = 0
    for members in all_cube_partitions(4):
        assert is_partition(Family(4, members))
        members = near_miss(members, rng)
        if members is not None:
            misses += 1
            words = [str(m) for m in members]
            assert is_partition(Family(4, members)) == sym_partition(words, 4), words
    assert misses > 80_000  # of 89,512 partitions


def test_large_d_never_marks_the_cube():
    # canonical(2000) is a partition of volume exactly 2^2000: a decider that
    # marked its points would ask for a 2^2000-byte bytearray
    fam = canonical(2000)
    for check in (lambda: is_partition(fam), lambda: _checked(fam, 1, 2001)):
        start = time.monotonic()
        assert check()
        assert time.monotonic() - start < 30
    # at d = 24 marking would take 16 MiB; the kernel over 25 rows takes little
    small = canonical(24)
    tracemalloc.start()
    try:
        assert is_partition(small) and _checked(small, 1, 25) is small
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


@pytest.mark.parametrize("words, k, text", [
    # k = d: two overlapping subcubes, found by marking
    (["00*", "0*0", "1**"], 3, "construction is not 3-neighborly: ((0, 1, 0),)"),
    # k = d - 1: joker-free complements, found by the set lookup
    (["000", "111", "01*"], 2, "construction is not 2-neighborly: ((0, 1, 3),)"),
    # k < d - 1: the kernel over the low-joker members after marking
    (["0000", "0011", "1100", "01**"], 2, "construction is not 2-neighborly: ((1, 2, 4),)"),
    # the kernel over every pair, where marking would cost more (2^12 > 4·3·12)
    (["0" * 12, "1" * 12, "01" + "*" * 10], 11,
     "construction is not 11-neighborly: ((0, 1, 12),)"),
    # more than three violations: the first three, in (i, j) order
    (["00", "01", "10", "11", "0*"], 1,
     "construction is not 1-neighborly: ((0, 3, 2), (0, 4, 0), (1, 2, 2))"),
])
def test_checked_names_the_first_violations(words, k, text):
    fam = Family.of(words)
    assert not _is_neighborly(fam, k)
    with pytest.raises(AssertionError) as err:
        _checked(fam, k, len(words))
    assert str(err.value) == text
