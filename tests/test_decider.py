"""The validity decider ``families._is_neighborly`` against the full report.

``_is_neighborly(f, k)`` must equal ``verify_neighborly(f, k).is_valid``
on every family and every k.  It takes one of two routes: marking the
points of every member (then the kernel over the members with fewer than
d - k jokers, or the complement lookup at k = d - 1), or the kernel over
every pair.  The property runs with the measured threshold and with each
route forced, so both are checked on the same examples.  Hypothesis runs
derandomized, so the examples are the same on every run.
"""

import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from nbx import Family, TernaryString, canonical, extremal_dminus1, is_partition, verify_neighborly
from nbx import families
from nbx.constructions import _checked
from nbx.families import _is_neighborly

from _oracles import all_cube_partitions, sym_partition, twin_split_partition

DECIDER = settings(derandomize=True, max_examples=200, deadline=None, database=None)

# never mark, the measured threshold, and mark whenever a kernel row is spared (d <= 12)
THRESHOLDS = (0, families._MARKS_PER_ROW_COORD, 1 << 20)


def decide_on_every_route(fam: Family, k: int) -> list[bool]:
    out = []
    for factor in THRESHOLDS:
        with mock.patch.object(families, "_MARKS_PER_ROW_COORD", factor):
            out.append(_is_neighborly(fam, k))
    return out


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
def test_decider_matches_the_report(fam_and_k):
    fam, k = fam_and_k
    expected = verify_neighborly(fam, k).is_valid
    assert decide_on_every_route(fam, k) == [expected] * len(THRESHOLDS)


def test_valid_and_invalid_extremal_families():
    for d in range(2, 11):
        fam = extremal_dminus1(d)
        for k in range(1, d + 1):
            expected = verify_neighborly(fam, k).is_valid
            assert expected == (k >= d - 1)
            assert decide_on_every_route(fam, k) == [expected] * len(THRESHOLDS)


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
