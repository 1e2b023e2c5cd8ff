import json
import random

import pytest

from nbx import (
    Family,
    TernaryString,
    best_bounds,
    canonical,
    diameter,
    enumerate_candidates,
    enumerate_max_families,
    families,
    is_lamination,
    is_partition,
    is_total_lamination,
    m_value,
    max_family,
    mbar_value,
    reduce_to_trivial,
    sgn_sum,
    verify_neighborly,
    volume,
)

from _oracles import (
    all_cube_partitions,
    sym_distance,
    sym_lamination,
    sym_partition,
    sym_total_lamination,
    twin_split_partition,
)

C3 = Family.of(["000", "001", "01*", "1**"])
FIG_F = Family.of(["001", "101", "*11", "**0"])
FIG_G = Family.of(["0*1", "1*1", "*00", "*10"])
# a partition of the 3-cube with no common non-joker coordinate
PINWHEEL = Family.of(["*00", "01*", "1*1", "001", "110"])
H2 = Family.of(["00", "01", "10", "11"])


class TestFamilyContainer:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Family.of(["0*", "0*"])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            Family.of(["0*", "011"])

    def test_from_nbx_comments_and_blanks(self):
        text = "# a family\n\n000\n001\n # not a member\n01*\n1**\n"
        fam = Family.from_nbx(text)
        assert fam == C3

    def test_from_nbx_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            Family.from_nbx("000\n0x0\n")

    def test_nbx_round_trip(self):
        assert Family.from_nbx(C3.to_nbx()) == C3

    def test_empty_needs_dimension(self):
        with pytest.raises(ValueError):
            Family.of([])
        assert len(Family(3, ())) == 0

    def test_membership(self):
        assert TernaryString.parse("01*") in C3
        assert TernaryString.parse("11*") not in C3
        assert "01*" not in C3  # the text of a member is not a member
        assert TernaryString.parse("01") not in C3


class TestVerifyNeighborly:
    def test_canonical_is_1_neighborly(self):
        report = verify_neighborly(C3, 1)
        assert report.is_valid
        assert report.min_distance == 1
        assert report.max_distance == 1

    def test_violation_reported(self):
        report = verify_neighborly(Family.of(["00", "11"]), 1)
        assert not report.is_valid
        assert tuple(report.violations) == ((0, 1, 2),)
        assert report.max_distance == 2

    def test_distance_zero_is_a_violation(self):
        report = verify_neighborly(Family.of(["0*", "00"]), 1)
        assert not report.is_valid
        assert tuple(report.violations) == ((0, 1, 0),)

    def test_singleton_vacuous(self):
        report = verify_neighborly(Family.of(["0*"]), 1)
        assert report.is_valid
        assert report.min_distance is None and report.max_distance is None

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            verify_neighborly(C3, 0)
        with pytest.raises(ValueError):
            verify_neighborly(C3, 4)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            verify_neighborly(Family(2, ()), 1)

    def test_report_json_shape(self):
        report = verify_neighborly(Family.of(["00", "11"]), 1)
        data = json.loads(json.dumps(report.as_dict()))
        assert data == {
            "valid": False,
            "min_distance": 2,
            "max_distance": 2,
            "violations": [[0, 1, 2]],
        }

    def test_valid_family_fits_in_cube(self):
        rng = random.Random(9)
        for _ in range(100):
            fam = twin_split_partition(5, rng)
            k = max(verify_neighborly(fam, 5).max_distance or 1, 1)
            assert volume(fam) <= 1 << fam.dimension



@pytest.mark.parametrize("check, k, d", [
    (lambda k, d: verify_neighborly(Family.of(["0" * d]), k), 0, 3),
    (m_value, 4, 3),
    (mbar_value, 0, 5),
    (enumerate_candidates, 6, 5),
    (max_family, 0, 3),
    (enumerate_max_families, 4, 3),
    (best_bounds, 3, 2),
])
def test_cell_out_of_range_named(check, k, d):
    # one range check for every public function of a (k, d) cell
    with pytest.raises(ValueError, match=f"^requires 1 <= k <= d, got k={k}, d={d}$"):
        check(k, d)

class TestVolumePartition:
    def test_volume_examples(self):
        assert volume(Family.of(["00", "01", "1*"])) == 4
        assert volume(Family.of(["***"])) == 8
        assert volume(C3) == 8

    def test_partition_examples(self):
        assert is_partition(C3)
        assert not is_partition(Family.of(["00", "01"]))
        assert is_partition(FIG_F)

    def test_overlapping_full_volume_is_not_partition(self):
        fam = Family.of(["0*", "00", "11"])  # volume 4 but overlapping
        assert volume(fam) == 4
        assert not is_partition(fam)


class TestLaminations:
    def test_lamination_examples(self):
        assert is_lamination(FIG_F) == 3
        assert is_lamination(FIG_G) == 3
        assert is_lamination(Family.of(["***"])) is None

    def test_lamination_requires_partition(self):
        assert is_lamination(Family.of(["00", "01"])) is None

    def test_smallest_coordinate_wins(self):
        fam = Family.of(["00", "01", "10", "11"])
        assert is_lamination(fam) == 1

    def test_total_lamination_examples(self):
        assert is_total_lamination(FIG_F)
        assert is_total_lamination(C3)
        assert is_total_lamination(H2)
        assert is_total_lamination(FIG_G)

    def test_partition_checked_once(self, monkeypatch):
        # the sides of a split partition are partitions: no per-level check
        calls = []
        check = families.is_partition

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(families, "is_partition", counted)
        assert is_total_lamination(canonical(12))
        assert len(calls) == 1

    def test_deep_chain_stays_within_the_recursion_limit(self):
        # canonical(300) splits at coordinate 1 on each of its 300 levels
        fam = canonical(300)
        assert is_total_lamination(fam)
        assert is_lamination(fam) == 1

    def test_all_joker_singleton_is_total(self):
        assert is_total_lamination(Family.of(["***"]))

    def test_pinwheel_is_partition_but_not_lamination(self):
        assert is_partition(PINWHEEL)
        assert is_lamination(PINWHEEL) is None
        assert not is_total_lamination(PINWHEEL)

    def test_lamination_present_implies_partition(self):
        rng = random.Random(17)
        for _ in range(80):
            fam = twin_split_partition(5, rng)
            i = is_lamination(fam)
            if i is not None:
                assert is_partition(fam)

    def test_twin_split_partitions_are_total_laminations(self):
        rng = random.Random(23)
        for _ in range(60):
            fam = twin_split_partition(6, rng, max_members=24)
            assert is_total_lamination(fam)


class TestReduce:
    def test_canonical_trace(self):
        trace = reduce_to_trivial(C3)
        assert [f.texts() for f in trace] == [
            ["000", "001", "01*", "1**"],
            ["00*", "01*", "1**"],
            ["0**", "1**"],
            ["***"],
        ]

    def test_one_dimensional(self):
        trace = reduce_to_trivial(Family.of(["0", "1"]))
        assert [f.texts() for f in trace] == [["0", "1"], ["*"]]

    def test_fig_g_three_merges(self):
        trace = reduce_to_trivial(FIG_G)
        assert len(trace) == 4  # three merges
        assert trace[-1].texts() == ["***"]

    def test_each_step_is_smaller_partition(self):
        rng = random.Random(29)
        for _ in range(40):
            fam = twin_split_partition(6, rng, max_members=20, max_distance=2)
            trace = reduce_to_trivial(fam)
            assert len(trace) == len(fam)
            for a, b in zip(trace, trace[1:]):
                assert len(b) == len(a) - 1
                assert is_partition(b)

    def test_requires_partition(self):
        with pytest.raises(ValueError, match="partition"):
            reduce_to_trivial(Family.of(["00", "01"]))

    def test_reports_missing_twin(self):
        with pytest.raises(ValueError, match="no twin"):
            reduce_to_trivial(PINWHEEL)


class TestSgnSum:
    def test_examples(self):
        assert sgn_sum(Family.of(["00", "01", "1*"])) == 0
        assert sgn_sum(H2) == 0
        assert sgn_sum(FIG_F) == 0

    def test_pinwheel(self):
        assert sgn_sum(PINWHEEL) == 0

    def test_requires_partition(self):
        with pytest.raises(ValueError, match="partition"):
            sgn_sum(Family.of(["00", "11"]))

    def test_zero_on_random_partitions(self):
        rng = random.Random(31)
        for _ in range(150):
            fam = twin_split_partition(rng.randint(1, 7), rng)
            assert sgn_sum(fam) == 0


class TestDiameter:
    def test_single_point(self):
        assert diameter([TernaryString.parse("010")]) == 0

    def test_ball_diameter(self):
        from nbx import ball_family

        # radius-t ball around the origin has diameter 2t for t < d/2
        fam = ball_family(4, 9)  # radius 2
        assert diameter(fam.members) == 4

    def test_antipodal(self):
        assert diameter(Family.of(["000", "111"]).members) == 3

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            diameter([])
        with pytest.raises(ValueError):
            diameter(Family.of(["0*", "00"]).members)
        with pytest.raises(ValueError):
            diameter([TernaryString.parse("00"), TernaryString.parse("000")])


def _word(text: str) -> TernaryString:
    return TernaryString.parse(text) if text else TernaryString(0, 0, 0)


class TestAgainstTextOracles:
    """Partitions, laminations and the diameter against the text-level
    oracles, which expand jokers and drop columns by slicing."""

    @staticmethod
    def check(words: list[str], d: int) -> None:
        fam = Family(d, tuple(map(_word, words)))
        assert is_partition(fam) == sym_partition(words, d), words
        assert is_lamination(fam) == sym_lamination(words, d), words
        assert is_total_lamination(fam) == sym_total_lamination(words, d), words

    @pytest.mark.parametrize("d, step, count", [(3, 1, 154), (4, 25, 3_581)])
    def test_cube_partitions(self, d, step, count):
        # every partition of the 3-cube, every 25th of the 89,512 of the 4-cube
        partitions = all_cube_partitions(d)[::step]
        assert len(partitions) == count
        for members in partitions:
            self.check([str(m) for m in members], d)

    def test_random_word_sets(self):
        rng = random.Random(41)
        self.check([""], 0)
        self.check(["0*", "00", "11"], 2)  # full volume, overlapping
        full_overlaps = 0
        for d in range(1, 5):
            partitions = all_cube_partitions(d)
            for _ in range(300):
                # a random set, then a partition with one member swapped
                # for another of the same volume
                words = ["".join(rng.choice("01*") for _ in range(d))
                         for _ in range(rng.randint(0, 8))]
                self.check(list(dict.fromkeys(words)), d)
                words = [str(m) for m in rng.choice(partitions)]
                i = rng.randrange(len(words))
                swap = list(words[i])
                rng.shuffle(swap)
                swap = "".join(rng.choice("01") if ch != "*" else ch for ch in swap)
                if swap not in words[:i] + words[i + 1:]:
                    words[i] = swap
                    full_overlaps += not sym_partition(words, d)
                    self.check(words, d)
        assert full_overlaps > 100

    def test_diameter(self):
        rng = random.Random(43)
        for d in range(0, 7):
            pool = ["".join(rng.choice("01") for _ in range(d)) for _ in range(6)]
            for n in [1, 1, 2, 3, 5, 8, 13]:
                texts = rng.choices(pool, k=n)  # with repeats
                expected = max(sym_distance(a, b) for a in texts for b in texts)
                assert diameter(map(_word, texts)) == expected, texts


class TestAllPartitionsExhaustive:
    """Checks over every subcube partition of the cube, not just sampled
    or split-generated ones."""

    def test_dimension_3_complete_audit(self):
        from _oracles import all_cube_partitions

        partitions = all_cube_partitions(3)
        assert len(partitions) == 154
        non_laminations = 0
        two_neighborly = 0
        for members in partitions:
            fam = Family(3, members)
            assert is_partition(fam)
            if len(fam) >= 2:
                assert sgn_sum(fam) == 0
            worst = max(
                (x.distance(y) for i, x in enumerate(members) for y in members[i + 1 :]),
                default=0,
            )
            if is_lamination(fam) is None and len(fam) > 1:
                non_laminations += 1
                assert worst > 2  # only far-apart partitions can fail to split
            if worst <= 2 and len(fam) >= 2:
                two_neighborly += 1
                assert is_lamination(fam) is not None
                assert is_total_lamination(fam)
                assert len(reduce_to_trivial(fam)) == len(fam)
        assert non_laminations == 8
        assert two_neighborly == 102

    def test_small_dimension_counts(self):
        from _oracles import all_cube_partitions

        assert len(all_cube_partitions(1)) == 2
        assert len(all_cube_partitions(2)) == 8
