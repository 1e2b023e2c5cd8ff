import json
import random
import tracemalloc

import pytest

from nbx import (
    BicliqueCover,
    Family,
    TernaryString,
    ball_family,
    canonical,
    cover_to_family,
    extremal_dminus1,
    family_to_cover,
    fragmented,
    FragmentPlan,
    realize_mbar,
    verify_cover,
    verify_neighborly,
)


def random_family(rng, d, size):
    size = min(size, 3**d)  # only 3^d distinct strings exist
    members = set()
    while len(members) < size:
        zeros = ones = 0
        for i in range(d):
            r = rng.random()
            if r < 1 / 3:
                zeros |= 1 << i
            elif r < 2 / 3:
                ones |= 1 << i
        members.add((zeros, ones))
    return Family(d, tuple(TernaryString(d, z, o) for z, o in sorted(members)))


class TestCoverType:
    def test_sides_must_be_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            BicliqueCover.of(3, [({0, 1}, {1, 2})])

    def test_vertices_in_range(self):
        with pytest.raises(ValueError, match="out of range"):
            BicliqueCover.of(2, [({0}, {2})])

    @pytest.mark.parametrize("left, right, named", [
        ({-3, -1, 0, 5, 9}, {1}, -3),  # one side holds both kinds: the smallest below 0
        ({0, 5}, {1, -2, 9}, -2),  # below 0 in one side, too large in the other
        ({0, 5, 4}, {1, 9}, 9),  # none below 0: the largest
        (set(), {3}, 3),
    ], ids=["one-side", "both-sides", "too-large", "empty-left"])
    def test_out_of_range_vertex_named(self, left, right, named):
        message = f"^biclique 2: vertex {named} out of range 0..2$"
        with pytest.raises(ValueError, match=message):
            BicliqueCover.of(3, [({0}, {1}), (left, right)])

    def test_empty_cover_and_sides_are_valid(self):
        assert BicliqueCover.of(0, []).d == 0
        assert BicliqueCover.of(0, [(set(), set())]).d == 1
        assert BicliqueCover.of(1, [({0}, set())]).d == 1

    def test_json_round_trip(self):
        cover = family_to_cover(canonical(3))
        data = json.loads(json.dumps(cover.as_dict()))
        assert BicliqueCover.from_dict(data) == cover


class TestFamilyToCover:
    def test_canonical_multiplicities_all_one(self):
        cover = family_to_cover(canonical(2))
        report = verify_cover(cover, 1)
        assert report.is_valid
        assert report.histogram == ((1, 3),)

    def test_full_cube_multiplicities(self):
        cover = family_to_cover(Family.of(["00", "01", "10", "11"]))
        report = verify_cover(cover, 2)
        assert report.is_valid
        mults = dict(report.histogram)
        assert set(mults) == {1, 2}

    def test_multiplicity_equals_distance(self):
        rng = random.Random(4)
        for _ in range(30):
            d = rng.randint(1, 8)
            fam = random_family(rng, d, rng.randint(2, 10))
            cover = family_to_cover(fam)
            counts = {}
            for i, (left, right) in enumerate(cover.bicliques):
                for u in left:
                    for v in right:
                        e = (u, v) if u < v else (v, u)
                        counts[e] = counts.get(e, 0) + 1
            for a in range(len(fam)):
                for b in range(a + 1, len(fam)):
                    assert counts.get((a, b), 0) == fam[a].distance(fam[b])

    def test_matches_the_per_member_oracle(self):
        # side i collects the members with 0 (resp. 1) at coordinate i, read
        # one member mask at a time; every family has an all-joker coordinate
        # half the time, whose sides are empty
        rng = random.Random(7)
        for _ in range(60):
            d = rng.randint(1, 9)
            fam = random_family(rng, d, rng.randint(2, 40))
            if d > 1 and rng.random() < 0.5:
                j = rng.randrange(d)
                words = dict.fromkeys(w[:j] + "*" + w[j + 1:] for w in fam.texts())
                if len(words) < 2:
                    continue
                fam = Family.of(words)
            expected = tuple(
                (frozenset(v for v, m in enumerate(fam) if m.zero_mask >> i & 1),
                 frozenset(v for v, m in enumerate(fam) if m.one_mask >> i & 1))
                for i in range(d)
            )
            assert family_to_cover(fam) == BicliqueCover(len(fam), expected)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            family_to_cover(Family.of(["01*"]))

    def test_uncovered_edge_flagged(self):
        fam = Family.of(["0*", "00"])  # distance 0 pair
        report = verify_cover(family_to_cover(fam), 1)
        assert not report.is_valid
        assert tuple(report.violations) == ((0, 1, 0),)


class TestCoverToFamily:
    def test_round_trips_constructed_families(self):
        fams = [
            canonical(5),
            ball_family(3, 6),
            extremal_dminus1(5),
            fragmented(FragmentPlan(2, 7, 3, (2, 2, 1))),
            realize_mbar(3, 10),
            canonical(12),
        ]
        for fam in fams:
            assert cover_to_family(family_to_cover(fam)) == fam

    def test_indistinguishable_vertices_rejected(self):
        # one star plus two empty bicliques: vertices 1 and 2 get the same
        # word, i.e. their edge is uncovered
        cover = BicliqueCover.of(3, [({0}, {1, 2}), (set(), set()), (set(), set())])
        with pytest.raises(ValueError, match="indistinguishable"):
            cover_to_family(cover)
        report = verify_cover(cover, 1)
        assert not report.is_valid
        assert (1, 2, 0) in report.violations

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_rejected(self, n):
        # as in family_to_cover: a family of 0 or 1 members has no .nbx text
        # that Family.from_nbx reads back
        with pytest.raises(ValueError, match="^a covering needs at least 2 vertices$"):
            cover_to_family(BicliqueCover.from_dict({"n": n, "bicliques": []}))

    def test_repeated_word_found_among_the_first_vertices(self):
        # two vertices in no biclique share the all-joker word, so only the
        # first len(covered) + 2 vertices need words, not all 10**6
        cover = BicliqueCover.of(10**6, [({0}, {1})])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"vertices 2 and 3 are indistinguishable"):
                cover_to_family(cover)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_star_decomposition_gives_chain_like_family(self):
        n = 6
        bicliques = [({i}, set(range(i + 1, n))) for i in range(n - 1)]
        cover = BicliqueCover.of(n, bicliques)
        fam = cover_to_family(cover)
        assert len(fam) == n and fam.dimension == n - 1
        assert verify_neighborly(fam, 1).is_valid


class TestVerifyCover:
    def test_canonical_chain_valid_up_to_12(self):
        for d in range(2, 13):
            assert verify_cover(family_to_cover(canonical(d)), 1).is_valid

    def test_ball_family_valid(self):
        assert verify_cover(family_to_cover(ball_family(2, 5)), 2).is_valid

    def test_k_zero_always_invalid(self):
        assert not verify_cover(family_to_cover(canonical(2)), 0).is_valid

    def test_report_json_shape(self):
        report = verify_cover(family_to_cover(canonical(2)), 1)
        data = json.loads(json.dumps(report.as_dict()))
        assert data["valid"] is True
        assert data["histogram"] == {"1": 3}


class TestEquivalence:
    def test_neighborly_iff_cover_valid(self):
        rng = random.Random(99)
        for _ in range(120):
            d = rng.randint(1, 8)
            fam = random_family(rng, d, rng.randint(2, 12))
            k = rng.randint(1, d)
            family_ok = verify_neighborly(fam, k).is_valid
            cover_ok = verify_cover(family_to_cover(fam), k).is_valid
            assert family_ok == cover_ok
