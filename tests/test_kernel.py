"""Differential tests of the bit-sliced distance kernel.

Every family-wide pair check in the library runs through
``families._distance_rows``; here each one is compared with a plain pair
loop over ``_oracles.sym_distance`` on random families, and
``verify_cover`` with the edge-dictionary count of
``_oracles.cover_report`` on random biclique covers.  Member counts run up
to 150 and lengths up to 80, so both the member bit-sets and the
coordinate masks cross machine-word boundaries.  Hypothesis runs
derandomized, so the examples are the same on every run.
"""

import random
from itertools import islice, product

from hypothesis import example, given, settings, strategies as st

from nbx import (
    BicliqueCover,
    Family,
    all_strings,
    diameter,
    extremal_dminus1,
    is_partition,
    is_total_lamination,
    realize_mbar,
    verify_cover,
    verify_neighborly,
)
from nbx.families import _distance_rows, _outside
from nbx.search import _build_graph

from _oracles import all_cube_partitions, cover_report, sym_distance, twin_split_partition

KERNEL = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def random_words(rng: random.Random, n: int, d: int, joker_rate: float, binary: bool) -> list[str]:
    """Up to n distinct words of length d (fewer when d is too small)."""
    words: dict[str, None] = {}
    for _ in range(4 * n):
        if len(words) == n:
            break
        word = "".join(
            rng.choice("01") if binary or rng.random() >= joker_rate else "*" for _ in range(d)
        )
        words.setdefault(word)
    return list(words)


@st.composite
def random_families(draw, binary: bool = False):
    # sizes on both sides of the 30-bit int digits and 64-bit words
    d = draw(st.integers(1, 80) | st.sampled_from([30, 31, 64, 65, 80]))
    n = draw(st.integers(1, 150) | st.sampled_from([60, 61, 64, 65, 128, 129, 150]))
    joker_rate = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_words(random.Random(seed), n, d, joker_rate, binary)


@st.composite
def families_and_k(draw):
    words = draw(random_families())
    return words, draw(st.integers(1, len(words[0])))


def oracle_distances(words: list[str]) -> list[list[int]]:
    n = len(words)
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = sym_distance(words[i], words[j])
    return dist


def as_mask(bits) -> int:
    return sum(1 << j for j in bits)


@KERNEL
@given(random_families())
def test_counter_columns_and_every_k(words):
    fam = Family.of(words)
    d, n = fam.dimension, len(words)
    dist = oracle_distances(words)
    full = (1 << n) - 1
    zs = [m.zero_mask for m in fam]
    os_ = [m.one_mask for m in fam]
    seen = []
    for i, count in _distance_rows(zs, os_, d):
        seen.append(i)
        assert len(count) == d.bit_length()
        for j in range(n):
            assert sum((s >> j & 1) << b for b, s in enumerate(count)) == dist[i][j]
        for k in range(1, d + 1):
            assert _outside(count, k, full) == as_mask(j for j in range(n)
                                                       if not 1 <= dist[i][j] <= k)
    assert sorted(seen) == list(range(n))


def assert_rows_match_oracle(words: list[str]) -> None:
    """Every index is yielded once, with the oracle's distances in its columns."""
    fam = Family.of(words)
    zs = [m.zero_mask for m in fam]
    os_ = [m.one_mask for m in fam]
    dist = oracle_distances(words)
    seen = []
    for i, count in _distance_rows(zs, os_, fam.dimension):
        seen.append(i)
        got = [sum((s >> j & 1) << b for b, s in enumerate(count)) for j in range(len(words))]
        assert got == dist[i], (words[i], i)
    assert sorted(seen) == list(range(len(words)))


def test_rows_on_families_with_shared_prefixes():
    # rows restart from the longest prefix shared with the previous row, so
    # families whose members share long prefixes reuse the most counters
    rng = random.Random(11)
    families = [extremal_dminus1(d).texts() for d in range(2, 8)]
    families.append(realize_mbar(2, 6).texts())
    families += [["".join(w) for w in product("01*", repeat=d)] for d in range(1, 5)]
    for words in families:
        assert_rows_match_oracle(words)
        shuffled = words[:]
        rng.shuffle(shuffled)
        assert_rows_match_oracle(shuffled)
        assert_rows_match_oracle(shuffled[::-1])


def test_rows_of_one_member_and_of_length_one():
    for words in (["*"], ["0"], ["1"], ["01*"], ["1", "0"], ["*", "1"], ["0", "*", "1"]):
        assert_rows_match_oracle(words)
    assert list(_distance_rows([0b10], [0b01], 2)) == [(0, [0, 0])]


@KERNEL
@given(families_and_k())
# rows run in prefix-trie order, 00 first: its minimum is 1, and the one
# pair at distance 0, 1* and 11, lies in a later row
@example((["00", "01", "1*", "11"], 2))
# row 000 takes the maximum to k = 1; the later row 111 holds only 3 and 2
@example((["111", "000", "001"], 1))
# complements at d = 2^w - 1 set every slice of the w-slice counter, so the
# complemented counter that gives the smallest distance is all zeros
@example((["0", "1"], 1))
@example((["000", "111"], 3))
@example((["0" * 7, "1" * 7], 7))
@example((["0" * 15, "1" * 15], 15))
def test_verify_neighborly(words_and_k):
    words, k = words_and_k
    fam = Family.of(words)
    dist = oracle_distances(words)
    pairs = [(i, j, dist[i][j]) for i in range(len(words)) for j in range(i + 1, len(words))]
    report = verify_neighborly(fam, k)
    assert list(report.violations) == [p for p in pairs if p[2] == 0 or p[2] > k]
    assert report.is_valid == (not report.violations)
    assert report.min_distance == min((p[2] for p in pairs), default=None)
    assert report.max_distance == max((p[2] for p in pairs), default=None)


@KERNEL
@given(
    st.integers(1, 40),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.3, 0.6]),
    st.integers(0, 2**32 - 1),
)
def test_verify_neighborly_extremes_inside_the_window(d, gap, joker_rate, seed):
    # a greedy code at distance >= gap keeps the minimum above 1 when gap > 1,
    # and every k at or above the largest distance leaves the maximum below k
    words: list[str] = []
    for w in random_words(random.Random(seed), 80, d, joker_rate, False):
        if all(sym_distance(w, v) >= gap for v in words):
            words.append(w)
    fam = Family.of(words)
    dist = [sym_distance(a, b) for i, a in enumerate(words) for b in words[i + 1 :]]
    lo, hi = min(dist, default=None), max(dist, default=None)
    for k in range(1, d + 1):
        report = verify_neighborly(fam, k)
        assert (report.min_distance, report.max_distance) == (lo, hi), k
        assert len(report.violations) == sum(1 for x in dist if x == 0 or x > k)


@KERNEL
@given(random_families(), st.data())
def test_violations_behave_as_the_tuple_of_triples(words, data):
    fam = Family.of(words)
    k = data.draw(st.integers(1, fam.dimension))
    dist = oracle_distances(words)
    n = len(words)
    want = tuple(
        (i, j, dist[i][j])
        for i in range(n)
        for j in range(i + 1, n)
        if dist[i][j] == 0 or dist[i][j] > k
    )
    got = verify_neighborly(fam, k).violations
    assert len(got) == len(want) and bool(got) == bool(want)
    assert tuple(got) == want
    assert (0, 0, 0) not in got and [0, 1, 0] not in got
    if want:
        probe = data.draw(st.sampled_from(want))
        assert probe in got
        assert (probe[0], probe[1], probe[2] + 1) not in got


def oracle_rows(words: list[str], bad) -> list[tuple[int, list[int], list[int]]]:
    """``(i, js, dists)`` for each row i with a pair j > i whose distance
    ``bad`` flags, by ``sym_distance``."""
    rows = []
    for i, w in enumerate(words):
        pairs = [(j, sym_distance(w, v)) for j, v in enumerate(words) if j > i]
        pairs = [(j, x) for j, x in pairs if bad(x)]
        if pairs:
            rows.append((i, [j for j, _ in pairs], [x for _, x in pairs]))
    return rows


@KERNEL
@given(families_and_k())
# word t - 1 is "*" * t + "0" * (5 - t), at distance 0 from the later joker
# words and from 2^t of the 32 binary words that follow, which are within
# k = 5 of each other: five rows of 6, 7, 10, 17 and 32
@example((["*" * t + "0" * (5 - t) for t in range(1, 6)]
          + ["".join(w) for w in product("01", repeat=5)], 5))
def test_row_expansion_matches_the_symbol_oracle(words_and_k):
    # d runs to 80, so the packed masks z | o << d pass 64 bits and more
    words, k = words_and_k
    got = list(verify_neighborly(Family.of(words), k).violations._expand())
    assert got == oracle_rows(words, lambda x: x == 0 or x > k)


def test_row_expansion_of_long_rows():
    # two joker words at d = 40 are at distance 0 from each other and from
    # every binary word; the binary words are within k = 13 of each other
    binary = ["".join(w) + "0" * 27 for w in islice(product("01", repeat=13), 4098)]
    words = ["*" * 40, "*" * 39 + "0", *binary]
    rows = list(verify_neighborly(Family.of(words), 13).violations._expand())
    assert [len(js) for _, js, _ in rows] == [4099, 4098]
    assert rows == [(i, list(range(i + 1, len(words))),
                     [sym_distance(words[i], w) for w in words[i + 1 :]]) for i in (0, 1)]


@KERNEL
@given(random_families(binary=True))
def test_diameter(words):
    dist = oracle_distances(words)
    assert diameter(Family.of(words).members) == max(max(row) for row in dist)


def test_build_graph():
    # the build's input is a candidate set, closed under the cube group;
    # limit = d, the set of every word, is the candidate set of no k
    for d, limit in [(d, limit) for d in range(1, 6) for limit in range(d + 1)]:
        strings = sorted((s for s in all_strings(d) if s.jokers <= limit), key=str)
        words = [str(s) for s in strings]
        dist = oracle_distances(words)
        n = len(words)
        for k in range(1, d + 1):
            near = [[1 <= dist[i][j] <= k for j in range(n)] for i in range(n)]
            # the walk takes the highest bit first, so it lists its preference last-first
            order = sorted(range(n), key=lambda i: (-sum(near[i]), words[i].count("*"), words[i]))
            order.reverse()
            walk, nadj, vols, masks = _build_graph(strings, k)
            assert [words[i] for i in walk] == [words[i] for i in order], (d, limit, k)
            # volumes and (zero, one) masks in walk order, read off the text
            assert vols == [2 ** words[u].count("*") for u in order]
            assert masks == [tuple(as_mask(j for j, ch in enumerate(words[u]) if ch == sym)
                                   for sym in "01") for u in order]
            # the closed non-neighbourhoods; a row that kept its own index
            # would never let the walk's colour peel end
            assert nadj == [as_mask(b for b, v in enumerate(order) if v != u and not near[u][v])
                            for u in order], (d, limit, k)
            assert not any(row >> v & 1 for v, row in enumerate(nadj))


def oracle_is_partition(words: list[str]) -> bool:
    d = len(words[0])
    if sum(2 ** w.count("*") for w in words) != 2**d:
        return False
    return all(sym_distance(a, b) for i, a in enumerate(words) for b in words[i + 1 :])


def oracle_is_total_lamination(words: list[str]) -> bool:
    d = len(words[0])
    if len(words) == 1 and words[0] == "*" * d:
        return True
    if len(words) == 2**d and all("*" not in w for w in words):
        return True
    if not oracle_is_partition(words):
        return False
    for c in range(d):
        if any(w[c] == "*" for w in words):
            continue
        sides = [[w[:c] + w[c + 1 :] for w in words if w[c] == s] for s in "01"]
        if all(oracle_is_total_lamination(side) for side in sides):
            return True
    return False


@KERNEL
@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.booleans())
def test_partition_and_total_lamination(d, seed, perturb):
    rng = random.Random(seed)
    words = twin_split_partition(d, rng, max_members=60).texts()
    if perturb:
        # swap one 0/1 symbol: the volume stays 2^d, the cover usually breaks
        i = rng.randrange(len(words))
        coords = [c for c, ch in enumerate(words[i]) if ch != "*"]
        if coords:
            c = rng.choice(coords)
            flipped = words[i][:c] + ("1" if words[i][c] == "0" else "0") + words[i][c + 1 :]
            if flipped not in words:
                words[i] = flipped
    fam = Family.of(words)
    assert is_partition(fam) == oracle_is_partition(words)
    assert is_total_lamination(fam) == oracle_is_total_lamination(words)


def test_every_partition_of_the_3_cube():
    # includes the pinwheel partitions, which are not total laminations
    for members in all_cube_partitions(3):
        words = [str(m) for m in members]
        fam = Family(3, members)
        assert is_partition(fam) and oracle_is_partition(words)
        assert is_total_lamination(fam) == oracle_is_total_lamination(words)


@st.composite
def random_covers(draw):
    # arbitrary covers, not only ones read off a family: vertices in no
    # biclique, repeated bicliques, empty bicliques, n < 2 and d = 0
    n = draw(st.integers(0, 40) | st.sampled_from([0, 1, 2, 30, 31, 32]))
    d = draw(st.integers(0, 12) | st.sampled_from([0, 30, 31, 33]))
    absent = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    bicliques = []
    for _ in range(d):
        if bicliques and rng.random() < 0.2:
            bicliques.append(rng.choice(bicliques))
            continue
        sides = ([], [])
        for v in range(n):
            if rng.random() >= absent:
                sides[rng.random() < 0.5].append(v)
        bicliques.append(sides)
    return BicliqueCover.of(n, bicliques)


def cover_fields(report) -> tuple:
    return report.is_valid, report.histogram, tuple(report.violations)


@settings(KERNEL, max_examples=100)
@given(random_covers())
def test_verify_cover(cover):
    for k in range(-1, cover.d + 3):  # k > d exercises the clamp to d
        assert cover_fields(verify_cover(cover, k)) == cover_fields(cover_report(cover, k)), k


def test_verify_cover_with_indistinguishable_vertices():
    # vertices 0, 1 and 4 share a word (so do 2 and 5): their edges are
    # covered 0 times, and equal words give the kernel an empty restart
    cover = BicliqueCover.of(6, [({0, 1, 4}, {2, 5}), ({0, 1, 4, 3}, set()), ({3}, {2, 5})])
    for k in range(-1, cover.d + 2):
        assert cover_fields(verify_cover(cover, k)) == cover_fields(cover_report(cover, k)), k
    assert {(0, 1, 0), (0, 4, 0), (1, 4, 0), (2, 5, 0)} <= set(verify_cover(cover, 3).violations)


def cover_words(cover: BicliqueCover) -> list[str]:
    """Vertex v's word: 0 where v is in L_i, 1 where in R_i, else a joker."""
    return ["".join("0" if v in left else "1" if v in right else "*"
                    for left, right in cover.bicliques) for v in range(cover.n)]


@settings(KERNEL, max_examples=100)
@given(random_covers())
@example(BicliqueCover.of(6, [({0, 1, 4}, {2, 5}), ({0, 1, 4, 3}, set()), ({3}, {2, 5})]))
def test_row_expansion_of_covers_matches_the_symbol_oracle(cover):
    # covers may repeat a vertex word; the example has two repeated words
    words = cover_words(cover)
    for k in range(-1, cover.d + 2):
        got = list(verify_cover(cover, k).violations._expand())
        assert got == oracle_rows(words, lambda x: not 1 <= x <= k), k
