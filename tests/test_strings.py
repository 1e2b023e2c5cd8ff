import itertools
import random

import pytest

from nbx import TernaryString, all_jokers, all_strings, parse

from _oracles import sym_distance, sym_subcube


def t(text):
    return TernaryString.parse(text)


class TestParseFormat:
    def test_round_trip(self):
        for text in ["0", "1", "*", "01*", "1**", "0011", "*" * 9, "10*01"]:
            assert str(parse(text)) == text

    def test_masks(self):
        s = parse("01*")
        assert s.length == 3
        assert s.zeros() == frozenset({1})
        assert s.ones() == frozenset({2})
        assert s.jokers == 1

    def test_illegal_character(self):
        with pytest.raises(ValueError, match="illegal character"):
            parse("01x")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse("")

    def test_overlapping_masks_rejected(self):
        with pytest.raises(ValueError):
            TernaryString(2, 0b01, 0b01)

    def test_length_and_masks_checked(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TernaryString(-1, 0, 0)
        with pytest.raises(ValueError, match="outside"):
            TernaryString(2, 0b100, 0)

    def test_repr(self):
        assert repr(parse("01*")) == "TernaryString('01*')"


def _ref_parse(text):
    """Per-symbol reference for TernaryString.parse: (length, zeros, ones)."""
    zeros = ones = 0
    for pos, ch in enumerate(text):
        if ch == "0":
            zeros |= 1 << pos
        elif ch == "1":
            ones |= 1 << pos
        elif ch != "*":
            raise ValueError(f"illegal character {ch!r} at position {pos + 1}")
    return len(text), zeros, ones


def _ref_str(s):
    """Per-symbol reference for str(TernaryString)."""
    return "".join(
        "0" if s.zero_mask >> pos & 1 else "1" if s.one_mask >> pos & 1 else "*"
        for pos in range(s.length)
    )


class TestTextCodec:
    @pytest.mark.parametrize("length", [*range(1, 41), 300, 5_000])
    def test_matches_per_symbol_reference(self, length):
        # random words, and the three uniform ones
        rng = random.Random(length)
        texts = [ch * length for ch in "01*"]
        texts += ["".join(rng.choice("01*") for _ in range(length))
                  for _ in range(20 if length <= 300 else 3)]
        for text in texts:
            s = parse(text)
            assert (s.length, s.zero_mask, s.one_mask) == _ref_parse(text)
            assert str(s) == _ref_str(s) == text

    def test_empty_word_prints_empty(self):
        assert str(TernaryString(0, 0, 0)) == ""

    @pytest.mark.parametrize("ch", ["_", " ", "\n", "\t", "2", "x", "\u00e9"])
    def test_illegal_character_message(self, ch):
        for pos in (0, 4, 9):
            text = "01*01*01*0"
            text = text[:pos] + ch + text[pos + 1:]
            with pytest.raises(ValueError) as exc:
                _ref_parse(text)
            with pytest.raises(ValueError) as got:
                parse(text)
            assert str(got.value) == str(exc.value) == f"illegal character {ch!r} at position {pos + 1}"

    def test_first_illegal_character_is_named(self):
        with pytest.raises(ValueError, match=r"^illegal character 'x' at position 2$"):
            parse("0x1 x")
        with pytest.raises(ValueError, match=r"^illegal character ' ' at position 1$"):
            parse(" 01_")


class TestDistance:
    def test_identity(self):
        for text in ["000", "01*", "***"]:
            assert t(text).distance(t(text)) == 0

    def test_examples(self):
        assert t("000").distance(t("111")) == 3
        assert t("01*").distance(t("10*")) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            t("00").distance(t("000"))

    def test_every_pair_check_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            t("00").is_twin(t("000"))

    def test_matches_symbol_oracle_exhaustively(self):
        for d in (1, 2, 3):
            words = ["".join(w) for w in itertools.product("01*", repeat=d)]
            for a in words:
                for b in words:
                    assert t(a).distance(t(b)) == sym_distance(a, b)

    def test_symmetry_and_bounds_random(self):
        rng = random.Random(7)
        for _ in range(300):
            d = rng.randint(1, 40)
            a = "".join(rng.choice("01*") for _ in range(d))
            b = "".join(rng.choice("01*") for _ in range(d))
            x, y = t(a), t(b)
            dist = x.distance(y)
            assert dist == y.distance(x)
            assert 0 <= dist <= min(d - x.jokers, d - y.jokers)


class TestUnaryViews:
    def test_joker_count(self):
        assert t("01*").jokers == 1
        assert t("***").jokers == 3
        assert t("000").jokers == 0

    def test_prop_set(self):
        assert t("0*1").prop_set() == frozenset({1, 3})
        assert t("***").prop_set() == frozenset()
        assert t("10").prop_set() == frozenset({1, 2})

    def test_sign(self):
        assert t("000").sign == 1
        assert t("01*").sign == -1
        assert t("11*").sign == 1

    def test_sign_flips_on_toggle(self):
        rng = random.Random(11)
        for _ in range(200):
            d = rng.randint(1, 20)
            s = TernaryString(
                d,
                *_random_masks(rng, d),
            )
            props = [i for i in range(d) if s.prop_mask >> i & 1]
            if not props:
                continue
            bit = 1 << rng.choice(props)
            flipped = TernaryString(d, s.zero_mask ^ bit, s.one_mask ^ bit)
            assert flipped.sign == -s.sign


def _random_masks(rng, d):
    zeros = ones = 0
    for i in range(d):
        r = rng.random()
        if r < 1 / 3:
            zeros |= 1 << i
        elif r < 2 / 3:
            ones |= 1 << i
    return zeros, ones


class TestTwins:
    def test_binary_twin(self):
        assert t("000").is_twin(t("001"))
        assert str(t("000").twin_union(t("001"))) == "00*"

    def test_jokered_twin(self):
        assert t("00*").is_twin(t("01*"))
        assert str(t("00*").twin_union(t("01*"))) == "0**"

    def test_two_conflicts_is_not_twin(self):
        assert not t("00").is_twin(t("11"))

    def test_mismatched_jokers_is_not_twin(self):
        assert not t("00*").is_twin(t("011"))

    def test_union_of_non_twin_raises(self):
        with pytest.raises(ValueError, match="not a twin"):
            t("00").twin_union(t("11"))

    def test_union_grows_joker_count_and_merges_subcubes(self):
        for d in (1, 2, 3, 4):
            words = list(all_strings(d))
            for x in words:
                for y in words:
                    if not x.is_twin(y):
                        continue
                    u = x.twin_union(y)
                    assert u.jokers == x.jokers + 1
                    merged = sorted(set(sym_subcube(str(x))) | set(sym_subcube(str(y))))
                    assert sorted(sym_subcube(str(u))) == merged


class TestConcat:
    def test_concat_examples(self):
        assert str(t("0") + t("1*")) == "01*"
        assert str(t("00").concat(t("**"))) == "00**"
        assert str(t("1**") + t("0")) == "1**0"
        # a run of words, the receiver in the lowest coordinates
        assert t("*01").concat() == t("*01")
        assert str(t("0").concat(t("1*"), t("*10"))) == "01**10"
        empty = TernaryString(0, 0, 0)
        assert str(t("10").concat(empty, t("*"), empty)) == "10*"
        assert empty.concat(t("01"), empty) == t("01")

    def test_concat_appends_coordinate(self):
        rng = random.Random(3)
        for _ in range(100):
            d = rng.randint(1, 12)
            s = TernaryString(d, *_random_masks(rng, d))
            assert s + t("1") == TernaryString(d + 1, s.zero_mask, s.one_mask | 1 << d)


class TestSubcube:
    def test_subcube_size(self):
        assert len(list(t("0**").subcube())) == 4
        assert len(list(t("01").subcube())) == 1

    def test_subcube_matches_oracle(self):
        for d in (1, 2, 3):
            for s in all_strings(d):
                got = sorted(str(v) for v in s.subcube())
                assert got == sorted(sym_subcube(str(s)))

    def test_disjoint_iff_positive_distance(self):
        # subcubes overlap exactly when no coordinate forces a 0/1 conflict
        for d in (1, 2, 3, 4):
            cubes = [(s, set(sym_subcube(str(s)))) for s in all_strings(d)]
            for x, px in cubes:
                for y, py in cubes:
                    assert (x.distance(y) >= 1) == (not (px & py))

    def test_hamming_spread_bound(self):
        # points of two subcubes differ in at most distance + jokers + jokers
        for d in (1, 2, 3, 4):
            words = list(all_strings(d))
            for x in words:
                px = [p.one_mask for p in x.subcube()]
                for y in words:
                    bound = x.distance(y) + x.jokers + y.jokers
                    for u in px:
                        for v in (p.one_mask for p in y.subcube()):
                            assert (u ^ v).bit_count() <= bound


class TestGenerators:
    def test_counts(self):
        assert len(list(all_strings(3))) == 27
        assert all_jokers(3).jokers == 3

    def test_all_strings_unique(self):
        seen = {str(s) for s in all_strings(3)}
        assert len(seen) == 27


class TestLargeDimensions:
    def test_beyond_machine_words(self):
        # masks are plain integers, so d > 64 needs no special casing
        d = 100
        a = TernaryString.parse("01" * 50)
        b = TernaryString.parse("10" * 50)
        assert a.distance(b) == d
        padded = a + TernaryString.parse("*" * 30)
        assert padded.length == 130 and padded.jokers == 30

    def test_large_family_verification(self):
        from nbx import Family, verify_neighborly, volume

        d = 80
        rows = ["0" * i + "1" + "*" * (d - i - 1) for i in range(d)] + ["0" * d]
        fam = Family.of(rows)
        assert verify_neighborly(fam, 1).is_valid
        assert volume(fam) == 1 << d
