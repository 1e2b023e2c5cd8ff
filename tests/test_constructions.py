import random

import pytest

from nbx import (
    Family,
    FragmentPlan,
    alon_lower,
    ball_family,
    canonical,
    extremal_dminus1,
    fragmented,
    fragmented_parts,
    is_partition,
    is_total_lamination,
    m_value,
    mbar_value,
    product,
    realize_mbar,
    verify_neighborly,
    volume,
)
from nbx import TernaryString
from nbx.constructions import _checked

from _oracles import best_fragmented_plan

# Published reference row: best fragmented-construction sizes for k = 2,
# dimensions 3..18.
M2_ROW = [6, 9, 12, 16, 21, 27, 33, 40, 48, 56, 65, 75, 85, 96, 108, 120]


class TestCanonical:
    def test_small_families(self):
        assert canonical(1).texts() == ["0", "1"]
        assert canonical(2).texts() == ["00", "01", "1*"]
        assert canonical(3).texts() == ["000", "001", "01*", "1**"]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            canonical(0)

    def test_sizes_and_neighborliness(self):
        for d in range(1, 17):
            fam = canonical(d)
            assert len(fam) == d + 1
            assert verify_neighborly(fam, 1).is_valid

    def test_partition_and_total_lamination(self):
        for d in range(1, 17):
            fam = canonical(d)
            assert is_partition(fam)
            assert is_total_lamination(fam)


class TestBallFamily:
    def test_sizes(self):
        assert len(ball_family(2, 4)) == 5
        assert len(ball_family(3, 5)) == 6
        for d in range(2, 9):
            assert len(ball_family(1, d)) == 1

    def test_neighborly_and_binary(self):
        fam = ball_family(4, 7)
        assert all(m.is_binary for m in fam)
        assert verify_neighborly(fam, 4).is_valid

    def test_range_errors(self):
        with pytest.raises(ValueError):
            ball_family(4, 4)
        with pytest.raises(ValueError):
            ball_family(0, 4)


class TestProduct:
    def test_worked_example(self):
        fam = product(canonical(3), canonical(4))
        assert len(fam) == 20
        assert fam.dimension == 7
        assert verify_neighborly(fam, 2).is_valid

    def test_joker_padding_keeps_k(self):
        pad = Family.of(["***"])
        fam = product(canonical(4), pad)
        assert len(fam) == 5
        assert verify_neighborly(fam, 1).is_valid

    def test_small_product(self):
        fam = product(canonical(2), canonical(1))
        assert len(fam) == 6
        assert verify_neighborly(fam, 2).is_valid

    def test_products_are_total_laminations(self):
        assert is_total_lamination(product(canonical(2), canonical(3)))
        assert is_total_lamination(product(canonical(1), product(canonical(2), canonical(2))))


class TestFragmented:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FragmentPlan(2, 7, 3, (2, 2))  # wrong arity
        with pytest.raises(ValueError):
            FragmentPlan(2, 7, 3, (3, 2, 1))  # wrong sum
        with pytest.raises(ValueError):
            FragmentPlan(2, 7, 3, (4, 1, 0))  # nonpositive block
        with pytest.raises(ValueError):
            FragmentPlan(3, 4, 2, (2, 2))  # k > m
        with pytest.raises(ValueError):
            FragmentPlan(2, 20, 6, (2, 1, 1, 1, 1, 1))  # d < C(m,k)+m-1

    def test_plan_dimension_too_small(self):
        # C(3,2) + 3 - 1 = 5 coordinates needed, 4 given
        with pytest.raises(ValueError, match="d too small"):
            FragmentPlan(2, 4, 3, (1, 1, 1))

    def test_worked_example_2_7(self):
        plan = FragmentPlan(2, 7, 3, (2, 2, 1))
        parts = fragmented_parts(plan)
        assert [len(f) for _, f in parts] == [9, 6, 6]
        fam = fragmented(plan)
        assert len(fam) == 21
        assert verify_neighborly(fam, 2).is_valid

    def test_worked_example_3_10(self):
        plan = FragmentPlan(3, 10, 4, (2, 2, 2, 1))
        parts = fragmented_parts(plan)
        assert [len(f) for _, f in parts] == [27, 18, 18, 18]
        fam = fragmented(plan)
        assert len(fam) == 81
        assert verify_neighborly(fam, 3).is_valid

    def test_k_equals_m_is_a_plain_product(self):
        plan = FragmentPlan(2, 5, 2, (3, 2))
        fam = fragmented(plan)
        assert len(fam) == 4 * 3
        assert fam == product(canonical(3), canonical(2))

    def test_size_formula(self):
        plan = FragmentPlan(2, 9, 3, (3, 2, 2))
        assert plan.size() == 4 * 3 + 4 * 3 + 3 * 3
        assert len(fragmented(plan)) == plan.size()

    def test_outputs_are_total_laminations(self):
        for plan in [
            FragmentPlan(2, 7, 3, (2, 2, 1)),
            FragmentPlan(3, 10, 4, (2, 2, 2, 1)),
            FragmentPlan(2, 8, 3, (2, 2, 2)),
            FragmentPlan(1, 6, 1, (6,)),
        ]:
            fam = fragmented(plan)
            assert is_total_lamination(fam)
            assert is_partition(fam)


class TestExtremal:
    def test_d2(self):
        assert extremal_dminus1(2).texts() == ["00", "01", "1*"]

    def test_d3(self):
        fam = extremal_dminus1(3)
        assert len(fam) == 6
        assert verify_neighborly(fam, 2).is_valid
        assert volume(fam) == 8

    def test_size_formula(self):
        for d in range(2, 13):
            assert len(extremal_dminus1(d)) == 3 * 2 ** (d - 2)

    def test_partition_with_full_volume(self):
        for d in range(2, 11):
            fam = extremal_dminus1(d)
            assert is_partition(fam)
            assert volume(fam) == 1 << d

    def test_neighborliness_mid_range(self):
        for d in range(2, 11):
            assert verify_neighborly(extremal_dminus1(d), d - 1).is_valid

    def test_neighborliness_sampled_large(self):
        rng = random.Random(13)
        for d in (13, 15):
            fam = extremal_dminus1(d)
            members = fam.members
            for _ in range(20000):
                x = rng.choice(members)
                y = rng.choice(members)
                if x is y:
                    continue
                assert 1 <= x.distance(y) <= d - 1

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            extremal_dminus1(1)


class TestChecked:
    def test_large_invalid_family_is_rejected(self):
        # binary words 0..4096 of length 13: one complementary pair,
        # 4095 and 4096, is at distance 13
        fam = Family(13, tuple(TernaryString(13, ~w & 0x1FFF, w) for w in range(4097)))
        with pytest.raises(AssertionError, match=r"not 12-neighborly: \(\(4095, 4096, 13\),\)"):
            _checked(fam, 12, 4097)

    def test_wrong_size_is_rejected(self):
        with pytest.raises(AssertionError, match="produced 4 members, expected 5"):
            _checked(canonical(3), 1, 5)


class TestMValue:
    def test_table_row_k2(self):
        assert [m_value(2, d).value for d in range(3, 19)] == M2_ROW

    def test_worked_values(self):
        assert m_value(2, 7).value == 21
        assert m_value(3, 10).value == 81
        assert m_value(2, 18).value == 120

    def test_witness_consistent(self):
        for k, d in [(1, 5), (2, 7), (3, 10), (2, 12), (4, 11)]:
            res = m_value(k, d)
            assert res.plan.size() == res.value
            assert len(fragmented(res.plan)) == res.value

    def test_infeasible(self):
        with pytest.raises(ValueError):
            m_value(3, 2)

    def test_at_least_product_bound(self):
        for d in range(1, 17):
            for k in range(1, d + 1):
                assert m_value(k, d).value >= alon_lower(k, d)

    def test_matches_exhaustive_composition_scan(self):
        for d in range(1, 19):
            for k in range(1, d + 1):
                res = m_value(k, d)
                assert (res.value, res.plan.m, res.plan.a) == best_fragmented_plan(k, d)

    def test_large_dimension_m_value(self):
        # polynomial evaluation keeps working far beyond the test grid
        for k, d in [(2, 40), (2, 200)]:
            res = m_value(k, d)
            assert res.value == res.plan.size()
            assert res.value >= alon_lower(k, d)

    def test_k1_is_linear(self):
        for d in range(1, 12):
            assert m_value(1, d).value == d + 1

    def test_json_shape(self):
        assert m_value(2, 7).as_dict() == {"value": 21, "m": 3, "a": [2, 2, 1]}


class TestMbarValue:
    def test_worked_value(self):
        assert mbar_value(3, 10).value == 84

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError, match="requires 1 <= k <= d"):
            mbar_value(3, 2)

    def test_k1_no_split_helps(self):
        for d in range(1, 12):
            assert mbar_value(1, d).value == d + 1

    def test_dominates_m_value(self):
        for d in range(1, 17):
            for k in range(1, d + 1):
                assert mbar_value(k, d).value >= m_value(k, d).value

    def test_pascal_inequality(self):
        for d in range(2, 17):
            for k in range(2, d + 1):
                rhs = mbar_value(k - 1, d - 1).value
                rhs += mbar_value(k, d - 1).value if k <= d - 1 else 1 << (d - 1)
                assert mbar_value(k, d).value <= rhs

    def test_witness_parts_multiply_out(self):
        for k, d in [(3, 10), (2, 9), (4, 12), (5, 13)]:
            res = mbar_value(k, d)
            prod = 1
            ks = ds = 0
            for plan in res.parts:
                prod *= plan.size()
                ks += plan.k
                ds += plan.d
            assert prod == res.value
            assert (ks, ds) == (k, d)

    def test_json_shape(self):
        data = mbar_value(3, 10).as_dict()
        assert data["value"] == 84
        assert {(p["k"], p["d"]) for p in data["parts"]} == {(1, 3), (2, 7)}


class TestRealizeMbar:
    def test_worked_example(self):
        fam = realize_mbar(3, 10)
        assert len(fam) == 84
        assert verify_neighborly(fam, 3).is_valid

    def test_k1(self):
        for d in (1, 4, 9):
            assert len(realize_mbar(1, d)) == d + 1

    def test_2_7(self):
        fam = realize_mbar(2, 7)
        assert len(fam) == 21
        assert verify_neighborly(fam, 2).is_valid

    def test_realized_sizes_match_optimizer(self):
        for d in range(1, 11):
            for k in range(1, d + 1):
                fam = realize_mbar(k, d)
                assert len(fam) == mbar_value(k, d).value
                assert verify_neighborly(fam, k).is_valid

    def test_outputs_are_total_laminations(self):
        for k, d in [(2, 7), (3, 10), (2, 6), (4, 8)]:
            assert is_total_lamination(realize_mbar(k, d))

    def test_at_most_d_minus_k_jokers(self):
        # so every word is a search candidate, and the search seeds with them all
        for d in range(1, 11):
            for k in range(1, d + 1):
                assert max(m.jokers for m in realize_mbar(k, d)) <= d - k, (k, d)

