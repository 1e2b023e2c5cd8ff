import hashlib
from fractions import Fraction

import pytest

from nbx import (
    Bound,
    BoundsEntry,
    GreedyProfile,
    NoValidSplit,
    alon_lower,
    alon_upper,
    ball_lower,
    best_bounds,
    bounds_table,
    greedy_kappa_upper,
    huang_sudakov_upper,
    kappa,
    m_value,
    mbar_value,
    pascal_audit,
    refined_upper,
    split_upper,
    split_upper_best,
    strict_floor,
)

from nbx.bounds import _halved

from _oracles import max_diameter_set_size, profile_optimum

# The 14 cells of the published comparison table, as (k, d) -> product bound.
ALON_ROW = {
    (2, 5): 12, (3, 5): 18,
    (2, 6): 16, (3, 6): 27, (4, 6): 36,
    (2, 7): 20, (3, 7): 36, (4, 7): 54, (5, 7): 72,
    (2, 8): 25, (3, 8): 48, (4, 8): 81, (5, 8): 108, (6, 8): 144,
}


class TestStrictFloor:
    def test_on_integers(self):
        assert strict_floor(Fraction(6)) == 5
        assert strict_floor(Fraction(0)) == -1

    def test_on_non_integers(self):
        assert strict_floor(Fraction(11, 2)) == 5
        assert strict_floor(Fraction(-3, 2)) == -2

    def test_is_largest_integer_below(self):
        for num in range(-20, 21):
            for den in (1, 2, 3, 4):
                x = Fraction(num, den)
                f = strict_floor(x)
                assert f < x <= f + 1


class TestKappa:
    def test_examples(self):
        assert kappa(2, 4) == 5
        assert kappa(3, 5) == 10
        assert kappa(0, 3) == 1

    def test_saturates(self):
        for d in range(1, 10):
            for s in range(d, d + 3):
                assert kappa(s, d) == 1 << d

    def test_near_full_diameter(self):
        for d in range(2, 21):
            assert kappa(d - 1, d) == 1 << (d - 1)

    def test_nondecreasing_and_saturation_point(self):
        for d in range(1, 13):
            values = [kappa(s, d) for s in range(0, d + 2)]
            assert values == sorted(values)
            for s, v in enumerate(values):
                assert (v == 1 << d) == (s >= d)

    def test_matches_diameter_set_search(self):
        for d in range(1, 6):
            for s in range(0, d + 1):
                assert kappa(s, d) == max_diameter_set_size(s, d)

    def test_errors(self):
        with pytest.raises(ValueError):
            kappa(-1, 3)
        with pytest.raises(ValueError):
            kappa(1, 0)


class TestClosedFormBounds:
    def test_alon_lower_row(self):
        for (k, d), want in ALON_ROW.items():
            assert alon_lower(k, d) == want

    def test_alon_upper_example(self):
        assert alon_upper(1, 3) == 7

    def test_huang_sudakov(self):
        for d in range(1, 17):
            assert huang_sudakov_upper(1, d) == d + 1
        assert huang_sudakov_upper(2, 4) == 17

    def test_huang_sudakov_below_alon(self):
        for d in range(1, 17):
            for k in range(1, d + 1):
                assert huang_sudakov_upper(k, d) <= alon_upper(k, d)

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError, match="got k=3, d=2"):
            alon_lower(3, 2)
        with pytest.raises(ValueError, match="k <= d-1"):
            ball_lower(3, 3)

    def test_alon_upper_growth_chain(self):
        # the binomial sum stays below 2*(2e)^k*(d/k)^k; checked in exact
        # rational arithmetic with a certified lower rational for e (which
        # only makes the inequality harder to satisfy)
        e_lo = Fraction(2718281828459045, 10**15)
        for d in range(1, 33):
            for k in range(1, d + 1):
                rhs = 2 * (2 * e_lo) ** k * Fraction(d, k) ** k
                assert Fraction(alon_upper(k, d)) < rhs


class TestSplitUpper:
    def test_examples(self):
        assert split_upper(5, 8, 1) == 221
        assert split_upper(5, 8, 2) == 227
        assert split_upper_best(5, 8) == (221, 1)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            split_upper(5, 8, 3)
        with pytest.raises(ValueError):
            split_upper(2, 5, 0)

    def test_no_valid_split_at_k_equals_d(self):
        with pytest.raises(NoValidSplit):
            split_upper_best(4, 4)

    def test_smallest_t_wins_ties(self):
        value, t = split_upper_best(2, 9)
        assert value == min(split_upper(2, 9, s) for s in range(1, 4))
        assert all(split_upper(2, 9, s) > value for s in range(1, t))

    def test_ball_lower_below_split_best(self):
        for d in range(2, 17):
            for k in range(1, d):
                assert ball_lower(k, d) <= split_upper_best(k, d)[0]

    def test_within_cube_away_from_diagonal(self):
        # at k = d-1 with even d the bound exceeds the trivial 2^d; below
        # that band it never does
        for d in range(2, 15):
            for k in range(1, d - 1):
                assert split_upper_best(k, d)[0] <= 1 << d


class TestGreedyKappa:
    def test_examples(self):
        total, profile = greedy_kappa_upper(2, 3)
        assert total == 6 and profile.a == (4, 2, 0)
        total, profile = greedy_kappa_upper(2, 4)
        assert total == 10 and profile.a == (5, 5, 0, 0)

    def test_diagonal(self):
        for d in range(1, 11):
            total, profile = greedy_kappa_upper(d, d)
            assert total == 1 << d
            assert profile.a[0] == 1 << d

    def test_profile_feasible_and_lexicographically_maximal(self):
        for d in range(1, 13):
            for k in range(1, d + 1):
                _, profile = greedy_kappa_upper(k, d)
                weighted = 0
                for i, ai in enumerate(profile.a):
                    weighted += ai << i
                    assert weighted <= kappa(k + 2 * i, d)
                # no single entry can be bumped without breaking its prefix
                weighted = 0
                for i, ai in enumerate(profile.a):
                    weighted += ai << i
                    assert weighted + (1 << i) > kappa(k + 2 * i, d)

    def test_matches_dp_optimum(self):
        for d in range(1, 10):
            for k in range(1, d + 1):
                assert greedy_kappa_upper(k, d)[0] == profile_optimum(k, d, kappa)

    def test_profile_total_must_match(self):
        assert GreedyProfile((3, 1), 4).total == 4
        with pytest.raises(ValueError, match="total must equal sum"):
            GreedyProfile((3, 1), 5)


class TestRefinedUpper:
    def test_examples(self):
        assert refined_upper(2, 4) == 10
        assert refined_upper(2, 3) == 6

    def test_near_diagonal_closed_form(self):
        for d in range(2, 17):
            assert refined_upper(d - 1, d) == 3 * 2 ** (d - 2)

    def test_greedy_below_refined(self):
        # the counts stated in the refined_upper docstring
        cells = above = 0
        for d in range(2, 41):
            for k in range(1, d):
                greedy, refined = greedy_kappa_upper(k, d)[0], refined_upper(k, d)
                assert greedy <= refined, (k, d)
                cells += 1
                above += refined > greedy
        assert (cells, above) == (780, 416)

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            refined_upper(3, 3)

    def test_values_are_pinned(self):
        # taken from the four-branch form, one branch per parity pair of (k, d)
        text = ",".join(str(refined_upper(k, d)) for d in range(2, 81) for k in range(1, d)).encode()
        assert (len(text), hashlib.sha256(text).hexdigest()) == (
            46_858, "743bb4280e4fb781bac44756025fba71e2ce6f5994a41b5f7b9d47a925c7fcb9")

    def test_halved_is_strict_floor_of_half_up(self):
        for c in range(301):
            for s in range(11):
                assert _halved(c, s) == strict_floor(Fraction(c, 1 << s) + Fraction(1, 2)), (c, s)


class TestBestBounds:
    def test_exact_specials(self):
        entry = best_bounds(1, 5)
        assert entry.lower.value == entry.upper.value == 6
        entry = best_bounds(4, 5)
        assert entry.lower.value == entry.upper.value == 24
        entry = best_bounds(5, 5)
        assert entry.lower.value == entry.upper.value == 32

    def test_2_3_pinned(self):
        entry = best_bounds(2, 3)
        assert entry.lower.value == entry.upper.value == 6
        # the formulas alone pin the same value
        assert refined_upper(2, 3) == greedy_kappa_upper(2, 3)[0] == 6
        assert m_value(2, 3).value == 6

    def test_methods_recorded(self):
        entry = best_bounds(2, 7)
        assert entry.lower == Bound(21, "fragmented")
        assert entry.upper == Bound(35, "greedy-kappa")
        assert not entry.exact

    def test_every_lower_below_every_upper(self):
        for d in range(1, 17):
            for k in range(1, d + 1):
                lowers = [alon_lower(k, d), m_value(k, d).value, mbar_value(k, d).value]
                uppers = [1 << d, alon_upper(k, d), huang_sudakov_upper(k, d),
                          greedy_kappa_upper(k, d)[0]]
                if k <= d - 1:
                    lowers.append(ball_lower(k, d))
                    uppers.append(split_upper_best(k, d)[0])
                    uppers.append(refined_upper(k, d))
                assert max(lowers) <= min(uppers), (k, d)

    def test_dropped_upper_formulas_never_win(self):
        # best_bounds consults only huang-sudakov and greedy-kappa off the
        # exact rules; each of its docstring's reasons, cell by cell
        cells = 0
        for d in range(4, 81):
            for k in range(2, d - 1):
                greedy = greedy_kappa_upper(k, d)[0]
                assert alon_upper(k, d) > huang_sudakov_upper(k, d), (k, d)
                assert greedy < 1 << d, (k, d)
                for t in range(1, (d - 1 - k) // 2 + 2):
                    assert split_upper(k, d, t) > greedy, (k, d, t)
                assert refined_upper(k, d) >= greedy, (k, d)
                cells += 1
        assert cells == 3003

    def test_entry_invariants(self):
        for d in range(1, 13):
            for k in range(1, d + 1):
                entry = best_bounds(k, d)
                assert 1 <= entry.lower.value <= entry.upper.value <= 1 << d

    def test_invalid_entry_rejected(self):
        with pytest.raises(ValueError):
            BoundsEntry(2, 3, Bound(7, "x"), Bound(6, "y"))

    def test_as_dict(self):
        data = best_bounds(1, 4).as_dict()
        assert data == {
            "k": 1, "d": 4,
            "lower": {"value": 5, "method": "exact:d+1"},
            "upper": {"value": 5, "method": "exact:d+1"},
            "exact": True,
        }


class TestBoundsTable:
    def test_grid_shape(self):
        table = bounds_table(3, 5)
        assert len(table) == sum(min(d, 3) for d in range(1, 6))
        assert {(e.k, e.d) for e in table} == {
            (k, d) for d in range(1, 6) for k in range(1, min(d, 3) + 1)
        }

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            bounds_table(0, 5)

    def test_diagonal_exact(self):
        for entry in bounds_table(8, 8):
            if entry.k == entry.d:
                assert entry.exact and entry.lower.value == 1 << entry.d


class TestPascalAudit:
    def test_clean_grid(self):
        findings = pascal_audit(bounds_table(8, 8))
        assert findings
        assert all(not f.violated for f in findings)
        assert all(f.slack >= 0 for f in findings)

    def test_single_entry(self):
        assert pascal_audit(bounds_table(1, 1)) == []

    def test_empty_table(self):
        assert pascal_audit([]) == []

    def test_fabricated_violation(self):
        # an impossible lower bound must be flagged; the cell is chosen so
        # the fake entry still satisfies the BoundsEntry invariants
        table = bounds_table(2, 8)
        fixed = []
        for e in table:
            if (e.k, e.d) == (2, 8):
                fixed.append(BoundsEntry(2, 8, Bound(99, "fake"), Bound(99, "fake")))
            else:
                fixed.append(e)
        findings = pascal_audit(fixed)
        bad = [f for f in findings if f.violated]
        assert len(bad) == 1
        assert (bad[0].k, bad[0].d) == (2, 8)

    def test_missing_entry_rejected(self):
        table = [e for e in bounds_table(4, 4) if (e.k, e.d) != (1, 3)]
        with pytest.raises(ValueError, match="missing"):
            pascal_audit(table)

    def test_diagonal_cells_audited(self):
        findings = pascal_audit(bounds_table(6, 6))
        assert any(f.k == f.d for f in findings)
