"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
exact; the stated runtime ceilings are asserted on the wall clock.
"""

import random
import time

from nbx import (
    Family,
    FragmentPlan,
    is_lamination,
    alon_lower,
    alon_upper,
    ball_family,
    ball_lower,
    best_bounds,
    bounds_table,
    canonical,
    cover_to_family,
    extremal_dminus1,
    family_to_cover,
    fragmented,
    fragmented_parts,
    greedy_kappa_upper,
    huang_sudakov_upper,
    is_partition,
    is_total_lamination,
    kappa,
    m_value,
    max_family,
    mbar_value,
    pascal_audit,
    product,
    realize_mbar,
    reduce_to_trivial,
    refined_upper,
    sgn_sum,
    split_upper_best,
    verify_cover,
    verify_neighborly,
    SearchConfig,
)
from nbx.strings import all_strings

from _oracles import max_diameter_set_size, twin_split_partition
from test_biclique import random_family


def _report(number: int, elapsed: float, limit: float, text: str):
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {text}")


def test_criterion_1_exact_specials():
    t0 = time.monotonic()
    for d in range(2, 17):
        one = best_bounds(1, d)
        assert one.lower.value == one.upper.value == d + 1
        diag = best_bounds(d, d)
        assert diag.lower.value == diag.upper.value == 1 << d
        near = best_bounds(d - 1, d)
        assert near.lower.value == near.upper.value == 3 * 2 ** (d - 2)
    _report(1, time.monotonic() - t0, 1.0, "exact values pinned for k in {1, d-1, d}, d <= 16")


def test_criterion_2_m_row_k2():
    t0 = time.monotonic()
    row = [m_value(2, d).value for d in range(3, 19)]
    assert row == [6, 9, 12, 16, 21, 27, 33, 40, 48, 56, 65, 75, 85, 96, 108, 120]
    _report(2, time.monotonic() - t0, 1.0, "m(2, d) row reproduced for d = 3..18")


def test_criterion_3_product_bound_row():
    t0 = time.monotonic()
    cells = [(2, 5), (3, 5), (2, 6), (3, 6), (4, 6), (2, 7), (3, 7), (4, 7), (5, 7),
             (2, 8), (3, 8), (4, 8), (5, 8), (6, 8)]
    got = [alon_lower(k, d) for k, d in cells]
    assert got == [12, 18, 16, 27, 36, 20, 36, 54, 72, 25, 48, 81, 108, 144]
    _report(3, time.monotonic() - t0, 1.0, "product lower bound row reproduced on 14 cells")


def test_criterion_4_worked_examples():
    t0 = time.monotonic()
    assert m_value(3, 10).value == 81
    assert mbar_value(3, 10).value == 84
    plan = FragmentPlan(2, 7, 3, (2, 2, 1))
    assert [len(f) for _, f in fragmented_parts(plan)] == [9, 6, 6]
    fam = fragmented(plan)
    assert len(fam) == 21
    assert verify_neighborly(fam, 2).is_valid
    _report(4, time.monotonic() - t0, 1.0, "worked examples: m(3,10)=81, mbar(3,10)=84, 9+6+6=21")


def test_criterion_5_exact_search():
    t0 = time.monotonic()
    from nbx import verify_certificate

    for (k, d), want in [((1, 3), 4), ((1, 4), 5), ((2, 3), 6), ((3, 3), 8), ((3, 4), 12)]:
        result = max_family(k, d)
        assert result.proven_optimal and result.optimum == want, (k, d)
        assert verify_neighborly(result.witness, k).is_valid
        assert verify_certificate(result)

    r24 = max_family(2, 4)
    assert r24.proven_optimal
    assert m_value(2, 4).value <= r24.optimum
    assert r24.optimum <= min(greedy_kappa_upper(2, 4)[0], refined_upper(2, 4))

    t25 = time.monotonic()
    r25 = max_family(2, 5)
    e25 = time.monotonic() - t25
    assert r25.proven_optimal and r25.optimum == 12
    assert e25 < 60.0, f"(2,5) took {e25:.1f}s"
    _report(5, time.monotonic() - t0, 120.0,
            f"search proves known optima; (2,5)=12 in {e25:.1f}s")


def test_criterion_5_stretch_3_5():
    t0 = time.monotonic()
    result = max_family(3, 5, SearchConfig(budget_secs=600))
    elapsed = time.monotonic() - t0
    assert result.proven_optimal
    assert result.optimum == 18
    _report(5, elapsed, 600.0, f"stretch: (3,5)=18 proven in {elapsed:.1f}s")


def test_criterion_6_bound_formula_closure():
    t0 = time.monotonic()
    for d in range(2, 17):
        assert refined_upper(d - 1, d) == 3 * 2 ** (d - 2)
    assert refined_upper(2, 3) == 6
    assert greedy_kappa_upper(2, 3)[0] == 6
    assert m_value(2, 3).value == 6  # formulas alone pin n(2, 3)
    _report(6, time.monotonic() - t0, 1.0, "refined/greedy formulas close n(d-1,d) and n(2,3)")


def _constructed_corpus() -> list[tuple[int, Family]]:
    """(advertised k, family) pairs for every construction, d <= 12."""
    corpus: list[tuple[int, Family]] = []
    for d in range(1, 13):
        corpus.append((1, canonical(d)))
    for d in range(2, 13):
        corpus.append((d - 1, extremal_dminus1(d)))
    for k, d in [(2, 5), (3, 6), (4, 9), (2, 12), (5, 12), (11, 12)]:
        corpus.append((k, ball_family(k, d)))
    for plan in [
        FragmentPlan(2, 7, 3, (2, 2, 1)),
        FragmentPlan(3, 10, 4, (2, 2, 2, 1)),
        FragmentPlan(2, 8, 3, (2, 2, 2)),
        FragmentPlan(2, 12, 3, (4, 3, 3)),
        FragmentPlan(3, 12, 4, (3, 2, 2, 2)),
        FragmentPlan(4, 12, 4, (3, 3, 3, 3)),
    ]:
        corpus.append((plan.k, fragmented(plan)))
    for d in range(1, 9):
        for k in range(1, d + 1):
            corpus.append((k, realize_mbar(k, d)))
    corpus.append((3, realize_mbar(3, 10)))
    corpus.append((2, product(canonical(3), canonical(4))))
    corpus.append((3, product(extremal_dminus1(3), canonical(2))))
    corpus.append((4, product(ball_family(2, 5), ball_family(2, 5))))
    return corpus


def test_criterion_7_property_suites():
    t0 = time.monotonic()
    corpus = _constructed_corpus()

    # every construction verifies at its advertised k, inside the cube
    for k, fam in corpus:
        assert fam.dimension <= 12
        assert verify_neighborly(fam, k).is_valid
        assert sum(1 << m.jokers for m in fam) <= 1 << fam.dimension

    # signed sum vanishes on every constructed partition
    partitions = [fam for _, fam in corpus if is_partition(fam)]
    assert partitions
    for fam in partitions:
        assert sgn_sum(fam) == 0

    # ... and on 1000 randomized twin-split partitions, d <= 8
    rng = random.Random(2024)
    for _ in range(1000):
        fam = twin_split_partition(rng.randint(1, 8), rng)
        assert is_partition(fam)
        assert sgn_sum(fam) == 0

    # every at-most-2-neighborly partition splits recursively and reduces
    def check_laminated(fam):
        assert is_lamination(fam) is not None
        assert is_total_lamination(fam)
        trace = reduce_to_trivial(fam)
        assert len(trace) == len(fam)
        assert trace[-1].texts() == ["*" * fam.dimension]

    for k, fam in corpus:
        if is_partition(fam) and (verify_neighborly(fam, 2).is_valid if fam.dimension >= 2 else True):
            if len(fam) <= 200:
                check_laminated(fam)
    for _ in range(250):
        fam = twin_split_partition(rng.randint(2, 8), rng, max_members=24, max_distance=2)
        check_laminated(fam)

    # exhaustive string identities for d <= 6
    for d in range(1, 7):
        _exhaustive_identities(d)

    # every subcube partition of the 4-cube, not just generated samples:
    # signed sums vanish, and the at-most-2-neighborly ones all laminate
    from _oracles import all_cube_partitions

    partitions4 = all_cube_partitions(4)
    assert len(partitions4) == 89512
    for members in partitions4:
        fam = Family(4, members)
        if len(fam) >= 2:
            assert sgn_sum(fam) == 0
        worst = max(
            (x.distance(y) for i, x in enumerate(members) for y in members[i + 1 :]),
            default=0,
        )
        if worst <= 2 and len(fam) >= 2:
            assert is_lamination(fam) is not None
            assert is_total_lamination(fam)
            assert len(reduce_to_trivial(fam)) == len(fam)

    # diameter formula matches brute-force maximum-set search
    for d in range(1, 7):
        for s in range(0, d + 1):
            assert kappa(s, d) == max_diameter_set_size(s, d)

    _report(7, time.monotonic() - t0, 300.0,
            "property suites: signed sums, laminations, identities, kappa oracle")


def _exhaustive_identities(d: int):
    strs = list(all_strings(d))
    occ = []
    pts = []
    for s in strs:
        mask = 0
        vals = []
        jm = s.joker_mask
        sub = jm
        while True:
            v = s.one_mask | sub
            mask |= 1 << v
            vals.append(v)
            if sub == 0:
                break
            sub = (sub - 1) & jm
        occ.append(mask)
        pts.append(vals)
    n = len(strs)
    for i in range(n):
        si = strs[i]
        zi, oi, ji = si.zero_mask, si.one_mask, si.jokers
        pi = pts[i]
        for j in range(i, n):
            sj = strs[j]
            dist = ((zi & sj.one_mask) | (oi & sj.zero_mask)).bit_count()
            # distance positive exactly when the subcubes are disjoint
            assert (dist >= 1) == (occ[i] & occ[j] == 0)
            # any two covered points differ in at most dist + jokers + jokers
            bound = dist + ji + sj.jokers
            for u in pi:
                for v in pts[j]:
                    assert (u ^ v).bit_count() <= bound
            # twin pairs merge into the exact union of their subcubes
            if si.is_twin(sj):
                union = si.twin_union(sj)
                assert occ[i] | occ[j] == occ[strs.index(union)]
                assert union.jokers == ji + 1


def test_criterion_8_consistency_grid():
    t0 = time.monotonic()
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

    findings = pascal_audit(bounds_table(16, 16))
    assert findings and not any(f.violated for f in findings)

    for d in range(2, 17):
        for k in range(2, d + 1):
            rhs = mbar_value(k - 1, d - 1).value
            rhs += mbar_value(k, d - 1).value if k <= d - 1 else 1 << (d - 1)
            assert mbar_value(k, d).value <= rhs, (k, d)

    _report(8, time.monotonic() - t0, 60.0,
            "grid consistent for k <= d <= 16; zero triangle violations")


def test_criterion_9_biclique_equivalence():
    t0 = time.monotonic()
    rng = random.Random(77)
    for _ in range(500):
        d = rng.randint(1, 8)
        fam = random_family(rng, d, rng.randint(2, 12))
        k = rng.randint(1, d)
        assert verify_neighborly(fam, k).is_valid == verify_cover(family_to_cover(fam), k).is_valid

    for _, fam in _constructed_corpus():
        if len(fam) >= 2:
            assert cover_to_family(family_to_cover(fam)) == fam

    _report(9, time.monotonic() - t0, 60.0,
            "family and covering verifiers agree; conversions round-trip")
