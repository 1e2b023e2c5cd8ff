import os
import random
import time
from dataclasses import replace
from math import comb

import pytest

from nbx import (
    CapacityExceeded,
    EnumerationCapExceeded,
    SearchConfig,
    best_bounds,
    enumerate_candidates,
    enumerate_max_families,
    is_partition,
    is_total_lamination,
    max_family,
    verify_certificate,
    verify_neighborly,
)
from nbx import search
from nbx.search import _Engine, _Enumerator

from _oracles import all_max_cliques, brute_force_clique_size, sym_distance


def candidate_count(k, d):
    return sum(comb(d, j) * 2 ** (d - j) for j in range(d - k + 1))


class TestEnumerateCandidates:
    def test_counts(self):
        assert len(enumerate_candidates(2, 2)) == 4  # binary strings only
        assert len(enumerate_candidates(1, 2)) == 8  # everything but **
        assert len(enumerate_candidates(2, 3)) == 20

    def test_count_formula(self):
        for d in range(1, 7):
            for k in range(1, d + 1):
                assert len(enumerate_candidates(k, d)) == candidate_count(k, d)

    def test_joker_limit(self):
        for s in enumerate_candidates(2, 5):
            assert s.jokers <= 3

    def test_errors(self):
        with pytest.raises(ValueError):
            enumerate_candidates(3, 2)


class TestEngineAgainstBruteForce:
    def test_random_graphs(self):
        rng = random.Random(42)
        for trial in range(40):
            n = rng.randint(1, 13)
            p = rng.choice([0.2, 0.5, 0.8])
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            start = time.monotonic()
            engine = _Engine(adj, [1] * n, 1 << 30, 1 << 30, None, None, start)
            engine.expand([], (1 << n) - 1, 0)
            omega = brute_force_clique_size(adj)
            assert engine.best == omega, (trial, n, p)
            # fixed-target mode of the same walk finds every maximum clique
            enum = _Enumerator(adj, [1] * n, 1 << 30, omega, 1 << 30, None, None, start)
            enum.expand([], (1 << n) - 1, 0)
            assert sorted(sorted(t) for t in enum.found) == [list(c) for c in all_max_cliques(adj)]


KNOWN = {
    (1, 1): 2, (1, 2): 3, (2, 2): 4,
    (1, 3): 4, (2, 3): 6, (3, 3): 8,
    (1, 4): 5, (2, 4): 9, (3, 4): 12, (4, 4): 16,
}


class TestMaxFamily:
    def test_known_values(self):
        for (k, d), want in KNOWN.items():
            result = max_family(k, d)
            assert result.optimum == want
            assert result.proven_optimal
            assert len(result.witness) == want
            assert verify_neighborly(result.witness, k).is_valid

    def test_toggles_do_not_change_optimum(self):
        for (k, d), want in KNOWN.items():
            for joker_prune in (True, False):
                for symmetry in (True, False):
                    cfg = SearchConfig(joker_prune=joker_prune, symmetry=symmetry)
                    assert max_family(k, d, cfg).optimum == want

    def test_raw_engine_reproduces_values(self):
        # no warm start, no closed-form cutoff: the search itself must
        # rediscover and prove every value
        for (k, d), want in KNOWN.items():
            cfg = SearchConfig(use_bounds_cutoff=False, seed_incumbent=False)
            result = max_family(k, d, cfg)
            assert result.optimum == want
            assert result.proven_optimal
            assert result.stats["stopped"] == "complete"

    def test_optimum_within_best_bounds(self):
        for k, d in [(1, 4), (2, 4), (2, 5), (3, 4)]:
            entry = best_bounds(k, d)
            result = max_family(k, d)
            assert entry.lower.value <= result.optimum <= entry.upper.value

    def test_deterministic_repeats(self):
        a = max_family(2, 4)
        b = max_family(2, 4)
        assert a.optimum == b.optimum
        assert a.witness == b.witness
        assert a.stats["nodes"] == b.stats["nodes"]

    def test_budget_exhaustion_returns_best_found(self):
        cfg = SearchConfig(
            budget_nodes=20, use_bounds_cutoff=False, seed_incumbent=False, symmetry=False
        )
        result = max_family(2, 5, cfg)
        assert not result.proven_optimal
        assert result.stats["stopped"] == "node-budget"
        assert 1 <= result.optimum <= 12
        assert verify_neighborly(result.witness, 2).is_valid

    def test_time_budget_counts_from_entry(self, monkeypatch):
        # a clock that jumps past the budget while the graph is built: the
        # walk must stop on the budget rather than run to completion
        clock = [0.0]
        monkeypatch.setattr(search.time, "monotonic", lambda: clock[0])
        build = search._build_graph

        def slow_build(strings, k):
            clock[0] += 10.0
            return build(strings, k)

        monkeypatch.setattr(search, "_build_graph", slow_build)
        cfg = SearchConfig(budget_secs=5.0, use_bounds_cutoff=False, seed_incumbent=False)
        result = max_family(2, 5, cfg)
        assert result.stats["stopped"] == "time-budget"
        assert not result.proven_optimal
        assert result.stats["elapsed_secs"] == 10.0
        assert result.stats["nodes"] == 1  # the first tick reads the clock

    def test_capacity_guard(self):
        cfg = SearchConfig(max_candidates=10)
        # 20 candidates: the adjacency needs 20 * 20 / 8 = 50 bytes
        with pytest.raises(CapacityExceeded, match=r"20 candidates \(adjacency 50 bytes\)"):
            max_family(2, 3, cfg)

    def test_pinned_search_graph(self):
        # node counts depend on the candidate order of _build_graph
        result = max_family(2, 5)
        stats = result.stats
        assert (result.optimum, stats["candidates"], stats["nodes"]) == (12, 232, 10266)
        assert result.witness.texts() == [
            "00000", "00001", "0001*", "00100", "00101", "0011*",
            "01*00", "01*01", "01*1*", "1**00", "1**01", "1**1*",
        ]
        result = max_family(4, 7, SearchConfig(budget_nodes=2000))
        assert (result.stats["candidates"], result.stats["nodes"]) == (1808, 2001)
        assert result.stats["stopped"] == "node-budget"

    def test_invalid_budgets(self):
        with pytest.raises(ValueError):
            SearchConfig(budget_nodes=0)
        with pytest.raises(ValueError):
            SearchConfig(budget_secs=-1.0)
        for budget in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SearchConfig(budget_secs=budget)

    def test_stats_fields(self):
        stats = max_family(2, 3).stats
        for key in ("nodes", "elapsed_secs", "candidates", "stopped"):
            assert key in stats

    def test_result_json(self):
        data = max_family(1, 3).as_dict()
        assert data["k"] == 1 and data["d"] == 3
        assert data["optimum"] == 4
        assert data["proven_optimal"] is True
        assert len(data["witness"]) == 4
        assert all(isinstance(w, str) for w in data["witness"])


class TestEnumerateMaxFamilies:
    def test_2_3_all_maximums_are_partitions(self):
        fams = enumerate_max_families(2, 3)
        assert fams
        assert all(len(f) == 6 for f in fams)
        assert all(is_partition(f) for f in fams)
        assert all(is_total_lamination(f) for f in fams)

    def test_1_2(self):
        fams = enumerate_max_families(1, 2)
        assert all(len(f) == 3 for f in fams)

    def test_full_k_unique_maximum(self):
        for d in (1, 2, 3):
            fams = enumerate_max_families(d, d)
            assert len(fams) == 1
            assert all(m.is_binary for m in fams[0])
            assert len(fams[0]) == 1 << d

    def test_deduplicated(self):
        fams = enumerate_max_families(2, 3)
        keys = {frozenset(f.texts()) for f in fams}
        assert len(keys) == len(fams)

    def test_cap_exceeded(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_max_families(2, 3, cap=1)

    def test_matches_oracle(self):
        # every maximum clique of the candidate graph, built from symbol-level
        # distances and found by a plain recursion, is an enumerated family
        for (k, d), count in {(1, 3): 46, (2, 3): 12, (1, 4): 1296, (2, 4): 48,
                              (3, 4): 384}.items():
            cands = [str(s) for s in enumerate_candidates(k, d)]
            adj = [0] * len(cands)
            for i, a in enumerate(cands):
                for j in range(i + 1, len(cands)):
                    if 1 <= sym_distance(a, cands[j]) <= k:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            want = {frozenset(cands[i] for i in c) for c in all_max_cliques(adj)}
            fams = enumerate_max_families(k, d)
            assert {frozenset(f.texts()) for f in fams} == want, (k, d)
            assert len(fams) == count, (k, d)

    def test_unproven_base_rejected(self):
        cfg = SearchConfig(budget_nodes=5, use_bounds_cutoff=False, seed_incumbent=False,
                           symmetry=False)
        with pytest.raises(RuntimeError, match="not proven"):
            enumerate_max_families(2, 4, cfg)


class TestVerifyCertificate:
    def test_accepts_real_results(self):
        for k, d in [(1, 3), (2, 3), (2, 4)]:
            assert verify_certificate(max_family(k, d))

    def test_rejects_flipped_member(self):
        # swap one string for the all-jokers word: distance 0 to everything
        from nbx import all_jokers

        result = max_family(2, 3)
        members = tuple(result.witness.members)
        tampered = replace(result, witness=(all_jokers(3),) + members[1:])
        assert not verify_certificate(tampered)

    def test_rejects_duplicate(self):
        result = max_family(2, 3)
        members = tuple(result.witness.members)
        tampered = replace(result, witness=(members[0],) + members[:-1])
        assert not verify_certificate(tampered)

    def test_rejects_wrong_size(self):
        result = max_family(2, 3)
        tampered = replace(result, witness=tuple(result.witness.members[:-1]))
        assert not verify_certificate(tampered)

    def test_rejects_wrong_dimension(self):
        result = max_family(2, 3)
        tampered = replace(result, d=4)
        assert not verify_certificate(tampered)


class TestIndependentOracle:
    def _omega(self, k, d):
        cands = enumerate_candidates(k, d)
        n = len(cands)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if 1 <= cands[i].distance(cands[j]) <= k:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        from _oracles import max_clique_size

        return max_clique_size(adj)

    def test_oracle_confirms_small_optima(self):
        # a structurally different clique solver (no volume prune, no
        # cutoff, no symmetry) agrees on every d = 4 instance
        for k, d in [(1, 4), (2, 4), (3, 4), (4, 4)]:
            assert self._omega(k, d) == max_family(k, d).optimum

    def test_oracle_confirms_2_5(self):
        assert self._omega(2, 5) == 12


class TestRawEngineDimensionFive:
    def test_raw_proofs(self):
        cfg = SearchConfig(use_bounds_cutoff=False, seed_incumbent=False)
        for (k, d), want in [((1, 5), 6), ((4, 5), 24), ((5, 5), 32), ((2, 5), 12)]:
            result = max_family(k, d, cfg)
            assert result.proven_optimal and result.optimum == want


@pytest.mark.skipif(not os.environ.get("NBX_STRETCH"), reason="set NBX_STRETCH=1 to run")
class TestStretchInstances:
    def test_2_6_proves_16(self):
        # closes in roughly a minute; beyond the default suite's budget
        result = max_family(2, 6, SearchConfig(budget_secs=600))
        assert result.proven_optimal
        assert result.optimum == 16
