import random
import tracemalloc
from itertools import permutations, product
from math import comb, factorial

import pytest

from nbx import (
    CapacityExceeded,
    EnumerationIncomplete,
    Family,
    SearchConfig,
    all_strings,
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
from nbx.search import SearchResult, _Engine, _Enumerator, _Stop

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


def _rows(adj):
    """The rows the engine reads: row v holds the vertices not adjacent to
    v, other than v."""
    full = (1 << len(adj)) - 1
    return [full & ~(row | 1 << v) for v, row in enumerate(adj)]


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
            engine = _Engine(_rows(adj), [1] * n, 1 << 30, 1 << 30, None, None)
            engine.expand([], (1 << n) - 1, 0)
            omega = brute_force_clique_size(adj)
            assert engine.best == omega, (trial, n, p)
            # a cutoff at the clique number stops the walk at a maximum clique
            engine = _Engine(_rows(adj), [1] * n, 1 << 30, omega, None, None)
            with pytest.raises(_Stop) as stop:
                engine.run()
            assert stop.value.reason == "cutoff", trial
            assert engine.best == len(engine.witness) == omega, trial
            assert all(adj[u] >> v & 1 for u in engine.witness for v in engine.witness if u != v)
            # enumeration mode of the same walk finds every maximum clique,
            # from the clique number or from a floor below it
            want = [list(c) for c in all_max_cliques(adj)]
            for target in (omega, 1):
                enum = _Enumerator(_rows(adj), [1] * n, 1 << 30, target, 1 << 30, None, None)
                enum.expand([], (1 << n) - 1, 0)
                assert sorted(sorted(t) for t in enum.found) == want, (trial, target)


def _reference_color_order(adj, pool, kmin):
    """The full greedy peel over the adjacency rows, highest available
    index first, then only the colors above kmin."""
    order, color = [], 0
    while pool:
        color += 1
        avail = pool
        while avail:
            v = avail.bit_length() - 1
            order.append((v, color))
            avail &= ~adj[v] & ~(1 << v)
            pool &= ~(1 << v)
    return [(v, c) for v, c in order if c > kmin]


class TestColorOrder:
    def test_matches_the_full_peel_above_kmin(self):
        # pools up to 150 vertices cross machine-word boundaries; kmin runs
        # past the number of colors, where nothing is listed
        rng = random.Random(11)
        for trial in range(60):
            n = rng.randint(1, 150)
            p = rng.choice([0.1, 0.5, 0.9])
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            nadj = _rows(adj)
            engine = _Engine(nadj, [1] * n, 1 << 30, 1 << 30, None, None)
            # the engine reads the rows as given; test_build_graph checks that
            # the build's rows never hold their own index
            assert engine.nadj is nadj
            for _ in range(5):
                pool = rng.getrandbits(n)
                colors = max((c for _, c in _reference_color_order(adj, pool, 0)), default=0)
                for kmin in range(colors + 2):
                    want = _reference_color_order(adj, pool, kmin)
                    assert engine._color_order(pool, kmin) == want, (trial, n, kmin)
                    assert bool(want) == (kmin < colors)


def _act(perm, flips, text):
    """Image of a word under a coordinate permutation and 0/1 flips."""
    out = [""] * len(text)
    for i, ch in enumerate(text):
        out[perm[i]] = {"0": "1", "1": "0", "*": "*"}[ch] if flips[i] else ch
    return "".join(out)


class TestOrbits:
    def test_orbits_lie_in_stabiliser_orbits(self):
        # every vertex the walk drops with v's orbit must be an image of v
        # under a permutation and flip that fixes each stack word
        rng = random.Random(7)
        for d in (2, 3, 4):
            strings = list(all_strings(d))
            texts = [str(s) for s in strings]
            n = len(strings)
            words = [(s.zero_mask, s.one_mask) for s in strings]
            engine = _Engine([0] * n, [1] * n, 1 << d, n, None, None, words)
            group = list(product(permutations(range(d)), product((0, 1), repeat=d)))
            for trial in range(25):
                stack = rng.sample(range(n), rng.randint(0, 3))
                classes = (engine.cube_volume - 1, 0, ())
                for v in stack:
                    classes = classes and engine._refine(classes, v)
                if classes is None:
                    continue
                orbits = engine._orbits(classes, (1 << n) - 1)
                stab = [g for g in group if all(_act(*g, texts[w]) == texts[w] for w in stack)]
                for u in range(n):
                    orbit = {texts[i] for i in range(n) if orbits[u] >> i & 1}
                    assert texts[u] in orbit
                    assert orbit <= {_act(*g, texts[u]) for g in stab}, (d, stack, u)


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
            for symmetry in (True, False):
                cfg = SearchConfig(symmetry=symmetry)
                assert max_family(k, d, cfg).optimum == want

    def test_seed_at_the_cutoff_walks_no_node(self):
        # the constructed seed meets the closed-form upper bound
        for (k, d), want in [((4, 5), 24), ((1, 5), 6)]:
            result = max_family(k, d)
            assert (result.optimum, result.stats["upper_cutoff"]) == (want, want)
            assert result.stats["stopped"] == "cutoff"
            assert result.stats["nodes"] == 0
            assert result.proven_optimal

    def test_seed_at_the_cutoff_builds_no_graph(self, monkeypatch):
        # the k = 1, d - 1 and d cells are exactly those whose seed meets the
        # closed-form bound, so each is proven before any graph is built
        def no_graph(*args):
            raise AssertionError("graph built for a cell the seed already proves")

        monkeypatch.setattr(search, "_build_graph", no_graph)
        for d in range(1, 10):
            for k in sorted({1, max(d - 1, 1), d}):
                result = max_family(k, d)
                assert result.proven_optimal, (k, d)
                assert (result.stats["nodes"], result.stats["stopped"]) == (0, "cutoff")
                assert result.optimum == len(result.witness) == result.stats["upper_cutoff"]
                assert result.witness.texts() == sorted(result.witness.texts())
                assert result.stats["candidates"] == candidate_count(k, d)

    def test_raw_engine_reproduces_values(self):
        # no warm start, no closed-form cutoff: the search itself must
        # rediscover and prove every value
        for (k, d), want in KNOWN.items():
            cfg = SearchConfig(use_known_bounds=False)
            result = max_family(k, d, cfg)
            assert result.optimum == want
            assert result.proven_optimal
            assert result.stats["stopped"] == "complete"

    def test_orbital_branching_proves_every_cell_to_dimension_five(self):
        # symmetry on, no warm start, no closed-form cutoff: the orbit pruning
        # alone must leave a search that finds and proves every known optimum
        known = dict(KNOWN)
        for d in range(1, 6):
            known[1, d] = d + 1
            known[d, d] = 1 << d
            if d >= 2:
                known[d - 1, d] = 3 << (d - 2)
        known[2, 5] = 12
        known[3, 5] = 18
        cfg = SearchConfig(use_known_bounds=False)
        for d in range(1, 6):
            for k in range(1, d + 1):
                result = max_family(k, d, cfg)
                assert result.proven_optimal and result.stats["stopped"] == "complete"
                assert result.optimum == known[k, d], (k, d)
                assert verify_certificate(result)
                if d <= 4 or k in (1, d):
                    # the plain walk agrees wherever it is cheap
                    plain = max_family(k, d, SearchConfig(symmetry=False, use_known_bounds=False))
                    assert plain.optimum == result.optimum, (k, d)

    def test_seed_construction_errors_propagate(self, monkeypatch):
        # realize_mbar(k, d) is valid for every 1 <= k <= d, so an error in
        # the warm start is an internal one and must not be swallowed
        def broken(k, d):
            raise ValueError("broken construction")

        monkeypatch.setattr(search, "realize_mbar", broken)
        with pytest.raises(ValueError, match="broken construction"):
            max_family(2, 4)

    def test_k_outside_1_to_d_rejected(self):
        for run, (k, d) in [(max_family, (3, 2)), (enumerate_max_families, (0, 2))]:
            with pytest.raises(ValueError, match="requires 1 <= k <= d"):
                run(k, d)

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
        cfg = SearchConfig(budget_nodes=20, use_known_bounds=False, symmetry=False)
        result = max_family(2, 5, cfg)
        assert not result.proven_optimal
        assert result.stats["stopped"] == "node-budget"
        assert 1 <= result.optimum <= 12
        assert verify_neighborly(result.witness, 2).is_valid

    def test_time_budget_counts_from_entry(self, monkeypatch):
        # a clock that jumps past the budget as the graph build starts: the
        # first row of the build reads it, so no node is walked
        clock = [0.0]
        monkeypatch.setattr(search.time, "monotonic", lambda: clock[0])
        build = search._build_graph

        def slow_build(strings, k, deadline):
            clock[0] += 10.0
            return build(strings, k, deadline)

        monkeypatch.setattr(search, "_build_graph", slow_build)
        cfg = SearchConfig(budget_secs=5.0, use_known_bounds=False)
        result = max_family(2, 5, cfg)
        assert result.stats["stopped"] == "time-budget"
        assert not result.proven_optimal
        assert result.stats["elapsed_secs"] == 10.0
        assert result.stats["nodes"] == 0
        assert result.stats["candidates"] == 232
        assert result.optimum == 0 and len(result.witness) == 0

    def test_graph_build_reads_the_clock_once_per_row(self, monkeypatch):
        reads = [0]

        def clock():
            reads[0] += 1
            return float(reads[0])

        monkeypatch.setattr(search.time, "monotonic", clock)
        strings = enumerate_candidates(2, 5)
        search._build_graph(strings, 2)
        assert reads[0] == 0  # no deadline, no clock
        search._build_graph(strings, 2, deadline=1e9)
        assert reads[0] == len(strings)  # the one kernel pass
        # a budget that runs out halfway through that pass
        cfg = SearchConfig(budget_secs=0.5 * len(strings))
        reads[0] = 0
        result = max_family(2, 5, cfg)
        assert result.stats["stopped"] == "time-budget"
        # the verified seed is still the result: realize_mbar(2, 5) has 12 members
        assert (result.stats["nodes"], result.optimum, result.proven_optimal) == (0, 12, False)
        assert verify_certificate(result)
        reads[0] = 0
        with pytest.raises(EnumerationIncomplete, match="not proven"):
            enumerate_max_families(2, 5, cfg)

    def test_no_time_budget_reads_the_clock_twice(self, monkeypatch):
        # entry and elapsed_secs only: runs without budget_secs never look
        reads = [0]

        def clock():
            reads[0] += 1
            return 0.0

        monkeypatch.setattr(search.time, "monotonic", clock)
        result = max_family(2, 5, SearchConfig(use_known_bounds=False))
        assert result.proven_optimal and reads[0] == 2

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.setattr(search, "_MAX_CANDIDATES", 10)
        # 20 candidates: a row set of 20 * 20 / 8 = 50 bytes
        with pytest.raises(CapacityExceeded,
                           match=r"^20 candidates \(adjacency 50 bytes\) .* capacity 10$"):
            max_family(2, 3)

    def test_capacity_guard_counts_before_building(self, monkeypatch):
        # refusing (2,16) must not first build its 3^16 strings
        def no_strings(d):
            raise AssertionError("candidates built before the capacity guard")

        monkeypatch.setattr(search, "all_strings", no_strings)
        assert candidate_count(2, 16) == 43_046_688
        for run in (max_family, enumerate_max_families):
            with pytest.raises(CapacityExceeded, match=r"^43046688 candidates"):
                run(2, 16)

    def test_graph_holds_one_row_set(self):
        # the build emits the rows the walk reads, so the graph costs one
        # n * n / 8-byte row set; a complemented copy would push the peak
        # to about 2.4 times that
        tracemalloc.start()
        try:
            result = max_family(4, 8, SearchConfig(budget_nodes=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = result.stats["candidates"]
        assert n == 5984
        assert peak < 1.75 * n * n / 8

    def test_pinned_search_graph(self):
        # node counts depend on the candidate order of _build_graph
        result = max_family(2, 5)
        stats = result.stats
        assert (result.optimum, stats["candidates"], stats["nodes"]) == (12, 232, 370)
        assert result.witness.texts() == [
            "00000", "00001", "0001*", "00100", "00101", "0011*",
            "01*00", "01*01", "01*1*", "1**00", "1**01", "1**1*",
        ]
        result = max_family(4, 7, SearchConfig(budget_nodes=2000))
        assert (result.stats["candidates"], result.stats["nodes"]) == (1808, 2001)
        assert result.stats["stopped"] == "node-budget"
        assert result.optimum == 54
        # the walk visits exactly these nodes; a change that makes each node
        # cheaper must leave every count as it is
        pins = [
            ((3, 5, SearchConfig()), (18, 9899)),
            ((4, 5, SearchConfig(use_known_bounds=False)), (24, 4340)),
            ((2, 4, SearchConfig(symmetry=False)), (9, 880)),
        ]
        for (k, d, cfg), want in pins:
            result = max_family(k, d, cfg)
            assert result.proven_optimal
            assert (result.optimum, result.stats["nodes"]) == want, (k, d)
        # the fixed-target walk on its own: representatives up to symmetry
        strings = enumerate_candidates(2, 5)
        _, nadj, vols, words = search._build_graph(strings, 2)
        enum = _Enumerator(nadj, vols, 1 << 5, 12, 10**6, None, None, words)
        enum.run()
        assert (enum.nodes, len(enum.found)) == (1040, 7)

    def test_pinned_colour_work(self, monkeypatch):
        # (calls, listed vertices) of the colour peel: a change of the walk's
        # bit order or vertex numbering must colour exactly the same pools
        color_order = _Engine._color_order
        work = [0, 0]

        def counted(engine, pool, kmin):
            order = color_order(engine, pool, kmin)
            work[0] += 1
            work[1] += len(order)
            return order

        monkeypatch.setattr(_Engine, "_color_order", counted)
        pins = [
            (lambda: max_family(3, 5), (8481, 10206)),
            (lambda: search._enumerate_indices(2, 5), (936, 1381)),
            (lambda: max_family(4, 7, SearchConfig(budget_nodes=2000)), (443, 8026)),
            (lambda: max_family(2, 6), (12998, 15543)),
        ]
        for i, (walk, want) in enumerate(pins):
            work[:] = [0, 0]
            walk()
            assert tuple(work) == want, i

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
        for d in range(1, 8):
            fams = enumerate_max_families(d, d)
            assert len(fams) == 1
            assert all(m.is_binary for m in fams[0])
            assert len(fams[0]) == 1 << d

    def test_deduplicated(self):
        fams = enumerate_max_families(2, 3)
        keys = {frozenset(f.texts()) for f in fams}
        assert len(keys) == len(fams)

    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setattr(search, "_MAX_FAMILIES", 1)
        with pytest.raises(CapacityExceeded, match="^more than 1 maximum families$"):
            enumerate_max_families(2, 3)

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
            # from the constructed seed's size, and from size 1
            for cfg in (SearchConfig(), SearchConfig(use_known_bounds=False)):
                fams = enumerate_max_families(k, d, cfg)
                assert {frozenset(f.texts()) for f in fams} == want, (k, d, cfg)
                assert len(fams) == count, (k, d, cfg)

    def test_joker_limit_loses_no_maximum_family(self):
        # over all 3^d words, with no joker limit, the maximum cliques are
        # exactly the enumerated families: none holds more than d-k jokers
        for k, d in KNOWN:
            words = ["".join(w) for w in product("01*", repeat=d)]
            adj = [sum(1 << j for j, b in enumerate(words) if 1 <= sym_distance(a, b) <= k)
                   for a in words]
            want = {frozenset(words[i] for i in c) for c in all_max_cliques(adj)}
            fams = enumerate_max_families(k, d)
            assert {frozenset(f.texts()) for f in fams} == want, (k, d)

    def test_unproven_base_rejected(self):
        cfg = SearchConfig(budget_nodes=5, use_known_bounds=False, symmetry=False)
        with pytest.raises(RuntimeError, match="not proven"):
            enumerate_max_families(2, 4, cfg)

    def test_enumeration_budget_reported(self):
        # the one walk needs 1,040 nodes at (2,5), so it runs out at 400
        cfg = SearchConfig(budget_nodes=400)
        with pytest.raises(EnumerationIncomplete, match="stopped by node-budget"):
            enumerate_max_families(2, 5, cfg)

    def test_one_graph_build_and_the_time_budget_covers_the_walk(self, monkeypatch):
        # one walk, on one graph built in one kernel pass
        calls = []
        for name in ("_build_graph", "_distance_rows"):
            counted = lambda *a, f=getattr(search, name), name=name: calls.append(name) or f(*a)
            monkeypatch.setattr(search, name, counted)
        max_family(2, 4)
        assert calls == ["_build_graph", "_distance_rows"]
        calls.clear()
        walk, walks = _Engine.run, []
        counted = lambda engine: walks.append(type(engine)) or walk(engine)
        monkeypatch.setattr(_Engine, "run", counted)
        assert len(enumerate_max_families(2, 4)) == 48
        assert calls == ["_build_graph", "_distance_rows"]
        assert walks == [_Enumerator]
        # the build fits the budget; the clock then jumps past it, and the
        # walk stops on it
        clock = [0.0]
        monkeypatch.setattr(search.time, "monotonic", lambda: clock[0])
        build = search._build_graph

        def slow_build(*args):
            graph = build(*args)
            clock[0] += 10.0
            return graph

        monkeypatch.setattr(search, "_build_graph", slow_build)
        walks.clear()
        cfg = SearchConfig(budget_secs=5.0, use_known_bounds=False)
        with pytest.raises(EnumerationIncomplete, match="stopped by time-budget"):
            enumerate_max_families(2, 4, cfg)
        assert walks == [_Enumerator]

    def test_one_walk_proves_and_lists(self, monkeypatch):
        # no optimizer runs first: the enumeration walk from the seed's size
        # proves the optimum itself (the optimizer took 370 and 9,899 nodes)
        walk = _Engine.run
        walks = []

        def counted(engine):
            walk(engine)
            walks.append((type(engine), engine.nodes))

        monkeypatch.setattr(_Engine, "run", counted)
        for (k, d), nodes in {(2, 5): 1040, (3, 5): 29881}.items():
            walks.clear()
            enumerate_max_families(k, d)
            assert walks == [(_Enumerator, nodes)], (k, d)

    def test_time_budget_covers_the_closure(self, monkeypatch):
        # a clock that jumps past the budget once the walk is done: closing
        # the representatives under the group must stop on the budget
        clock = [0.0]
        monkeypatch.setattr(search.time, "monotonic", lambda: clock[0])
        walk = _Enumerator.run

        def slow_walk(engine):
            walk(engine)
            clock[0] += 10.0

        monkeypatch.setattr(_Enumerator, "run", slow_walk)
        with pytest.raises(EnumerationIncomplete, match="stopped by time-budget"):
            enumerate_max_families(2, 4, SearchConfig(budget_secs=5.0))

    def test_orbits_and_closure_match_plain_walk(self):
        for d in range(1, 5):
            for k in range(1, d + 1):
                fams = enumerate_max_families(k, d)
                plain = enumerate_max_families(k, d, SearchConfig(symmetry=False))
                assert [f.texts() for f in fams] == [f.texts() for f in plain], (k, d)
                # text order at both levels, whatever order the walk visits
                for walk in (fams, plain):
                    texts = [f.texts() for f in walk]
                    assert texts == sorted(texts) and all(t == sorted(t) for t in texts), (k, d)

    def test_every_recorded_family_is_verified(self, monkeypatch):
        # rows that leave only distance-0 pairs apart: the graph for k = d,
        # whose cliques (the 16-word binary cube among them) are not 2-neighborly
        outside = search._outside
        monkeypatch.setattr(search, "_outside", lambda count, k, cols: outside(count, 4, cols))
        with pytest.raises(AssertionError, match="witness fails verification"):
            max_family(2, 4, SearchConfig(use_known_bounds=False))
        with pytest.raises(AssertionError, match="enumerated family fails verification"):
            enumerate_max_families(2, 4)

    def test_a_seed_above_the_optimum_is_an_internal_error(self, monkeypatch):
        # the (2,4) optimum is 9: from a seed of 10 the walk records nothing
        ten = Family(4, tuple(enumerate_candidates(4, 4)[:10]))
        monkeypatch.setattr(search, "realize_mbar", lambda k, d: ten)
        with pytest.raises(AssertionError, match="no family as large as the seed"):
            enumerate_max_families(2, 4)

    def test_2_5_closed_under_the_group(self):
        fams = enumerate_max_families(2, 5)
        keys = {frozenset(f.texts()) for f in fams}
        assert len(fams) == len(keys) == 2560
        assert all(len(f) == 12 and verify_neighborly(f, 2).is_valid for f in fams)
        # a transposition of the first two coordinates; a flip of the third
        for g in [((1, 0, 2, 3, 4), (0,) * 5), ((0, 1, 2, 3, 4), (0, 0, 1, 0, 0))]:
            assert {frozenset(_act(*g, t) for t in key) for key in keys} == keys

    def test_class_census(self):
        # one closure per class not yet covered: (orbit size, is_partition,
        # is_total_lamination) per class; the sizes divide |G| = d!·2^d and
        # sum to the count of maximum families
        T, F = True, False
        census = {
            (1, 2): [(4, T, T)],
            (2, 3): [(12, T, T)],
            (2, 4): [(48, T, T)],
            (1, 3): [(6, T, T), (16, F, F), (24, T, T)],
            (1, 4): [(48, T, T), (64, F, F), (96, T, T), (128, F, F), (192, F, F),
                     (192, F, F), (192, T, T), (384, F, F)],
            (3, 4): [(8, T, T), (24, T, T), (32, T, T), (48, T, T), (48, T, T), (96, T, T),
                     (128, T, F)],
            (2, 5): [(240, T, T), (240, T, T), (480, T, T), (640, F, F), (960, T, T)],
            (3, 5): [(240, T, T), (240, T, T), (480, T, T), (480, T, T), (480, T, T),
                     (960, T, T)],
            # 11 classes with a trivial automorphism group: the closure's heaviest cell
            (1, 5): [(240, T, T)] + [(480, T, T)] * 2 + [(640, F, F)] * 3 + [(768, F, F)]
                    + [(960, F, F)] * 3 + [(960, T, T)] * 2 + [(1280, F, F)] * 2
                    + [(1920, F, F)] * 13 + [(1920, T, T)] + [(3840, F, F)] * 11,
        }
        for (k, d), want in census.items():
            strings = enumerate_candidates(k, d)
            order, nadj, vols, words = search._build_graph(strings, k)
            enum = _Enumerator(nadj, vols, 1 << d, max_family(k, d).optimum, 10**6, None, None,
                               words)
            enum.run()
            covered, got = set(), []
            for clique in enum.found:
                rep = tuple(sorted(order[v] for v in clique))
                if rep in covered:
                    continue
                orbit = search._close_under_group([rep], strings, d, 10**6, None)
                covered |= orbit
                fam = Family(d, tuple(strings[i] for i in rep))
                got.append((len(orbit), is_partition(fam), is_total_lamination(fam)))
            assert all((factorial(d) << d) % size == 0 for size, _, _ in got), (k, d)
            assert sum(size for size, _, _ in got) == len(covered), (k, d)
            assert len(covered) == len(enumerate_max_families(k, d)), (k, d)
            assert sorted(got) == want, (k, d)

    def test_cap_applies_to_the_walk(self, monkeypatch):
        # the plain walk records all 48 maximum (2,4) families itself
        cfg = SearchConfig(symmetry=False)
        monkeypatch.setattr(search, "_MAX_FAMILIES", 48)
        assert len(enumerate_max_families(2, 4, cfg)) == 48
        monkeypatch.setattr(search, "_MAX_FAMILIES", 47)
        with pytest.raises(CapacityExceeded, match="more than 47"):
            enumerate_max_families(2, 4, cfg)

    def test_cap_applies_to_the_closure(self, monkeypatch):
        # one orbit representative at (2,4) closes to 48 families
        monkeypatch.setattr(search, "_MAX_FAMILIES", 48)
        assert len(enumerate_max_families(2, 4)) == 48
        monkeypatch.setattr(search, "_MAX_FAMILIES", 47)
        with pytest.raises(CapacityExceeded, match="more than 47"):
            enumerate_max_families(2, 4)


class TestCapacitySwitch:
    def test_capped_false_lifts_both_limits(self, monkeypatch, capsys):
        from nbx.cli import run

        # (2,4) has 72 candidates and 48 maximum families
        monkeypatch.setattr(search, "_MAX_CANDIDATES", 71)
        monkeypatch.setattr(search, "_MAX_FAMILIES", 47)
        for find in (max_family, enumerate_max_families):
            with pytest.raises(CapacityExceeded, match="^72 candidates"):
                find(2, 4)
        for symmetry in (False, True):
            cfg = SearchConfig(symmetry=symmetry, capped=False)
            assert max_family(2, 4, cfg).proven_optimal
            assert len(enumerate_max_families(2, 4, cfg)) == 48
        # with the candidates allowed, the family limit holds in the plain walk
        # (symmetry off) and in the closure (on) until the switch lifts it
        monkeypatch.setattr(search, "_MAX_CANDIDATES", 72)
        for symmetry in (False, True):
            with pytest.raises(CapacityExceeded, match="^more than 47 maximum families$"):
                enumerate_max_families(2, 4, SearchConfig(symmetry=symmetry))

        # nbx search --force is exactly capped=False, in both modes
        configs = []

        def recording(find):
            def recorded(k, d, cfg):
                configs.append(cfg)
                return find(k, d, cfg)
            return recorded

        for name in ("max_family", "_enumerate_indices"):
            monkeypatch.setattr(search, name, recording(getattr(search, name)))
        monkeypatch.setattr(search, "_MAX_CANDIDATES", 71)
        for argv in (["2", "4"], ["2", "4", "--enumerate"]):
            assert run(["search", *argv]) == 2
            assert run(["search", *argv, "--force"]) == 0
        assert configs == [SearchConfig(), SearchConfig(capped=False)] * 2
        assert capsys.readouterr().err.count("capacity 71 (use --force to override)") == 2


class TestVerifyCertificate:
    def test_accepts_real_results(self):
        for k, d in [(1, 3), (2, 3), (2, 4)]:
            assert verify_certificate(max_family(k, d))

    def test_rejects_flipped_member(self):
        # swap one string for the all-jokers word: distance 0 to everything
        from nbx import all_jokers

        r = max_family(2, 3)
        members = tuple(r.witness.members)
        tampered = SearchResult(r.k, r.d, r.optimum, (all_jokers(3),) + members[1:],
                                r.proven_optimal, r.stats)
        assert not verify_certificate(tampered)

    def test_rejects_duplicate(self):
        r = max_family(2, 3)
        members = tuple(r.witness.members)
        tampered = SearchResult(r.k, r.d, r.optimum, (members[0],) + members[:-1],
                                r.proven_optimal, r.stats)
        assert not verify_certificate(tampered)

    def test_rejects_wrong_size(self):
        r = max_family(2, 3)
        tampered = SearchResult(r.k, r.d, r.optimum, tuple(r.witness.members[:-1]),
                                r.proven_optimal, r.stats)
        assert not verify_certificate(tampered)

    def test_rejects_malformed_witness(self):
        r = max_family(2, 3)
        members = tuple(r.witness.members)
        assert not verify_certificate(SearchResult(
            r.k, r.d, r.optimum, (object(),) + members[1:], r.proven_optimal, r.stats))
        assert not verify_certificate(SearchResult(
            r.k, r.d, r.optimum, ("000",) + members[1:], r.proven_optimal, r.stats))
        assert not verify_certificate(
            SearchResult(r.k, r.d, r.optimum, None, r.proven_optimal, r.stats))

    def test_rejects_wrong_dimension(self):
        r = max_family(2, 3)
        tampered = SearchResult(r.k, 4, r.optimum, r.witness, r.proven_optimal, r.stats)
        assert not verify_certificate(tampered)

    def test_rejects_k_outside_1_to_d(self):
        # every distance is at most d, so k = d + 1 would accept any family
        r = max_family(2, 3)
        assert not verify_certificate(
            SearchResult(0, r.d, r.optimum, r.witness, r.proven_optimal, r.stats))
        assert not verify_certificate(
            SearchResult(4, r.d, r.optimum, r.witness, r.proven_optimal, r.stats))


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
        cfg = SearchConfig(use_known_bounds=False)
        for (k, d), want in [((1, 5), 6), ((4, 5), 24), ((5, 5), 32), ((2, 5), 12)]:
            result = max_family(k, d, cfg)
            assert result.proven_optimal and result.optimum == want


class TestStretchInstances:
    def test_2_6_proves_16(self):
        # orbital branching closes it in about a second
        result = max_family(2, 6, SearchConfig(budget_secs=600))
        assert result.proven_optimal
        assert result.optimum == 16
        assert result.stats["nodes"] == 13465
