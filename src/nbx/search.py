"""Exact maximum-family search for small (k, d).

The problem is a maximum clique instance: vertices are the candidate
strings, with an edge where the pairwise distance lies in [1, k].
Candidate sets and non-neighbourhood rows live in Python-int bitmasks, and
a partial solution is the stack of its walk vertices; outside the walk a
candidate index is a place in text order.  The solver is a sequential,
deterministic branch and bound with three admissible prunes:

* greedy coloring of the candidate set (classic clique bound), peeled
  over closed non-neighbourhood rows and listing only the classes that
  can still beat the incumbent (MCQ, Tomita & Kameda, J. Global Optim.
  37, 2007; BBMC, San Segundo et al., Comput. Oper. Res. 38, 2011);
* disjoint-volume counting: the chosen subcubes plus the cheapest
  extension must fit in the 2^d cube points;
* a global cutoff at the best closed-form upper bound, which also ends
  the search early once an incumbent meets it.

The candidates are the words with at most d-k jokers, since no maximum
family holds a word w with more.  Such a w has fewer than k non-joker
coordinates, so it lies at distance at most k-1 from every other member.
Replacing w by the twin pair w0, w1 from one of its jokers then gives a
k-neighborly family one larger: the twins lie at distance 1, neither was a
member (each meets w), and each lies at least as far as w and at most one
further from every other member.

With symmetry on (the default) the walk uses orbital branching (Ostrowski,
Linderoth, Rossi & Smriglio, Math. Program. 126, 2011) under the cube's
group of coordinate permutations and 0/1 flips: after branching on v it
drops v's whole orbit under the pointwise stabiliser of the stack.  At the
root that group is the whole group and its orbits are the joker counts.

Optimizing and enumerating share one walk, ``_Engine.expand``, so every
prune serves both.  At a clique larger than ``best`` the optimizer raises
``best``; the enumerator records the clique, first dropping the recorded
ones if it is larger, so one walk from the seed's size proves the optimum
and lists every maximum clique.  With symmetry it records at least one per
isomorphism class, and a worklist closure under three generators of the
group (a cycle, a swap and a flip of coordinates) gives all of them.
"""

from __future__ import annotations

import time
from math import comb
from typing import Optional

from .bounds import best_bounds
from .constructions import realize_mbar
from .families import Family, _check_kd, _distance_rows, _outside, verify_neighborly
from .strings import TernaryString, _Record, all_strings


class CapacityExceeded(RuntimeError):
    """Candidate set larger than the configured capacity."""


class EnumerationCapExceeded(RuntimeError):
    """More maximum families than the enumeration cap."""


class EnumerationIncomplete(RuntimeError):
    """A budget stopped the enumeration walk or closure before it completed."""


class SearchConfig(_Record):
    """How ``max_family`` and ``enumerate_max_families`` search.

    budget_nodes: stop after this many walk nodes (None: no limit).
    budget_secs: stop this many seconds after entry (None: no limit).
    symmetry: prune by orbital branching; off, the walk is the plain clique search.
    max_candidates: refuse a larger candidate set with ``CapacityExceeded``.
    use_known_bounds: seed with ``realize_mbar``, stop at ``best_bounds(k, d).upper``.
    """

    __slots__ = ("budget_nodes", "budget_secs", "symmetry", "max_candidates", "use_known_bounds")
    # unlike the other records, mutable, and so unhashable
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, budget_nodes: Optional[int] = None, budget_secs: Optional[float] = None,
                 symmetry: bool = True, max_candidates: int = 60_000,
                 use_known_bounds: bool = True):
        self._init(budget_nodes, budget_secs, symmetry, max_candidates, use_known_bounds)
        if self.budget_nodes is not None and self.budget_nodes <= 0:
            raise ValueError("budget_nodes must be positive")
        if self.budget_secs is not None and not 0 < self.budget_secs < float("inf"):
            raise ValueError("budget_secs must be finite and positive")


class SearchResult(_Record, compare=("k", "d", "optimum", "witness", "proven_optimal")):
    """The outcome of one search; ``==`` and ``hash`` leave out ``stats``."""

    __slots__ = ("k", "d", "optimum", "witness", "proven_optimal", "stats")

    def __init__(self, k: int, d: int, optimum: int, witness: Family, proven_optimal: bool,
                 stats: dict):
        self._init(k, d, optimum, witness, proven_optimal, stats)

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "d": self.d,
            "optimum": self.optimum,
            "proven_optimal": self.proven_optimal,
            "witness": [str(m) for m in self.witness],
            "stats": dict(self.stats),
        }


def enumerate_candidates(k: int, d: int) -> list[TernaryString]:
    """All strings that can appear in a maximum k-neighborly family:
    those with at most d-k jokers, in text order."""
    _check_kd(k, d)
    return sorted((s for s in all_strings(d) if s.jokers <= d - k), key=str)


class _Stop(Exception):
    """Ends a walk early: ``reason`` is "cutoff", "node-budget" or "time-budget"."""

    def __init__(self, reason: str):
        self.reason = reason


class _Engine:
    """Branch-and-bound state over one ordered candidate list.

    ``nadj``, ``vols`` and ``words`` are kept as ``_build_graph`` emits
    them, in walk order: row v holds the vertices not adjacent to v, other
    than v; ``vols[v]`` is v's subcube volume; ``words[v]`` is its
    (zero_mask, one_mask) over the log2(cube_volume) coordinates.  Given
    ``words``, the walk prunes by orbital branching under the coordinate
    permutations and 0/1 flips, and the volume buckets (one per joker count)
    are the orbits at the root.  Without it the walk is the plain clique
    search.  ``deadline`` is the time.monotonic() reading at which
    ``budget_secs`` runs out, or None.
    """

    def __init__(self, nadj, vols, cube_volume, cutoff, budget_nodes, deadline, words=None):
        self.nadj = nadj
        self.vols = vols
        self.cube_volume = cube_volume
        self.cutoff = cutoff
        self.budget_nodes = budget_nodes
        self.deadline = deadline
        self.words = words
        self.nodes = 0
        self.best = 0
        self.witness: list[int] = []
        # candidates bucketed by subcube volume, for the volume bound
        self.buckets = [0] * max(vols, default=1).bit_length()
        for v, vol in enumerate(vols):
            self.buckets[vol.bit_length() - 1] |= 1 << v

    def run(self):
        """Walk the whole candidate set.  With symmetry the stack starts
        empty, so every coordinate shares the (empty, all-joker) column."""
        n = len(self.nadj)
        classes = None if self.words is None else (self.cube_volume - 1, 0, ())
        self.expand([], (1 << n) - 1, 0, classes)

    def _tick(self):
        self.nodes += 1
        if self.budget_nodes is not None and self.nodes > self.budget_nodes:
            raise _Stop("node-budget")
        # nodes 1, 1025, ...: a budget spent before the walk stops it at once
        if self.deadline is not None and self.nodes & 1023 == 1:
            if time.monotonic() > self.deadline:
                raise _Stop("time-budget")

    def _improve(self, stack: list[int]):
        self.best = len(stack)
        self.witness = list(stack)
        if self.best >= self.cutoff:
            raise _Stop("cutoff")

    def _volume_room(self, pool: int, cap: int) -> int:
        """Upper bound on how many pool members any disjoint extension can
        add within the remaining cube capacity (cheapest volumes first)."""
        extra = 0
        for j, bucket in enumerate(self.buckets):
            if cap < (1 << j):
                break
            hit = pool & bucket
            if not hit:
                continue
            c = hit.bit_count()
            fit = cap >> j
            if fit >= c:
                extra += c
                cap -= c << j
            else:
                extra += fit
                break
        return extra

    def _color_order(self, pool: int, kmin: int) -> list[tuple[int, int]]:
        """Greedy coloring by peeling independent sets over the closed
        non-neighbourhood rows; returns (vertex, color) with colors
        ascending, listing only colors above ``kmin`` (as MCQ and BBMC do,
        see the module docstring).  ``expand`` passes ``best - depth`` and
        would never branch on a lower color, since ``best`` never falls."""
        nadj = self.nadj
        order = []
        color = 0
        while pool:
            color += 1
            avail = pool
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= nadj[v]
                pool ^= low
                if color > kmin:
                    order.append((v, color))
        return order

    def _refine(self, classes, v: int):
        """Column classes of the stack extended by v, or None once the
        stabiliser they describe is trivial.

        ``classes`` is (joker, fixed, multi): the coordinates where every
        stack word has a joker; the union of the one-coordinate classes whose
        column holds a 0 or a 1; and the larger such classes.  The group kept
        permutes the coordinates inside each class and flips joker ones.
        """
        joker, fixed, multi = classes
        z, o = self.words[v]
        split = []
        for c in multi:
            split += (c & z, c & o, c & ~(z | o))
        split += (joker & z, joker & o)
        joker &= ~(z | o)
        rest = []
        for c in split:
            if c & (c - 1):
                rest.append(c)
            else:
                fixed |= c
        if not joker and not rest:
            return None
        return joker, fixed, tuple(rest)

    def _orbits(self, classes, pool: int) -> dict[int, int]:
        """Pool member -> its orbit within the pool under the group that
        ``classes`` describes: in each class the same count of 0s and of 1s,
        or of non-jokers in the joker class."""
        joker, fixed, multi = classes
        words = self.words
        keys = []
        masks: dict[tuple, int] = {}
        rest = pool
        while rest:
            low = rest & -rest
            rest ^= low
            z, o = words[low.bit_length() - 1]
            key = (z & fixed, o & fixed, ((z | o) & joker).bit_count())
            for c in multi:
                key += ((z & c).bit_count(), (o & c).bit_count())
            keys.append((low, key))
            masks[key] = masks.get(key, 0) | low
        return {low.bit_length() - 1: masks[key] for low, key in keys}

    def expand(self, stack: list[int], pool: int, used_volume: int, classes=None):
        """Search every clique that extends ``stack`` within ``pool``.

        With ``classes`` (see ``_refine``) the pool is invariant under the
        stack's stabiliser, so after branching on v the walk drops v's whole
        orbit: each clique it held has an image through v, already searched
        (orbital branching).  At the root the whole group acts, its orbits
        are the joker counts, and they are branched in ascending joker count.
        """
        self._tick()
        depth = len(stack)
        if depth + pool.bit_count() <= self.best:
            return
        if depth + self._volume_room(pool, self.cube_volume - used_volume) <= self.best:
            return
        nadj, vols, expand = self.nadj, self.vols, self.expand
        if depth or classes is None:
            order = reversed(self._color_order(pool, self.best - depth))
        else:  # the root: one vertex per joker count, fewest jokers first
            size = pool.bit_count()
            hits = [pool & b for b in self.buckets]
            order = [((h & -h).bit_length() - 1, size) for h in hits if h]
        orbits = None
        for v, c in order:
            if depth + c <= self.best:
                return
            if not pool >> v & 1:
                continue
            sub = pool & ~nadj[v] ^ 1 << v
            stack.append(v)
            if depth + 1 > self.best:
                self._improve(stack)
            if sub:
                expand(stack, sub, used_volume + vols[v], classes and self._refine(classes, v))
            stack.pop()
            if classes is None:
                pool &= ~(1 << v)
            else:
                if orbits is None:
                    orbits = self._orbits(classes, pool)
                pool &= ~orbits[v]


class _Enumerator(_Engine):
    """Enumeration mode of the walk: every clique of size ``best + 1`` is
    recorded in ``found`` as the tuple of its walk vertices, in stack order;
    a larger one drops those and raises ``best``.  From a ``target`` at most
    the clique number it ends with every maximum clique (with ``words``, at
    least one per orbit).  ``cap`` counts those of the current size: the
    final count when the seed is optimal, as on every cell so far."""

    def __init__(self, nadj, vols, cube_volume, target, cap, budget_nodes, deadline, words=None):
        super().__init__(nadj, vols, cube_volume, target, budget_nodes, deadline, words)
        self.best = target - 1
        self.cap = cap
        self.found: list[tuple[int, ...]] = []

    def _improve(self, stack: list[int]):
        if len(stack) > self.best + 1:
            self.found.clear()
            self.best = len(stack) - 1
        self.found.append(tuple(stack))
        if len(self.found) > self.cap:
            raise EnumerationCapExceeded(f"more than {self.cap} maximum families")


def _build_graph(strings: list[TernaryString], k: int, deadline=None):
    """Everything the walk reads, as ``(order, nadj, vols, words)``: walk
    vertex v is ``strings[order[v]]``, by degree desc (fewest non-neighbours
    first), jokers asc, then place in ``strings``, and the rest hold in walk
    order its closed non-neighbourhood row (the others at distance 0 or above
    k, from one ``_distance_rows`` pass that checks ``deadline`` per row),
    subcube volume and (zero_mask, one_mask).  The set is closed under the
    cube group, which keeps distances and maps a string onto every other with
    its joker count, so a row's size depends on that alone."""
    reps = {s.jokers: s for s in strings}
    size = {j: sum(not 1 <= s.distance(t) <= k for t in strings) for j, s in reps.items()}
    order = sorted(range(len(strings)), key=lambda i: (size[strings[i].jokers], strings[i].jokers))
    walked = [strings[i] for i in order]
    vols = [1 << s.jokers for s in walked]
    zs, os_ = [s.zero_mask for s in walked], [s.one_mask for s in walked]
    words = list(zip(zs, os_))
    full = (1 << len(walked)) - 1
    nadj = [0] * len(walked)
    for v, count in _distance_rows(zs, os_, walked[0].length):
        if deadline is not None and time.monotonic() > deadline:
            raise _Stop("time-budget")
        nadj[v] = _outside(count, k, full) ^ 1 << v
    return order, nadj, vols, words


def _search_candidates(k: int, d: int, cfg: SearchConfig) -> list[TernaryString]:
    """Candidates for (k, d), under the capacity guard, which counts them
    (C(d, j)·2^(d-j) with j jokers) before any is built."""
    _check_kd(k, d)
    n = sum(comb(d, j) << d - j for j in range(d - k + 1))
    if n > cfg.max_candidates:
        raise CapacityExceeded(
            f"{n} candidates (adjacency {n * n // 8:,} bytes) exceed the configured"
            f" capacity {cfg.max_candidates}"
        )
    return enumerate_candidates(k, d)


def max_family(k: int, d: int, cfg: Optional[SearchConfig] = None) -> SearchResult:
    """Exact maximum k-neighborly family in dimension d.

    Returns the proven optimum, or the best family found when a budget ran
    out (proven_optimal False).  Deterministic for a fixed configuration.
    """
    start = time.monotonic()
    cfg = cfg or SearchConfig()
    deadline = None if cfg.budget_secs is None else start + cfg.budget_secs
    strings = _search_candidates(k, d, cfg)
    cutoff = best_bounds(k, d).upper.value if cfg.use_known_bounds else (1 << d) + 1
    # warm start: the constructed family is the witness until the walk beats it
    seed = realize_mbar(k, d).members if cfg.use_known_bounds else ()
    engine = None
    stopped = "complete"
    try:
        if len(seed) >= cutoff:  # proven without a graph
            raise _Stop("cutoff")
        order, nadj, vols, words = _build_graph(strings, k, deadline)
        engine = _Engine(nadj, vols, 1 << d, cutoff, cfg.budget_nodes, deadline,
                         words if cfg.symmetry else None)
        engine.best = len(seed)  # the prunes read only the incumbent's size
        engine.run()
    except _Stop as exc:
        stopped = exc.reason

    members = [strings[order[v]] for v in engine.witness] if engine and engine.witness else seed
    witness = Family(d, tuple(sorted(members, key=str)))
    if len(witness) and not verify_neighborly(witness, k).is_valid:
        raise AssertionError("internal error: witness fails verification")
    proven = stopped in ("complete", "cutoff")
    stats = {
        "nodes": engine.nodes if engine else 0,
        "elapsed_secs": time.monotonic() - start,
        "candidates": len(strings),
        "upper_cutoff": cutoff if cfg.use_known_bounds else None,
        "stopped": stopped,
        "budget_nodes": cfg.budget_nodes,
        "budget_secs": cfg.budget_secs,
    }
    return SearchResult(k, d, len(witness), witness, proven, stats)


def enumerate_max_families(
    k: int, d: int, cfg: Optional[SearchConfig] = None, cap: int = 100_000
) -> list[Family]:
    """Every maximum k-neighborly family in dimension d, as member sets.

    One walk in enumeration mode, from the constructed seed's size (1
    without ``use_known_bounds``), proves the optimum and records the
    cliques of that size.  With symmetry it prunes by orbits and records at
    least one family per isomorphism class; closing those under three
    generators of the coordinate permutations and flips gives every labelled
    family, at a cost that grows with their count, not with d!·2^d.  ``cap``
    bounds the count of families and ``budget_nodes`` the walk.
    ``budget_secs`` counts from entry: graph build, walk and closure.  The
    list is in text order, as is each family, so it depends only on the set
    of maximum families and not on how the walk numbers its vertices.  The
    families are built from ``_enumerate_indices``, which ``nbx search
    --enumerate`` writes from directly.
    """
    strings, found = _enumerate_indices(k, d, cfg, cap)
    return [Family(d, tuple(strings[i] for i in idxs)) for idxs in found]


def _enumerate_indices(
    k: int, d: int, cfg: Optional[SearchConfig] = None, cap: int = 100_000
) -> tuple[list[TernaryString], list[tuple[int, ...]]]:
    """The enumeration behind ``enumerate_max_families``, as ``(strings,
    found)``: the candidates in text order, and every maximum family as the
    sorted tuple of its indices into ``strings``, the tuples sorted too."""
    cfg = cfg or SearchConfig()
    deadline = None if cfg.budget_secs is None else time.monotonic() + cfg.budget_secs
    strings = _search_candidates(k, d, cfg)
    target = len(realize_mbar(k, d)) if cfg.use_known_bounds else 1
    try:
        order, nadj, vols, words = _build_graph(strings, k, deadline)
        engine = _Enumerator(nadj, vols, 1 << d, target, cap, cfg.budget_nodes, deadline,
                             words if cfg.symmetry else None)
        engine.run()
    except _Stop as exc:
        raise EnumerationIncomplete(
            f"optimum not proven: enumeration stopped by {exc.reason} before completing"
        ) from None
    if not engine.found:  # the seed is a verified family of size target
        raise AssertionError("internal error: no family as large as the seed")
    found = [tuple(sorted(order[v] for v in clique)) for clique in engine.found]
    for idxs in found:  # the closure's images keep distances, so only these need a check
        if not verify_neighborly(Family(d, tuple(strings[i] for i in idxs)), k).is_valid:
            raise AssertionError("internal error: enumerated family fails verification")
    if cfg.symmetry:
        found = _close_under_group(found, strings, d, cap, deadline)
    return strings, sorted(found)


def _close_under_group(families, strings, d: int, cap: int, deadline) -> set[tuple[int, ...]]:
    """Every image of the families (sorted tuples of indices into ``strings``)
    under the d!·2^d coordinate permutations and 0/1 flips: a worklist
    closure under the cycle of all d coordinates, the swap of coordinates 0
    and 1 and the flip of coordinate 0.  The d-cycle and a transposition of
    adjacent coordinates generate every permutation, and conjugating the flip
    by those gives every flip.  The candidate set is closed under the group,
    so each generator is a list of candidate indices, and an image is the
    sorted tuple of the moved indices."""
    index = {(s.zero_mask, s.one_mask): i for i, s in enumerate(strings)}
    gens = [[index[f(z), f(o)] for z, o in index] for f in (
        lambda m: (m << 1 | m >> d - 1) & (1 << d) - 1,  # the cycle: coordinate i to i + 1
        lambda m: m ^ ((m ^ m >> 1) & 1) * 3 if d > 1 else m,  # the swap; none when d = 1
    )]
    gens.append([index[z ^ (z ^ o) & 1, o ^ (z ^ o) & 1] for z, o in index])
    closure, work = set(families), list(families)
    while work:
        if deadline is not None and time.monotonic() > deadline:
            raise EnumerationIncomplete("enumeration stopped by time-budget before completing")
        members = work.pop()
        for gen in gens:
            image = tuple(sorted([gen[i] for i in members]))
            if image not in closure:
                closure.add(image)
                work.append(image)
                if len(closure) > cap:
                    raise EnumerationCapExceeded(f"more than {cap} maximum families")
    return closure


def verify_certificate(result: SearchResult) -> bool:
    """Re-check a search result from its raw members, independently of the
    search graph and walk: ``Family`` checks their lengths and distinctness,
    ``verify_neighborly`` their pairwise distances.  A witness that is not an
    iterable of ternary strings, or a k outside 1..d, is rejected."""
    try:
        members = tuple(result.witness)
        if not all(isinstance(m, TernaryString) for m in members):
            return False
        family = Family(result.d, members)
        return len(family) == result.optimum >= 1 and verify_neighborly(family, result.k).is_valid
    except (TypeError, ValueError):
        return False
