"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles (symbol lists,
subset enumeration, plain DP) so the library's bit-mask fast paths are
checked against a second, dumber route.
"""

import itertools
import math
import random

from nbx import BicliqueCover, CoverReport, Family, TernaryString


# -- symbol-level string algebra ---------------------------------------


def sym_distance(a: str, b: str) -> int:
    assert len(a) == len(b)
    return sum(1 for x, y in zip(a, b) if {x, y} == {"0", "1"})


def sym_subcube(a: str) -> list[str]:
    """All binary words of a ternary word, by expanding jokers."""
    pools = [("0", "1") if ch == "*" else (ch,) for ch in a]
    return ["".join(w) for w in itertools.product(*pools)]


# -- partitions and laminations on text ------------------------------------


def sym_partition(words: list[str], d: int) -> bool:
    """The expanded subcubes of the words hit every binary word of length d
    exactly once."""
    points = [p for w in words for p in sym_subcube(w)]
    return len(points) == 2**d and set(points) == {
        "".join(w) for w in itertools.product("01", repeat=d)
    }


def sym_lamination(words: list[str], d: int):
    """First 1-based column with no joker in any word of a partition, or
    None."""
    if not sym_partition(words, d):
        return None
    for i in range(d):
        if all(w[i] != "*" for w in words):
            return i + 1
    return None


def sym_total_lamination(words: list[str], d: int) -> bool:
    """A partition that is one word, or that some joker-free column splits
    into two sides, each a total lamination once that column is dropped."""
    return sym_partition(words, d) and _sym_splits_down(words, d)


def _sym_splits_down(words: list[str], d: int) -> bool:
    if len(words) == 1:
        return True
    for i in range(d):
        if all(w[i] != "*" for w in words):
            sides = [[w[:i] + w[i + 1 :] for w in words if w[i] == s] for s in "01"]
            if all(_sym_splits_down(side, d - 1) for side in sides):
                return True
    return False


# -- biclique covers -----------------------------------------------------


def cover_report(cover: BicliqueCover, k: int) -> CoverReport:
    """Edge multiplicities counted one L x R pair at a time into a
    dictionary over the edges of K_n."""
    counts = {}
    for u in range(cover.n):
        for v in range(u + 1, cover.n):
            counts[(u, v)] = 0
    for left, right in cover.bicliques:
        for u in left:
            for v in right:
                edge = (u, v) if u < v else (v, u)
                counts[edge] += 1
    histogram: dict[int, int] = {}
    violations = []
    for (u, v), mult in counts.items():
        histogram[mult] = histogram.get(mult, 0) + 1
        if mult < 1 or mult > k:
            violations.append((u, v, mult))
    return CoverReport(
        not violations,
        tuple(sorted(histogram.items())),
        tuple(sorted(violations)),
    )


# -- clique search -------------------------------------------------------


def max_clique_size(adj: list[int]) -> int:
    """Maximum clique via greedy-coloring branch and bound on adjacency
    bitmasks (self-contained)."""
    best = 0

    def color_order(pool: int):
        order = []
        color = 0
        while pool:
            color += 1
            avail = pool
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                order.append((v, color))
                avail &= ~adj[v] & ~low
                pool ^= low
        return order

    def grow(size: int, pool: int):
        nonlocal best
        for v, c in reversed(color_order(pool)):
            if size + c <= best:
                return
            if size + 1 > best:
                best = size + 1
            sub = pool & adj[v]
            if sub:
                grow(size + 1, sub)
            pool &= ~(1 << v)

    grow(0, (1 << len(adj)) - 1)
    return best


def all_max_cliques(adj: list[int]) -> list[tuple[int, ...]]:
    """Every maximum clique as an ascending vertex tuple, in sorted order.
    Plain recursion: each clique grows by higher-numbered common neighbours
    only, cut when even taking every remaining candidate cannot reach the
    largest size seen (no coloring, no volume prune)."""
    best: list[tuple[int, ...]] = []
    size = 0

    def grow(clique: list[int], cand: int):
        nonlocal size
        if len(clique) > size:
            size = len(clique)
            best.clear()
        if len(clique) == size:
            best.append(tuple(clique))
        while cand and len(clique) + cand.bit_count() >= size:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            clique.append(v)
            grow(clique, cand & adj[v])
            clique.pop()

    grow([], (1 << len(adj)) - 1)
    return sorted(best)


def brute_force_clique_size(adj: list[int]) -> int:
    """Exhaustive subset scan; only for very small graphs."""
    n = len(adj)
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        members = [v for v in range(n) if mask >> v & 1]
        if all(adj[u] >> v & 1 for i, u in enumerate(members) for v in members[i + 1 :]):
            best = size
    return best


def max_diameter_set_size(s: int, d: int) -> int:
    """Largest subset of {0,1}^d with all pairwise Hamming distances <= s."""
    n = 1 << d
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if (u ^ v).bit_count() <= s:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return max_clique_size(adj)


# -- profile optimization ------------------------------------------------


def profile_optimum(k: int, d: int, kappa) -> int:
    """Maximize sum(f_i) subject to sum_{l<=i} 2^l f_l <= kappa(k+2i, d)
    for every i < d, by DP over the weighted volume used."""
    states = {0: 0}
    for i in range(d):
        limit = kappa(k + 2 * i, d)
        new: dict[int, int] = {}
        for vol, cnt in states.items():
            top = (limit - vol) >> i
            for f in range(top + 1):
                v2 = vol + (f << i)
                c2 = cnt + f
                if new.get(v2, -1) < c2:
                    new[v2] = c2
        states = new
    return max(states.values())


# -- fragmented construction ----------------------------------------------


def best_fragmented_plan(k: int, d: int) -> tuple[int, int, tuple[int, ...]]:
    """(value, m, a) maximizing e_k(a_1 + 1, ..., a_m + 1) by brute force:
    every block count m with C(m, k) + m - 1 <= d and every ordered
    composition a of d - C(m, k) + 1 into m positive parts, with e_k
    summed over k-subsets.  Ties prefer the smaller m, then the
    lexicographically largest a."""
    best = None
    m = k
    while math.comb(m, k) + m - 1 <= d:
        budget = d - math.comb(m, k) + 1
        for cuts in itertools.combinations(range(1, budget), m - 1):
            ends = (0, *cuts, budget)
            a = tuple(hi - lo for lo, hi in zip(ends, ends[1:]))
            value = sum(
                math.prod(a[i] + 1 for i in sub) for sub in itertools.combinations(range(m), k)
            )
            if best is None or (value, -m, a) > best:
                best = (value, -m, a)
        m += 1
    value, neg_m, a = best
    return value, -neg_m, a


# -- random partition generation ------------------------------------------


def twin_split_partition(
    d: int, rng: random.Random, max_members: int = 48, max_distance: int | None = None
) -> Family:
    """Random partition built by repeatedly splitting a member's joker into
    a twin pair, optionally rejecting splits that push a pairwise distance
    beyond ``max_distance``.  At least one split is performed: the bare
    all-joker singleton is the one partition whose signed sum is +1, not 0.
    """
    full = (1 << d) - 1
    members: list[tuple[int, int]] = [(0, 0)]
    target = rng.randint(2, max_members)
    failures = 0
    while len(members) < target and failures < 30:
        splittable = [i for i, (z, o) in enumerate(members) if (z | o) != full]
        if not splittable:
            break
        idx = rng.choice(splittable)
        z, o = members[idx]
        joker_bits = [c for c in range(d) if not (z | o) >> c & 1]
        bit = 1 << rng.choice(joker_bits)
        candidate = members[:idx] + [(z | bit, o), (z, o | bit)] + members[idx + 1 :]
        if max_distance is not None and _max_distance(candidate) > max_distance:
            failures += 1
            continue
        members = candidate
    return Family(d, tuple(TernaryString(d, z, o) for z, o in members))


def _max_distance(members: list[tuple[int, int]]) -> int:
    worst = 0
    for i, (zi, oi) in enumerate(members):
        for zj, oj in members[i + 1 :]:
            dist = ((zi & oj) | (oi & zj)).bit_count()
            if dist > worst:
                worst = dist
    return worst


def all_cube_partitions(d: int) -> list[tuple[TernaryString, ...]]:
    """Every partition of the binary cube into disjoint subcubes, found by
    covering the least uncovered point first."""
    from nbx import all_strings

    cubes = []
    for s in all_strings(d):
        jm = s.joker_mask
        occ = 0
        sub = jm
        while True:
            occ |= 1 << (s.one_mask | sub)
            if sub == 0:
                break
            sub = (sub - 1) & jm
        cubes.append((s, occ))
    covering = [[] for _ in range(1 << d)]
    for s, occ in cubes:
        m = occ
        while m:
            covering[(m & -m).bit_length() - 1].append((s, occ))
            m &= m - 1
    out = []

    def rec(remaining, chosen):
        if remaining == 0:
            out.append(tuple(chosen))
            return
        p = (remaining & -remaining).bit_length() - 1
        for s, occ in covering[p]:
            if occ & ~remaining == 0:
                chosen.append(s)
                rec(remaining & ~occ, chosen)
                chosen.pop()

    rec((1 << (1 << d)) - 1, [])
    return out
