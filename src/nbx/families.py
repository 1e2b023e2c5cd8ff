"""Families of ternary strings: verification and structure.

A family is an ordered, duplicate-free list of equal-length strings.  The
verifiers here are all exhaustive and exact: k-neighborliness, volume and
partitions, laminations and total laminations, the signed-sum identity on
partitions, and the twin-merge reduction of a partition down to the
single all-joker string.

In this module every pair check is ``verify_neighborly``, its one pair
loop: a partition is a d-neighborly family of volume 2^d, and a diameter
is the largest distance in a report.  The loop reads the bit-sliced
kernel ``_distance_rows``, which the search graph and the biclique cover
share.  It transposes the family into per-coordinate member bit-sets
``Z[c]`` and ``O[c]`` (bit j set when member j has 0, resp. 1, at
coordinate c) and, for each member i, adds ``O[c]`` over the 0-coordinates
of i and ``Z[c]`` over its 1-coordinates into a vertical counter of
``d.bit_length()`` member bit-sets, so bit j of slice b is bit b of
dist(i, j); jokers add nothing.  This is the bit-sliced vertical counter
of the Harley-Seal popcount (Muła, Kurz and Lemire, arXiv:1611.07612),
fed one ripple-carry addition per coordinate: a row of distances costs
O(d) word-parallel operations on n-bit ints instead of n scalar popcounts.
Rows come in prefix-trie order (the members sorted by their words,
coordinate 0 first), and each row restarts from the counter of the
longest prefix it shares with the previous one, so a structured family
pays for each distinct prefix once.  The counters are shared between
rows and read-only to callers.  Comparisons on the counter (``_outside``,
``_max_in``, ``_min_in``, ``_by_distance``) give the columns outside the
window [1, k], the extreme distances, and the columns split by exact
distance.

A failing check keeps its violating pairs as one column mask per row, a
``Violations``, read by iteration and ``len``.  It expands a row into its
columns and their distances only when read, with C-level ``compress`` and
``map`` over the member words packed two masks to an int; no tuple per
pair is kept.

Everything is read-only over immutable inputs, so concurrent use is safe.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import compress, repeat

from .strings import TernaryString, _drop, _Record


class Family(_Record):
    """Ordered duplicate-free collection of strings of one length."""

    __slots__ = ("dimension", "members")

    def __init__(self, dimension: int, members: tuple[TernaryString, ...]):
        self._init(dimension, members)
        seen = set()
        for m in self.members:
            if m.length != self.dimension:
                raise ValueError(f"member '{m}' has length {m.length}, expected {self.dimension}")
            key = (m.zero_mask, m.one_mask)
            if key in seen:
                raise ValueError(f"duplicate member '{m}'")
            seen.add(key)

    # -- construction -------------------------------------------------

    @classmethod
    def of(cls, members: Iterable, dimension: int | None = None) -> "Family":
        """Build from strings or their text forms; dimension inferred if omitted."""
        parsed = tuple(
            m if isinstance(m, TernaryString) else TernaryString.parse(str(m)) for m in members
        )
        if dimension is None:
            if not parsed:
                raise ValueError("cannot infer dimension of an empty family")
            dimension = parsed[0].length
        return cls(dimension, parsed)

    @classmethod
    def from_nbx(cls, text: str) -> "Family":
        """Parse the one-string-per-line text format.

        Blank lines are ignored and lines whose first non-space character
        is ``#`` are comments.
        """
        members = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                members.append(TernaryString.parse(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        return cls.of(members)

    def to_nbx(self) -> str:
        """The one-string-per-line text of the members."""
        return "".join(f"{m}\n" for m in self.members)

    def texts(self) -> list[str]:
        return [str(m) for m in self.members]

    # -- container protocol -------------------------------------------

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[TernaryString]:
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]


def _transpose(masks: list[int], d: int) -> list[int]:
    """Per-coordinate member bit-sets: bit j of entry c is bit c of masks[j]."""
    rows = "".join(map(format, masks, repeat(f"0{d}b")))  # coordinate d-1 first
    return [int("0" + rows[d - 1 - c :: d][::-1], 2) for c in range(d)]


def _distance_rows(zero_masks: list[int], one_masks: list[int], d: int) -> Iterator[tuple]:
    """Yield ``(i, count)`` for each member i, where column j of the
    bit-sliced counter ``count`` holds dist(i, j), in prefix-trie order.

    The counter is ``d.bit_length()`` n-bit ints, least significant slice
    first; it is shared with later rows, so callers must not change it.
    Masks must lie within d bits.
    """
    zs_t = _transpose(zero_masks, d)
    os_t = _transpose(one_masks, d)
    width = d.bit_length()
    fmt = f"0{d}b"  # reversed, coordinate 0 is the leading base-4 digit: * < 0 < 1
    key = [int(format(z, fmt)[::-1], 4) + 2 * int(format(o, fmt)[::-1], 4)
           for z, o in zip(zero_masks, one_masks)]
    stack = [[0] * width] * (d + 1)  # stack[c]: the counter over coordinates < c
    pz = po = -1  # z & o == 0, so the first member differs from this at coordinate 0
    for i in sorted(range(len(key)), key=key.__getitem__):
        z, o = zero_masks[i], one_masks[i]
        diff = (z ^ pz) | (o ^ po)
        pz, po = z, o
        for c in range((diff & -diff).bit_length() - 1 if diff else d, d):
            if z >> c & 1:
                x = os_t[c]
            elif o >> c & 1:
                x = zs_t[c]
            else:
                stack[c + 1] = stack[c]  # a joker adds nothing
                continue
            count = stack[c][:]
            for b in range(width):  # ripple-add the one-bit column vector x
                s = count[b]
                count[b] = s ^ x
                x &= s
                if not x:
                    break
            stack[c + 1] = count
        yield i, stack[d]


def _outside(count: list[int], k: int, cols: int) -> int:
    """Columns of ``cols`` at distance 0 or greater than k: outside the
    k-neighborly window [1, k]."""
    gt, eq = 0, cols
    for b in range(len(count) - 1, -1, -1):
        s = count[b]
        if k >> b & 1:
            eq &= s
        else:
            gt |= eq & s
            eq &= ~s
        if not eq:
            break
    return gt | cols & ~reduce(int.__or__, count, 0)


def _max_in(count: list[int], mask: int) -> int:
    """Largest distance of a counter over the nonempty column set ``mask``."""
    best = 0
    for b in range(len(count) - 1, -1, -1):
        hit = mask & count[b]
        if hit:
            mask = hit
            best |= 1 << b
    return best


def _min_in(count: list[int], mask: int) -> int:
    """Smallest distance of a counter over the nonempty column set ``mask``."""
    low = 0
    for b in range(len(count) - 1, -1, -1):
        miss = mask & ~count[b]
        if miss:
            mask = miss
        else:
            low |= 1 << b
    return low


def _by_distance(count: list[int], mask: int) -> list[tuple[int, int]]:
    """Split the columns ``mask`` of a counter by exact distance: a list of
    ``(distance, columns)`` with no empty column set.  Each slice, most
    significant first, splits every group in two, and no group is kept
    empty, so there are never more groups than distinct distances."""
    groups = [(0, mask)] if mask else []
    for b in range(len(count) - 1, -1, -1):
        s, bit, split = count[b], 1 << b, []
        for value, cols in groups:
            hit = cols & s
            if hit:
                split.append((value | bit, hit))
            if hit != cols:
                split.append((value, cols ^ hit))
        groups = split
    return groups


_SELECT = bytes.maketrans(b"01", b"\0\1")  # binary digits to compress() selectors


def _at_bits(mask: int, items) -> Iterator:
    """The items at the set bits of ``mask``, bit 0 first: one C-level
    ``compress`` over ``items``."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_SELECT))


class Violations:
    """The violating pairs ``(i, j, dist(i, j))``, i < j, in (i, j) order,
    kept as one column mask per violating row i.  Iteration yields the
    triples, so ``tuple(violations)`` is all of them, and ``len`` counts
    them without expanding a row.

    ``_expand`` is the one place that turns a row mask into triples: it
    selects the row's columns and computes their distances by C-level
    ``compress`` and ``map`` over the member words packed as
    ``a_i = z_i | o_i << d`` and ``b_j = o_j | z_j << d``, so that
    ``dist(i, j) = (a_i & b_j).bit_count()``."""

    def __init__(self, rows: list[tuple[int, int]], zero_masks: list[int], one_masks: list[int],
                 d: int):
        self._rows = sorted(rows)  # (i, mask of the violating columns j > i)
        self._len = sum(mask.bit_count() for _, mask in self._rows)
        self._n = len(zero_masks)
        self._a = [z | o << d for z, o in zip(zero_masks, one_masks)] if rows else []
        self._b = [o | z << d for z, o in zip(zero_masks, one_masks)] if rows else []

    def _expand(self) -> Iterator[tuple[int, list[int], list[int]]]:
        """Yield ``(i, js, dists)`` for each violating row: its columns
        j > i, ascending, and dist(i, j) for each."""
        a, b = self._a, self._b
        cols = list(range(self._n))  # one int per column, shared by every row's slice
        for i, mask in self._rows:
            js = list(_at_bits(mask >> (i + 1), cols[i + 1:]))
            yield i, js, list(map(int.bit_count, map(a[i].__and__, map(b.__getitem__, js))))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return (t for i, js, dists in self._expand() for t in zip(repeat(i), js, dists))


class NeighborlinessReport(_Record):
    """Outcome of a pairwise distance check against a window [1, k].
    Reports compare by identity; compare their fields instead."""

    __slots__ = ("is_valid", "min_distance", "max_distance", "violations")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, is_valid: bool, min_distance: int | None,
                 max_distance: int | None, violations: Violations):
        self._init(is_valid, min_distance, max_distance, violations)

    def as_dict(self) -> dict:
        return {
            "valid": self.is_valid,
            "min_distance": self.min_distance,
            "max_distance": self.max_distance,
            "violations": [list(v) for v in self.violations],
        }


def _check_kd(k: int, d: int) -> None:
    if not 1 <= k <= d:
        raise ValueError(f"requires 1 <= k <= d, got k={k}, d={d}")


def verify_neighborly(family: Family, k: int) -> NeighborlinessReport:
    """Check that every pairwise distance lies in [1, k].

    Violating pairs are reported as (i, j, distance) with 0-based member
    indices, i < j, in (i, j) order.  They are kept as one column mask per
    violating row, a ``Violations``, so they take at most n²/16 bytes of
    masks and two packed words per member rather than a tuple per pair;
    iterate it, or take ``tuple(report.violations)``, to read the triples.
    A single-member family is vacuously valid.
    """
    if len(family) < 1:
        raise ValueError("family must have at least one member")
    _check_kd(k, family.dimension)
    zs = [m.zero_mask for m in family.members]
    os_ = [m.one_mask for m in family.members]
    full = (1 << len(zs)) - 1
    lo, hi = family.dimension + 1, 0  # beyond every distance; then lo only falls, hi only rises
    rows = []
    for i, count in _distance_rows(zs, os_, family.dimension):
        upper = full >> (i + 1) << (i + 1)
        if not upper:
            continue
        out = _outside(count, k, upper)
        # a row inside [1, k] cannot take lo below 1 or hi above k
        if lo > 1 or lo and out:
            lo = min(lo, _min_in(count, upper))
        if hi < k or out:
            hi = max(hi, _max_in(count, upper))
        if out:
            rows.append((i, out))
    if len(zs) == 1:
        lo = hi = None
    return NeighborlinessReport(not rows, lo, hi, Violations(rows, zs, os_, family.dimension))


def volume(family: Family) -> int:
    """Total number of cube points covered, counted with multiplicity:
    the sum of 2^(jokers) over the members."""
    return sum(1 << m.jokers for m in family.members)


def is_partition(family: Family) -> bool:
    """True iff the subcubes are pairwise disjoint and cover the whole cube:
    a d-neighborly family (no two members at distance 0) of volume 2^d."""
    d = family.dimension
    return volume(family) == 1 << d and (len(family) == 1 or verify_neighborly(family, d).is_valid)


def _splits(props: Iterable[int], d: int) -> Iterator[int]:
    """The 0-based coordinates, ascending, at which every mask in ``props``
    is set: where a partition with these non-joker masks splits in two."""
    common = reduce(int.__and__, props, (1 << d) - 1)
    return (c for c in range(d) if common >> c & 1)


def is_lamination(family: Family) -> int | None:
    """Smallest coordinate at which a partition splits into its 0- and
    1-sides (every member non-joker there), or None."""
    if not is_partition(family):
        return None
    props = (m.prop_mask for m in family.members)
    return next((c + 1 for c in _splits(props, family.dimension)), None)


def is_total_lamination(family: Family) -> bool:
    """True iff the family splits recursively, coordinate by coordinate,
    down to all-joker singletons or full binary cubes.

    Only a partition can, and both sides of a split partition are
    partitions, so the partition check runs once.  The split coordinate is
    existential at every level; results are memoized within the call."""
    if not is_partition(family):
        return False
    key = frozenset((m.zero_mask, m.one_mask) for m in family.members)
    return _total_lamination(family.dimension, key, {})


def _total_lamination(d: int, key: frozenset, memo: dict) -> bool:
    if len(key) in (1, 1 << d):
        return True  # a partition, so the all-joker singleton or the binary cube
    if (d, key) not in memo:
        memo[(d, key)] = False
        for c in _splits((z | o for z, o in key), d):
            bit = 1 << c
            side0 = frozenset((_drop(z, c), _drop(o, c)) for z, o in key if z & bit)
            side1 = frozenset((_drop(z, c), _drop(o, c)) for z, o in key if o & bit)
            if _total_lamination(d - 1, side0, memo) and _total_lamination(d - 1, side1, memo):
                memo[(d, key)] = True
                break
    return memo[(d, key)]


def reduce_to_trivial(family: Family) -> list[Family]:
    """Merge twin pairs until a single all-joker string remains.

    Each step picks the member with the fewest jokers (first on ties),
    finds a twin for it, and replaces the pair by their union, which keeps
    the family a partition and shrinks it by one.  The returned trace
    starts with the input and ends with the singleton.  For partitions with
    pairwise distances at most 2 a twin always exists; if none is found the
    precondition was violated and a ValueError is raised.
    """
    if not is_partition(family):
        raise ValueError("reduce_to_trivial requires a partition")
    trace = [family]
    current = list(family.members)
    while len(current) > 1:
        pivot_idx = min(range(len(current)), key=lambda idx: current[idx].jokers)
        pivot = current[pivot_idx]
        twin_idx = next((idx for idx, cand in enumerate(current)
                         if idx != pivot_idx and pivot.is_twin(cand)), None)
        if twin_idx is None:
            raise ValueError(f"no twin found for {pivot}; the family is not reducible")
        lo, hi = sorted((pivot_idx, twin_idx))
        current[lo] = current[lo].twin_union(current[hi])
        del current[hi]
        trace.append(Family(family.dimension, tuple(current)))
    return trace


def sgn_sum(family: Family) -> int:
    """Signed count of the members sharing the non-joker coordinate set of
    a member with the fewest jokers (first on ties).  Zero on every
    partition with a second member; the bare all-joker family sums to +1.
    """
    if not is_partition(family):
        raise ValueError("sgn_sum requires a partition")
    pivot = min(family.members, key=lambda m: m.jokers)
    prop = pivot.prop_mask
    return sum(m.sign for m in family.members if m.prop_mask == prop)


def diameter(points: Iterable[TernaryString]) -> int:
    """Largest pairwise Hamming distance of a nonempty set of joker-free
    strings: the largest distance ``verify_neighborly`` reports on the
    distinct points at k = d.  Points may repeat."""
    pts = list(points)
    if not pts:
        raise ValueError("diameter of an empty set")
    d = pts[0].length
    for p in pts:
        if p.length != d:
            raise ValueError("length mismatch")
        if not p.is_binary:
            raise ValueError("diameter is defined for joker-free strings")
    distinct = tuple(dict.fromkeys(pts))
    if len(distinct) == 1:
        return 0
    # joker-free, so the distance is the Hamming distance
    return verify_neighborly(Family(d, distinct), d).max_distance
