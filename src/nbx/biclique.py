"""Biclique coverings of complete graphs and the string correspondence.

A family of n strings of length d maps to a covering of K_n by d complete
bipartite graphs: biclique i puts the members with 0 at coordinate i on
one side and those with 1 on the other.  Under this map the number of
bicliques covering an edge (u, v) equals the distance of the two strings,
so k-neighborliness of the family is exactly the [1, k] multiplicity
condition on the covering.

Vertices are indexed 0..n-1 by member order, which makes the two
directions exact inverses.  Any cover is a family transposed (v in L_i
is 0 at i, v in R_i is 1), so ``verify_cover`` runs on the family kernel.
"""

from __future__ import annotations

from itertools import repeat

from .families import Family, Violations, _at_bits, _by_distance, _distance_rows, _transpose
from .strings import TernaryString, _Record


class BicliqueCover(_Record):
    """d bicliques (L_i, R_i) over vertices 0..n-1."""

    __slots__ = ("n", "bicliques")

    def __init__(self, n: int, bicliques: tuple[tuple[frozenset[int], frozenset[int]], ...]):
        self._init(n, bicliques)
        _check_sides(self.n, self.bicliques)

    @property
    def d(self) -> int:
        return len(self.bicliques)

    @classmethod
    def of(cls, n: int, bicliques) -> "BicliqueCover":
        return cls(n, tuple((frozenset(l), frozenset(r)) for l, r in bicliques))

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "bicliques": [{"L": sorted(l), "R": sorted(r)} for l, r in self.bicliques],
        }

    @classmethod
    def from_dict(cls, data) -> "BicliqueCover":
        """Parse the ``as_dict`` shape; ValueError names the first bad field."""
        return cls.of(*_cover_fields(data))


def _cover_fields(data) -> tuple[int, list[tuple[list, list]]]:
    """``n`` and the ``(L, R)`` vertex lists of a cover in the ``as_dict``
    shape, checked for their types only; ValueError names the first bad
    field."""
    if not isinstance(data, dict):
        raise ValueError("cover: expected a JSON object")
    if not _is_int(data.get("n")):
        raise ValueError("cover: 'n' must be an integer")
    if not isinstance(data.get("bicliques"), list):
        raise ValueError("cover: 'bicliques' must be a list")
    sides = []
    for i, b in enumerate(data["bicliques"], start=1):
        if not isinstance(b, dict):
            raise ValueError(f"biclique {i}: expected an object with 'L' and 'R'")
        for side in ("L", "R"):
            if not isinstance(b.get(side), list) or not all(map(_is_int, b[side])):
                raise ValueError(f"biclique {i}: '{side}' must be a list of integer vertices")
        sides.append((b["L"], b["R"]))
    return data["n"], sides


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class CoverReport(_Record):
    """Edge-multiplicity check against a window [1, k].  Reports compare by
    identity; compare their fields instead."""

    __slots__ = ("is_valid", "histogram", "violations")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, is_valid: bool, histogram: tuple[tuple[int, int], ...],
                 violations: Violations):
        # histogram: (multiplicity, edge count) pairs; violations: (u, v, multiplicity), u < v
        self._init(is_valid, histogram, violations)

    def as_dict(self) -> dict:
        return {
            "valid": self.is_valid,
            "histogram": {str(m): c for m, c in self.histogram},
            "violations": [list(v) for v in self.violations],
        }


def _columns(family: Family) -> list[tuple[int, int]]:
    """The bicliques of ``family_to_cover`` as vertex bit-sets: for each
    coordinate i, the pair (L_i, R_i) with bit v set when member v has 0
    (resp. 1) at i.  Fewer than 2 members is an error."""
    if len(family) < 2:
        raise ValueError("a covering needs at least 2 vertices")
    d = family.dimension
    lefts = _transpose([m.zero_mask for m in family.members], d)
    rights = _transpose([m.one_mask for m in family.members], d)
    return list(zip(lefts, rights))


def family_to_cover(family: Family) -> BicliqueCover:
    """Biclique covering read off the family coordinates; edge (u, v) ends
    up covered exactly distance(u, v) times."""
    vertices = range(len(family))
    return BicliqueCover(len(family), tuple(
        (frozenset(_at_bits(left, vertices)), frozenset(_at_bits(right, vertices)))
        for left, right in _columns(family)
    ))


def _check_sides(n: int, bicliques) -> None:
    """Raise ValueError on the first bad field of a cover whose sides L_i
    and R_i are collections of integer vertices: a negative n, then, biclique
    by biclique, sides that meet, or else a vertex outside 0..n-1 (the
    smallest below 0, else the largest)."""
    if n < 0:
        raise ValueError(f"cover: 'n' must be non-negative, got {n}")
    for i, (left, right) in enumerate(bicliques, start=1):
        if not set(left).isdisjoint(right):
            raise ValueError(f"biclique {i}: sides are not disjoint")
        low, high = 0, -1
        for side in filter(None, (left, right)):
            ordered = sorted(side)  # sorted has a fast path for ints; min and max do not
            low, high = min(low, ordered[0]), max(high, ordered[-1])
        if low < 0 or high >= n:  # name the smallest vertex below 0, else the largest
            v = low if low < 0 else high
            raise ValueError(f"biclique {i}: vertex {v} out of range 0..{n - 1}")


def _bits(vertices, size: int) -> int:
    """The bit-set of the vertices below ``size``, set in C: one digit per
    vertex in a bytearray, read as a binary numeral."""
    digits = bytearray(b"0") * size
    ones = filter(size.__gt__, vertices)
    any(map(digits.__setitem__, ones, repeat(ord("1"))))  # each call returns None: any runs all
    return int(b"0" + digits[::-1], 2)


def _side_bits(n: int, bicliques) -> tuple[int, list[int], list[int]]:
    """The first half of ``cover_to_family``, on a cover's fields, its sides
    any collections of integer vertices: check them as ``BicliqueCover``
    does, and that n >= 2.  Return the number m of vertices that get words,
    ``min(n, len(covered) + 2)``, and the sides as bit-sets of the vertices
    below m, lefts then rights."""
    _check_sides(n, bicliques)
    if n < 2:
        raise ValueError("a covering needs at least 2 vertices")
    covered = set().union(*(side for pair in bicliques for side in pair))
    m = min(n, len(covered) + 2)
    return m, [_bits(left, m) for left, _ in bicliques], [_bits(right, m) for _, right in bicliques]


def _family_of(m: int, lefts: list[int], rights: list[int]) -> Family:
    """The second half of ``cover_to_family``: the words of vertices
    0..m-1, the transpose of the sides' bit-sets.  ``Family`` rejects a
    repeated word; only then are the words keyed again, to name the first
    pair of vertices that share one."""
    d = len(lefts)
    try:  # the transposes go once the words are made, before Family keys them
        return Family(d, tuple(map(TernaryString, repeat(d), _transpose(lefts, m),
                                   _transpose(rights, m))))
    except ValueError:
        first = {}
        for v, key in enumerate(zip(_transpose(lefts, m), _transpose(rights, m))):
            if first.setdefault(key, v) != v:
                raise ValueError(f"vertices {first[key]} and {v} are indistinguishable "
                                 f"(both map to {TernaryString(d, *key)})") from None
        raise


def cover_to_family(cover: BicliqueCover) -> Family:
    """Inverse of family_to_cover: vertex v becomes the string with 0 where
    v is on the left of a biclique, 1 on the right, joker when absent.

    Two vertices that no biclique separates would yield equal strings; that
    is an error (their edge cannot be covered).  Two vertices in no
    biclique both map to the all-joker word, so the first repeat lies
    among the first ``len(covered) + 2`` vertices, and only those get words.
    As in family_to_cover, fewer than 2 vertices is an error."""
    return _family_of(*_side_bits(cover.n, cover.bicliques))


def verify_cover(cover: BicliqueCover, k: int) -> CoverReport:
    """Check that every edge of K_n is covered between 1 and k times; edge
    (u, v) is covered dist(u, v) times, the distance of the vertex words."""
    n, d = cover.n, cover.d
    zs = _transpose([_bits(left, n) for left, _ in cover.bicliques], n)
    os_ = _transpose([_bits(right, n) for _, right in cover.bicliques], n)
    full = (1 << n) - 1
    edges = [0] * (d + 1)  # edges covered exactly m times
    rows = []
    for u, count in _distance_rows(zs, os_, d):
        bad = 0
        for m, cols in _by_distance(count, full >> (u + 1) << (u + 1)):
            edges[m] += cols.bit_count()
            if not 1 <= m <= k:
                bad |= cols
        if bad:
            rows.append((u, bad))
    histogram = tuple((m, c) for m, c in enumerate(edges) if c)
    return CoverReport(not rows, histogram, Violations(rows, zs, os_, d))
