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

from .families import Family, Violations, _by_distance, _distance_rows
from .strings import TernaryString, _Record


class BicliqueCover(_Record):
    """d bicliques (L_i, R_i) over vertices 0..n-1."""

    __slots__ = ("n", "bicliques")

    def __init__(self, n: int, bicliques: tuple[tuple[frozenset[int], frozenset[int]], ...]):
        self._init(n, bicliques)
        if self.n < 0:
            raise ValueError(f"cover: 'n' must be non-negative, got {self.n}")
        for i, (left, right) in enumerate(self.bicliques, start=1):
            if left & right:
                raise ValueError(f"biclique {i}: sides are not disjoint")
            for v in left | right:
                if not 0 <= v < self.n:
                    raise ValueError(f"biclique {i}: vertex {v} out of range 0..{self.n - 1}")

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
        return cls.of(data["n"], sides)


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


def family_to_cover(family: Family) -> BicliqueCover:
    """Biclique covering read off the family coordinates; edge (u, v) ends
    up covered exactly distance(u, v) times."""
    if len(family) < 2:
        raise ValueError("a covering needs at least 2 vertices")
    bicliques = []
    for i in range(1, family.dimension + 1):
        bit = 1 << (i - 1)
        left = frozenset(v for v, m in enumerate(family.members) if m.zero_mask & bit)
        right = frozenset(v for v, m in enumerate(family.members) if m.one_mask & bit)
        bicliques.append((left, right))
    return BicliqueCover(len(family), tuple(bicliques))


def _vertex_masks(cover: BicliqueCover, n: int) -> tuple[list[int], list[int]]:
    """Words of vertices 0..n-1: bit i of zs[v] (os_[v]) is set when v is in L_i (R_i)."""
    zs, os_ = [0] * n, [0] * n
    for i, (left, right) in enumerate(cover.bicliques):
        for v in filter(n.__gt__, left):
            zs[v] |= 1 << i
        for v in filter(n.__gt__, right):
            os_[v] |= 1 << i
    return zs, os_


def cover_to_family(cover: BicliqueCover) -> Family:
    """Inverse of family_to_cover: vertex v becomes the string with 0 where
    v is on the left of a biclique, 1 on the right, joker when absent.

    Two vertices that no biclique separates would yield equal strings; that
    is an error (their edge cannot be covered).  Two vertices in no
    biclique both map to the all-joker word, so the first repeat lies
    among the first ``len(covered) + 2`` vertices, and only those get words.
    As in family_to_cover, fewer than 2 vertices is an error."""
    if cover.n < 2:
        raise ValueError("a covering needs at least 2 vertices")
    covered = set().union(*(left | right for left, right in cover.bicliques))
    members = []
    texts = {}
    for v, key in enumerate(zip(*_vertex_masks(cover, min(cover.n, len(covered) + 2)))):
        s = TernaryString(cover.d, *key)
        if key in texts:
            raise ValueError(
                f"vertices {texts[key]} and {v} are indistinguishable (both map to {s})"
            )
        texts[key] = v
        members.append(s)
    return Family(cover.d, tuple(members))


def verify_cover(cover: BicliqueCover, k: int) -> CoverReport:
    """Check that every edge of K_n is covered between 1 and k times; edge
    (u, v) is covered dist(u, v) times, the distance of the vertex words."""
    n, d = cover.n, cover.d
    zs, os_ = _vertex_masks(cover, n)
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
