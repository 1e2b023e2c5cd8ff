"""Biclique coverings of complete graphs and the string correspondence.

A family of n strings of length d maps to a covering of K_n by d complete
bipartite graphs: biclique i puts the members with 0 at coordinate i on
one side and those with 1 on the other.  Under this map the number of
bicliques covering an edge (u, v) equals the distance of the two strings,
so k-neighborliness of the family is exactly the [1, k] multiplicity
condition on the covering.

Vertices are indexed 0..n-1 by member order, which makes the two
directions exact inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import Family
from .strings import TernaryString


@dataclass(frozen=True)
class BicliqueCover:
    """d bicliques (L_i, R_i) over vertices 0..n-1."""

    n: int
    bicliques: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __post_init__(self):
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


@dataclass(frozen=True)
class CoverReport:
    """Edge-multiplicity check against a window [1, k]."""

    is_valid: bool
    histogram: tuple[tuple[int, int], ...]  # (multiplicity, edge count)
    violations: tuple[tuple[int, int, int], ...]  # (u, v, multiplicity)

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


def cover_to_family(cover: BicliqueCover) -> Family:
    """Inverse of family_to_cover: vertex v becomes the string with 0 where
    v is on the left of a biclique, 1 on the right, joker when absent.

    Two vertices that no biclique separates would yield equal strings; that
    is an error (their edge cannot be covered)."""
    members = []
    texts = {}
    for v in range(cover.n):
        zeros = ones = 0
        for i, (left, right) in enumerate(cover.bicliques):
            if v in left:
                zeros |= 1 << i
            elif v in right:
                ones |= 1 << i
        s = TernaryString(cover.d, zeros, ones)
        key = (zeros, ones)
        if key in texts:
            raise ValueError(
                f"vertices {texts[key]} and {v} are indistinguishable (both map to {s})"
            )
        texts[key] = v
        members.append(s)
    return Family(cover.d, tuple(members))


def verify_cover(cover: BicliqueCover, k: int) -> CoverReport:
    """Check that every edge of K_n is covered between 1 and k times."""
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
