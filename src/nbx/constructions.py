"""Explicit k-neighborly families and the optimizers over them.

The builders: the canonical 1-neighborly chain family, Hamming-ball
families, concatenation products, the fragmented construction (a union of
block products tagged by k-subsets of [m]), and the extremal family for
k = d-1.  On top of the fragmented construction sit two optimizers:
``m_value`` maximizes the fragmented size over the block count m, and
``mbar_value`` maximizes products of fragmented families over all ways of
splitting (k, d) into parts.  The block lengths are always the balanced
split of the coordinate budget: the fragmented size is Schur-concave in
them, so no uneven split is larger.

Every public builder verifies its output's neighborliness and size; the
chain words inside a fragmented family are checked through its union.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from math import comb
from typing import Optional

from .families import Family, _check_kd, verify_neighborly
from .strings import TernaryString, _Record, all_jokers


def _checked(family: Family, k: int, expected_size: int) -> Family:
    if len(family) != expected_size:
        raise AssertionError(f"construction produced {len(family)} members, expected {expected_size}")
    report = verify_neighborly(family, k)
    if not report.is_valid:
        first = tuple(itertools.islice(report.violations, 3))
        raise AssertionError(f"construction is not {k}-neighborly: {first}")
    return family


def _chain(d: int) -> list[TernaryString]:
    """The chain words of length d from their masks: 0^d, then 0^j 1 *^(d-j-1)
    for j = d-1 down to 0.  At d = 0 the empty word."""
    return [TernaryString(d, (1 << j) - 1, 1 << j if j < d else 0) for j in range(d, -1, -1)]


def canonical(d: int) -> Family:
    """The chain family of size d+1: 0^d and, for each coordinate i, the
    word of i-1 zeros, a 1 and d-i jokers."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return _checked(Family(d, tuple(_chain(d))), 1, d + 1)


def ball_family(k: int, d: int) -> Family:
    """All binary strings within Hamming distance floor(k/2) of 0^d."""
    if not 1 <= k <= d - 1:
        raise ValueError("requires 1 <= k <= d-1")
    radius = k // 2
    full = (1 << d) - 1
    members = []
    for wt in range(radius + 1):
        for pos in itertools.combinations(range(d), wt):
            ones = 0
            for p in pos:
                ones |= 1 << p
            members.append(TernaryString(d, full & ~ones, ones))
    size = sum(comb(d, i) for i in range(radius + 1))
    return _checked(Family(d, tuple(members)), k, size)


def product(f: Family, g: Family) -> Family:
    """All concatenations uv with u from f and v from g.  Concatenating a
    k1-neighborly with a k2-neighborly family yields a (k1+k2)-neighborly
    one in the summed dimension."""
    members = tuple(u + v for u in f.members for v in g.members)
    return Family(f.dimension + g.dimension, members)


class FragmentPlan(_Record):
    """Block plan for the fragmented construction.

    ``a`` holds the m block lengths; the total dimension is
    sum(a) + C(m, k) - 1, with the extra C(m, k) - 1 coordinates used as a
    disambiguating prefix.  k = 1 is allowed as the degenerate single-block
    case (the plan then just reproduces a product of chain families).
    """

    __slots__ = ("k", "d", "m", "a")

    def __init__(self, k: int, d: int, m: int, a: tuple[int, ...]):
        self._init(k, d, m, a)
        if not 1 <= self.k <= self.m <= self.d:
            raise ValueError("requires 1 <= k <= m <= d")
        if len(self.a) != self.m:
            raise ValueError("a must have exactly m entries")
        if any(x < 1 for x in self.a):
            raise ValueError("all block lengths must be positive")
        c = comb(self.m, self.k)
        if self.d < c - 1 + self.m:
            raise ValueError("d too small for this (m, k)")
        if sum(self.a) != self.d - c + 1:
            raise ValueError(f"block lengths must sum to {self.d - c + 1}")

    def size(self) -> int:
        """Number of strings the plan produces: the k-th elementary
        symmetric polynomial of (a_i + 1)."""
        return _esym(self.k, [x + 1 for x in self.a])


def _esym(k: int, values: list[int]) -> int:
    coeff = [1] + [0] * k
    for v in values:
        for j in range(min(k, len(coeff) - 1), 0, -1):
            coeff[j] += coeff[j - 1] * v
    return coeff[k]


def _colex_subsets(m: int, k: int) -> list[tuple[int, ...]]:
    return sorted(itertools.combinations(range(1, m + 1), k), key=lambda b: tuple(reversed(b)))


def fragmented_parts(plan: FragmentPlan) -> list[tuple[tuple[int, ...], Family]]:
    """The per-subset subfamilies of the fragmented construction.

    For each k-subset B of [m] (in colex order) the blocks indexed by B are
    filled with chain words and the rest with jokers; a per-B prefix from
    the chain of length C(m, k) - 1 keeps strings from different subsets
    at distance >= 1.
    """
    subsets = _colex_subsets(plan.m, plan.k)
    prefixes = _chain(len(subsets) - 1)
    blocks = [_chain(length) for length in plan.a]
    parts = []
    for prefix, subset in zip(prefixes, subsets):
        pieces = [block if i in subset else (all_jokers(a),)
                  for i, (a, block) in enumerate(zip(plan.a, blocks), start=1)]
        members = tuple(prefix.concat(*words) for words in itertools.product(*pieces))
        parts.append((subset, Family(plan.d, members)))
    return parts


def fragmented(plan: FragmentPlan) -> Family:
    """Union of the per-subset subfamilies; k-neighborly of the size given
    by the plan."""
    members = []
    for _, fam in fragmented_parts(plan):
        members.extend(fam.members)
    return _checked(Family(plan.d, tuple(members)), plan.k, plan.size())


def extremal_dminus1(d: int) -> Family:
    """The maximum (d-1)-neighborly family: the 0-sided half cube plus all
    strings 1*b3..bd.  Size 3*2^(d-2); always a partition."""
    if d < 2:
        raise ValueError("d must be at least 2")
    full = (1 << d) - 1
    members = []
    for ones in range(0, 1 << (d - 1)):
        # first coordinate is bit 0; keep it 0
        members.append(TernaryString(d, full & ~(ones << 1), ones << 1))
    for ones in range(0, 1 << (d - 2)):
        one_mask = 1 | (ones << 2)  # 1 at coordinate 1, joker at coordinate 2
        members.append(TernaryString(d, full & ~one_mask & ~2, one_mask))
    return _checked(Family(d, tuple(members)), d - 1, 3 << (d - 2))


class MValueResult(_Record):
    """Optimal value together with the plan(s) achieving it.

    ``plan`` is set for single-plan optimization, ``parts`` for the split
    optimizer.  Every block vector in a plan is the balanced split of its
    coordinate budget: e_k is Schur-concave, and the balanced vector is
    majorized by every other one of the same length and sum.
    """

    __slots__ = ("value", "plan", "parts")

    def __init__(self, value: int, plan: Optional[FragmentPlan] = None,
                 parts: Optional[tuple[FragmentPlan, ...]] = None):
        self._init(value, plan, parts)

    def as_dict(self) -> dict:
        if self.parts is not None:
            return {
                "value": self.value,
                "parts": [{"k": p.k, "d": p.d, "m": p.m, "a": list(p.a)} for p in self.parts],
            }
        return {"value": self.value, "m": self.plan.m, "a": list(self.plan.a)}


def _balanced_split(total: int, parts: int) -> tuple[int, ...]:
    q, r = divmod(total, parts)
    return tuple([q + 1] * r + [q] * (parts - r))


@lru_cache(maxsize=None)
def _m_value_cached(k: int, d: int) -> MValueResult:
    _check_kd(k, d)
    best: Optional[tuple[int, FragmentPlan]] = None
    m = k
    while comb(m, k) + m - 1 <= d:
        plan = FragmentPlan(k, d, m, _balanced_split(d - comb(m, k) + 1, m))
        value = plan.size()
        if best is None or value > best[0]:
            best = (value, plan)
        m += 1
    return MValueResult(best[0], plan=best[1])


def m_value(k: int, d: int) -> MValueResult:
    """Best fragmented-construction size for (k, d), with a witness plan.

    All block counts m with C(m, k) + m - 1 <= d are tried, each with the
    balanced split of its coordinate budget d - C(m, k) + 1; ties prefer
    the smaller m.  No other split can do better: the size
    e_k(a_1 + 1, ..., a_m + 1) is Schur-concave in a, strictly for k >= 2
    (Schur-Ostrowski: (x_i - x_j)(de_k/dx_i - de_k/dx_j) =
    -(x_i - x_j)^2 e_{k-2}(x without x_i, x_j)), and the balanced integer
    vector is majorized by every composition of the same length and sum
    (Marshall, Olkin & Arnold, Inequalities: Theory of Majorization,
    3.F).  For k = 1 every plan has size d + 1.
    """
    # the mbar DP makes its ~k*d lookups per cell on the cache directly,
    # so a caller who wraps or times m_value sees only outside calls
    return _m_value_cached(k, d)


@lru_cache(maxsize=None)
def _mbar_cached(k: int, d: int) -> tuple[int, tuple[FragmentPlan, ...]]:
    single = _m_value_cached(k, d)
    best_value = single.value
    best_parts: tuple[FragmentPlan, ...] = (single.plan,)
    for k1 in range(1, k):
        k2 = k - k1
        for d1 in range(k1, d):
            d2 = d - d1
            if d2 < k2:
                continue
            head = _m_value_cached(k1, d1)
            tail_value, tail_parts = _mbar_cached(k2, d2)
            value = head.value * tail_value
            if value > best_value:
                best_value = value
                best_parts = (head.plan,) + tail_parts
    return best_value, best_parts


def mbar_value(k: int, d: int) -> MValueResult:
    """Best product of fragmented sizes over all splits k = sum k_i,
    d = sum d_i with k_i <= d_i, by dynamic programming over the parts."""
    _check_kd(k, d)
    value, parts = _mbar_cached(k, d)
    return MValueResult(value, parts=parts)


def realize_mbar(k: int, d: int) -> Family:
    """A concrete k-neighborly family in dimension d whose size is
    mbar_value(k, d); the product of the witness parts, verified."""
    result = mbar_value(k, d)
    return _checked(reduce(product, map(fragmented, result.parts)), k, result.value)
