"""Closed-form lower and upper bounds and their aggregation.

All arithmetic is exact and in integers.  The refined upper bound rounds
by strict_floor(x + 1/2), where strict_floor(x) is the largest integer
*strictly* below x (an integer a < x satisfies exactly a <= strict_floor(x)).
Its values x are dyadic, c / 2^s, so one shift rounds them;
strict_floor(x) = ceil(x - 1) remains the public rule for any rational x.

The kappa function gives the maximum size of a subset of the binary cube
with bounded diameter (Kleitman's diameter theorem, with Bezrukov's odd
case); the greedy profile optimizer and the refined formula, with one
case for odd d - k and one for even, are built on top of it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import comb

from .constructions import m_value, mbar_value
from .families import _check_kd
from .strings import _Record


class NoValidSplit(ValueError):
    """Raised when no split parameter t exists (only happens at k = d)."""


def strict_floor(x) -> int:
    """Largest integer strictly less than x, for any rational x: an int or
    a ``fractions.Fraction``, say.  x has no annotation because naming
    Fraction would import ``fractions`` with every command."""
    return math.ceil(x - 1)


def kappa(s: int, d: int) -> int:
    """Maximum size of a subset of {0,1}^d with diameter at most s.

    2^d once s >= d; otherwise the ball value for even s and the
    two-adjacent-balls value for odd s.
    """
    if s < 0 or d < 1:
        raise ValueError("requires s >= 0 and d >= 1")
    if s >= d:
        return 1 << d
    half = s // 2
    ball = sum(comb(d, j) for j in range(half + 1))
    if s % 2 == 0:
        return ball
    return comb(d - 1, half) + ball


def alon_lower(k: int, d: int) -> int:
    """Product lower bound: prod over i < k of (floor((d+i)/k) + 1)."""
    _check_kd(k, d)
    out = 1
    for i in range(k):
        out *= (d + i) // k + 1
    return out


def alon_upper(k: int, d: int) -> int:
    """Binomial sum upper bound: sum over i <= k of 2^i * C(d, i)."""
    _check_kd(k, d)
    return sum((1 << i) * comb(d, i) for i in range(k + 1))


def huang_sudakov_upper(k: int, d: int) -> int:
    """Sharpened binomial sum: 1 + sum over 1 <= i <= k of 2^(i-1) * C(d, i)."""
    _check_kd(k, d)
    return 1 + sum((1 << (i - 1)) * comb(d, i) for i in range(1, k + 1))


def ball_lower(k: int, d: int) -> int:
    """Size of the radius-floor(k/2) Hamming ball; valid for k <= d-1."""
    if not 1 <= k <= d - 1:
        raise ValueError("requires 1 <= k <= d-1")
    return sum(comb(d, i) for i in range(k // 2 + 1))


def split_upper(k: int, d: int, t: int) -> int:
    """Upper bound 2^(d-t) + sum_{i <= ceil((k+2t-2)/2)} C(d, i).

    Strings with at least t jokers are bounded by disjoint-volume counting,
    the rest through the diameter bound; t trades the two terms off.
    """
    _check_kd(k, d)
    if t < 1 or k + 2 * t - 2 > d - 1:
        raise ValueError("requires t >= 1 and k + 2t - 2 <= d - 1")
    top = -(-(k + 2 * t - 2) // 2)
    return (1 << (d - t)) + sum(comb(d, i) for i in range(top + 1))


def split_upper_best(k: int, d: int) -> tuple[int, int]:
    """Minimum of split_upper over all valid t, with the smallest
    minimizing t.  No t is valid exactly when k = d."""
    _check_kd(k, d)
    t_max = (d - 1 - k) // 2 + 1
    if t_max < 1:
        raise NoValidSplit(f"no valid split parameter for k={k}, d={d}")
    best: tuple[int, int] | None = None
    for t in range(1, t_max + 1):
        value = split_upper(k, d, t)
        if best is None or value < best[0]:
            best = (value, t)
    return best


class GreedyProfile(_Record):
    """A feasible count profile: a[i] strings with exactly i jokers."""

    __slots__ = ("a", "total")

    def __init__(self, a: tuple[int, ...], total: int):
        self._init(a, total)
        if self.total != sum(self.a):
            raise ValueError("total must equal sum(a)")


def greedy_kappa_upper(k: int, d: int) -> tuple[int, GreedyProfile]:
    """Maximize the total count subject to the prefix constraints
    sum_{l <= i} 2^l a_l <= kappa(k + 2i, d), greedily from i = 0.

    The greedy profile is the lexicographically largest optimum: kappa is
    nondecreasing, so filling low indices first stays feasible, and moving
    a unit of budget to a lower index never lowers the count.
    """
    _check_kd(k, d)
    a = []
    weighted = 0
    for i in range(d):
        room = kappa(k + 2 * i, d) - weighted
        ai = max(room >> i, 0)
        a.append(ai)
        weighted += ai << i
    return sum(a), GreedyProfile(tuple(a), sum(a))


def _halved(c: int, s: int) -> int:
    """strict_floor(c / 2^s + 1/2), exactly, by one shift."""
    return (2 * c + (1 << s) - 1) >> (s + 1)


def refined_upper(k: int, d: int) -> int:
    """Closed-form bound from kappa's binomial layers, for 1 <= k <= d-1.

    kappa(k, d) plus layers 1 <= i <= t = (d-k)//2: C(d, k/2 + i) / 2^i for
    even k, C(d-1, (k-1)/2 + i) / 2^(i-1) for odd k, each rounded by
    strict_floor(x + 1/2).  If d - k is odd, 2^(d-t-2) is added; if even, the
    last layer is halved once more before rounding and 2^((d+k)/2 - 1) added.
    For d <= 40 it is never below greedy_kappa_upper but exceeds it in 416 of 780 cells."""
    if not 1 <= k <= d - 1:
        raise ValueError("requires 1 <= k <= d-1")
    odd, h, t = k % 2, k // 2, (d - k) // 2
    layer = [_halved(comb(d - odd, h + i), i - odd) for i in range(1, t + 1)]
    if (d - k) % 2:
        return kappa(k, d) + sum(layer) + (1 << (d - t - 2))
    last = (1 << ((d + k) // 2 - 1)) + _halved(comb(d - odd, h + t), t + 1 - odd)
    return kappa(k, d) + sum(layer[:-1]) + last


Bound = namedtuple("Bound", "value method")


class BoundsEntry(_Record):
    """Best known lower and upper bounds for one (k, d) cell."""

    __slots__ = ("k", "d", "lower", "upper")

    def __init__(self, k: int, d: int, lower: Bound, upper: Bound):
        self._init(k, d, lower, upper)
        if not (1 <= self.lower.value <= self.upper.value <= (1 << self.d)):
            raise ValueError("requires 1 <= lower <= upper <= 2^d")

    @property
    def exact(self) -> bool:
        return self.lower.value == self.upper.value

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "d": self.d,
            "lower": {"value": self.lower.value, "method": self.lower.method},
            "upper": {"value": self.upper.value, "method": self.upper.method},
            "exact": self.exact,
        }


def best_bounds(k: int, d: int) -> BoundsEntry:
    """Best lower and upper bound for one cell, each with its method.

    k = 1, k = d-1 and k = d are routed to their exactly known values
    before any formula of restricted validity is consulted.  Each side
    keeps the first best candidate, so huang-sudakov wins an upper tie.
    No other upper formula can be printed, so none is evaluated (checked
    for 2 <= k <= d-2, d <= 80 in tests/test_bounds.py):

    * alon_upper exceeds huang_sudakov_upper term by term;
    * greedy_kappa_upper (greedy, profile a) < 2^d: sum a_i <= sum 2^i a_i
      <= 2^d, equal only for a = (kappa(k, d), 0, ...), and kappa(k, d) < 2^d;
    * split_upper(k, d, t) > greedy for every t: sum_{i<t} a_i <=
      kappa(k+2t-2, d) <= sum_{i <= ceil((k+2t-2)/2)} C(d, i), and
      2^t sum_{i>=t} a_i <= 2^d - a_0 < 2^d;
    * refined_upper >= greedy, measured for d <= 160 but not proved; on a
      tie greedy-kappa is the label printed.
    """
    _check_kd(k, d)
    if k == d:
        exact = Bound(1 << d, "exact:2^d")
        return BoundsEntry(k, d, exact, exact)
    if k == d - 1 and d >= 2:
        exact = Bound(3 << (d - 2), "exact:3*2^(d-2)")
        return BoundsEntry(k, d, exact, exact)
    if k == 1:
        exact = Bound(d + 1, "exact:d+1")
        return BoundsEntry(k, d, exact, exact)

    lower = max([
        Bound(alon_lower(k, d), "product"),
        Bound(ball_lower(k, d), "ball"),
        Bound(m_value(k, d).value, "fragmented"),
        Bound(mbar_value(k, d).value, "fragmented-product"),
    ], key=lambda b: b.value)
    upper = min([
        Bound(huang_sudakov_upper(k, d), "huang-sudakov"),
        Bound(greedy_kappa_upper(k, d)[0], "greedy-kappa"),
    ], key=lambda b: b.value)
    return BoundsEntry(k, d, lower, upper)


def bounds_table(kmax: int, dmax: int) -> list[BoundsEntry]:
    """All cells with 1 <= k <= min(d, kmax) and k <= d <= dmax, ordered by
    d, then k."""
    if kmax < 1 or dmax < 1:
        raise ValueError("kmax and dmax must be positive")
    return [best_bounds(k, d) for d in range(1, dmax + 1) for k in range(1, min(d, kmax) + 1)]


class PascalFinding(_Record):
    """One audited cell of the triangle inequality
    lower(k, d) <= upper(k-1, d-1) + upper(k, d-1)."""

    __slots__ = ("k", "d", "lhs", "rhs")

    def __init__(self, k: int, d: int, lhs: int, rhs: int):
        self._init(k, d, lhs, rhs)

    @property
    def violated(self) -> bool:
        return self.lhs > self.rhs

    @property
    def slack(self) -> int:
        return self.rhs - self.lhs

    def as_dict(self) -> dict:
        return {"k": self.k, "d": self.d, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "violated": self.violated}


def pascal_audit(table: list[BoundsEntry]) -> list[PascalFinding]:
    """Audit a bounds grid against the triangle inequality.

    The table must cover the full grid it spans (all cells with
    k <= min(d, kmax), d <= dmax).  For k = d the out-of-domain term
    upper(k, d-1) is taken as the trivially exact 2^(d-1).  A violation
    would falsify the conjectured inequality for the true values; slack is
    reported otherwise.  Consistency of bounds, not a proof.
    """
    cells = {(e.k, e.d): e for e in table}
    if not cells:
        return []
    kmax = max(k for k, _ in cells)
    dmax = max(d for _, d in cells)
    for d in range(1, dmax + 1):
        for k in range(1, min(d, kmax) + 1):
            if (k, d) not in cells:
                raise ValueError(f"grid is missing entry (k={k}, d={d})")
    findings = []
    for d in range(2, dmax + 1):
        for k in range(2, min(d, kmax) + 1):
            left = cells[(k - 1, d - 1)].upper.value
            if k <= d - 1:
                right = cells[(k, d - 1)].upper.value
            else:
                right = 1 << (d - 1)  # k > d-1: every distinct-string family works
            findings.append(PascalFinding(k, d, cells[(k, d)].lower.value, left + right))
    return findings
