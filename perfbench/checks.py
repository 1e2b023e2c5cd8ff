"""Output checks for the benchmark, written without any nbx code.

Every check reads what a command printed, recomputes the claim from the
printed symbols or numbers, and raises ``CheckFailed`` when they disagree.
A check returns the facts that must repeat exactly from pass to pass (node
counts, violation counts), so the caller can compare passes.

Families are checked at the symbol level: the distance of two words is the
number of coordinates where one prints 0 and the other 1.  Large families
go through numpy, one block of rows at a time.
"""

from __future__ import annotations

import json
from math import comb

import numpy as np


class CheckFailed(Exception):
    """A command's output disagrees with the benchmark's own recomputation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -- words and families --------------------------------------------------


def nbx_words(text: str) -> list[str]:
    """Members of a .nbx text: non-blank lines that are not comments."""
    return [s for s in (ln.strip() for ln in text.splitlines()) if s and not s.startswith("#")]


def extremal_words(d: int) -> list[str]:
    """The maximum (d-1)-neighborly family from its closed form: 0 followed
    by any binary word, and 1* followed by any binary word."""
    return [f"0{i:0{d - 1}b}" for i in range(1 << (d - 1))] + [
        f"1*{i:0{d - 2}b}" for i in range(1 << (d - 2))
    ]


def _masks(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    d = len(words[0])
    require(1 <= d <= 64, f"word length {d} outside 1..64")
    require(all(len(w) == d for w in words), "words of different lengths")
    require(all(set(w) <= set("01*") for w in words), "symbol outside 0, 1, *")
    chars = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8).reshape(len(words), d)
    weights = np.left_shift(np.uint64(1), np.arange(d, dtype=np.uint64))
    zero = np.where(chars == ord("0"), weights, np.uint64(0)).sum(axis=1, dtype=np.uint64)
    one = np.where(chars == ord("1"), weights, np.uint64(0)).sum(axis=1, dtype=np.uint64)
    return zero, one


def pair_report(words: list[str], k: int, block: int = 128) -> dict:
    """Distance range and every pair outside [1, k], over all pairs i < j,
    in the shape ``nbx verify`` prints."""
    zero, one = _masks(words)
    n = len(words)
    lo = hi = None
    violations: list[tuple[int, int, int]] = []
    cols = np.arange(n)
    for a in range(0, n, block):
        b = min(n, a + block)
        dist = np.bitwise_count((zero[a:b, None] & one[None, :]) | (one[a:b, None] & zero[None, :]))
        upper = cols[None, :] > np.arange(a, b)[:, None]
        if not upper.any():
            continue
        vals = dist[upper]
        lo = int(vals.min()) if lo is None else min(lo, int(vals.min()))
        hi = int(vals.max()) if hi is None else max(hi, int(vals.max()))
        rows, js = np.nonzero(upper & ((dist == 0) | (dist > k)))
        violations.extend(zip((rows + a).tolist(), js.tolist(), dist[rows, js].tolist()))
    return {"valid": not violations, "min_distance": lo, "max_distance": hi, "violations": violations}


def check_family(words: list[str], k: int, d: int, size: int | None = None) -> None:
    """Distinct words of length d whose pairwise distances all lie in [1, k]."""
    require(len(words) >= 1, "empty family")
    require(size is None or len(words) == size, f"{len(words)} members, expected {size}")
    require(all(len(w) == d for w in words), f"a member is not of length {d}")
    require(len(set(words)) == len(words), "duplicate members")
    bad = pair_report(words, k)["violations"]
    if bad:
        raise CheckFailed(f"pair {bad[0][:2]} at distance {bad[0][2]}, outside [1, {k}]")


# -- command outputs -------------------------------------------------------


def check_verify(text: str, expected: dict) -> dict:
    """``nbx verify`` report against the benchmark's own pair report."""
    got = json.loads(text)
    for key in ("valid", "min_distance", "max_distance"):
        require(got[key] == expected[key], f"{key} is {got[key]}, expected {expected[key]}")
    reported = sorted(tuple(v) for v in got["violations"])
    require(
        reported == sorted(expected["violations"]),
        f"{len(reported)} violations reported, {len(expected['violations'])} expected"
        " (or the same count with different pairs)",
    )
    return {"violations": len(reported)}


def check_search(text: str, k: int, d: int, optimum: int | None = None,
                 proven: bool | None = None) -> dict:
    """``nbx search`` result: a valid witness of the claimed size, and the
    expected optimum and proof flag where the workload fixes them."""
    got = json.loads(text)
    require((got["k"], got["d"]) == (k, d), f"result is for (k, d) = ({got['k']}, {got['d']})")
    require(optimum is None or got["optimum"] == optimum,
            f"optimum {got['optimum']}, expected {optimum}")
    require(proven is None or got["proven_optimal"] is proven,
            f"proven_optimal {got['proven_optimal']}, expected {proven}")
    check_family(got["witness"], k, d, got["optimum"])
    stats = got["stats"]
    return {"nodes": stats["nodes"], "candidates": stats["candidates"]}


def check_enumerate(text: str, k: int, d: int, size: int, count: int) -> dict:
    """``nbx search --enumerate``: ``count`` distinct valid families of ``size``."""
    got = json.loads(text)
    require((got["k"], got["d"]) == (k, d), f"result is for (k, d) = ({got['k']}, {got['d']})")
    require(got["size"] == size, f"size {got['size']}, expected {size}")
    fams = got["families"]
    require(got["count"] == count == len(fams), f"{got['count']} / {len(fams)} families, expected {count}")
    for fam in fams:
        check_family(fam, k, d, size)
    require(len({frozenset(f) for f in fams}) == len(fams), "a family is listed twice")
    return {"families": len(fams)}


def check_extremal(text: str, d: int) -> dict:
    """``nbx construct extremal d`` prints exactly the closed-form family."""
    words = nbx_words(text)
    require(len(words) == len(set(words)), "duplicate members")
    require(set(words) == set(extremal_words(d)), "members differ from the extremal family")
    return {}


def check_cover(text: str, words: list[str]) -> dict:
    """``nbx convert to-cover``: biclique i holds the members printing 0 (L)
    and 1 (R) at coordinate i."""
    got = json.loads(text)
    require(got["n"] == len(words), f"n = {got['n']}, expected {len(words)}")
    require(len(got["bicliques"]) == len(words[0]), "wrong number of bicliques")
    for i, bic in enumerate(got["bicliques"]):
        for side, sym in (("L", "0"), ("R", "1")):
            want = [v for v, w in enumerate(words) if w[i] == sym]
            require(bic[side] == want, f"biclique {i + 1} side {side} differs")
    return {}


TABLE_HEADER = ["k", "d", "lower", "lower_method", "upper", "upper_method", "exact"]
AUDIT_HEADER = ["k", "d", "lhs", "rhs", "slack", "violated"]


def _tsv(text: str, header: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    require(bool(lines) and lines[0].split("\t") == header, "missing or wrong header")
    rows = [ln.split("\t") for ln in lines[1:]]
    require(all(len(r) == len(header) for r in rows), "row with a wrong field count")
    return rows


def exact_value(k: int, d: int) -> int | None:
    """n(k, d) where it is known in closed form: k = d, k = d-1 and k = 1."""
    if k == d:
        return 1 << d
    if k == d - 1:
        return 3 << (d - 2)
    if k == 1:
        return d + 1
    return None


def check_table(text: str, kmax: int, dmax: int) -> dict:
    """``nbx table`` TSV: the full grid, lower <= upper, the exact cells, and
    an exact column that agrees with the values.  Returns the cells as
    {(k, d): (lower, upper)}."""
    cells = {}
    for row in _tsv(text, TABLE_HEADER):
        k, d, lower, upper = int(row[0]), int(row[1]), int(row[2]), int(row[4])
        require((k, d) not in cells, f"cell ({k}, {d}) listed twice")
        require(1 <= lower <= upper <= 1 << d, f"cell ({k}, {d}): lower {lower}, upper {upper}")
        require(row[6] == ("yes" if lower == upper else "no"), f"cell ({k}, {d}): exact column")
        exact = exact_value(k, d)
        require(exact is None or lower == upper == exact, f"cell ({k}, {d}) is not {exact}")
        cells[(k, d)] = (lower, upper)
    grid = {(k, d) for d in range(1, dmax + 1) for k in range(1, min(d, kmax) + 1)}
    require(set(cells) == grid, "rows do not cover the grid")
    return cells


def check_audit(text: str, cells: dict) -> dict:
    """``nbx audit`` TSV recomputed from the table: lhs = lower(k, d),
    rhs = upper(k-1, d-1) + upper(k, d-1) (2^(d-1) when k = d), no
    violations."""
    kmax = max(k for k, _ in cells)
    dmax = max(d for _, d in cells)
    seen = set()
    for row in _tsv(text, AUDIT_HEADER):
        k, d, lhs, rhs, slack = (int(x) for x in row[:5])
        right = cells[(k, d - 1)][1] if k <= d - 1 else 1 << (d - 1)
        require(lhs == cells[(k, d)][0], f"audit ({k}, {d}): lhs {lhs} is not the lower bound")
        require(rhs == cells[(k - 1, d - 1)][1] + right, f"audit ({k}, {d}): rhs {rhs}")
        require(slack == rhs - lhs, f"audit ({k}, {d}): slack {slack}")
        require(lhs <= rhs and row[5] == "no", f"audit ({k}, {d}): violation")
        seen.add((k, d))
    want = {(k, d) for d in range(2, dmax + 1) for k in range(2, min(d, kmax) + 1)}
    require(seen == want, "audit rows do not cover the grid")
    return {}


def esym(k: int, values: list[int]) -> int:
    """k-th elementary symmetric polynomial of the values."""
    coeff = [1] + [0] * k
    for v in values:
        for j in range(k, 0, -1):
            coeff[j] += coeff[j - 1] * v
    return coeff[k]


def check_mkd(text: str, k: int, d: int) -> dict:
    """``nbx mkd k d --mbar``: the printed plans are feasible and split
    (k, d), and the value is the product of their sizes."""
    got = json.loads(text)
    parts = got["parts"]
    require(sum(p["k"] for p in parts) == k and sum(p["d"] for p in parts) == d,
            "parts do not split (k, d)")
    value = 1
    for p in parts:
        pk, pd, m, a = p["k"], p["d"], p["m"], p["a"]
        require(1 <= pk <= m <= pd and len(a) == m and min(a) >= 1, f"infeasible plan {p}")
        require(sum(a) == pd - comb(m, pk) + 1, f"block lengths of {p} do not fill d")
        value *= esym(pk, [x + 1 for x in a])
    require(got["value"] == value, f"value {got['value']}, plans give {value}")
    return {"value": value}
