"""The four workloads: each is a fixed list of nbx commands with their checks.

``build`` writes the seeded input files and works out the expected
verification reports before any command is timed.  ``search`` and ``grid``
take no input files, so the seed does not change them.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from pathlib import Path
from typing import Callable

import checks

@dataclass(frozen=True)
class Command:
    """One ``nbx`` invocation, its expected exit status and its output check.

    ``check(stdout, state)`` raises ``checks.CheckFailed`` or returns the
    facts that must repeat in every pass; ``state`` is shared by the
    commands of one pass.
    """

    args: tuple[str, ...]
    exit_code: int
    check: Callable[[str, dict], dict]

    @property
    def name(self) -> str:
        return " ".join(Path(a).name if "/" in a else a for a in self.args)


def _write(path: Path, words: list[str]) -> str:
    path.write_text("".join(w + "\n" for w in words), encoding="ascii")
    return str(path)


def _verify(path: str, k: int, expected: dict) -> Command:
    return Command(("verify", path, "--k", str(k)), 0 if expected["valid"] else 1,
                   lambda out, st: checks.check_verify(out, expected))


def corrupt(words: list[str], share: float, rng: random.Random) -> tuple[list[str], list[int]]:
    """Change one symbol in ``share`` of the members, keeping them distinct."""
    out = list(words)
    present = set(out)
    changed = sorted(rng.sample(range(len(out)), max(1, round(len(out) * share))))
    for i in changed:
        while True:
            pos = rng.randrange(len(out[i]))
            sym = rng.choice([s for s in "01*" if s != out[i][pos]])
            new = out[i][:pos] + sym + out[i][pos + 1:]
            if new not in present:
                break
        present.discard(out[i])
        present.add(new)
        out[i] = new
    return out, changed


def random_family(n: int, d: int, rng: random.Random) -> list[str]:
    """n distinct words of length d, in random order, with jokers at rate 1/3.

    The joker counts follow Binomial(d, 1/3) exactly, by quantiles; the
    joker positions and the 0/1 symbols are uniform.  Drawing the counts too
    would let the seed move the number of violating pairs, and so the work,
    by about 2% instead of 0.1%.
    """
    cdf = list(accumulate(comb(d, j) * 2 ** (d - j) / 3 ** d for j in range(d + 1)))
    seen: dict[str, None] = {}
    for i in range(n):
        jokers = bisect_left(cdf, (i + 0.5) / n)
        while len(seen) == i:
            free = set(rng.sample(range(d), jokers))
            seen.setdefault("".join("*" if p in free else rng.choice("01") for p in range(d)))
    words = list(seen)
    rng.shuffle(words)
    return words


def _search(work: Path, rng: random.Random, inputs: dict) -> list[Command]:
    return [
        Command(("search", "3", "5"), 0, lambda out, st: checks.check_search(out, 3, 5, 18, True)),
        Command(("search", "2", "5", "--enumerate"), 0,
                lambda out, st: checks.check_enumerate(out, 2, 5, 12, 2560)),
    ]


def _pairwise(work: Path, rng: random.Random, inputs: dict) -> list[Command]:
    words = checks.extremal_words(13)
    rng.shuffle(words)
    path = _write(work / "extremal13_shuffled.nbx", words)
    inputs["extremal13_shuffled"] = {"members": len(words), "d": 13}

    def mbar(out: str, st: dict) -> dict:
        checks.check_family(checks.nbx_words(out), 4, 16, 729)
        return {}

    return [
        Command(("construct", "extremal", "13"), 0, lambda out, st: checks.check_extremal(out, 13)),
        _verify(path, 12, checks.pair_report(words, 12)),
        Command(("search", "4", "7", "--budget-nodes", "2000"), 0,
                lambda out, st: checks.check_search(out, 4, 7)),
        Command(("convert", "to-cover", path), 0, lambda out, st: checks.check_cover(out, words)),
        Command(("construct", "mbar", "4", "16"), 0, mbar),
    ]


def _violations(work: Path, rng: random.Random, inputs: dict) -> list[Command]:
    corrupted, changed = corrupt(checks.extremal_words(13), 0.01, rng)
    noisy = random_family(2000, 16, rng)
    cmds = []
    for name, words, k in (("extremal13_corrupted", corrupted, 12), ("random2000_d16", noisy, 5)):
        expected = checks.pair_report(words, k)
        inputs[name] = {"members": len(words), "d": len(words[0]), "k": k,
                        "expected_violations": len(expected["violations"])}
        cmds.append(_verify(_write(work / f"{name}.nbx", words), k, expected))
    inputs["extremal13_corrupted"]["changed_members"] = len(changed)
    return cmds


def _grid(work: Path, rng: random.Random, inputs: dict) -> list[Command]:
    def table(out: str, st: dict) -> dict:
        st["cells"] = checks.check_table(out, 16, 32)
        return {"rows": len(st["cells"])}

    return [
        Command(("table", "--kmax", "16", "--dmax", "32"), 0, table),
        Command(("audit", "--kmax", "16", "--dmax", "32"), 0,
                lambda out, st: checks.check_audit(out, st["cells"])),
        Command(("mkd", "4", "40", "--mbar"), 0, lambda out, st: checks.check_mkd(out, 4, 40)),
    ]


WORKLOADS = {"search": _search, "pairwise": _pairwise, "violations": _violations, "grid": _grid}


def build(workload: str, seed: int, work: Path) -> tuple[list[Command], dict]:
    """Commands of one workload, and a description of its generated inputs."""
    inputs: dict = {}
    cmds = WORKLOADS[workload](work, random.Random(seed), inputs)
    return cmds, inputs
