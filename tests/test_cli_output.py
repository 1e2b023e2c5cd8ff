"""The writers of the command line, against ``json.dump`` and pinned text.

``nbx verify`` writes its report through ``cli._emit_report``, ``nbx
search --enumerate`` its families through ``cli._emit_families``, ``nbx
convert to-cover`` its cover through ``cli._emit_cover``, and every other
JSON command goes through ``cli._emit_json``.  Each must print exactly
``json.dumps(data, indent=2) + "\\n"``.  The .nbx text of ``construct``
and ``convert to-family`` goes through ``cli._emit_family``, ``reduce``
writes its steps, and TSV and aligned tables go through ``cli._rows_out``.
Every one of them only yields text pieces (a member, a family, a
violating row, a biclique, a table row, an encoder chunk) to the one
stdout writer, ``cli._write``, which writes once the pending text reaches
``cli._BUDGET`` (64 KiB): no write is empty, and none holds more than the
budget plus one piece.  A closed stdout must end the command with exit
status 141 and nothing on stderr.
"""

import argparse
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from itertools import islice, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from nbx import Family, SearchConfig, verify_neighborly
from nbx import biclique, bounds, cli, constructions, search
from nbx.cli import _emit_json, _emit_report, run

ROOT = Path(__file__).resolve().parent.parent

KERNEL = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def printed(writer, data) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        writer(data)
    return buf.getvalue()


class RecordingStdout:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def joker_family(count: int, at: int, d: int = 14) -> Family:
    """The all-joker word at position ``at`` among the first ``count``
    binary words of length d.  It is at distance 0 from each of them, and
    the binary words are within k = d of each other, so at k = d its
    ``count`` pairs are the violations: one in each row before it, and the
    rest in its own row."""
    binary = ["".join(w) for w in islice(product("01", repeat=d), count)]
    return Family.of([*binary[:at], "*" * d, *binary[at:]])


@KERNEL
@given(st.sampled_from([0, 1, 2, 3, 4095, 4096, 4097, 8192]), st.integers(0, 2**32))
@example(0, 0)  # a single-member family
@example(1, 0)
@example(4097, 0)  # one row longer than the budget, 4,097 triples
@example(8192, 0)
@example(4097, 4097)  # one violation per row
@example(4096, 1000)
def test_report_writer_matches_json_dump(count, seed):
    at = seed % (count + 1)
    report = verify_neighborly(joker_family(count, at), 14)
    assert len(report.violations) == count
    assert printed(_emit_report, report) == json.dumps(report.as_dict(), indent=2) + "\n"


@KERNEL
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32))
def test_report_writer_on_verified_families(n, d, k, seed):
    rng = random.Random(seed)
    words = list(dict.fromkeys("".join(rng.choice("01*") for _ in range(d)) for _ in range(n)))
    report = verify_neighborly(Family.of(words), min(k, d))
    assert printed(_emit_report, report) == json.dumps(report.as_dict(), indent=2) + "\n"


def test_report_of_a_single_member_family():
    report = verify_neighborly(Family.of(["0*1"]), 1)
    assert (report.min_distance, report.max_distance) == (None, None)
    assert printed(_emit_report, report) == json.dumps(report.as_dict(), indent=2) + "\n"


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097])
@pytest.mark.parametrize("joker_first", [True, False])
def test_verify_prints_the_json_report(count, joker_first, tmp_path, capsys):
    # `count` violations, in one row (joker first) or one per row (joker last)
    fam = joker_family(count, 0 if joker_first else count, 13)
    path = tmp_path / "fam.nbx"
    path.write_text(fam.to_nbx())
    report = verify_neighborly(fam, 13)
    assert len(report.violations) == count
    assert run(["verify", str(path), "--k", "13"]) == (1 if count else 0)
    assert capsys.readouterr().out == json.dumps(report.as_dict(), indent=2) + "\n"


class NullStdout:
    def write(self, text: str) -> int:
        return len(text)


def test_verify_memory_does_not_grow_with_the_violations(tmp_path):
    # 1,300 random words of length 16 at k = 5 have 120,588 violating pairs.
    # Held as one 3-tuple per pair, they made this command peak at 13.1 MB
    # under tracemalloc (CPython 3.11); one column mask per row peaks at 1.5 MB
    rng = random.Random(2024)
    words = list(dict.fromkeys("".join(rng.choice("01*") for _ in range(16)) for _ in range(1300)))
    path = tmp_path / "random.nbx"
    path.write_text("".join(w + "\n" for w in words))
    tracemalloc.start()
    try:
        with redirect_stdout(NullStdout()):
            assert run(["verify", str(path), "--k", "5"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(verify_neighborly(Family.of(words), 5).violations) == 120_588
    assert peak < 13.1e6 / 4, peak


def test_json_writer_matches_json_dump_on_every_payload():
    fam = constructions.extremal_dminus1(6)
    enumerated = search.enumerate_max_families(2, 4)
    payloads = [
        search.max_family(3, 4).as_dict(),
        search.max_family(2, 5, SearchConfig(budget_nodes=10)).as_dict(),
        {
            "k": 2,
            "d": 4,
            "size": len(enumerated[0]),
            "count": len(enumerated),
            "families": [f.texts() for f in enumerated],
        },
        biclique.family_to_cover(fam).as_dict(),
        [e.as_dict() for e in bounds.bounds_table(8, 12)],
        [f.as_dict() for f in bounds.pascal_audit(bounds.bounds_table(6, 8))],
        constructions.mbar_value(4, 20).as_dict(),
        constructions.m_value(3, 9).as_dict(),
        [],
        {},
    ]
    for data in payloads:
        assert printed(_emit_json, data) == json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("args, size, digest", [
    ("table --kmax 40 --dmax 40 --json", 167_520,
     "ac90a7b33124304adb7ae907791313e830363ead1f1d23d695f0979d72c30972"),
    ("audit --kmax 40 --dmax 40 --json", 92_261,
     "df93219177741cab7e16a9bc92c1479659953617a378bffa3ae80b12c496630b"),
    ("table --kmax 40 --dmax 40 --tsv", 39_059,
     "04f7d5f26618694ec4d0f47798cf5fb5f655b81fa05e7f84eb83c917184cefe9"),
    ("audit --kmax 40 --dmax 40 --tsv", 25_205,
     "47129ca722344258a04ac6303461389b76be06cde1a932274fd801d77c5d6869"),
    ("bounds 3 7 --tsv", 82,
     "b3d44da00c30c431c31c7258885f0e2f5859e734b64b7dd9e7ad5815200b3625"),
], ids=["table", "audit", "table-tsv", "audit-tsv", "bounds-tsv"])
def test_bounds_grid_output_is_pinned(args, size, digest, capsys):
    # taken when best_bounds still evaluated every upper formula, so a
    # change in any printed value or method label shows here
    assert run(args.split()) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


@pytest.mark.parametrize("family, k, size, digest", [
    (lambda: constructions.extremal_dminus1(10), 7, 311_723,
     "f58efa6f11539dbb29d2d6380ba422810c4632d7868e9227ca21418df6f394bf"),
    (lambda: joker_family(4097, 0, 13), 13, 171_053,
     "d116150ea2f2c7d4f29cc2ea7b3179991727aa37b61fcc909a505ce5198d4ceb"),
], ids=["extremal-10-k7", "joker-row-over-a-block"])
def test_verify_output_is_pinned(family, k, size, digest, tmp_path, capsys):
    # independent of `as_dict`: extremal(10) at k = 7 has 7,296 violations
    # in rows up to 19 long; the joker family has one row of 4,097
    path = tmp_path / "fam.nbx"
    path.write_text(family().to_nbx())
    assert run(["verify", str(path), "--k", str(k)]) == 1
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


def test_fragmented_output_is_pinned(capsys):
    # taken when the block count was still given as --m 3 next to --a
    assert run(["construct", "fragmented", "2", "7", "--a", "2,2,1"]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (
        168, "618148d643c6e92ee6e9e44d400a5587e91b352acafef39b326584a864678ec7")


_ENUMERATE_PINS = [
    (2, 4, 6_695, "755aceb7420b7c0ad7a71315ccd424e2dcff7f80a8d881027c38d9c9f175a19a"),
    (2, 5, 491_594, "c3f77742631bf034511c71966d478b18e843550178e6b70ae1d3f786ace59cec"),
    (3, 5, 812_234, "e03ed3bd9eab3ddef673c2af5b4cdb189f63e3d1a3df430bc622fda5a136fde4"),
    (1, 5, 8_197_610, "8c0609decfa5beac7ae1bd1d1577c03b90d5b1ab471e730737d51e98859971b4"),
    (2, 6, 17_454_379, "a2d9bba0a0d191a9499b9da97ee9c5a4242a8de88a00cee89cc643320f07a6ed"),
]


@pytest.mark.parametrize("k, d, size, digest", _ENUMERATE_PINS,
                         ids=[f"{k}-{d}" for k, d, _, _ in _ENUMERATE_PINS])
def test_enumerate_output_is_pinned(k, d, size, digest, capsys):
    # every maximum family, in text order at both levels
    assert run(["search", str(k), str(d), "--enumerate"]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


@pytest.mark.parametrize("k, d", [(2, 2), (1, 4), (2, 4)])
def test_enumerate_prints_the_json_of_the_public_enumeration(k, d, capsys):
    # the command writes from index tuples; the library returns families
    fams = search.enumerate_max_families(k, d)
    payload = {"k": k, "d": d, "size": len(fams[0]), "count": len(fams),
               "families": [f.texts() for f in fams]}
    assert run(["search", str(k), str(d), "--enumerate"]) == 0
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def fingerprint(text: str) -> tuple[int, str]:
    data = text.encode()
    return len(data), hashlib.sha256(data).hexdigest()


def dumped(data) -> tuple[int, str]:
    return fingerprint(json.dumps(data, indent=2) + "\n")


def reduced(text: str) -> None:
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        cli._cmd_reduce(argparse.Namespace(file="-"))


@functools.cache
def writer_case(name: str):
    """``(writer, args, fingerprint of its whole output)`` for one writer."""
    if name == "family":  # each of the 2,001 lines of canonical(2000) is 2,001 bytes
        return cli._emit_family, (constructions.canonical(2000),), (
            4_004_001, "caf750b8be39309263093ec7a371db3f1a3ce14b67e9eb1156f4690582b966af")
    if name == "json":
        data = {"values": list(range(12_288)), "text": "é\t\"", "x": [1.5, None, True]}
        return _emit_json, (data,), dumped(data)
    if name == "report":  # 4,096 rows of one triple, then one row of 4,097
        report = verify_neighborly(joker_family(8193, 4096), 14)
        return _emit_report, (report,), dumped(report.as_dict())
    if name == "families":  # a maximum (2,5) family is 192 bytes of text
        strings, found = search._enumerate_indices(2, 5)
        return cli._emit_families, (2, 5, strings, found), tuple(_ENUMERATE_PINS[1][2:])
    if name == "cover":  # a biclique of extremal(10) is about 7.7 kB of text
        fam = constructions.extremal_dminus1(10)
        return cli._emit_cover, (fam,), dumped(biclique.family_to_cover(fam).as_dict())
    if name == "table":  # the pin of `table --kmax 40 --dmax 40 --tsv`
        rows = [cli._table_row(e) for e in bounds.bounds_table(40, 40)]
        return cli._rows_out, (rows, cli._TABLE_HEADER, "tsv"), (
            39_059, "04f7d5f26618694ec4d0f47798cf5fb5f655b81fa05e7f84eb83c917184cefe9")
    # reduce: the pin of `construct extremal 5 | reduce -`
    return reduced, (constructions.extremal_dminus1(5).to_nbx(),), (
        2_213, "e1a514c863efe63ccba34f602473c96889f06b11ae27f257d0ff0f30bfd3eb7d")


def recorded_writes(monkeypatch, budget: int, writer, *args) -> tuple[list[str], int]:
    """The writes of ``writer(*args)`` with ``cli._BUDGET`` set to
    ``budget``, and the length of the longest piece given to ``cli._write``."""
    out = RecordingStdout()
    write, longest = cli._write, 0

    def recorded(pieces):
        nonlocal longest
        pieces = list(pieces)
        longest = max([longest, *map(len, pieces)])
        write(pieces)

    monkeypatch.setattr(cli, "_BUDGET", budget)
    monkeypatch.setattr(cli, "_write", recorded)
    monkeypatch.setattr(sys, "stdout", out)
    writer(*args)
    monkeypatch.undo()
    return out.writes, longest


@pytest.mark.parametrize("budget", [100, 4096, cli._BUDGET])
@pytest.mark.parametrize("name", ["family", "json", "report", "families", "cover", "table",
                                  "reduce"])
def test_every_writer_writes_at_most_the_budget_plus_a_piece(name, budget, monkeypatch):
    writer, args, expected = writer_case(name)
    writes, longest = recorded_writes(monkeypatch, budget, writer, *args)
    assert fingerprint("".join(writes)) == expected
    assert all(writes) and max(map(len, writes)) <= budget + longest
    # a write goes out once the budget is reached, so only the last is short
    assert all(len(w) >= budget for w in writes[:-1])


def converted_to_cover(text: str) -> tuple[int, str]:
    """Exit status and stdout of ``nbx convert to-cover -`` on ``text``."""
    buf = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), redirect_stdout(buf):
        status = run(["convert", "to-cover", "-"])
    return status, buf.getvalue()


@st.composite
def cover_families(draw) -> Family:
    """2 to 40 distinct words of length d <= 8; when d > 1, one coordinate
    may be '*' in every word, so that both sides of its biclique are empty."""
    d = draw(st.integers(1, 8))
    joker = draw(st.none() | st.integers(0, d - 1)) if d > 1 else None
    width = d - (joker is not None)
    words = draw(st.lists(st.text("01*", min_size=width, max_size=width),
                          min_size=2, max_size=40, unique=True))
    if joker is not None:
        words = [w[:joker] + "*" + w[joker:] for w in words]
    return Family.of(words)


@KERNEL
@given(cover_families())
@example(Family.of(["0", "1"]))  # d = 1, n = 2
@example(Family.of(["1", "*"]))  # a side of one vertex and an empty side
@example(Family.of(["0*", "1*"]))  # an all-joker coordinate
def test_cover_writer_matches_json_dump(fam):
    expected = json.dumps(biclique.family_to_cover(fam).as_dict(), indent=2) + "\n"
    assert converted_to_cover(fam.to_nbx()) == (0, expected)


@pytest.mark.parametrize("text", ["", "# no members\n", "01*\n"], ids=["empty", "comment", "one"])
def test_cover_of_fewer_than_two_members_is_refused(text, capsys):
    # the error comes before the first byte of output
    assert converted_to_cover(text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cover_of_a_shuffled_extremal_13_is_pinned(tmp_path, capsys):
    # the 6,144 members in a seeded order, so that each side is a scattered set
    words = constructions.extremal_dminus1(13).texts()
    random.Random(2024).shuffle(words)
    path = tmp_path / "extremal13.nbx"
    path.write_text("".join(w + "\n" for w in words))
    assert run(["convert", "to-cover", str(path)]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (
        1_076_221, "ec1c96859ebd5ff1a1662c6396d72018d564aa67d0b939608c690a0f3576290c")


# runs argv[2:] with its stdout in the file argv[1], then prints the max RSS
# of that command alone (kB on Linux) on stderr
_LAUNCH = """import resource, subprocess, sys
with open(sys.argv[1], "wb") as out:
    subprocess.run(sys.argv[2:], stdout=out, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)"""


def _python_max_rss(tmp_path, out, *args) -> int:
    """Run ``python ARGS`` in ``tmp_path`` with ``src`` on its path and its
    stdout written to ``out``, and return its max RSS in bytes.  A child
    exec'd straight from this process inherits this process's high-water
    RSS, so a small launcher starts it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH, str(out), sys.executable, *args],
        cwd=tmp_path, env=env, capture_output=True, check=True,
    )
    return int(proc.stderr) * (1 if sys.platform == "darwin" else 1024)


def _nbx_max_rss(tmp_path, out, *args) -> int:
    """Max RSS in bytes of ``nbx ARGS``, run as ``_python_max_rss`` runs it."""
    return _python_max_rss(tmp_path, out, "-m", "nbx.cli", *args)


def test_enumerate_4_5_output_and_memory(tmp_path):
    # the 180,480 maximum (4,5) families as 67 MB of JSON.  Built as Family
    # objects, copied as texts and encoded at once, they took this command
    # to 387 MB max RSS (CPython 3.11); written from the index tuples, the
    # closure's tuples are the bulk of it
    out = tmp_path / "families.json"
    maxrss = _nbx_max_rss(tmp_path, out, "search", "4", "5", "--enumerate", "--force")
    digest = hashlib.sha256()
    with open(out, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    assert (out.stat().st_size, digest.hexdigest()) == (
        67_138_636, "4f79bb968691b2a98a083ada4e25979cfb3221eceaacab2d282da671fb899e58")
    out.unlink()
    assert maxrss < 200e6, maxrss


def test_search_seed_at_the_cutoff_is_small(tmp_path):
    # n(1, 10) = 11 is the seed's size and the closed-form bound, so no
    # graph is built; building the 59,048-candidate graph first took this
    # command to 483 MB max RSS (CPython 3.11)
    out = tmp_path / "search.json"
    maxrss = _nbx_max_rss(tmp_path, out, "search", "1", "10")
    data = json.loads(out.read_text())
    assert (data["optimum"], data["proven_optimal"]) == (11, True)
    assert (data["stats"]["nodes"], data["stats"]["stopped"]) == (0, "cutoff")
    assert maxrss < 100e6, maxrss


def test_to_cover_memory_is_near_the_import(tmp_path):
    # the cover of the 6,144-member extremal(13) family.  Built as 26 vertex
    # frozensets and run through json's encoder, it took this command about
    # 7.5 MB above a bare `import nbx.cli` (CPython 3.11); written from the
    # coordinate bit-sets, about 2.3 MB above it
    path = tmp_path / "extremal13.nbx"
    path.write_text(constructions.extremal_dminus1(13).to_nbx())
    base = _python_max_rss(tmp_path, tmp_path / "import.txt", "-c", "import nbx.cli")
    used = _nbx_max_rss(tmp_path, tmp_path / "cover.json", "convert", "to-cover", path.name)
    assert (tmp_path / "cover.json").stat().st_size == 1_075_845
    assert used - base < 4e6, (used, base)


def test_to_family_memory_is_near_the_import(tmp_path):
    # the same cover read back.  Parsed into 26 vertex frozensets, with each
    # vertex's word set one bit at a time, it took this command about
    # 11.7 MB above a bare `import nbx.cli` (CPython 3.11); from one bit-set
    # per side, about 3.7 MB above it, little more than json.loads of the
    # file, which sets the peak
    fam = constructions.extremal_dminus1(13)
    path = tmp_path / "extremal13.json"
    path.write_text(json.dumps(biclique.family_to_cover(fam).as_dict(), indent=2) + "\n")
    base = _python_max_rss(tmp_path, tmp_path / "import.txt", "-c", "import nbx.cli")
    used = _nbx_max_rss(tmp_path, tmp_path / "family.nbx", "convert", "to-family", path.name)
    assert (tmp_path / "family.nbx").read_text() == fam.to_nbx()
    assert used - base < 5e6, (used, base)


def test_enumerate_memory_is_near_the_import(tmp_path):
    # the 2,560 maximum (2,5) families.  Joined into one block of 491,594
    # bytes, with the head in front of it and then encoded, they took this
    # command about 2.5 MB above a bare `import nbx.cli` (CPython 3.11);
    # written in blocks of at most _BUDGET bytes, about 1.1 MB above it
    base = _python_max_rss(tmp_path, tmp_path / "import.txt", "-c", "import nbx.cli")
    used = _nbx_max_rss(tmp_path, tmp_path / "families.json", "search", "2", "5", "--enumerate")
    assert (tmp_path / "families.json").stat().st_size == 491_594
    assert used - base < 1.8e6, (used, base)


@pytest.mark.parametrize("cover", [
    {"n": -1, "bicliques": [{"L": [0], "R": [0]}]},  # n before the sides
    {"n": 3, "bicliques": [{"L": [0], "R": [1]}, {"L": [5], "R": [5]}]},  # meeting before range
    {"n": 3, "bicliques": [{"L": [-1, 7], "R": []}]},  # the smallest vertex below 0
    {"n": 3, "bicliques": [{"L": [7, 4], "R": [1]}]},  # else the largest
    {"n": 1, "bicliques": [{"L": [0], "R": [3]}]},  # the sides before n >= 2
    {"n": 0, "bicliques": []},
    {"n": 4, "bicliques": [{"L": [0, 1], "R": [2]}]},  # 0 and 1 share a word
    {"n": 10**30, "bicliques": [{"L": [0], "R": [10**29]}]},  # 1 and 2 are in no biclique
    {"n": 3, "bicliques": [{"L": [0, 0], "R": [2]}, {"L": [1], "R": []}]},  # a repeated vertex
], ids=["negative-n", "meet", "below-0", "too-large", "range-first", "n-0", "repeat",
        "huge-n", "valid"])
def test_to_family_matches_the_library(cover, tmp_path, capsys):
    # the command converts the parsed lists without a BicliqueCover; its
    # output and its error are those of cover_to_family(from_dict(cover))
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover))
    try:
        fam = biclique.cover_to_family(biclique.BicliqueCover.from_dict(cover))
        expected = (0, fam.to_nbx(), "")
    except ValueError as exc:
        expected = (2, "", f"error: {exc}\n")
    status = run(["convert", "to-family", str(path)])
    assert (status, *capsys.readouterr()) == expected


@pytest.mark.parametrize("pipeline, size, digest", [
    (["construct canonical 6"], 49,
     "0e85da37d4abd89b97f5ff49a3197f71190cf4e81602c7b1085d0c28ccbec00b"),
    (["construct ball 3 7"], 64,
     "75c83c3ea36377727d4251942e0ecf4e83872ea066e4434b74ad0073828cd369"),
    (["construct extremal 13"], 86_016,
     "ce94f41fd615f8efe75f23bba8a114299460a23a04b83f914cc269ea13fe2b9c"),
    (["construct mbar 4 16"], 12_393,
     "6042aa243062480fb12630e755ac27f8cf7ae189787515d7be6b4933400ddea5"),
    (["construct canonical 6", "reduce -"], 308,
     "efcd29c08ea4c83d704fbde997e3c183a0e97e541d7bcd170970f1054c2cf4c3"),
    (["construct extremal 5", "reduce -"], 2_213,
     "e1a514c863efe63ccba34f602473c96889f06b11ae27f257d0ff0f30bfd3eb7d"),
    (["construct extremal 8", "convert to-cover -"], 18_724,
     "409e32b23c2147c8411a679f786b22ef373fcd6299bfa98a2962b566c6c59bd4"),
    # the cover converts back to the extremal 8 family, byte for byte
    (["construct extremal 8", "convert to-cover -", "convert to-family -"], 1_728,
     "c2796de5f0ee479de0cb0d5a8ae2e80ceeb183005dfe5311aabe3bf398478716"),
    (["mkd 4 40 --mbar"], 169,
     "5c45a607a0981d0428503ff9f1fefe66d2dbef4a4c0660493157ff5821d9d82a"),
    (["mkd 3 10"], 69,
     "d1d14626169706b284c268a94e4568210527b7ed23b2350c43d1339ef14ea12f"),
    (["construct canonical 2000"], 4_004_001,
     "caf750b8be39309263093ec7a371db3f1a3ce14b67e9eb1156f4690582b966af"),
    # C(3, 3) = 1 subset: an empty prefix; m = 4 at (3, 20): 4 subsets, prefixes of length 3
    (["construct fragmented 3 3"], 32,
     "74c691ad79435c1b63bc666b42ae131acd2d5e2b9e80eafcb728b9df5831125d"),
    (["construct fragmented 3 20"], 12_075,
     "07b07820f6565416ed69f7fa596b550f11fd4dc4abd4606526938fefed50ce88"),
], ids=["canonical-6", "ball-3-7", "extremal-13", "mbar-4-16", "reduce-canonical-6",
        "reduce-extremal-5", "to-cover-extremal-8", "to-family-extremal-8", "mkd-4-40-mbar",
        "mkd-3-10", "canonical-2000", "fragmented-3-3", "fragmented-3-20"])
def test_pipeline_output_is_pinned(pipeline, size, digest, monkeypatch, capsys):
    # each command reads the output of the one before it on stdin
    out = ""
    for args in pipeline:
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        assert run(args.split()) == 0
        out = capsys.readouterr().out
    out = out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


@pytest.mark.parametrize("args, fields, witness", [
    ("search 3 5", (18, True, 9_899, "complete", 21, 192, None),
     "228fe1c9c4cf65b547dcda627b0159d27fb3fa4cdbbc0c0f541d4a1d17872a93"),
    ("search 4 7 --budget-nodes 2000", (54, False, 2_001, "node-budget", 62, 1_808, 2_000),
     "12e4e351899436d45b9068919898c7f6babd09e8b43dd8bdd342f9153b99b71d"),
    ("search 2 5 --budget-nodes 10", (12, False, 11, "node-budget", 15, 232, 10),
     "6028589a83418d9980586cc8d019b75c6d7ba8ea4257cd4bc5cad4aa4523169b"),
], ids=["3-5", "4-7-budget", "2-5-budget"])
def test_search_output_is_pinned(args, fields, witness, capsys):
    # every field but elapsed_secs; the witness by the SHA-256 of its
    # space-joined words
    assert run(args.split()) == 0
    data = json.loads(capsys.readouterr().out)
    stats = data.pop("stats")
    assert stats.pop("elapsed_secs") >= 0
    assert stats.pop("budget_secs") is None
    assert [data.pop(key) for key in ("k", "d")] == [int(x) for x in args.split()[1:3]]
    assert (
        data.pop("optimum"), data.pop("proven_optimal"), stats.pop("nodes"), stats.pop("stopped"),
        stats.pop("upper_cutoff"), stats.pop("candidates"), stats.pop("budget_nodes"),
    ) == fields
    assert hashlib.sha256(" ".join(data.pop("witness")).encode()).hexdigest() == witness
    assert data == {} and stats == {}


def closed_early(args: list[str], tmp_path: Path) -> tuple[int, bytes]:
    """Exit status and stderr of a command whose reader stops after 16 bytes."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "nbx.cli", *args],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(16)) == 16
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err


def binary_cube(tmp_path: Path, d: int) -> str:
    path = tmp_path / f"cube{d}.nbx"
    path.write_text("".join("".join(w) + "\n" for w in product("01", repeat=d)))
    return path.name


def test_closed_stdout_ends_quietly(tmp_path):
    # the 512 binary words of length 9 have a 5.5 MB report at k = 1;
    # the cover of the 8,192 of length 13 is 1.5 MB
    assert closed_early(["verify", binary_cube(tmp_path, 9), "--k", "1"], tmp_path) == (141, b"")
    assert closed_early(["convert", "to-cover", binary_cube(tmp_path, 13)], tmp_path) == (141, b"")
    # the 80,368 maximum (1,5) families are 8.2 MB of JSON
    assert closed_early(["search", "1", "5", "--enumerate"], tmp_path) == (141, b"")
