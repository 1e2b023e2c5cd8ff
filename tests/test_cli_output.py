"""The JSON writers of the command line, against ``json.dump``.

``nbx verify`` writes its report through ``cli._emit_report`` and every
other JSON command through ``cli._emit_json``.  Both must print exactly
``json.dumps(data, indent=2) + "\\n"``, one block at a time, and a closed
stdout must end the command with exit status 141 and nothing on stderr.
"""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from nbx import Family, NeighborlinessReport, SearchConfig, verify_neighborly
from nbx import biclique, bounds, constructions, search
from nbx.cli import _BLOCK, _emit_json, _emit_report

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


def synthetic_report(valid, lo, hi, count: int, seed: int) -> NeighborlinessReport:
    rng = random.Random(seed)
    triples = [
        (rng.randrange(10**6), rng.randrange(10**6), rng.randrange(40)) for _ in range(count)
    ]
    return NeighborlinessReport(valid, lo, hi, tuple(triples))


@KERNEL
@given(
    st.booleans(),
    st.none() | st.integers(0, 64),
    st.none() | st.integers(0, 10**9),
    st.sampled_from([0, 1, 2, 3, 4095, 4096, 4097, 8192]),
    st.integers(0, 2**32),
)
@example(True, None, None, 0, 0)  # a single-member family
@example(True, 1, 3, 0, 0)
@example(False, 0, 9, 1, 0)
@example(False, 0, 9, 4095, 1)
@example(False, 0, 9, 4096, 2)
@example(False, 0, 9, 4097, 3)
@example(False, 0, 9, 8192, 4)
def test_report_writer_matches_json_dump(valid, lo, hi, count, seed):
    report = synthetic_report(valid, lo, hi, count, seed)
    assert printed(_emit_report, report) == json.dumps(report.as_dict(), indent=2) + "\n"


@KERNEL
@given(st.integers(1, 40), st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**32))
def test_report_writer_on_verified_families(n, d, k, seed):
    rng = random.Random(seed)
    words = list(dict.fromkeys("".join(rng.choice("01*") for _ in range(d)) for _ in range(n)))
    report = verify_neighborly(Family.of(words), min(k, d))
    assert printed(_emit_report, report) == json.dumps(report.as_dict(), indent=2) + "\n"


def test_report_of_a_single_member_family():
    report = verify_neighborly(Family.of(["0*1"]), 1)
    assert (report.min_distance, report.max_distance) == (None, None)
    assert printed(_emit_report, report) == json.dumps(report.as_dict(), indent=2) + "\n"


def test_report_writer_writes_one_block_at_a_time(monkeypatch):
    report = synthetic_report(False, 0, 9, 2 * _BLOCK + 1, 5)
    out = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    _emit_report(report)
    # each triple opens with "    [\n"; the head holds no such line
    per_write = [w.count("    [\n") for w in out.writes]
    assert per_write == [_BLOCK, _BLOCK, 1, 0]
    assert "".join(out.writes) == json.dumps(report.as_dict(), indent=2) + "\n"


def test_json_writer_writes_in_blocks(monkeypatch):
    data = {"values": list(range(3 * _BLOCK)), "text": "é\t\"", "x": [1.5, None, True]}
    out = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    _emit_json(data)
    assert "".join(out.writes) == json.dumps(data, indent=2) + "\n"
    assert 2 < len(out.writes) < 3 * _BLOCK  # blocks of chunks, neither one write nor one per chunk


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
