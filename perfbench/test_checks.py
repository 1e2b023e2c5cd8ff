"""Tests of the benchmark itself: every checker accepts real nbx output and
rejects a doctored copy, so an error rate of 0 cannot pass vacuously.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import trace_child
import workloads
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def nbx(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "nbx.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 1), proc.stderr
    return proc.stdout


def sym_distance(a: str, b: str) -> int:
    return sum(1 for x, y in zip(a, b) if {x, y} == {"0", "1"})


# -- pair report -------------------------------------------------------------


def test_pair_report_matches_symbol_count():
    rng = random.Random(5)
    words = workloads.random_family(150, 9, rng)
    k = 3
    want = [(i, j, sym_distance(a, b)) for i, a in enumerate(words)
            for j, b in enumerate(words) if i < j]
    got = checks.pair_report(words, k, block=16)
    assert got["min_distance"] == min(v[2] for v in want)
    assert got["max_distance"] == max(v[2] for v in want)
    assert got["violations"] == [v for v in want if v[2] == 0 or v[2] > k]


# -- search ------------------------------------------------------------------


@pytest.fixture(scope="module")
def search_2_4() -> str:
    return nbx("search", "2", "4")


def test_search_accepts_real_result(search_2_4):
    assert checks.check_search(search_2_4, 2, 4, 9, True)["nodes"] >= 1


def test_search_rejects_wrong_optimum(search_2_4):
    with pytest.raises(CheckFailed, match="optimum"):
        checks.check_search(search_2_4, 2, 4, 10, True)
    doctored = json.loads(search_2_4)
    doctored["optimum"] += 1
    with pytest.raises(CheckFailed):
        checks.check_search(json.dumps(doctored), 2, 4)
    doctored = json.loads(search_2_4)
    doctored["proven_optimal"] = False
    with pytest.raises(CheckFailed, match="proven_optimal"):
        checks.check_search(json.dumps(doctored), 2, 4, 9, True)


def test_search_rejects_witness_with_one_pair_out_of_range(search_2_4):
    got = json.loads(search_2_4)
    words = got["witness"]
    # Word 0 becomes word 1 with a joker wherever the two differ: distance 0.
    i, j = 0, 1
    clash = "".join("*" if a != b else a for a, b in zip(words[i], words[j]))
    doctored = [clash if n == i else w for n, w in enumerate(words)]
    bad = [(a, b) for a in range(len(doctored)) for b in range(a + 1, len(doctored))
           if not 1 <= sym_distance(doctored[a], doctored[b]) <= 2]
    assert bad and all(i in pair for pair in bad)
    got["witness"] = doctored
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_search(json.dumps(got), 2, 4)


def test_enumerate_rejects_wrong_count_and_bad_family():
    text = nbx("search", "2", "4", "--enumerate")
    assert checks.check_enumerate(text, 2, 4, 9, 48) == {"families": 48}
    with pytest.raises(CheckFailed):
        checks.check_enumerate(text, 2, 4, 9, 47)
    got = json.loads(text)
    got["families"][-1] = got["families"][0]
    with pytest.raises(CheckFailed, match="twice"):
        checks.check_enumerate(json.dumps(got), 2, 4, 9, 48)
    got = json.loads(text)
    fam = got["families"][3]
    fam[0] = fam[1]
    with pytest.raises(CheckFailed, match="duplicate"):
        checks.check_enumerate(json.dumps(got), 2, 4, 9, 48)


# -- verification reports ----------------------------------------------------


@pytest.fixture(scope="module")
def noisy(tmp_path_factory) -> tuple[list[str], str]:
    words = workloads.random_family(200, 8, random.Random(3))
    path = tmp_path_factory.mktemp("fam") / "noisy.nbx"
    path.write_text("".join(w + "\n" for w in words))
    return words, nbx("verify", str(path), "--k", "3")


def test_verify_accepts_real_report(noisy):
    words, text = noisy
    expected = checks.pair_report(words, 3)
    assert checks.check_verify(text, expected) == {"violations": len(expected["violations"])}


def test_verify_rejects_dropped_extra_or_changed_violation(noisy):
    words, text = noisy
    expected = checks.pair_report(words, 3)
    valid_pair = next([i, j, d] for i, j, d in
                      ([a, b, sym_distance(words[a], words[b])] for a in range(9) for b in range(a + 1, 9))
                      if 1 <= d <= 3)
    for doctor in (lambda v: v.pop(7), lambda v: v.append(valid_pair),
                   lambda v: v[0].__setitem__(2, v[0][2] + 1)):
        got = json.loads(text)
        doctor(got["violations"])
        with pytest.raises(CheckFailed, match="violations"):
            checks.check_verify(json.dumps(got), expected)


def test_verify_rejects_wrong_validity_or_range(noisy):
    words, text = noisy
    expected = checks.pair_report(words, 3)
    for key, value in (("valid", True), ("min_distance", 1), ("max_distance", 3)):
        got = json.loads(text)
        got[key] = value
        with pytest.raises(CheckFailed, match=key):
            checks.check_verify(json.dumps(got), expected)


# -- constructions and covers ------------------------------------------------


def test_extremal_checked_against_closed_form():
    text = nbx("construct", "extremal", "6")
    checks.check_extremal(text, 6)
    words = checks.nbx_words(text)
    with pytest.raises(CheckFailed):
        checks.check_extremal("\n".join(words[:4] + [words[4][:5] + "*"] + words[5:]), 6)
    with pytest.raises(CheckFailed):
        checks.check_extremal("\n".join(words[:-1]), 6)


def test_family_check_rejects_one_pair_out_of_range():
    words = checks.nbx_words(nbx("construct", "mbar", "3", "8"))
    checks.check_family(words, 3, 8, len(words))
    # Flip every symbol of a word with at least 4 of them: distance >= 4 > k.
    src = next(i for i, w in enumerate(words) if len(w) - w.count("*") >= 4)
    flipped = "".join({"0": "1", "1": "0", "*": "*"}[c] for c in words[src])
    doctored = [flipped if i == (src + 1) % len(words) else w for i, w in enumerate(words)]
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_family(doctored, 3, 8)


def test_cover_rejects_moved_vertex(tmp_path):
    words = checks.extremal_words(5)
    random.Random(1).shuffle(words)
    path = tmp_path / "fam.nbx"
    path.write_text("\n".join(words) + "\n")
    text = nbx("convert", "to-cover", str(path))
    checks.check_cover(text, words)
    got = json.loads(text)
    got["bicliques"][2]["R"].append(got["bicliques"][2]["L"].pop())
    with pytest.raises(CheckFailed, match="biclique 3"):
        checks.check_cover(json.dumps(got), words)


# -- grid ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def table_text() -> str:
    return nbx("table", "--kmax", "6", "--dmax", "9")


def test_table_and_audit_accept_real_output(table_text):
    cells = checks.check_table(table_text, 6, 9)
    assert len(cells) == sum(min(d, 6) for d in range(1, 10))
    checks.check_audit(nbx("audit", "--kmax", "6", "--dmax", "9"), cells)


@pytest.mark.parametrize("target, column, value", [
    ((1, 7), 2, "7"),      # exact cell k = 1 must be d + 1 = 8
    ((6, 7), 4, "97"),     # exact cell k = d - 1 must be 3 * 2^5 = 96
    ((3, 8), 2, "999"),    # lower above upper
    ((3, 8), 6, None),     # exact column flipped
])
def test_table_rejects_wrong_cell(table_text, target, column, value):
    lines = table_text.splitlines()
    for n, line in enumerate(lines[1:], start=1):
        row = line.split("\t")
        if (int(row[0]), int(row[1])) == target:
            row[column] = value or {"yes": "no", "no": "yes"}[row[column]]
            lines[n] = "\t".join(row)
    assert lines != table_text.splitlines()
    with pytest.raises(CheckFailed):
        checks.check_table("\n".join(lines), 6, 9)


def test_table_rejects_missing_row(table_text):
    with pytest.raises(CheckFailed, match="cover"):
        checks.check_table("\n".join(table_text.splitlines()[:-1]), 6, 9)


def test_audit_rejects_doctored_rows(table_text):
    cells = checks.check_table(table_text, 6, 9)
    text = nbx("audit", "--kmax", "6", "--dmax", "9")
    lines = text.splitlines()
    row = lines[5].split("\t")
    row[3] = str(int(row[3]) + 1)
    row[4] = str(int(row[4]) + 1)
    with pytest.raises(CheckFailed, match="rhs"):
        checks.check_audit("\n".join(lines[:5] + ["\t".join(row)] + lines[6:]), cells)
    with pytest.raises(CheckFailed, match="cover"):
        checks.check_audit("\n".join(lines[:-1]), cells)


def test_mkd_recomputed_from_plans():
    text = nbx("mkd", "3", "10", "--mbar")
    assert checks.check_mkd(text, 3, 10) == {"value": 84}
    got = json.loads(text)
    got["value"] += 1
    with pytest.raises(CheckFailed, match="value"):
        checks.check_mkd(json.dumps(got), 3, 10)
    got = json.loads(text)
    got["parts"][-1]["a"][0] += 1
    with pytest.raises(CheckFailed):
        checks.check_mkd(json.dumps(got), 3, 10)


# -- inputs ------------------------------------------------------------------


def test_corruption_changes_one_symbol_in_chosen_members_only():
    words = checks.extremal_words(9)
    out, changed = workloads.corrupt(words, 0.05, random.Random(2))
    assert len(set(out)) == len(out) == len(words)
    diff = [i for i, (a, b) in enumerate(zip(words, out)) if a != b]
    assert diff == changed and len(changed) == round(len(words) * 0.05)
    assert all(sum(x != y for x, y in zip(words[i], out[i])) == 1 for i in changed)


def test_inputs_follow_the_seed(tmp_path):
    def files(seed: int, sub: str) -> dict:
        (tmp_path / sub).mkdir()
        workloads.build("violations", seed, tmp_path / sub)
        return {p.name: p.read_text() for p in (tmp_path / sub).iterdir()}

    first = files(7, "a")
    assert first == files(7, "b")
    assert first != files(8, "c")


# -- tracing and the benchmark contract ------------------------------------------


def traced(tmp_path: Path, *args: str) -> tuple[subprocess.CompletedProcess, dict]:
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "trace_child.py"), str(spans), *args],
                          env=env, capture_output=True, text=True, timeout=60)
    trace = json.loads(spans.read_text())
    return proc, trace


def test_trace_child_records_spans_and_counts(tmp_path):
    words = workloads.random_family(40, 6, random.Random(4))
    fam = tmp_path / "f.nbx"
    fam.write_text("\n".join(words) + "\n")
    proc, trace = traced(tmp_path, "verify", str(fam), "--k", "2")
    expected = checks.pair_report(words, 2)
    assert proc.returncode == (0 if expected["valid"] else 1)
    checks.check_verify(proc.stdout, expected)
    assert trace["counts"]["families.pairs"] == 40 * 39 // 2
    assert trace["counts"]["families.violations"] == len(expected["violations"])
    metrics = run.layer_metrics({"commands": [{"trace": trace, "span_scale": 1.0, "bytes_out": 1}]})
    assert metrics["cli.run.calls"] == 1
    assert metrics["families.from_nbx.calls"] == 1
    assert metrics["strings.parse.calls"] == 40
    assert metrics["families.verify_neighborly.calls"] == 1
    for name in trace_child.SPAN_NAMES:
        assert 0 <= metrics[f"{name}.self_s"] <= metrics[f"{name}.total_s"] + 1e-9
    assert metrics["cli.run.total_s"] >= metrics["families.verify_neighborly.total_s"]


def test_trace_child_times_generators_and_counts_nodes(tmp_path):
    proc, trace = traced(tmp_path, "search", "2", "4")
    assert proc.returncode == 0
    stats = json.loads(proc.stdout)["stats"]
    assert trace["counts"]["search.nodes"] == stats["nodes"]
    assert trace["counts"]["search.candidates"] == stats["candidates"]
    metrics = run.layer_metrics({"commands": [{"trace": trace, "span_scale": 1.0, "bytes_out": 1}]})
    assert metrics["strings.all_strings.calls"] == 1
    assert 0 < metrics["strings.all_strings.total_s"] < metrics["search.max_family.total_s"]
    assert metrics["search.max_family.self_s"] < metrics["search.max_family.total_s"]


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
