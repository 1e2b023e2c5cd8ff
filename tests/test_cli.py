import io
import json

import pytest

from nbx import bounds, search
from nbx.cli import run


def out_of(capsys):
    return capsys.readouterr().out


class TestConstruct:
    def test_canonical(self, capsys):
        assert run(["construct", "canonical", "3"]) == 0
        assert out_of(capsys).splitlines() == ["000", "001", "01*", "1**"]

    def test_ball(self, capsys):
        assert run(["construct", "ball", "2", "4"]) == 0
        assert len(out_of(capsys).splitlines()) == 5

    def test_extremal(self, capsys):
        assert run(["construct", "extremal", "4"]) == 0
        assert len(out_of(capsys).splitlines()) == 12

    def test_mbar(self, capsys):
        assert run(["construct", "mbar", "2", "7"]) == 0
        assert len(out_of(capsys).splitlines()) == 21

    def test_fragmented_with_plan(self, capsys):
        assert run(["construct", "fragmented", "2", "7", "--a", "2,2,1"]) == 0
        assert len(out_of(capsys).splitlines()) == 21

    def test_fragmented_default_plan(self, capsys):
        assert run(["construct", "fragmented", "3", "10"]) == 0
        assert len(out_of(capsys).splitlines()) == 81

    def test_fragmented_malformed_plan_rejected(self, capsys):
        assert run(["construct", "fragmented", "2", "7", "--a", "2,2"]) == 2
        assert "block lengths must sum to 7" in capsys.readouterr().err

    def test_fragmented_unparsable_plan_names_the_option(self, capsys):
        assert run(["construct", "fragmented", "2", "7", "--a", "2,,3"]) == 2
        assert "argument --a: not comma-separated integers: '2,,3'" in capsys.readouterr().err

    def test_product(self, capsys, tmp_path):
        a = tmp_path / "a.nbx"
        b = tmp_path / "b.nbx"
        run(["construct", "canonical", "3"])
        a.write_text(out_of(capsys))
        run(["construct", "canonical", "4"])
        b.write_text(out_of(capsys))
        assert run(["construct", "product", str(a), str(b)]) == 0
        assert len(out_of(capsys).splitlines()) == 20

    def test_bad_parameters(self, capsys):
        assert run(["construct", "canonical", "0"]) == 2
        assert run(["construct", "ball", "5", "5"]) == 2


class TestVerify:
    def test_valid_exits_zero(self, capsys, tmp_path):
        f = tmp_path / "c3.nbx"
        f.write_text("000\n001\n01*\n1**\n")
        assert run(["verify", str(f), "--k", "1"]) == 0
        report = json.loads(out_of(capsys))
        assert report["valid"] is True

    def test_invalid_exits_one(self, capsys, tmp_path):
        f = tmp_path / "bad.nbx"
        f.write_text("00\n11\n")
        assert run(["verify", str(f), "--k", "1"]) == 1
        report = json.loads(out_of(capsys))
        assert report["violations"] == [[0, 1, 2]]

    def test_comments_ignored(self, capsys, tmp_path):
        f = tmp_path / "c.nbx"
        f.write_text("# chain family\n\n00\n01\n1*\n")
        assert run(["verify", str(f), "--k", "1"]) == 0

    def test_bad_k_usage(self, capsys, tmp_path):
        f = tmp_path / "c.nbx"
        f.write_text("00\n01\n")
        assert run(["verify", str(f), "--k", "9"]) == 2

    def test_missing_file(self, capsys):
        assert run(["verify", "/nonexistent.nbx", "--k", "1"]) == 2

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("000\n001\n01*\n1**\n"))
        assert run(["verify", "-", "--k", "1"]) == 0
        assert json.loads(out_of(capsys))["valid"] is True

    def test_length_error_quotes_the_word(self, capsys, tmp_path):
        f = tmp_path / "short.nbx"
        f.write_text("01\n0\n")
        assert run(["verify", str(f), "--k", "1"]) == 2
        assert capsys.readouterr().err == "error: member '0' has length 1, expected 2\n"


class TestBoundsAndTable:
    def test_bounds_json(self, capsys):
        assert run(["bounds", "2", "7", "--json"]) == 0
        data = json.loads(out_of(capsys))
        assert data["lower"]["value"] >= 21
        assert data["lower"]["method"] == "fragmented"
        assert data["upper"]["value"] >= data["lower"]["value"]

    def test_bounds_tsv(self, capsys):
        assert run(["bounds", "1", "5", "--tsv"]) == 0
        lines = out_of(capsys).splitlines()
        assert lines[0].split("\t") == [
            "k", "d", "lower", "lower_method", "upper", "upper_method", "exact",
        ]
        assert lines[1].split("\t")[2] == "6"

    def test_table_diagonal_exact(self, capsys):
        assert run(["table", "--kmax", "8", "--dmax", "8", "--tsv"]) == 0
        rows = [line.split("\t") for line in out_of(capsys).splitlines()[1:]]
        for row in rows:
            k, d = int(row[0]), int(row[1])
            if k == d:
                assert row[2] == row[4] == str(2**d)
                assert row[6] == "yes"

    def test_table_stable_across_runs(self, capsys):
        assert run(["table", "--kmax", "6", "--dmax", "6", "--tsv"]) == 0
        first = out_of(capsys)
        assert run(["table", "--kmax", "6", "--dmax", "6", "--tsv"]) == 0
        assert out_of(capsys) == first

    def test_table_json(self, capsys):
        assert run(["table", "--kmax", "2", "--dmax", "3", "--json"]) == 0
        data = json.loads(out_of(capsys))
        assert {(e["k"], e["d"]) for e in data} == {(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)}


class TestSearchCommand:
    def test_search_json(self, capsys):
        assert run(["search", "2", "3"]) == 0
        data = json.loads(out_of(capsys))
        assert data["optimum"] == 6
        assert data["proven_optimal"] is True
        assert len(data["witness"]) == 6

    def test_search_flags(self, capsys):
        assert run(["search", "1", "3", "--no-symmetry", "--budget-nodes", "100000"]) == 0
        data = json.loads(out_of(capsys))
        assert data["optimum"] == 4

    def test_enumerate(self, capsys):
        assert run(["search", "2", "2", "--enumerate"]) == 0
        data = json.loads(out_of(capsys))
        assert data["count"] == 1
        assert data["families"] == [["00", "01", "10", "11"]]

    def test_force_lifts_the_enumeration_cap(self, capsys, monkeypatch):
        enumerate_all = search._enumerate_indices
        configs = []

        def recording(k, d, cfg):
            configs.append(cfg)
            return enumerate_all(k, d, cfg)

        monkeypatch.setattr(search, "_enumerate_indices", recording)
        assert run(["search", "1", "4", "--enumerate"]) == 0
        plain = out_of(capsys)
        assert run(["search", "1", "4", "--enumerate", "--force"]) == 0
        assert out_of(capsys) == plain
        assert configs == [search.SearchConfig(), search.SearchConfig(capped=False)]
        assert json.loads(plain)["count"] == 1296

    def test_non_finite_budget_refused(self, capsys):
        for budget in ("nan", "inf"):
            assert run(["search", "2", "4", "--budget-secs", budget]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and "budget_secs" in err[0]

    def test_enumeration_failure_is_a_usage_error(self, capsys):
        assert run(["search", "2", "4", "--enumerate", "--budget-nodes", "5",
                    "--no-symmetry"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "not proven" in err[0]

    def test_internal_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(search, "max_family", broken)
        with pytest.raises(RecursionError):
            run(["search", "2", "3"])

    def test_enumeration_cap_refused_without_force(self, capsys, monkeypatch):
        # the 48 maximum (2,4) families exceed a limit of 47
        monkeypatch.setattr(search, "_MAX_FAMILIES", 47)
        assert run(["search", "2", "4", "--enumerate"]) == 2
        assert capsys.readouterr() == (
            "", "error: more than 47 maximum families (use --force to override)\n")

    def test_capacity_refused_without_force(self, capsys):
        # (2, 11) has 177,124 candidates, beyond the 60,000 default
        code = run(["search", "2", "11"])
        assert code == 2
        assert "--force" in capsys.readouterr().err


class TestMkd:
    def test_m_value(self, capsys):
        assert run(["mkd", "2", "7"]) == 0
        assert json.loads(out_of(capsys)) == {"value": 21, "m": 3, "a": [2, 2, 1]}

    def test_mbar(self, capsys):
        assert run(["mkd", "3", "10", "--mbar"]) == 0
        data = json.loads(out_of(capsys))
        assert data["value"] == 84
        assert all(set(p) == {"k", "d", "m", "a"} for p in data["parts"])


class TestConvert:
    def test_round_trip(self, capsys, tmp_path):
        fam_file = tmp_path / "fam.nbx"
        fam_file.write_text("000\n001\n01*\n1**\n")
        assert run(["convert", "to-cover", str(fam_file)]) == 0
        cover_json = out_of(capsys)
        cover = json.loads(cover_json)
        assert cover["n"] == 4 and len(cover["bicliques"]) == 3
        cover_file = tmp_path / "cover.json"
        cover_file.write_text(cover_json)
        assert run(["convert", "to-family", str(cover_file)]) == 0
        assert out_of(capsys) == fam_file.read_text()

    def test_bad_cover_json(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        for text, field in [
            ("[]", "JSON object"),
            ('{"n": null, "bicliques": []}', "'n'"),
            ('{"bicliques": []}', "'n'"),
            ('{"n": "2", "bicliques": []}', "'n'"),
            ('{"n": true, "bicliques": []}', "'n'"),
            ('{"n": -3, "bicliques": [{"L": [], "R": []}]}', "'n'"),
            ('{"n": 2}', "'bicliques'"),
            ('{"n": 2, "bicliques": {}}', "'bicliques'"),
            ('{"n": 2, "bicliques": [1]}', "biclique 1: expected an object"),
            ('{"n": 2, "bicliques": [{"L": [0]}]}', "biclique 1: 'R'"),
            ('{"n": 2, "bicliques": [{"L": [0], "R": [1]}, {"L": 0, "R": [1]}]}', "biclique 2: 'L'"),
            ('{"n": 2, "bicliques": [{"L": [0], "R": ["x"]}]}', "biclique 1: 'R'"),
            ('{"n": 2, "bicliques": [{"L": [0.0], "R": [1]}]}', "biclique 1: 'L'"),
            # no .nbx text reads back as 0 or 1 member
            ('{"n": 0, "bicliques": []}', "at least 2 vertices"),
            ('{"n": 1, "bicliques": []}', "at least 2 vertices"),
        ]:
            f.write_text(text)
            assert run(["convert", "to-family", str(f)]) == 2, text
            out, err = capsys.readouterr()
            assert out == "", text
            err = err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and field in err[0], (text, err)

    def test_oversized_cover_is_a_usage_error(self, capsys, tmp_path):
        # vertices 2 and 3 lie in no biclique; their repeat is found without
        # building a word for each of the 10**30 vertices
        f = tmp_path / "big.json"
        f.write_text(json.dumps({"n": 10**30, "bicliques": [{"L": [0], "R": [1]}]}))
        assert run(["convert", "to-family", str(f)]) == 2
        err = capsys.readouterr().err
        assert err == "error: vertices 2 and 3 are indistinguishable (both map to *)\n"

class TestAudit:
    def test_clean(self, capsys):
        assert run(["audit", "--kmax", "5", "--dmax", "6", "--tsv"]) == 0
        rows = [line.split("\t") for line in out_of(capsys).splitlines()[1:]]
        assert rows
        assert all(row[5] == "no" for row in rows)

    def test_json(self, capsys):
        assert run(["audit", "--kmax", "3", "--dmax", "4", "--json"]) == 0
        data = json.loads(out_of(capsys))
        assert all(f["violated"] is False for f in data)

    def test_violation_is_reported(self, capsys, monkeypatch):
        finding = bounds.PascalFinding(2, 3, 7, 6)
        monkeypatch.setattr(bounds, "pascal_audit", lambda table: [finding])
        assert run(["audit", "--kmax", "2", "--dmax", "3", "--tsv"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].split("\t") == ["2", "3", "7", "6", "-1", "yes"]
        assert captured.err == "1 violation(s) found\n"


class TestReduce:
    def test_trace(self, capsys, tmp_path):
        f = tmp_path / "c3.nbx"
        f.write_text("000\n001\n01*\n1**\n")
        assert run(["reduce", str(f)]) == 0
        out = out_of(capsys)
        assert "# step 0 size 4" in out
        assert "# step 3 size 1" in out
        assert out.strip().endswith("***")

    def test_non_partition_rejected(self, capsys, tmp_path):
        f = tmp_path / "bad.nbx"
        f.write_text("00\n01\n")
        assert run(["reduce", str(f)]) == 2


class TestUsage:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_missing_arguments(self):
        assert run(["construct", "canonical"]) == 2

    def test_no_command(self):
        assert run([]) == 2

    @pytest.mark.parametrize("command", ["construct", "convert"])
    def test_missing_kind(self, capsys, command):
        # a command without its kind stops in the parser: nothing on stdout,
        # a usage line and one error line on stderr
        assert run([command]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert lines[0].startswith(f"usage: nbx {command} [-h]")
        assert [line for line in lines if "error:" in line] == [lines[-1]]
        assert lines[-1].startswith(f"nbx {command}: error: ")

    @pytest.mark.parametrize("argv", [
        [], ["construct"], ["verify"], ["bounds"], ["table"], ["search"], ["mkd"], ["convert"],
        ["audit"], ["reduce"],
        *(["construct", kind]
          for kind in ["canonical", "ball", "extremal", "mbar", "fragmented", "product"]),
        ["convert", "to-cover"], ["convert", "to-family"],
    ])
    def test_help_names_its_command(self, capsys, argv):
        assert run([*argv, "-h"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(" ".join(["usage: nbx", *argv, "[-h]"]))
        assert err == ""

    def test_convert_help_describes_both_directions(self, capsys):
        assert run(["convert", "-h"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for direction in ("to-cover", "to-family"):
            (line,) = [line for line in lines if line.split()[:1] == [direction]]
            assert len(line.split()) > 1, line

    @pytest.mark.parametrize("argv, k, d", [
        ("search 0 3", 0, 3),
        ("search 4 3 --enumerate", 4, 3),
        ("mkd 0 5", 0, 5),
        ("mkd 6 5 --mbar", 6, 5),
        ("bounds 4 3", 4, 3),
        ("construct mbar 0 4", 0, 4),
        ("construct fragmented 0 4", 0, 4),
        ("verify FILE --k 9", 9, 2),
    ])
    def test_cell_out_of_range(self, capsys, tmp_path, argv, k, d):
        # every command names the bad cell in the same one error line
        f = tmp_path / "c.nbx"
        f.write_text("00\n01\n")
        assert run(argv.replace("FILE", str(f)).split()) == 2
        assert capsys.readouterr() == ("", f"error: requires 1 <= k <= d, got k={k}, d={d}\n")


class TestConstructVerifyPipeline:
    def test_every_construct_output_verifies(self, capsys, tmp_path):
        # each construction piped into verify at its advertised k exits 0
        cases = [
            (["construct", "canonical", "5"], 1),
            (["construct", "ball", "3", "6"], 3),
            (["construct", "extremal", "5"], 4),
            (["construct", "mbar", "2", "7"], 2),
            (["construct", "fragmented", "3", "10"], 3),
        ]
        for argv, k in cases:
            assert run(argv) == 0
            f = tmp_path / "fam.nbx"
            f.write_text(out_of(capsys))
            assert run(["verify", str(f), "--k", str(k)]) == 0
            capsys.readouterr()


class TestHumanTableFormat:
    def test_columns_align(self, capsys):
        from nbx.cli import _rows_out

        _rows_out([["1", "22", "333"], ["4444", "5", "6"]], ["a", "b", "c"], "human")
        lines = out_of(capsys).splitlines()
        assert lines[0].startswith("a")
        assert lines[1].index("22") == lines[0].index("b")
        assert lines[2].index("5") == lines[0].index("b")
