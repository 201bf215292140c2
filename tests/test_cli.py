import json

import pytest

from squarespan.cli import run

NON_REALIZABLE = "n=10\n1 3 4 2\n2 5 9 8\n4 7 6 5\n3 6 8 10\n1 10 7 9\n"
REALIZABLE = "n=10\n1 3 4 2\n2 5 9 8\n4 7 6 5\n3 6 8 10\n"


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


class TestCount:
    def test_grid_text(self, capsys):
        assert run(["count", "--text", "xxx/xxx/xxx"]) == 0
        assert lines_of(capsys) == [
            "n=9", "squares=6", "rit=28", "axis=5", "mixed=10"]

    def test_coordinate_lines(self, tmp_path, capsys):
        f = tmp_path / "pts.txt"
        f.write_text("0,0\n1,0\n0,1\n1,1\n")
        assert run(["count", str(f)]) == 0
        assert "squares=1" in lines_of(capsys)

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("xx\nxx\n"))
        assert run(["count"]) == 0
        assert "rit=4" in lines_of(capsys)

    def test_json_output(self, capsys):
        assert run(["--json", "count", "--text", "xxx/xxx/xxx"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"n": 9, "squares": 6, "rit": 28, "axis": 5,
                        "mixed": 10}

    def test_bad_coordinates_usage_error(self, capsys):
        assert run(["count", "--text", "0,0/1,zz"]) == 2
        assert "error" in capsys.readouterr().err


class TestCanonAndRender:
    def test_canon_reports_key_and_grid(self, capsys):
        assert run(["canon", "--text", "xx/xx"]) == 0
        out = lines_of(capsys)
        assert out[0].startswith("key=")
        assert out[1:] == ["xx", "xx"]

    def test_canon_invariant_under_scaling(self, capsys):
        run(["canon", "--text", "x.x/.../x.x"])
        key_a = lines_of(capsys)[0]
        run(["canon", "--text", "xx/xx"])
        key_b = lines_of(capsys)[0]
        assert key_a == key_b

    def test_render_round_trip(self, capsys):
        f_lines = ["x.x", ".x.", "x.x"]
        assert run(["render", "--text", "/".join(f_lines)]) == 0
        assert lines_of(capsys) == f_lines


class TestEnumAndBeam:
    def test_enum_table(self, capsys):
        assert run(["enum", "--mode", "rit-1ext", "--n-max", "5"]) == 0
        out = lines_of(capsys)
        assert out[0] == "n\tm\tclasses"
        assert "4\t4\t1" in out

    def test_enum_json(self, capsys):
        assert run(["--json", "enum", "--mode", "square-2ext",
                    "--n-max", "6"]) == 0
        data = json.loads(capsys.readouterr().out)
        cells = {(e["n"], e["m"]): e["classes"] for e in data["entries"]}
        assert cells == {(4, 1): 1, (6, 2): 2}
        assert [lv["n"] for lv in data["levels"]] == [4]
        assert data["levels"][0]["parents"] == 1
        assert data["levels"][0]["stored"] == 2

    def test_enum_level_budget_stops_and_says_so(self, capsys):
        # Without the budget this run takes many minutes; with it, the
        # first level over 2000 classes ends it.
        argv = ["enum", "--mode", "rit-1ext", "--n-max", "10",
                "--max-level-classes", "2000"]
        assert run(["--json", *argv]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["complete"] is False
        assert data["note"] and data["note"] in captured.err
        assert max(e["n"] for e in data["entries"]) < 10
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == f"# {data['note']}"
        assert data["note"] in captured.err

    def test_enum_complete_run_writes_no_note(self, capsys):
        assert run(["enum", "--mode", "rit-1ext", "--n-max", "5",
                    "--max-level-classes", "2000"]) == 0
        captured = capsys.readouterr()
        assert not captured.out.splitlines()[-1].startswith("#")
        # Only the level progress lines, one per expanded level.
        assert [ln.split(":")[0] for ln in captured.err.splitlines()] == \
            ["level n=3", "level n=4"]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_enum_level_budget_below_one_is_usage_error(self, value, capsys):
        assert run(["enum", "--mode", "rit-1ext", "--n-max", "5",
                    "--max-level-classes", value]) == 2
        assert "max_level_classes must be at least 1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag,env,message", [
        ("0", None, "threads must be at least 1"),
        ("-3", None, "threads must be at least 1"),
        (None, "0", "threads must be at least 1"),
        (None, "two", "SQUARESPAN_THREADS='two' is not an integer"),
    ], ids=["0", "-3", "env-0", "env-two"])
    def test_enum_thread_count_below_one_is_usage_error(
            self, flag, env, message, capsys, monkeypatch):
        argv = ["enum", "--mode", "rit-1ext", "--n-max", "5"]
        if flag is not None:
            argv += ["--threads", flag]
        if env is not None:
            monkeypatch.setenv("SQUARESPAN_THREADS", env)
        assert run(argv) == 2
        assert message in capsys.readouterr().err

    def test_beam_header_and_witnesses(self, capsys):
        assert run(["beam", "--mode", "rit", "--n", "6",
                    "--width", "10"]) == 0
        out = capsys.readouterr().out
        head = out.splitlines()[0]
        assert head.startswith("#") and "width=10" in head
        assert "n\tbest\twitness" in out
        assert "id=beam-rit-w10-n6" in out  # witness corpus record follows

    def test_beam_no_witnesses(self, capsys):
        assert run(["beam", "--mode", "rit", "--n", "6", "--width", "10",
                    "--no-witnesses"]) == 0
        assert "id=" not in capsys.readouterr().out


class TestRealize:
    def test_non_realizable_report(self, tmp_path, capsys):
        f = tmp_path / "s.oss"
        f.write_text(NON_REALIZABLE)
        assert run(["realize", str(f)]) == 0
        out = lines_of(capsys)
        assert out[0] == "order=10"
        assert out[1] == "squares=5"
        assert "realizable=false" in out
        assert "dimension=2" in out
        pair_line = next(l for l in out if l.startswith("degenerate_pairs="))
        assert len(pair_line.split("=", 1)[1].split()) == 45
        assert not any(l.startswith("forced_squares=") for l in out)

    def test_realizable_report(self, tmp_path, capsys):
        f = tmp_path / "s.oss"
        f.write_text(REALIZABLE)
        assert run(["realize", str(f)]) == 0
        out = lines_of(capsys)
        assert "realizable=true" in out
        assert "dimension=4" in out
        assert any(l.startswith("witness=") for l in out)

    def test_square_free_system(self, capsys):
        assert run(["realize", "--text", "n=3"]) == 0
        out = lines_of(capsys)
        assert "realizable=true" in out
        assert "dimension=6" in out
        assert any(l.startswith("witness=") for l in out)

    def test_realize_json(self, tmp_path, capsys):
        f = tmp_path / "s.oss"
        f.write_text(REALIZABLE)
        assert run(["--json", "realize", str(f)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["realizable"] is True
        assert data["dimension"] == 4

    def test_malformed_oss_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "bad.oss"
        f.write_text("squares here\n")
        assert run(["realize", str(f)]) == 2

    def test_missing_file(self, capsys):
        assert run(["realize", "/nonexistent/path.oss"]) == 2

    @pytest.mark.parametrize(("text", "line"), [("n=x/1 2 3 4", 1),
                                                ("n=4/1 2 3 a", 2)])
    def test_non_integer_oss_names_its_line(self, capsys, text, line):
        assert run(["realize", "--text", text]) == 2
        assert f"line {line}:" in capsys.readouterr().err


class TestBounds:
    def test_square_mode(self, capsys):
        assert run(["bounds", "--n", "17"]) == 0
        out = lines_of(capsys)
        assert "best_upper=22" in out
        assert "best_lower=22" in out

    def test_rit_mode(self, capsys):
        assert run(["bounds", "--n", "15", "--mode", "rit"]) == 0
        assert "best_lower=85" in lines_of(capsys)

    def test_json(self, capsys):
        assert run(["--json", "bounds", "--n", "9"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["best_upper"] == 6


class TestIlp:
    def test_stdout_export(self, capsys):
        assert run(["ilp", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Maximize")
        assert "Binary" in out and out.rstrip().endswith("End")

    def test_file_export(self, tmp_path, capsys):
        target = tmp_path / "m.lp"
        assert run(["ilp", "--n", "8", "--variant", "mod8",
                    "-o", str(target)]) == 0
        text = target.read_text()
        assert "zero_" in text and "low_" in text

    def test_bad_variant_pairing(self, capsys):
        assert run(["ilp", "--n", "7", "--variant", "mod8"]) == 2


class TestCorpusVerify:
    def test_default_corpus_passes(self, capsys):
        assert run(["corpus-verify"]) == 0
        assert "350/350" in capsys.readouterr().out

    def test_corrupt_corpus_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "---\nid=rit-3-1\nfamily=rit\nn=3\nexpected=2\ngrid:\nxx\nx.\n")
        assert run(["corpus-verify", "--corpus", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unparseable_corpus_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("---\nid=rit-3-1\n")
        assert run(["corpus-verify", "--corpus", str(bad)]) == 2


class TestArgumentErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["enum", "--mode", "rit-1ext"])
        assert exc.value.code == 2
