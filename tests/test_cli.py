import errno
import json
import multiprocessing
import os
import random

import pytest
from hypothesis import given, strategies as st

from tridom import cli, domination
from tridom.cli import main
from tridom.graphs import graph6_read, graph6_write
from tridom.planar import Triangulation, planar_code_read, underlying_graph
from tridom.families import family, icosahedron
from tridom.generate import triangulations

from helpers import complete_graph, octahedron, planar_code_write, relabel, rows_from_csv


def test_generate_planar_code(tmp_path, capsys):
    out = tmp_path / "t5.plc"
    assert main(["generate", "--n", "5", "--out", str(out)]) == 0
    ts = planar_code_read(out.read_bytes())
    assert len(ts) == 1  # the unique 5-vertex triangulation
    assert ts[0].n == 5


def test_generate_graph6_lines(tmp_path):
    out = tmp_path / "t6.g6"
    assert main(["generate", "--n", "6", "--format", "graph6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    degs = sorted(tuple(sorted(graph6_read(l).degrees())) for l in lines)
    assert degs == [(3, 3, 4, 4, 5, 5), (4, 4, 4, 4, 4, 4)]


def test_generate_json(tmp_path):
    out = tmp_path / "t6.json"
    assert main(["generate", "--n", "6", "--format", "json", "--out", str(out)]) == 0
    text = out.read_text()
    payload = json.loads(text)
    assert len(payload) == 2
    assert all(set(d) == {"n", "rotations", "code"} for d in payload)
    assert text.splitlines() == ["["] + [json.dumps(d) + "," for d in payload[:-1]] + \
        [json.dumps(payload[-1]), "]"]


def test_generate_json_codes_nothing(monkeypatch, tmp_path):
    """The level is keyed by canonical code, so emitting it computes none."""
    calls = []

    def counted(t, _code=cli.canonical_code):
        calls.append(t.n)
        return _code(t)

    monkeypatch.setattr(cli, "canonical_code", counted)
    out = tmp_path / "t9.json"
    assert main(["generate", "--n", "9", "--format", "json", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 50
    assert calls == []


def test_solve_planar_code(tmp_path, capsys):
    inp = tmp_path / "oc.plc"
    inp.write_bytes(planar_code_write([octahedron()]))
    assert main(["solve", "--input", str(inp), "--gamma"]) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["gamma_c"] == 2
    assert rec["gamma"] == 2
    assert rec["n"] == 6


def test_solve_graph6(tmp_path, capsys):
    inp = tmp_path / "g.g6"
    inp.write_text("C~\nBw\n")
    assert main(["solve", "--format", "graph6", "--input", str(inp)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(l)["gamma_c"] for l in lines] == [1, 1]


def test_solve_reports_errors_per_graph(tmp_path, capsys):
    inp = tmp_path / "mixed.g6"
    inp.write_text("C~\nC?\n")  # K4 then the empty graph on 4 vertices
    assert main(["solve", "--format", "graph6", "--input", str(inp)]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0])["gamma_c"] == 1
    assert "disconnected" in json.loads(lines[1])["error"]


def test_solve_answers_each_graph6_line_before_a_bad_one(tmp_path, capsys):
    inp = tmp_path / "k4_then_garbage.g6"
    inp.write_text("C~\n!!\nBw\n")  # '!' is below the graph6 alphabet
    assert main(["solve", "--format", "graph6", "--input", str(inp)]) == 1
    first, bad, third = map(json.loads, capsys.readouterr().out.strip().splitlines())
    assert first == {"index": 0, "n": 4, "gamma_c": 1, "witness": [0],
                     "method": "subset-search"}
    assert bad["index"] == 1 and "malformed graph6" in bad["error"]
    assert third["index"] == 2 and third["gamma_c"] == 1


def test_solve_answers_planar_code_records_before_a_truncated_one(tmp_path, capsys):
    inp = tmp_path / "octahedron_then_truncated.plc"
    inp.write_bytes(planar_code_write([octahedron(), octahedron()])[:-3])
    assert main(["solve", "--input", str(inp)]) == 1
    first, bad = map(json.loads, capsys.readouterr().out.strip().splitlines())
    assert first["index"] == 0 and first["gamma_c"] == 2
    assert bad == {"index": 1, "error": "truncated planar_code stream"}


def test_solve_reports_a_failed_witness_check_per_record(tmp_path, capsys, monkeypatch):
    """An AssertionError from a solver's witness check fails its record only:
    the records before and after it are answered, no traceback is printed,
    and the exit status is 1."""
    def solver_failing_on_order_12(g, _solve=cli.exact_gamma_c):
        if g.n == 12:
            raise AssertionError("subset-search returned no connected dominating set of size 4")
        return _solve(g)

    monkeypatch.setattr(cli, "exact_gamma_c", solver_failing_on_order_12)
    inp = tmp_path / "oc_ico_oc.plc"
    inp.write_bytes(planar_code_write([octahedron(), icosahedron(), octahedron()]))
    assert main(["solve", "--input", str(inp)]) == 1
    out, err = capsys.readouterr()
    first, bad, third = map(json.loads, out.strip().splitlines())
    assert first["index"] == 0 and first["gamma_c"] == 2
    assert bad == {"index": 1, "error": "internal check failed: subset-search returned no"
                   " connected dominating set of size 4"}
    assert third["index"] == 2 and third["gamma_c"] == 2
    assert err == ""


def test_solve_reports_a_failed_graph6_witness_check_per_record(tmp_path, capsys, monkeypatch):
    """On graph6 input, exact_gamma_c and then exact_gamma re-check their
    witnesses: with closed neighbourhoods that make vertex 0 of the
    12-vertex graph look universal, its record fails with the check's
    message and the records around it are answered, first with gamma_c
    wrong, then, with gamma_c answered, with gamma wrong."""
    ico = underlying_graph(icosahedron())
    inp = tmp_path / "k4_ico_k4.g6"
    inp.write_text(f"C~\n{graph6_write(ico)}\nC~\n")
    answers = {g.n: cli.exact_gamma_c(g) for g in (complete_graph(4), ico)}
    monkeypatch.setattr(domination, "_closed",
                        lambda g, _closed=domination._closed:
                        [g.full] * g.n if g.n == 12 else _closed(g))
    for kind in ("connected dominating set", "dominating set"):
        assert main(["solve", "--format", "graph6", "--gamma", "--input", str(inp)]) == 1
        out, err = capsys.readouterr()
        first, bad, third = map(json.loads, out.strip().splitlines())
        assert first["index"] == 0 and first["gamma"] == 1
        assert bad == {"index": 1, "error": "internal check failed: subset-search returned no"
                       f" {kind} of size 1"}
        assert third["index"] == 2 and third["gamma"] == 1
        assert err == ""
        monkeypatch.setattr(cli, "exact_gamma_c", lambda g: answers[g.n])


def test_solve_prints_the_same_line_for_both_formats(tmp_path, capsys):
    """planar_code and graph6 copies of a graph take one route and print the
    same line.  The octahedron and the order-8 class have Δ = n-2, which the
    census answers by its degree shortcut; solve answers them by subset search."""
    near_apex = next(t for t in triangulations(8) if max(map(len, t.rot)) == 6)
    ts = [octahedron(), icosahedron(), family("A", 10), near_apex]
    plc = tmp_path / "four.plc"
    plc.write_bytes(planar_code_write(ts))
    g6 = tmp_path / "four.g6"
    g6.write_text("".join(graph6_write(underlying_graph(t)) + "\n" for t in ts))
    assert main(["solve", "--gamma", "--input", str(plc)]) == 0
    from_plc = capsys.readouterr().out
    assert main(["solve", "--gamma", "--format", "graph6", "--input", str(g6)]) == 0
    assert capsys.readouterr().out == from_plc
    assert [(rec["gamma_c"], rec["method"]) for rec in map(json.loads, from_plc.splitlines())] \
        == [(2, "subset-search"), (4, "subset-search"), (10, "frontier-dp"), (2, "subset-search")]


def test_solve_planar_code_reaches_the_frontier_dp(tmp_path, capsys):
    inp = tmp_path / "a14.plc"
    inp.write_bytes(planar_code_write([family("A", 14)]))
    assert main(["solve", "--input", str(inp)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert (rec["gamma_c"], rec["method"]) == (14, "frontier-dp")


def test_solve_graph6_of_a_relabelled_member_reaches_the_frontier_dp(tmp_path, capsys):
    """This relabelling of A30 is 62 wide in label order; solve still answers
    it by the DP, on the narrow order it finds."""
    a30 = family("A", 30)
    perm = list(range(a30.n))
    random.Random(7).shuffle(perm)
    inp = tmp_path / "a30.g6"
    inp.write_text(graph6_write(underlying_graph(relabel(a30, perm))) + "\n")
    assert main(["solve", "--format", "graph6", "--input", str(inp)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert (rec["gamma_c"], rec["method"]) == (30, "frontier-dp")


def test_solve_rejects_non_triangulation_and_answers_the_rest(tmp_path, capsys):
    inp = tmp_path / "bad_then_octahedron.plc"
    bad = Triangulation(4, ((1, 2, 3), (0, 2), (0, 1, 3), (0, 1, 2)))  # vertex 1 lacks 3
    inp.write_bytes(planar_code_write([bad, octahedron()]))
    assert main(["solve", "--input", str(inp)]) == 1
    first, second = map(json.loads, capsys.readouterr().out.strip().splitlines())
    assert first["index"] == 0 and "asymmetric adjacency" in first["error"]
    assert second["index"] == 1 and second["gamma_c"] == 2


def test_census_compare_clean_range(capsys):
    assert main(["census", "--n-min", "9", "--n-max", "10", "--compare"]) == 0
    out = capsys.readouterr().out
    assert "reference check: ok" in out


def test_census_compare_reports_known_order8_misprint(capsys):
    # the published table's order-8 row disagrees with the verified census;
    # the diff must surface it and the exit code must be nonzero
    assert main(["census", "--n-min", "8", "--n-max", "8", "--compare"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH n=8 gamma_c=1: got 4, reference 3" in out


def test_census_writes_csv_and_json(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "res.json"
    assert main(["census", "--n-min", "5", "--n-max", "7",
                 "--csv", str(csv_path), "--json", str(json_path)]) == 0
    from tridom.census import results_from_json
    rows = rows_from_csv(csv_path.read_text())
    assert [r.n for r in rows] == [5, 6, 7]
    rows2, records = results_from_json(json_path.read_text())
    assert rows2 == rows
    assert len(records) == 1 + 2 + 5


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "5", "--out"],
    ["family", "--which", "A", "--k", "5", "--out"],
    ["census", "--n-max", "5", "--csv"],
    ["census", "--n-max", "5", "--json"],
])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    """An output path in a missing directory exits 2 with one line naming
    the path and the reason, not a traceback."""
    path = tmp_path / "missing" / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {path}: No such file or directory" in err
    assert "Traceback" not in err


def test_census_checks_output_paths_before_the_census(capsys):
    """An unwritable --json path is reported before anything is generated,
    so no table is printed."""
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n-max", "6", "--json", "/nonexistent/x.json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "cannot write /nonexistent/x.json" in err
    assert out == ""


@pytest.mark.parametrize("bad, good", [("--json", "--csv"), ("--csv", "--json")])
def test_census_output_that_fails_leaves_the_other_as_it_was(tmp_path, capsys, bad, good):
    """When one output cannot be opened, the census exits 2 before any table
    line, and an existing file named by the other keeps its bytes."""
    kept = tmp_path / "old"
    kept.write_text("old content")
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n-max", "6", good, str(kept), bad, "/nonexistent/x"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "cannot write /nonexistent/x" in err and out == ""
    assert kept.read_text() == "old content"


def test_census_reads_its_input_before_it_opens_its_outputs(tmp_path, capsys):
    """--input X --csv X classifies X's classes, then writes their row over X."""
    corpus = tmp_path / "t7.plc"
    corpus.write_bytes(planar_code_write(triangulations(7)))
    assert main(["census", "--n-min", "7", "--n-max", "7",
                 "--input", str(corpus), "--csv", str(corpus)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:7] == ["7", "5", "3", "2", "0", "0", "0"]
    (back,) = rows_from_csv(corpus.read_text())
    assert (back.n, back.total, back.counts_by_gamma_c) == (7, 5, {1: 3, 2: 2})


@pytest.mark.parametrize("same", ["f", os.path.join("..", "out", ".", "f")])
def test_census_csv_and_json_must_name_different_files(tmp_path, capsys, same):
    """One file named by --csv and --json, directly or by another path, is a
    usage error before anything is opened or generated."""
    (tmp_path / "out").mkdir()
    path = str(tmp_path / "out" / "f")
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n-max", "6", "--csv", path,
              "--json", os.path.join(str(tmp_path / "out"), same)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "--csv and --json both name" in err and out == ""
    assert not os.path.exists(path)


def test_census_reports_other_os_errors_as_they_are(tmp_path, capsys, monkeypatch):
    """An OSError that is not a failure to write an output, here a pool that
    cannot start, propagates as itself and is not reported as 'cannot write'."""
    class NoPool:
        def Pool(self, processes):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing, "get_context", lambda: NoPool())
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(OSError) as exc:
        main(["census", "--n-max", "10", "--workers", "2", "--json", str(tmp_path / "r.json")])
    assert exc.value.errno == errno.EAGAIN
    assert "cannot write" not in capsys.readouterr().err


def test_census_table_and_csv_show_every_gamma_c(tmp_path, capsys):
    """Member 6 of family A has gamma_c = 6: the table and the CSV grow a
    sixth column for it instead of dropping its count."""
    member = tmp_path / "a6.plc"
    assert main(["family", "--which", "A", "--k", "6", "--out", str(member)]) == 0
    capsys.readouterr()
    assert main(["census", "--input", str(member), "--n-min", "18", "--n-max", "18",
                 "--csv", "-"]) == 0
    out, err = capsys.readouterr()
    (header, row), (csv_header, csv_row) = err.splitlines(), out.splitlines()
    assert header.split() == ["n", "total", "gc=1", "gc=2", "gc=3", "gc=4", "gc=5", "gc=6",
                              "seconds"]
    assert row.split()[:8] == ["18", "1", "0", "0", "0", "0", "0", "1"]
    assert csv_header == ("n,total,gamma_c_1,gamma_c_2,gamma_c_3,gamma_c_4,gamma_c_5,"
                          "gamma_c_6,wall_time_s")
    assert csv_row.startswith("18,1,0,0,0,0,0,1,")
    (back,) = rows_from_csv(f"{csv_header}\n{csv_row}\n")
    assert back.counts_by_gamma_c == {6: 1}


@pytest.mark.parametrize("output", ["--json", "--csv"])
def test_census_output_named_dash_has_stdout_to_itself(capsys, output):
    """With --json - or --csv -, stdout holds that output alone and loads;
    the table and the --compare lines go to stderr, and the exit code is the
    same."""
    from tridom.census import results_from_json
    assert main(["census", "--n-min", "8", "--n-max", "8", "--compare", output, "-"]) == 1
    out, err = capsys.readouterr()
    rows = results_from_json(out)[0] if output == "--json" else rows_from_csv(out)
    assert [(r.n, r.total, r.counts_by_gamma_c) for r in rows] == [(8, 14, {1: 4, 2: 10})]
    assert err.splitlines()[0].split()[:2] == ["n", "total"]
    assert "MISMATCH n=8 gamma_c=1: got 4, reference 3" in err
    assert "reference check: 2 mismatches" in err


def test_census_ingests_planar_code(tmp_path, capsys):
    corpus = tmp_path / "t7.plc"
    corpus.write_bytes(planar_code_write(triangulations(7)))
    assert main(["census", "--n-min", "7", "--n-max", "7",
                 "--input", str(corpus), "--compare"]) == 0
    assert "reference check: ok" in capsys.readouterr().out


def test_census_input_outside_range_is_an_error(tmp_path, capsys):
    corpus = tmp_path / "icosahedron.plc"
    corpus.write_bytes(planar_code_write([icosahedron()]))
    with pytest.raises(SystemExit) as exc:
        main(["census", "--input", str(corpus)])  # default range 5..11
    assert exc.value.code == 2
    assert "orders [12] outside" in capsys.readouterr().err
    assert main(["census", "--input", str(corpus), "--n-min", "12", "--n-max", "12"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:7] == ["12", "1", "0", "0", "0", "1", "0"]  # gamma_c = 4


def test_census_input_not_a_triangulation_is_an_error(tmp_path, capsys):
    corpus = tmp_path / "square.plc"
    corpus.write_bytes(planar_code_write([Triangulation(4, ((1, 3), (0, 2), (1, 3), (0, 2)))]))
    with pytest.raises(SystemExit) as exc:
        main(["census", "--input", str(corpus), "--n-min", "4"])
    assert exc.value.code == 2
    assert "not a triangulation" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["census", "--n-max", "15"], "--n-max must be in 4..14"),
    (["census", "--n-min", "9", "--n-max", "8"], "--n-min 9 exceeds --n-max 8"),
    (["verify", "--n-max", "15"], "--n-max must be in 4..14"),
    (["extremal", "--where", "n >"], "--where is not an expression"),
    (["census", "--input", "no/such/file.plc"], "cannot read no/such/file.plc"),
    (["solve", "--input", "no/such/file.plc"], "cannot read no/such/file.plc"),
    (["extremal", "--n-max", "5", "--where", "9**9**9 > n"], "got Pow"),
    (["extremal", "--n-max", "5", "--where", "n % 0 == 1"], "--where fails at n=5"),
    (["extremal", "--n-max", "5", "--where", " + ".join(["n"] * 3000)], "nested too deeply"),
    (["family", "--which", "chain", "--k", "13"], "planar_code supports orders below 128"),
    (["family", "--which", "A", "--k", "2"], "families A and B need k >= 3"),
    (["family", "--which", "chain", "--k", "1"], "chains need k >= 2"),
    (["generate", "--n", "3"], "--n must be in 4..14, got 3"),
    (["generate", "--n", "15"], "--n must be in 4..14, got 15"),
    (["census", "--n-max", "5", "--workers", "0"], "--workers must be at least 1, got 0"),
    (["verify", "--n-max", "5", "--workers", "-2"], "--workers must be at least 1, got -2"),
    (["extremal", "--n-max", "5", "--workers", "0", "--where", "n > 0"], "--workers must be"),
])
def test_bad_arguments_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_family_values_alone_prints_one_json_line(capsys):
    """Without --out, --values writes no member, so a 132-vertex chain solves."""
    assert main(["family", "--which", "chain", "--k", "13", "--values"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"kind": "chain", "k": 13, "n": 132,
                                    "gamma_c": 34, "gamma": 14}


def test_family_json_past_order_255_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "chain26.json"
    with pytest.raises(SystemExit) as exc:
        main(["family", "--which", "chain", "--k", "26", "--format", "json", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "canonical codes support orders below 256, got 262" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("fmt, message", [
    ("planar_code", "planar_code supports orders below 128, got 132"),
    ("graph6", "order 132 exceeds 128"),
])
def test_family_member_too_large_for_its_format_leaves_no_file(tmp_path, capsys, fmt, message):
    out = tmp_path / "chain13"
    with pytest.raises(SystemExit) as exc:
        main(["family", "--which", "chain", "--k", "13", "--format", fmt, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_family_chain_values(tmp_path, capsys):
    out = tmp_path / "chain2.plc"
    assert main(["family", "--which", "chain", "--k", "2",
                 "--out", str(out), "--values"]) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info == {"kind": "chain", "k": 2, "n": 22, "gamma_c": 6, "gamma": 3}
    (t,) = planar_code_read(out.read_bytes())
    assert t.n == 22


def test_family_a_export(tmp_path):
    out = tmp_path / "a4.g6"
    assert main(["family", "--which", "A", "--k", "4", "--format", "graph6",
                 "--out", str(out)]) == 0
    g = graph6_read(out.read_text().strip())
    assert g.n == 12


def test_verify_small_range(capsys):
    assert main(["verify", "--n-min", "5", "--n-max", "8", "--cross-max-n", "8"]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_extremal_where(capsys):
    assert main(["extremal", "--n-min", "5", "--n-max", "9",
                 "--where", "gamma_c != gamma"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    rec = json.loads(out[0])
    assert rec["n"] == 9 and rec["gamma_c"] == 3 and rec["gamma"] == 2


def test_extremal_prints_matches_in_n_and_code_order(capsys):
    """The 14 classes of orders 5..10 with gamma_c = 3 are printed by (n, code)."""
    assert main(["extremal", "--n-max", "10", "--where", "gamma_c == 3"]) == 0
    out, err = capsys.readouterr()
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in recs] == [9] + [10] * 13
    keys = [(r["n"], bytes.fromhex(r["code"])) for r in recs]
    assert keys == sorted(keys) and len(set(keys)) == 14
    assert "14 graphs match" in err


def test_extremal_rejects_unknown_names():
    for where in ("__import__('os')", "[x.bit_length() for x in [n]][0] > 0"):
        with pytest.raises(SystemExit) as exc:
            main(["extremal", "--n-max", "6", "--where", where])
        assert exc.value.code == 2


# well-formed expressions over allowed and forbidden names, constants and operators
_where_exprs = st.recursive(
    st.sampled_from(["n", "gamma", "gamma_c", "Delta", "x", "0", "3", "1.5", "'s'", "True"]),
    lambda e: st.tuples(e, st.sampled_from(["+", "-", "*", "/", "//", "%", "**", "<<", "==", "<",
                                            ">=", "in", "is", "and", "or", "if n else"]), e)
    .map(lambda t: f"({t[0]} {t[1]} {t[2]})")
    | st.tuples(st.sampled_from(["-", "not ", "~", "abs(", "lambda: ", "[", "("]), e)
    .map(lambda t: t[0] + t[1] + {"abs(": ")", "[": "]", "(": ",)"}.get(t[0], "")),
    max_leaves=8)


@given(st.text(alphabet="nDgamtcel_0123456789 +-*/%<>=!~&|^()[].,:'\"aodrsif", max_size=40)
       | _where_exprs)
def test_where_rejects_any_bad_expression_with_usage_error(text):
    try:
        cli._where_code(text)
    except cli.UsageError:
        pass
