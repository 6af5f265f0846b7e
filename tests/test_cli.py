from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import perfcol
from perfcol.cam import (
    class_ratios,
    conjugate,
    is_color_connected,
    is_consistent,
    is_weakly_symmetric,
    parse_matrix,
)
from perfcol.cli import main
from perfcol.enumeration import passes_filters
from perfcol.graphs import parse_graph, platonic, verify_coloring


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------- enumerate

def test_enumerate_count_only(capsys):
    code, out, err = run(capsys, "enumerate", "--colors", "2", "--degree", "3",
                         "--count-only")
    assert (code, out) == (0, "6\n")
    assert err == ""


def test_enumerate_json_shape(capsys):
    code, out, _ = run(capsys, "enumerate", "-m", "2", "-k", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 2 and doc["k"] == 4
    assert doc["raw_count"] == 25
    assert len(doc["survivors"]) == 10
    assert doc["survivors"][0] == [[0, 4], [1, 3]]


def test_enumerate_count_matches_json_length(capsys):
    _, count_out, _ = run(capsys, "enumerate", "-m", "3", "-k", "3",
                          "--count-only")
    _, json_out, _ = run(capsys, "enumerate", "-m", "3", "-k", "3", "--json")
    assert int(count_out) == len(json.loads(json_out)["survivors"])


def test_enumerate_text_format(capsys):
    code, out, _ = run(capsys, "enumerate", "-m", "2", "-k", "3", "--text")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "# m=2 k=3: 6 of 16"
    assert lines[1] == "0 3 | 1 2"
    assert len(lines) == 7


def test_enumerate_rejects_zero_colors():
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--colors", "0", "--degree", "3"])
    assert err.value.code == 2


def test_enumerate_rejects_garbage_degree():
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--colors", "2", "--degree", "three"])
    assert err.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("flag", ["-m", "-k", "--threads"])
@pytest.mark.parametrize("value,message", [
    # ASCII digits only: int() reads the first four as numbers
    ("\u0662", "'\u0662' is not an integer"),
    ("1_0", "'1_0' is not an integer"),
    ("+3", "'+3' is not an integer"),
    (" 4 ", "' 4 ' is not an integer"),
    ("-", "'-' is not an integer"),
    ("-3", "must be a positive integer"),
    pytest.param("1" * 5000, f"'{'1' * 5000}' is not an integer",
                 id="past-the-int-digit-limit"),
])
def test_integer_flags_take_ascii_digits_only(capsys, flag, value, message):
    options = {"-m": "2", "-k": "3", "--threads": "1", flag: value}
    argv = [word for pair in options.items() for word in pair]
    with pytest.raises(SystemExit) as err:
        main(["enumerate", *argv, "--count-only"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f": {message}\n")


@pytest.mark.parametrize("value", ["x", "-3", "0", "\u0662", "1_0", "+3", " 4 "])
def test_bad_threads_environment_is_domain_error(capsys, monkeypatch, value):
    monkeypatch.setenv("PERFCOL_THREADS", value)
    code, out, err = run(capsys, "enumerate", "-m", "2", "-k", "3")
    assert code == 1 and out == ""
    assert err == ("error: PERFCOL_THREADS must be a positive integer, "
                   f"got {value!r}\n")


def test_bad_threads_environment_stops_before_any_work(capsys, monkeypatch):
    # the variable is read once, before the subcommand prints its range note
    monkeypatch.setenv("PERFCOL_THREADS", "0")
    code, out, err = run(capsys, "enumerate", "-m", "5", "-k", "3")
    assert code == 1 and out == ""
    assert err == ("error: PERFCOL_THREADS must be a positive integer, "
                   "got '0'\n")


@pytest.mark.parametrize("argv", [
    ("survey", "--platonic", "tetrahedron", "--colors", "2"),
    ("reproduce-paper",),
    ("enumerate", "-m", "2", "-k", "3"),
])
def test_threads_flag_overrides_bad_environment(capsys, monkeypatch, argv):
    want = run(capsys, *argv, "--threads", "1")
    assert want[0] == 0
    monkeypatch.setenv("PERFCOL_THREADS", "x")
    assert run(capsys, *argv, "--threads", "1") == want
    # the help names the variable that stands in for an absent flag
    with pytest.raises(SystemExit) as err:
        main([argv[0], "--help"])
    assert err.value.code == 0
    assert "PERFCOL_THREADS" in capsys.readouterr().out


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "enumerate", "-m", "2", "-k", "3",
                       "-o", str(target))
    assert code == 0 and out == ""
    assert len(json.loads(target.read_text())["survivors"]) == 6


# ------------------------------------------------------------------ filter

def test_filter_valid_matrix(capsys):
    code, out, err = run(capsys, "filter", "--matrix", "[[0,3],[1,2]]")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["weakly_symmetric"] and doc["consistent"]
    assert doc["color_connected"] and doc["passes_filters"]
    assert doc["ratios"] == [1, 3]
    assert doc["row_sum"] == 3


def test_filter_invalid_matrix_still_reports(capsys):
    code, out, _ = run(capsys, "filter", "--matrix", "[[0,3],[0,3]]")
    assert code == 0
    doc = json.loads(out)
    assert not doc["weakly_symmetric"]
    assert doc["ratios"] is None and not doc["passes_filters"]


def test_filter_requires_a_common_row_sum(capsys):
    code, out, _ = run(capsys, "filter", "--matrix", "[[0,2],[1,2]]")
    assert code == 0
    doc = json.loads(out)
    assert doc["row_sum"] is None
    assert doc["passes_filters"] is False


def test_filter_with_graph(capsys):
    code, out, _ = run(capsys, "filter", "--matrix", "[[0,3],[1,2]]",
                       "--graph", "platonic:tetrahedron")
    doc = json.loads(out)
    assert code == 0
    assert doc["graph_n"] == 4
    assert doc["sizes"] == [1, 3]
    assert doc["spectral"] is True


def test_filter_one_sided_pair_beside_mutual_pairs(capsys):
    # the mutual pairs alone are connected and consistent (ratios 1:1:1),
    # but a_02 > 0 = a_20, so there are no ratios and no sizes
    code, out, _ = run(capsys, "filter", "--graph", "platonic:cube",
                       "--matrix", "[[0,1,2],[1,1,1],[0,1,2]]")
    doc = json.loads(out)
    assert code == 0
    assert not doc["weakly_symmetric"]
    assert doc["ratios"] is None and doc["sizes"] is None
    assert doc["passes_filters"] is False


FILTER_CASES = {
    "two-color": "[[0,3],[1,2]]",
    "tied": "[[1,3],[3,1]]",
    "three-color": "[[0,1,2],[1,0,2],[1,1,1]]",
    "three-color-unsorted": "[[0,2,1],[1,1,1],[1,2,0]]",
    "one-sided-pair": "[[0,1,2],[1,1,1],[0,1,2]]",
    "disconnected": "[[3,0],[0,3]]",
    "unsorted-ratios": "[[2,1],[3,0]]",
    "no-row-sum": "[[0,2],[1,2]]",
}


@pytest.mark.parametrize("text", FILTER_CASES.values(), ids=FILTER_CASES.keys())
def test_filter_report_equals_the_public_predicates(capsys, text):
    code, out, _ = run(capsys, "filter", "--json", "--matrix", text)
    A = parse_matrix(text)
    try:
        ratios = list(class_ratios(A).numerators)
    except ValueError:
        ratios = None
    assert code == 0
    assert json.loads(out) == {
        "matrix": json.loads(text),
        "m": A.m,
        "row_sum": A.row_sum,
        "weakly_symmetric": is_weakly_symmetric(A),
        "consistent": is_consistent(A),
        "color_connected": is_color_connected(A),
        "ratios": ratios,
        "passes_filters": passes_filters(A),
    }


def test_filter_negative_entry_is_rejected_like_the_predicate(capsys):
    # the kernel rejects a negative entry; the CLI stops at the parser
    assert not passes_filters(((3, 2), (-1, 6)))
    code, out, err = run(capsys, "filter", "--json",
                         "--matrix", "[[3,2],[-1,6]]")
    assert (code, out) == (1, "")
    assert err == "error: matrix entries must be nonnegative\n"


def test_filter_text_format(capsys):
    code, out, _ = run(capsys, "filter", "--matrix", "[[1,3],[3,1]]",
                       "--graph", "platonic:octahedron", "--text")
    assert code == 0
    assert "matrix: 1 3 | 3 1" in out
    assert "passes_filters: yes" in out
    assert "ratios: 1:1" in out
    assert "spectral: yes" in out


def test_filter_malformed_matrix_is_domain_error(capsys):
    code, out, err = run(capsys, "filter", "--matrix", "[[0,3],[1]]")
    assert code == 1 and out == ""
    assert err.startswith("error:")


# ----------------------------------------------------------------- witness

def test_witness_json_round_trip(capsys):
    code, out, _ = run(capsys, "witness", "--matrix", "[[0,3],[1,2]]")
    assert code == 0
    doc = json.loads(out)
    assert doc["sizes"] == [1, 3]
    from perfcol.graphs import Graph
    g = Graph.from_edges(doc["n"], [tuple(e) for e in doc["edges"]])
    back = verify_coloring(g, doc["coloring"])
    assert back is not None and back.entries == ((0, 3), (1, 2))


def test_witness_text_parses_back(capsys):
    code, out, _ = run(capsys, "witness", "--matrix", "[[0,5],[5,0]]", "--text")
    assert code == 0
    g = parse_graph(out)
    assert g.n == 10 and g.regularity() == 5


def test_witness_dot(capsys):
    code, out, _ = run(capsys, "witness", "--matrix", "[[2,1],[1,2]]", "--dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert 'fillcolor="white"' in out and 'fillcolor="black"' in out


def test_witness_invalid_matrix_fails(capsys):
    code, _, err = run(capsys, "witness", "--matrix", "[[0,3],[0,3]]")
    assert code == 1 and "error:" in err


# ------------------------------------------------------------------ search

def test_search_octahedron_exclusion(capsys):
    code, out, _ = run(capsys, "search", "--graph", "platonic:octahedron",
                       "--matrix", "[[1,3],[3,1]]")
    assert code == 0
    doc = json.loads(out)
    assert doc["realizable"] is False and doc["witness"] is None


def test_search_all_counts(capsys):
    code, out, _ = run(capsys, "search", "--graph", "platonic:tetrahedron",
                       "--matrix", "[[0,3],[1,2]]", "--all")
    doc = json.loads(out)
    assert code == 0
    assert doc["realizable"] is True and doc["labeled_count"] == 4
    assert verify_coloring(platonic("tetrahedron"), doc["witness"]) is not None


def test_search_text_exclusion_has_no_witness_line(capsys):
    code, out, _ = run(capsys, "search", "--graph", "platonic:octahedron",
                       "--matrix", "[[1,3],[3,1]]", "--text")
    assert code == 0
    assert out == "matrix: 1 3 | 3 1\nrealizable: no\n"


def test_search_text_all_counts(capsys):
    code, out, _ = run(capsys, "search", "--graph", "platonic:tetrahedron",
                       "--matrix", "[[0,3],[1,2]]", "--all", "--text")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["matrix: 0 3 | 1 2", "realizable: yes",
                         "labeled_colorings: 4"]
    assert len(lines) == 4 and lines[3].startswith("witness: ")
    witness = [int(c) for c in lines[3].split()[1:]]
    assert verify_coloring(platonic("tetrahedron"), witness) is not None


def test_search_dot_needs_witness(capsys):
    code, out, err = run(capsys, "search", "--graph", "platonic:octahedron",
                         "--matrix", "[[1,3],[3,1]]", "--dot")
    assert code == 1 and out == ""
    assert "no witness" in err


def test_search_dot_on_realizable(capsys):
    code, out, _ = run(capsys, "search", "--graph", "platonic:octahedron",
                       "--matrix", "[[0,4],[2,2]]", "--dot")
    assert code == 0 and out.startswith("graph G {")


def test_search_reads_edge_list_file(capsys, tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text("6\n" + "".join(f"{v} {(v + 1) % 6}\n" for v in range(6)))
    code, out, _ = run(capsys, "search", "--graph", str(path),
                       "--matrix", "[[0,2],[1,1]]")
    assert code == 0 and json.loads(out)["realizable"] is True


def test_search_reads_json_graph_file(capsys, tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({
        "n": 4, "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)]}))
    code, out, _ = run(capsys, "search", "--graph", str(path),
                       "--matrix", "[[1,2],[2,1]]", "--all")
    assert code == 0 and json.loads(out)["labeled_count"] == 6


def test_search_large_graph_file(capsys, tmp_path):
    # a 3000-cycle: one search level per vertex, past the recursion limit
    path = tmp_path / "c3000.json"
    path.write_text(json.dumps({
        "n": 3000, "edges": [[v, (v + 1) % 3000] for v in range(3000)]}))
    code, out, _ = run(capsys, "search", "--graph", str(path),
                       "--matrix", "[[2]]")
    assert code == 0 and json.loads(out)["realizable"] is True


@pytest.mark.parametrize("doc", [
    {"n": "a", "edges": []},
    {"n": 3, "edges": [0]},
    {"n": 3, "edges": [[0, 1, 2]]},
])
def test_search_malformed_json_graph_is_domain_error(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "search", "--graph", str(path),
                         "--matrix", "[[0,3],[1,2]]")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["search", "filter"])
@pytest.mark.parametrize("text", [
    "200000000\n0 1\n",
    '{"n": 200000000, "edges": [[0, 1]]}',
], ids=["edge-list", "json"])
def test_huge_declared_vertex_count_is_domain_error(tmp_path, command, text):
    # 2e8 neighbor lists need about 13 GB; the child may map 128 MiB
    path = tmp_path / "huge"
    path.write_text(text)
    limit = 128 << 20
    proc = subprocess.run(
        [sys.executable, "-m", "perfcol.cli", command, "--graph", str(path),
         "--matrix", "[[0,1],[1,0]]"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(perfcol.__file__).parents[1])),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["enumerate", "-m", "99999999999999999999", "-k", "1", "--count-only"],
    ["enumerate", "-m", "3", "-k", "99999999999999999999", "--count-only"],
    ["enumerate", "-m", "2", "-k", "9223372036854775807", "--count-only"],
    ["survey", "--platonic", "cube", "-m", "99999999999999999999"],
], ids=["enumerate-m", "enumerate-k", "enumerate-k-max-ssize", "survey-m"])
def test_oversized_colors_or_degree_is_one_error_line(capsys, argv):
    # the composition table cannot be indexed past a machine word, which
    # is known before anything is allocated
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in err


def test_search_missing_graph_file(capsys):
    code, _, err = run(capsys, "search", "--graph", "/no/such/file",
                       "--matrix", "[[0,3],[1,2]]")
    assert code == 1 and "error:" in err


def test_search_unknown_platonic_name(capsys):
    code, _, err = run(capsys, "search", "--graph", "platonic:teapot",
                       "--matrix", "[[0,3],[1,2]]")
    assert code == 1 and "unknown Platonic solid" in err


# ------------------------------------------------------------------ survey

def test_survey_octahedron(capsys):
    code, out, _ = run(capsys, "survey", "--platonic", "octahedron",
                       "--colors", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6 and doc["degree"] == 4
    assert len(doc["candidates"]) == 3
    flags = {tuple(map(tuple, c["matrix"])): c["realizable"]
             for c in doc["candidates"]}
    assert flags[((1, 3), (3, 1))] is False
    assert sum(flags.values()) == 2


def test_survey_text(capsys):
    code, out, _ = run(capsys, "survey", "--platonic", "tetrahedron",
                       "--colors", "3", "--text")
    assert code == 0
    assert "1 candidates" in out
    assert "->  realizable" in out


def test_survey_writes_dot_witnesses(capsys, tmp_path):
    code, _, _ = run(capsys, "survey", "--platonic", "octahedron",
                     "--colors", "2", "--dot-dir", str(tmp_path))
    assert code == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    # candidate 1 is the unrealizable ((1,3),(3,1)); 0 and 2 get drawn
    assert files == ["octahedron_2col_0.dot", "octahedron_2col_2.dot"]
    assert all((tmp_path / f).read_text().startswith("graph G {")
               for f in files)


def test_survey_rejects_unknown_solid():
    with pytest.raises(SystemExit) as err:
        main(["survey", "--platonic", "teapot", "--colors", "2"])
    assert err.value.code == 2


# ------------------------------------------------------------ range notice

def test_range_notice_on_stderr(capsys):
    code, _, err = run(capsys, "filter", "--matrix", "[[0,6],[1,5]]")
    assert code == 0
    assert "unvalidated" in err
    code, _, err = run(capsys, "filter", "--matrix", "[[0,5],[1,4]]")
    assert code == 0 and err == ""


def test_enumerate_notice_states_only_the_range(capsys):
    # the size of the row-sum space is the output's raw_count, not a note
    code, out, err = run(capsys, "enumerate", "-m", "5", "-k", "1",
                         "--count-only")
    assert (code, out) == (0, "0\n")
    assert err == ("note: outside the validated range (m <= 4, k <= 5); "
                   "results are unvalidated\n")


# -------------------------------------------------------- reproduce-paper

def test_reproduce_paper_all_pass(capsys):
    code, out, _ = run(capsys, "reproduce-paper")
    assert code == 0
    assert "FAIL" not in out
    lines = out.strip().splitlines()
    assert lines[-1].startswith("OK: ")
    assert all(line.startswith("PASS") for line in lines[:-1])
    # 9 counts + 6 golden lists + 15 surveys + 5 polynomials + 1 bound
    assert len(lines) - 1 == 36


def test_reproduce_paper_reports_a_wrong_count(capsys, monkeypatch):
    # each count, list and survey check fails alone, naming its artifact
    import copy
    import perfcol.cli as cli
    cases = [
        ("survivor_counts", "survivor count m=2 k=3:",
         lambda d: d["2"].update({"3": d["2"]["3"] + 1})),
        # the dedup still matches: only the length guard sees a duplicate
        ("two_color_matrices", "two-color list k=3:",
         lambda d: d["3"].append(conjugate(d["3"][0], [1, 0]).entries)),
        ("three_color_matrices", "three-color list k=4:",
         lambda d: d["4"].pop()),
        ("platonic_candidates", "octahedron 2-color survey:",
         lambda d: d["octahedron"]["2"]["unrealizable"].clear()),
    ]
    for loader, artifact, change in cases:
        data = copy.deepcopy(getattr(cli, loader)())
        change(data)
        with monkeypatch.context() as patch:
            patch.setattr(cli, loader, lambda data=data: data)
            code, out, _ = run(capsys, "reproduce-paper")
        assert code == 1, loader
        lines = out.strip().splitlines()
        fails = [line for line in lines if line.startswith("FAIL ")]
        assert len(fails) == 1 and fails[0].startswith(f"FAIL  {artifact}")
        assert lines[-1] == "FAILED: 35 of 36 artifacts reproduced"


# --------------------------------------------------------------- byte pins

# Each command's exit status, the sha256 of its stdout, its exact stderr
# and the sha256 of each file it writes under {tmp}/out.  "{tmp}" stands
# for a fresh directory holding the graph files c6.txt and k4.json.
EMPTY = hashlib.sha256(b"").hexdigest()
NOTE = ("note: outside the validated range (m <= 4, k <= 5); "
        "results are unvalidated\n")
CLI_PINS = [
    (("reproduce-paper", "--threads", "1"), 0,
     "0d99063c2ddbb909a845910bf9be1ff183e64a7fe227502f37cd8facd713c30b",
     "", {}),
    (("enumerate", "-m", "3", "-k", "3"), 0,
     "88e8afcb3f6803d595439def342a0b8575916f7026d85999fb93b7a8a2dd0b6f",
     "", {}),
    (("enumerate", "-m", "3", "-k", "3", "--text"), 0,
     "5787632add844dcc4a915ceb83cf35dbcb70de7514ecbb5396e97a4e4ebbc65d",
     "", {}),
    (("enumerate", "-m", "3", "-k", "3", "--count-only"), 0,
     "7ee29791fc17e986b97128845622b077fb45e349fdb80523fac9dba879b4ad60",
     "", {}),
    (("enumerate", "-m", "2", "-k", "4", "-o", "{tmp}/out/cams.json"), 0,
     EMPTY, "",
     {"cams.json":
      "bfa93b0727b9820b65431ccf352a92ec0bc6a527fc5952bbc1185d3daa059d3c"}),
    (("filter", "--matrix", "[[0,3],[1,2]]"), 0,
     "4ca872e8652ef7c72e39d1bb50cde33da37d44c5ee929b4cd45dd9b6825ace46",
     "", {}),
    (("filter", "--matrix", "[[0,3],[1,2]]", "--text"), 0,
     "515b7f2c243e4cc12bd944d2bad30760e3139fa3e0a2bfe47804f0a102414e26",
     "", {}),
    (("filter", "--matrix", "[[1,3],[3,1]]",
      "--graph", "platonic:octahedron"), 0,
     "bc1365e92a61cbe01a68369496024e4346d7f6601b7755460a3ef1ed31baafbf",
     "", {}),
    (("filter", "--matrix", "[[1,3],[3,1]]",
      "--graph", "platonic:octahedron", "--text"), 0,
     "9611abae745a9a34fbe86141f0879d71bd50df8619d8ea3bb9d177d5cdba44d0",
     "", {}),
    (("filter", "--matrix", "[[0,3],[1]]"), 1,
     EMPTY, "error: matrix must be square\n", {}),
    (("filter", "--matrix", "[[0,6],[1,5]]", "--text"), 0,
     "2a3a26ccb8a3544f53c2df860184ce44b0a7cf5fc2c4a7455a91d198c283e951",
     NOTE, {}),
    (("witness", "--matrix", "[[0,3],[1,2]]"), 0,
     "1dfcce3e44ba4446b5a5770bb92f8bd7977a4472c832292604047681256c2804",
     "", {}),
    (("witness", "--matrix", "[[0,3],[1,2]]", "--text"), 0,
     "9283576e8bd37dd15ba37180aa08fe554ca3439a1e7996fb4e184ae4ca755a56",
     "", {}),
    (("witness", "--matrix", "[[0,3],[1,2]]", "--dot"), 0,
     "f6a5a231d5dcf3979bc6168a3c474a2cc7de496b45bcddf49ca8773ceb2b9652",
     "", {}),
    (("witness", "--matrix", "[[0,3],[1,2]]",
      "-o", "{tmp}/out/missing/w.json"), 1,
     EMPTY, "error: [Errno 2] No such file or directory: "
            "'{tmp}/out/missing/w.json'\n", {}),
    (("search", "--graph", "platonic:octahedron", "--matrix", "[[1,3],[3,1]]",
      "--all"), 0,
     "1677b8759af7eb5a61a9f4d6f434e4ad07d335c176ae3b32941fee2b9bad18a4",
     "", {}),
    (("search", "--graph", "platonic:octahedron", "--matrix", "[[0,4],[2,2]]",
      "--all", "--text"), 0,
     "f29b12e24413e9a4779dff0f8bef5ff804b45cabbdace615b730c1d0ff6b2a71",
     "", {}),
    (("search", "--graph", "platonic:octahedron", "--matrix", "[[0,4],[2,2]]",
      "--dot"), 0,
     "3b2bdd81b6ea11c0ae3cd42e1bfbd389137c130274186a51d49ba6b4a65446f4",
     "", {}),
    (("search", "--graph", "platonic:octahedron", "--matrix", "[[1,3],[3,1]]",
      "--dot"), 1,
     EMPTY, "error: no witness coloring to draw\n", {}),
    (("search", "--graph", "platonic:cube", "--matrix", "[[0,3],[1,2]]"), 0,
     "faa249ef63fd40068f3c5fa782be903badbd381afdac98bcede5e180c0e0d961",
     "", {}),
    (("search", "--graph", "platonic:cube", "--matrix", "[[0,3],[1,2]]",
      "--text"), 0,
     "fdd3d7c55f5f2edf70999fd89c5b1f9e5996e36ad1a9e31941f75ee815440c67",
     "", {}),
    (("search", "--graph", "{tmp}/c6.txt", "--matrix", "[[0,2],[1,1]]"), 0,
     "2cb04ba9ea7b60513449e305e56e0757f267c3bb672fb9e344a8bd11175d1024",
     "", {}),
    (("search", "--graph", "{tmp}/k4.json", "--matrix", "[[1,2],[2,1]]",
      "--all"), 0,
     "ff4d65c14726ce7f7c6ec4960585d3ed14c6105f95152bb221e3ce35a3a69b53",
     "", {}),
    (("survey", "--platonic", "octahedron", "--colors", "2"), 0,
     "2754b67dd49ee527496ec44df2b7aa8ec1353914a6f3c0792a30eb3a14710334",
     "", {}),
    (("survey", "--platonic", "cube", "--colors", "3", "--text"), 0,
     "561c39b04561da90a3012445d15a308ea66761c55f85248d155e4b878cdacce3",
     "", {}),
    (("survey", "--platonic", "octahedron", "--colors", "2",
      "--dot-dir", "{tmp}/out/dot"), 0,
     "2754b67dd49ee527496ec44df2b7aa8ec1353914a6f3c0792a30eb3a14710334", "",
     {"dot/octahedron_2col_0.dot":
      "3b2bdd81b6ea11c0ae3cd42e1bfbd389137c130274186a51d49ba6b4a65446f4",
      "dot/octahedron_2col_2.dot":
      "3939b303bce9a209d164978576b3323c622ee690695b85c0a455091687e272d7"}),
]


@pytest.mark.parametrize("argv, code, out_sha, err, files", CLI_PINS,
                         ids=[" ".join(pin[0]) for pin in CLI_PINS])
def test_cli_bytes_are_pinned(capsys, monkeypatch, tmp_path,
                              argv, code, out_sha, err, files):
    monkeypatch.delenv("PERFCOL_THREADS", raising=False)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (tmp_path / "c6.txt").write_text(
        "6\n" + "".join(f"{v} {(v + 1) % 6}\n" for v in range(6)))
    (tmp_path / "k4.json").write_text(json.dumps({
        "n": 4, "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)]}))
    got_code, out, got_err = run(
        capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    written = {path.relative_to(out_dir).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out_dir.rglob("*") if path.is_file()}
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha
    assert got_err.replace(str(tmp_path), "{tmp}") == err
    assert written == files


# ------------------------------------------------------------- entry point

def test_python_m_perfcol_runs_the_cli(capsys):
    # works from a checkout: no console script, only PYTHONPATH=src
    env = dict(os.environ, PYTHONPATH=str(Path(perfcol.__file__).parents[1]))
    argv = ["enumerate", "-m", "2", "-k", "3"]
    proc = subprocess.run([sys.executable, "-m", "perfcol", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (0, proc.stdout, "") == run(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "perfcol", *argv,
                           "--no-such-flag"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: perfcol ")
    assert "unrecognized arguments: --no-such-flag" in proc.stderr


def test_console_script_is_installed_and_deterministic():
    exe = shutil.which("perfcol")
    assert exe, "console script missing; install with pip install -e ."
    cmd = [exe, "enumerate", "-m", "3", "-k", "3"]
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(json.loads(first.stdout)["survivors"]) == 18
