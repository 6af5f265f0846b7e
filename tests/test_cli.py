from __future__ import annotations

import json
import shutil
import subprocess

import pytest

from perfcol.cli import main
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


@pytest.mark.parametrize("value", ["x", "-3", "0"])
def test_bad_threads_environment_is_domain_error(capsys, monkeypatch, value):
    monkeypatch.setenv("PERFCOL_THREADS", value)
    code, out, err = run(capsys, "enumerate", "-m", "2", "-k", "3")
    assert code == 1 and out == ""
    assert err == ("error: PERFCOL_THREADS must be a positive integer, "
                   f"got {value!r}\n")


@pytest.mark.parametrize("argv", [
    ("survey", "--platonic", "tetrahedron", "--colors", "2"),
    ("reproduce-paper",),
])
def test_threads_flag_overrides_bad_environment(capsys, monkeypatch, argv):
    want = run(capsys, *argv, "--threads", "1")
    assert want[0] == 0
    monkeypatch.setenv("PERFCOL_THREADS", "x")
    assert run(capsys, *argv, "--threads", "1") == want


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


def test_enumerate_notice_gives_the_scan_size(capsys):
    # binom(1+5-1, 5-1)^5 = 5^5 row-sum matrices, stated before the scan
    code, out, err = run(capsys, "enumerate", "-m", "5", "-k", "1",
                         "--count-only")
    assert (code, out) == (0, "0\n")
    assert "unvalidated" in err and "3125" in err


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


# ------------------------------------------------------------- entry point

def test_console_script_is_installed_and_deterministic():
    exe = shutil.which("perfcol")
    assert exe, "console script missing; install with pip install -e ."
    cmd = [exe, "enumerate", "-m", "3", "-k", "3"]
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(json.loads(first.stdout)["survivors"]) == 18
