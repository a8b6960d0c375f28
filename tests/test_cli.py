"""The command-line surface, driven in process through main()."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chainmail
from chainmail import verify
from chainmail.category import k_chainmail
from chainmail.cli import main
from chainmail.mails import d_lattice
from chainmail.poset import from_json_dict, is_isomorphic, to_json_dict
from chainmail.sources import (
    Graph,
    chainmail_from_graph,
    connectivity_space_from_json_dict,
    powerset_lattice,
)


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def cx_file(tmp_path, counterexample):
    return write_json(tmp_path / "cx.json",
                      to_json_dict(counterexample.poset))


def test_check_counterexample(cx_file, capsys):
    assert main(["check", cx_file]) == 0
    assert capsys.readouterr().out.strip() == \
        "poset: yes; lattice: no (witness {3,4}); chainmail: yes"


def test_check_powerset(tmp_path, capsys):
    f = write_json(tmp_path / "b2.json",
                   to_json_dict(powerset_lattice(2).poset))
    assert main(["check", f]) == 0
    assert capsys.readouterr().out.strip() == \
        "poset: yes; lattice: yes; chainmail: yes"


def test_check_rejects_cycles(tmp_path, capsys):
    f = write_json(tmp_path / "cyc.json",
                   {"elements": ["a", "b"],
                    "covers": [["a", "b"], ["b", "a"]]})
    assert main(["check", f]) == 1
    assert capsys.readouterr().out.startswith("poset: no")


def test_check_chainmail_witness(tmp_path, capsys):
    f = write_json(tmp_path / "vee.json",
                   {"elements": ["a", "b", "c"],
                    "covers": [["a", "b"], ["a", "c"]]})
    assert main(["check", f]) == 0
    out = capsys.readouterr().out.strip()
    assert out == ("poset: yes; lattice: no (witness {b,c}); "
                   "chainmail: no (witness {b,c})")


def test_budget_env_and_flag(cx_file, capsys, monkeypatch):
    monkeypatch.setenv("CHAINMAIL_BUDGET", "3")
    assert main(["check", cx_file]) == 1
    assert capsys.readouterr().out.startswith("poset: no")
    assert main(["check", cx_file, "--budget", "7"]) == 0


def test_dlattice(cx_file, tmp_path, capsys, counterexample):
    out = tmp_path / "d.json"
    assert main(["dlattice", cx_file, "-o", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "lattice with 11 elements"
    reparsed = from_json_dict(json.loads(out.read_text()))
    want = d_lattice(counterexample).lattice.poset
    assert is_isomorphic(reparsed, want)


def test_klattice(tmp_path, capsys):
    lat = powerset_lattice(3)
    f = write_json(tmp_path / "b3.json", to_json_dict(lat.poset))
    out = tmp_path / "k.json"
    assert main(["klattice", f, "-o", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "chainmail with 3 elements"
    assert lines[1] == "connected elements: {0}, {1}, {2}"
    reparsed = from_json_dict(json.loads(out.read_text()))
    assert is_isomorphic(reparsed, k_chainmail(lat).chainmail.poset)


def test_build_graph(tmp_path, capsys):
    f = write_json(tmp_path / "path.json",
                   {"vertices": 3, "edges": [[0, 1], [1, 2]]})
    out = tmp_path / "g.json"
    assert main(["build", "graph", f, "-o", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "chainmail with 6 elements"
    reparsed = from_json_dict(json.loads(out.read_text()))
    want = chainmail_from_graph(Graph(3, [(0, 1), (1, 2)])).poset
    assert is_isomorphic(reparsed, want)


def test_build_hypergraph(tmp_path, capsys):
    f = write_json(tmp_path / "h.json",
                   {"vertices": 3,
                    "hyperedges": [[0], [1], [2], [0, 1, 2]]})
    assert main(["build", "hypergraph", f]) == 0
    assert capsys.readouterr().out.strip() == "chainmail with 4 elements"


def test_build_topology(tmp_path, capsys):
    f = write_json(tmp_path / "t.json",
                   {"points": 2, "opens": [[], [0], [0, 1]]})
    assert main(["build", "topology", f]) == 0
    assert capsys.readouterr().out.strip() == "chainmail with 3 elements"


def test_build_connspace(tmp_path, capsys):
    f = write_json(tmp_path / "s.json",
                   {"points": 2, "connected": [[], [0], [1], [0, 1]]})
    assert main(["build", "connspace", f]) == 0
    assert capsys.readouterr().out.strip() == "chainmail with 3 elements"


def test_build_rejects_bad_topology(tmp_path, capsys):
    f = write_json(tmp_path / "bad.json",
                   {"points": 2, "opens": [[0], [0, 1]]})
    assert main(["build", "topology", f]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_verify_ok(capsys):
    assert main(["verify", "--suite", "pairwise-criterion",
                 "--max-size", "3"]) == 0
    assert capsys.readouterr().out.strip() == \
        "suite pairwise-criterion [posets n<=3]: 8 checked, 0 violations: ok"


def test_verify_prints_elapsed_on_stderr(capsys):
    """The suite's time goes to stderr alone; stdout and the exit code
    stay as they were."""
    assert main(["verify", "--suite", "pairwise-criterion",
                 "--max-size", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("suite pairwise-criterion [posets n<=3]: "
                            "8 checked, 0 violations: ok\n")
    assert re.fullmatch(r"suite pairwise-criterion: \d+\.\d{3} s\n",
                        captured.err)


def test_verify_reports_violations(capsys, monkeypatch):
    monkeypatch.setattr(verify, "poset_is_chainmail", lambda p: True)
    assert main(["verify", "--suite", "pairwise-criterion",
                 "--max-size", "3"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("FAILED")
    assert any(line.startswith("  poset(") for line in lines[1:])


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_verify_rejects_max_size_below_one(bound, capsys):
    assert main(["verify", "--suite", "pairwise-criterion",
                 "--max-size", bound]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-size must be at least 1" in captured.err


def test_verify_empty_population_is_not_ok(capsys, monkeypatch):
    """An empty population fails the suite, whichever filter it draws."""
    monkeypatch.setattr(verify, "posets_up_to",
                        lambda n, which="all-posets": [])
    for suite, sizes in [
            ("pairwise-criterion", "posets n<=3"),
            ("connectivity-conditions", "lattices from n<=3"),
            ("unit-counit", "chainmails and lattices from n<=3")]:
        assert main(["verify", "--suite", suite, "--max-size", "3"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (f"suite {suite} [{sizes}]: "
                            "0 checked, 1 violations: FAILED")
        assert "population is not empty" in lines[1]


@pytest.mark.parametrize("cover", [["a", "b", "c"], ["a"], 5])
def test_check_rejects_malformed_cover(cover, tmp_path, capsys):
    f = write_json(tmp_path / "bad.json",
                   {"elements": ["a", "b", "c"], "covers": [cover]})
    assert main(["check", f]) == 1
    out = capsys.readouterr().out
    assert out.startswith("poset: no (json-shape violated")


def test_dlattice_past_the_table_cap_is_an_error(tmp_path, capsys):
    """A 16-element antichain has 65536 td sets, within the family cap;
    their join table of 2^32 cells is refused before it is filled."""
    f = write_json(tmp_path / "a16.json",
                   {"elements": [f"a{i}" for i in range(16)], "covers": []})
    assert main(["dlattice", f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: td-set join table needs")


def test_budget_env_must_be_an_integer(cx_file, capsys, monkeypatch):
    monkeypatch.setenv("CHAINMAIL_BUDGET", "abc")
    assert main(["render", cx_file]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CHAINMAIL_BUDGET must be an integer")
    assert "Traceback" not in err


def test_budget_env_must_not_be_negative(cx_file, capsys, monkeypatch):
    monkeypatch.setenv("CHAINMAIL_BUDGET", "-5")
    assert main(["render", cx_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: CHAINMAIL_BUDGET must be an integer, at least 0, got '-5'")


@pytest.mark.parametrize("argv, flag", [
    (["check", "FILE", "--budget", "-5"], "--budget"),
    (["render", "FILE", "--budget", "-1"], "--budget"),
    (["enumerate", "-n", "4", "--budget", "-1"], "--budget"),
    (["represent", "FILE", "--max-points", "4", "--search-budget", "-1"],
     "--search-budget"),
    (["represent", "FILE", "--max-points", "4", "--budget", "-2"],
     "--budget"),
])
def test_negative_budget_is_a_usage_error(argv, flag, cx_file, capsys):
    """``--search-budget`` is gone with the point cap: an unknown argument."""
    argv = [cx_file if a == "FILE" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    want = (f"{flag} must be at least 0" if flag == "--budget"
            else f"unrecognized arguments: {flag}")
    assert want in captured.err


def test_enumerate_counts(capsys):
    assert main(["enumerate", "-n", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n\t1\t2\t3\t4\t5"
    assert lines[1] == "count\t1\t1\t2\t5\t16"


def test_enumerate_filter_and_jobs(capsys):
    assert main(["enumerate", "-n", "5", "--filter", "all-posets",
                 "--jobs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "count\t1\t2\t5\t16\t63"


def test_enumerate_needs_stretch(capsys):
    assert main(["enumerate", "-n", "9"]) == 3
    assert "--stretch" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate", "-n", "0"], ["enumerate", "-n", "-3"],
    ["enumerate", "-n", "5", "--jobs", "0"],
    ["enumerate", "-n", "5", "--jobs", "-1"]])
def test_enumerate_rejects_values_below_one(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err


def test_enumerate_catalog(tmp_path, capsys):
    out = tmp_path / "cat"
    assert main(["enumerate", "-n", "4", "--catalog", str(out)]) == 0
    assert capsys.readouterr().out.strip() == \
        f"wrote 9 diagrams and manifest.jsonl to {out}"
    assert len(list(out.glob("*.dot"))) == 9
    assert (out / "manifest.jsonl").exists()


def test_represent_absent(cx_file, capsys):
    assert main(["represent", cx_file, "--max-points", "6"]) == 0
    assert capsys.readouterr().out.strip() == \
        "absent: no connectivity space on at most 6 points has this chainmail"


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_represent_rejects_max_points_below_one(bound, cx_file, capsys):
    assert main(["represent", cx_file, "--max-points", bound]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-points must be at least 1" in captured.err


def test_represent_found(tmp_path, capsys):
    f = write_json(tmp_path / "anti.json",
                   {"elements": ["a", "b"], "covers": []})
    assert main(["represent", f, "--max-points", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "found: connectivity space on 2 points"
    space = connectivity_space_from_json_dict(
        json.loads("\n".join(lines[1:])))
    assert space.points == 2


def test_represent_budget(tmp_path, capsys):
    """No point cap: any --max-points of at least 1 is searched."""
    f = write_json(tmp_path / "pt.json",
                   {"elements": ["a"], "covers": []})
    assert main(["represent", f, "--max-points", "9"]) == 0
    assert capsys.readouterr().out.startswith(
        "found: connectivity space on 1 points")


def test_render(cx_file, tmp_path, capsys):
    assert main(["render", cx_file]) == 0
    assert capsys.readouterr().out.startswith("digraph poset {")
    out = tmp_path / "cx.dot"
    assert main(["render", cx_file, "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph poset {")
    assert text.count("->") == 9


def test_usage_errors():
    for argv in ([], ["frobnicate"], ["verify"],
                 ["verify", "--suite", "everything"],
                 ["enumerate"], ["build", "widget", "x.json"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 3


def test_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_garbage_json(tmp_path, capsys):
    f = tmp_path / "garbage.json"
    f.write_text("not json {")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("verb", [
    ["check"], ["build", "graph"], ["render"], ["dlattice"], ["klattice"],
    ["represent", "--max-points", "3"], ["build", "hypergraph"],
    ["build", "topology"], ["build", "connspace"]])
@pytest.mark.parametrize("content, message", [
    (b'{"vertices":\n 1,\xff}', "error: not UTF-8: line 2 column 4 (char 16)"),
    (b"[" * 200000, "error: nesting too deep"),
    (b'{"vertices": ' + b"7" * 5000 + b"}", "error: integer too long"),
], ids=["not-utf8", "too-deep", "too-many-digits"])
def test_unreadable_json(verb, content, message, tmp_path, capsys):
    """Bytes that are not UTF-8, nesting too deep for the parser and an
    integer past the interpreter's digit limit exit 1 with a message, like
    any other malformed JSON, from every verb that reads a file."""
    f = tmp_path / "bad.json"
    f.write_bytes(content)
    assert main(verb + [str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err


def test_python_m_chainmail_runs_main(capsys):
    """``python -m chainmail`` from a source checkout runs cli.main: the
    same exit status and the same report."""
    argv = ["verify", "--suite", "pairwise-criterion", "--max-size", "3"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    src = str(Path(chainmail.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    done = subprocess.run([sys.executable, "-m", "chainmail", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == want


def test_import_loads_neither_json_nor_multiprocessing():
    """``import chainmail`` leaves json and multiprocessing unloaded, and so
    does running a suite: the catalog writer and the parallel census import
    them when they run, so a bare import or a serial walk pays for
    neither."""
    src = str(Path(chainmail.__file__).resolve().parent.parent)
    for run in ["", "chainmail.run_suite('unit-counit', 3); "]:
        probe = (f"import sys, chainmail; {run}print(sorted({{'json', "
                 "'multiprocessing'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src),
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
