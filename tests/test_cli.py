import argparse
import gc
import json
import os
import subprocess
import sys

import defram
from defram import GraphClass, cycle_graph, graph6_decode, graph6_encode, member, named_graph
from defram.cli import EXIT_PIPE, run_cli

C4 = graph6_encode(cycle_graph(4))  # "Cr"


def run(capsys, *argv):
    code = run_cli(list(argv))
    return code, capsys.readouterr().out.strip()


def test_formula_text(capsys):
    code, out = run(capsys, "formula", "cograph", "-k", "1", "-i", "4", "-j", "5")
    assert code == 0 and out == "Exact 7 (cograph-main)"


def test_formula_json(capsys):
    code, out = run(capsys, "--json", "formula", "bipartite",
                    "-k", "1", "-i", "4", "-j", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"status": "conjectured", "lo": 17, "hi": 19,
                       "value": 19, "provenance": "bipartite-conjecture"}


def test_alpha(capsys):
    code, out = run(capsys, "alpha", "-k", "1", C4)
    assert code == 0 and out.startswith("max sparse set, k=1: 2")
    code, out = run(capsys, "--json", "alpha", "-k", "1", "--dense", C4)
    assert code == 0 and json.loads(out)[0]["alpha"] == 4


def test_check_exit_codes(capsys):
    code, out = run(capsys, "check", "-k", "1", "-i", "4", "-j", "4", C4)
    assert code == 0 and "dense witness {0,1,2,3}" in out
    k13 = graph6_encode(named_graph("gkl:2:0"))
    code, out = run(capsys, "check", "-k", "1", "-i", "4", "-j", "4", k13)
    assert code == 1 and "neither" in out


def test_witness_roundtrip(capsys):
    code, out = run(capsys, "witness", "forest", "-k", "1", "-i", "4", "-j", "4")
    assert code == 0
    assert graph6_decode(out).n == 4
    code, _ = run(capsys, "witness", "bipartite", "-k", "1", "-i", "4", "-j", "10")
    assert code == 3  # conjectured cell: refused


def test_enumerate_and_budget(capsys):
    code, out = run(capsys, "enumerate", "forest", "-n", "5")
    assert code == 0 and len(out.splitlines()) == 10
    code, _ = run(capsys, "enumerate", "all", "-n", "11")
    assert code == 3


def test_negative_budget_is_refused(capsys, monkeypatch):
    assert run_cli(["--budget", "-1", "enumerate", "all", "-n", "3"]) == 3
    monkeypatch.setenv("DEFRAM_BUDGET", "-1")
    assert run_cli(["enumerate", "all", "-n", "3"]) == 3
    assert run_cli(["verify", "forest", "-k", "1", "-i", "4", "-j", "4",
                    "--claimed", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("budget must be >= 0, got -1") == 3


def test_verify(capsys):
    code, out = run(capsys, "verify", "forest", "-k", "1", "-i", "4", "-j", "4",
                    "--claimed", "5")
    assert code == 0 and "confirmed" in out
    code, out = run(capsys, "verify", "forest", "-k", "1", "-i", "4", "-j", "4",
                    "--claimed", "4")
    assert code == 1


def test_hunt_deterministic_output(capsys):
    args = ("hunt", "split", "-k", "2", "-i", "5", "-j", "9", "-n", "11",
            "--hunt-budget", "5000", "--seed", "7")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_hunt_output_is_pinned(capsys):
    code, out = run(capsys, "hunt", "split", "-k", "2", "-i", "5", "-j", "9", "-n", "11",
                    "--hunt-budget", "5000", "--seed", "7")
    assert code == 0 and out == "J_?C?A?bTo_"


def test_hunt_one_vertex_sparse_set_is_a_miss(capsys):
    # with j = 1 the oversized sparse set can hold a single vertex, and the
    # targeted repair has no pair inside it to join
    for args in (("forest", "-k", "0", "-i", "1", "-j", "1", "-n", "1"),
                 ("all", "-k", "0", "-i", "5", "-j", "1", "-n", "3")):
        code, out = run(capsys, "hunt", *args)
        assert code == 1 and out == "no witness found (proves nothing)"


def test_worker_count_below_one_is_refused(capsys):
    for bad in ("0", "-1"):
        assert run_cli(["--workers", bad, "enumerate", "forest", "-n", "3"]) == 3
        assert run_cli(["--workers", bad, "verify", "forest", "-k", "1", "-i", "4",
                        "-j", "4", "--claimed", "5"]) == 3
        assert run_cli(["--workers", bad, "formula", "forest", "-k", "1", "-i", "4",
                        "-j", "4"]) == 3
        assert run_cli(["--workers", bad, "hunt", "forest", "-k", "1", "-i", "4",
                        "-j", "4", "-n", "5", "--hunt-budget", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("workers must be >= 1") == 8


def test_hunt_budget_below_one_is_refused(capsys):
    for bad in ("0", "-3"):
        assert run_cli(["hunt", "forest", "-k", "1", "-i", "4", "-j", "4",
                        "-n", "5", "--hunt-budget", bad]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "hunt budget must be >= 1" in captured.err


def test_negative_defect_is_refused(capsys):
    assert run_cli(["check", "-k", "-1", "-i", "1", "-j", "2", "B?"]) == 3
    assert run_cli(["verify", "forest", "-k", "-1", "-i", "2", "-j", "2",
                    "--claimed", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("defect k must be >= 0") == 2


def test_verify_set_sizes_below_one_are_refused(capsys):
    for i, j in (("0", "4"), ("4", "0")):
        assert run_cli(["verify", "forest", "-k", "1", "-i", i, "-j", j,
                        "--claimed", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "set sizes i and j must be >= 1" in captured.err


def test_hunt_set_sizes_below_one_are_refused(capsys):
    for i, j in (("0", "4"), ("4", "0")):
        assert run_cli(["hunt", "forest", "-k", "1", "-i", i, "-j", j, "-n", "3",
                        "--hunt-budget", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "set sizes i and j must be >= 1" in captured.err


def test_witness_at_orders_63_and_64(capsys):
    for j, order in ((43, 63), (44, 64)):
        code, out = run(capsys, "witness", "forest", "-k", "1", "-i", "4", "-j", str(j))
        assert code == 0
        g = graph6_decode(out)
        assert g.n == order and member(g, GraphClass.FOREST)


def test_classify(capsys):
    code, out = run(capsys, "classify", C4)
    assert code == 0 and out == "cactus,bipartite,cograph"


def test_cg_check_exit_codes(capsys):
    code, out = run(capsys, "cg-check", "forest", "-k", "1", "-i", "4", "-j", "5")
    assert code == 0 and out == "holds"
    code, out = run(capsys, "cg-check", "split", "-k", "1", "-i", "5", "-j", "5")
    assert code == 1 and out == "fails"
    code, out = run(capsys, "cg-check", "cactus", "-k", "4", "-i", "3", "-j", "20")
    assert code == 3 and out == "undecidable"


def test_usage_errors(capsys):
    assert run_cli(["formula", "chordal", "-k", "1", "-i", "4", "-j", "4"]) == 2
    assert run_cli(["nonsense"]) == 2
    code, _ = run(capsys, "check", "-k", "1", "-i", "4", "-j", "4", "!!")
    assert code == 2


def test_graph_argument_errors_say_how_it_was_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.g6")
    assert run_cli(["alpha", "-k", "1", missing]) == 2
    err = capsys.readouterr().err
    assert f"no file {missing!r} exists, so it was read as a graph6 line" in err
    bad = tmp_path / "bad.g6"
    bad.write_text(f"{C4}\n!!\n")
    assert run_cli(["alpha", "-k", "1", str(bad)]) == 2
    assert f"file {str(bad)!r}: " in capsys.readouterr().err
    bad.write_bytes(b"Cr\n\xc3\xa9\n")
    assert run_cli(["alpha", "-k", "1", str(bad)]) == 2
    assert f"cannot read file {str(bad)!r}" in capsys.readouterr().err
    assert run_cli(["alpha", "-k", "1", str(tmp_path)]) == 2
    assert f"cannot read file {str(tmp_path)!r}" in capsys.readouterr().err


def test_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody reads: the first write to stdout fails
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(defram.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "defram.cli", "enumerate", "forest", "-n", "6"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE
    assert proc.stderr == b""


def test_file_input(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text(f"{C4}\n{graph6_encode(cycle_graph(6))}\n")
    code, out = run(capsys, "alpha", "-k", "1", str(path))
    assert code == 0 and len(out.splitlines()) == 2


def test_out_file_is_overwritten(tmp_path, capsys):
    path = tmp_path / "forests.g6"
    for _ in range(2):
        code, _ = run(capsys, "enumerate", "forest", "-n", "4", "--out", str(path))
        assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 6
    assert all(graph6_decode(ln).n == 4 for ln in lines)


def test_refused_witness_writes_no_file(tmp_path, capsys):
    path = tmp_path / "witness.g6"
    code, _ = run(capsys, "witness", "bipartite", "-k", "1", "-i", "4", "-j", "10",
                  "--out", str(path))
    assert code == 3 and not path.exists()


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    missing_dir = str(tmp_path / "missing" / "x.g6")
    assert run_cli(["enumerate", "all", "-n", "5", "--out", missing_dir]) == 2
    assert f"error: cannot write file {missing_dir!r}" in capsys.readouterr().err
    assert run_cli(["witness", "forest", "-k", "1", "-i", "4", "-j", "4",
                    "--out", str(tmp_path)]) == 2
    assert f"error: cannot write file {str(tmp_path)!r}" in capsys.readouterr().err


def test_parser_leaves_no_garbage(capsys):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_cli(["formula", "forest", "-k", "1", "-i", "4", "-j", "4"])
        gc.collect()
        assert not any(isinstance(obj, argparse.ArgumentParser) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
