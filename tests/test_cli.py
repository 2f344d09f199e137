import itertools
from pathlib import Path

import pytest

from injhom.cli import main
from injhom.catalog import named_target
from injhom.digraph import Mode, parse_graph
from injhom.gadgets import asset_dir
from injhom.poly import decide_small_target
from injhom.reductions import UndirectedGraph, build_ios_t4, extract_edge_colouring, is_proper_edge_colouring
from injhom.solver import decide, verify_colouring


@pytest.fixture
def cycle_file(tmp_path):
    p = tmp_path / "c3.graph"
    p.write_text("n 3\na 0 1\na 1 2\na 2 0\n")
    return p


@pytest.fixture
def star_file(tmp_path):
    p = tmp_path / "star.graph"
    p.write_text("n 5\na 0 1\na 0 2\na 0 3\na 0 4\n")
    return p


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.graph"
    lines = ["n 4"] + [f"a {u} {v}" for u, v in itertools.combinations(range(4), 2)]
    p.write_text("\n".join(lines) + "\n")
    return p


def test_solve_sat_exit_zero(cycle_file, capsys):
    rc = main(["solve", "--input", str(cycle_file), "--target", "C3", "--mode", "iot"])
    out = capsys.readouterr().out
    assert rc == 0 and out.startswith("Sat")
    assert "0=a 1=b 2=c" in out


def test_solve_unsat_exit_one(star_file, capsys):
    rc = main(["solve", "--input", str(star_file), "--target", "T4", "--mode", "ios"])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "Unsat"


def test_solve_bad_input_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("n 2\na 0 1\na 1 0\n")
    rc = main(["solve", "--input", str(p), "--target", "C3", "--mode", "ios"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_solve_mod_aut_needs_enumerate(cycle_file, capsys):
    rc = main(["solve", "--input", str(cycle_file), "--target", "C3", "--mode", "ios",
               "--mod-aut"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "--mod-aut needs --enumerate" in captured.err
    rc = main(["solve", "--input", str(cycle_file), "--target", "C3", "--mode", "ios",
               "--mod-aut", "--enumerate", "all"])
    assert rc == 0 and "orbits" in capsys.readouterr().out


def test_solve_enumerate_hx_shows_forced_d(capsys):
    hx = asset_dir() / "Hx.graph"
    rc = main([
        "solve", "--input", str(hx), "--target", "T4", "--mode", "ios",
        "--enumerate", "all",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("Sat")]
    assert len(lines) == 6
    assert all("31=d" in l for l in lines)


def test_solve_fixed_and_fast_small(cycle_file, capsys):
    rc = main([
        "solve", "--input", str(cycle_file), "--target", "C3", "--mode", "ios",
        "--fixed", "0=b",
    ])
    out = capsys.readouterr().out
    assert rc == 0 and "0=b" in out
    # --fixed on a two-vertex target goes to the search and still answers
    rc = main([
        "solve", "--input", str(cycle_file), "--target", "TT2", "--mode", "ios",
        "--fixed", "0=b",
    ])
    out = capsys.readouterr().out
    assert rc == 0 and "0=b" in out
    # the 2-SAT path is chosen from the target, so the old flag is gone
    with pytest.raises(SystemExit) as exc:
        main([
            "solve", "--input", str(cycle_file), "--target", "TT2", "--mode", "ios",
            "--fast-small",
        ])
    assert exc.value.code == 2


@pytest.mark.parametrize("mode", ["in", "ios", "iot"])
def test_solve_two_vertex_target_witness_verifies(tmp_path, capsys, mode):
    path = tmp_path / "path.graph"
    path.write_text("n 4\na 0 0\na 0 1\na 1 2\na 3 2\n")
    rc = main(["solve", "--input", str(path), "--target", "TT2", "--mode", mode])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0 and lines[0] == "Sat (1 witness)"
    witness = tuple("ab".index(item.split("=")[1]) for item in lines[1].split())
    g, tt2 = parse_graph(path.read_text()), named_target("TT2")
    ok, why = verify_colouring(g, tt2, witness, Mode.parse(mode))
    assert ok, why
    # the 2-SAT decider answered (in mode `in` its witness differs from the search's)
    assert [witness] == decide_small_target(g, tt2, Mode.parse(mode)).witnesses


def test_catalog_list_counts(capsys):
    assert main(["catalog", "--list", "n=4"]) == 0
    assert "4 reflexive tournaments" in capsys.readouterr().out
    assert main(["catalog", "--list", "n=5"]) == 0
    assert "12 reflexive tournaments" in capsys.readouterr().out


def test_catalog_show_t5(capsys):
    assert main(["catalog", "--show", "T5"]) == 0
    out = capsys.readouterr().out
    assert "vertex-transitive: true" in out


def test_catalog_aut_tt3(capsys):
    assert main(["catalog", "--aut", "TT3"]) == 0
    out = capsys.readouterr().out
    assert "1 automorphisms" in out


def test_catalog_bounds_error(capsys):
    assert main(["catalog", "--list", "n=9"]) == 2


def test_oracle_k4(k4_file, capsys):
    assert main(["oracle", "--input", str(k4_file)]) == 0
    assert capsys.readouterr().out.startswith("Sat")


def test_reduce_k4_summary_and_roundtrip(k4_file, tmp_path, capsys):
    out = tmp_path / "inst.graph"
    rc = main([
        "reduce", "--kind", "ios-t4", "--input", str(k4_file),
        "--output", str(out),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "4 Hx, 6 He" in text
    assert out.is_file() and Path(str(out) + ".map").is_file()
    # the written instance matches an in-process build (determinism), and a
    # solver witness projects back to a proper edge colouring
    k4 = UndirectedGraph(4, list(itertools.combinations(range(4), 2)))
    ri = build_ios_t4(k4)
    assert parse_graph(out.read_text()) == ri.graph
    res = decide(ri.graph, ri.target, ri.mode)
    assert res.sat
    assert is_proper_edge_colouring(k4, extract_edge_colouring(ri, res.witnesses[0]))


@pytest.mark.parametrize("text, line", [
    ("n x\n", "line 1:"),
    ("n 2\na 0 x\n", "line 2:"),
    ("n 2\nn 3\n", "line 2:"),
    ("n 2\na 0 1\na 1 5\n", "line 3:"),
])
def test_reduce_malformed_undirected_input_exit_two(tmp_path, capsys, text, line):
    p = tmp_path / "bad.graph"
    p.write_text(text)
    out = tmp_path / "inst.graph"
    rc = main(["reduce", "--kind", "iot-t4", "--input", str(p), "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {line}")
    assert not out.exists()


def test_reduce_collapse_pivot_too_low(cycle_file, tmp_path, capsys):
    rc = main([
        "reduce", "--kind", "collapse-ios", "--input", str(cycle_file),
        "--output", str(tmp_path / "x.graph"), "--target", "T4", "--pivot", "a",
    ])
    assert rc == 2


def test_reduce_collapse_ok(cycle_file, tmp_path, capsys):
    out = tmp_path / "c.graph"
    rc = main([
        "reduce", "--kind", "collapse-iot", "--input", str(cycle_file),
        "--output", str(out), "--target", "TT5", "--pivot", "a",
    ])
    assert rc == 0
    assert "ring of 3" in capsys.readouterr().out


def test_verify_gadget_single(capsys):
    assert main(["verify-gadget", "--gadget", "Fx"]) == 0
    assert "all contracts pass" in capsys.readouterr().out


def test_verify_gadget_lemma(capsys):
    assert main(["verify-gadget", "--lemma", "3.1"]) == 0


def test_verify_gadget_corrupt_asset(tmp_path, monkeypatch, capsys):
    (tmp_path / "Hx.graph").write_text("n 2\na 0 1\n")
    # missing contract sidecar: an asset problem, exit 2
    monkeypatch.setenv("INJHOM_ASSET_DIR", str(tmp_path))
    assert main(["verify-gadget", "--gadget", "Hx"]) == 2


def test_verify_gadget_failing_contract(tmp_path, monkeypatch, capsys):
    # a well-formed gadget whose contract facts are false: exit 1
    (tmp_path / "Hx.graph").write_text("n 2\na 0 1\nport s1 0\n")
    (tmp_path / "Hx.contract").write_text("target T4\nmode ios\nnonempty\nforced 0 a\n")
    monkeypatch.setenv("INJHOM_ASSET_DIR", str(tmp_path))
    assert main(["verify-gadget", "--gadget", "Hx"]) == 1


def test_selfcheck_exit_codes(monkeypatch, capsys):
    # exit-code wiring only; the real battery runs in test_acceptance.py
    from injhom import acceptance

    good = [acceptance.CriterionResult(1, "x", True, "", 0.0)]
    bad = good + [acceptance.CriterionResult(2, "y", False, "boom", 0.0)]
    monkeypatch.setattr(acceptance, "run_all", lambda quick, seed: good)
    assert main(["selfcheck", "--quick"]) == 0
    monkeypatch.setattr(acceptance, "run_all", lambda quick, seed: bad)
    assert main(["selfcheck"]) == 1
    assert "FAILED criteria 2" in capsys.readouterr().out
