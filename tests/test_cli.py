import hashlib
import itertools
import random
from pathlib import Path

import pytest

from injhom.cli import main
from injhom.catalog import named_target
from injhom.digraph import MAX_VERTICES, Mode, parse_graph
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


def test_solve_mod_aut_rejects_fixed(tmp_path, capsys):
    # representatives are lex-least over the whole orbit, so a fixing would be
    # broken: C3 maps 0=b to the representative 0=a
    one = tmp_path / "one.graph"
    one.write_text("n 1\n")
    rc = main(["solve", "--input", str(one), "--target", "C3", "--mode", "ios",
               "--fixed", "0=b", "--enumerate", "all", "--mod-aut"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "--mod-aut cannot be combined with --fixed" in captured.err
    rc = main(["solve", "--input", str(one), "--target", "C3", "--mode", "ios",
               "--fixed", "0=b", "--enumerate", "all"])
    assert rc == 0 and capsys.readouterr().out.splitlines()[1:] == ["0=b"]


@pytest.mark.parametrize("flags", [
    ["--enumerate", "0"], ["--enumerate", "-2"], ["--budget", "-1"],
    ["--enumerate", "all", "--budget", "-1"],
    # a later --target wins: TT2 with nothing fixed takes the 2-SAT path
    ["--target", "TT2", "--budget", "-1"],
])
def test_solve_rejects_bad_limit_and_budget(tmp_path, capsys, flags):
    one = tmp_path / "one.graph"
    one.write_text("n 1\n")
    rc = main(["solve", "--input", str(one), "--target", "C3", "--mode", "ios", *flags])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "limit" in captured.err or "budget" in captured.err


@pytest.mark.parametrize("flags, message", [
    (["--target", "TT99999999"], "TTn needs 1 <= n <= 64"),
    (["--target", "TT65"], "TTn needs 1 <= n <= 64"),
    # past the 26 colour letters, a bad colour names the last letter
    (["--target", "TT30", "--fixed", "0=zz"], "is not a letter a..z or an id"),
])
def test_solve_rejects_bad_named_target(tmp_path, capsys, flags, message):
    one = tmp_path / "one.graph"
    one.write_text("n 1\n")
    rc = main(["solve", "--input", str(one), "--mode", "ios", *flags])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and message in captured.err


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


def test_solve_rejects_a_vertex_fixed_to_two_colours(cycle_file, capsys):
    base = ["solve", "--input", str(cycle_file), "--target", "C3", "--mode", "ios"]
    rc = main([*base, "--fixed", "0=a", "--fixed", "0=b"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "vertex 0" in captured.err
    # the same colour twice is no conflict
    rc = main([*base, "--fixed", "0=b", "--fixed", "0=1"])
    assert rc == 0 and "0=b" in capsys.readouterr().out


@pytest.mark.parametrize("colour", ["a", "0"])
def test_solve_rejects_a_fixed_colour_on_a_target_with_no_colours(tmp_path, capsys, colour):
    one, empty = tmp_path / "one.graph", tmp_path / "empty.graph"
    one.write_text("n 1\n")
    empty.write_text("n 0\n")
    rc = main(["solve", "--input", str(one), "--target", str(empty), "--mode", "in",
               "--fixed", f"0={colour}"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"colour {colour!r} given, but the target has no colours" in captured.err


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


def test_oracle_long_path(tmp_path, capsys):
    # from about 1 000 edges the recursive oracle hit the recursion limit and crashed
    p = tmp_path / "path.graph"
    p.write_text("\n".join(["n 1501"] + [f"a {i} {i + 1}" for i in range(1_500)]) + "\n")
    assert main(["oracle", "--input", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "Sat" and len(out) == 1_501


def test_oracle_budget_stops_a_hard_cubic_graph(tmp_path, capsys):
    # three random perfect matchings on 800 vertices: 3-edge-colourable, but
    # the unbudgeted oracle had not answered after 70 s
    rng, m = random.Random(8), 800
    edges = set()
    for _ in range(3):
        while True:
            perm = rng.sample(range(m), m)
            matching = {tuple(sorted(perm[i:i + 2])) for i in range(0, m, 2)}
            if not matching & edges:
                break
        edges |= matching
    p = tmp_path / "cubic.graph"
    p.write_text("\n".join([f"n {m}"] + [f"a {u} {v}" for u, v in sorted(edges)]) + "\n")
    assert main(["oracle", "--input", str(p), "--budget", "100000"]) == 2
    assert capsys.readouterr().out == "BudgetExhausted\n"


def test_oracle_budget_flag(k4_file, capsys):
    assert main(["oracle", "--input", str(k4_file), "--budget", "6"]) == 0
    assert capsys.readouterr().out.startswith("Sat")
    assert main(["oracle", "--input", str(k4_file), "--budget", "-1"]) == 2
    assert capsys.readouterr().err == "error: node budget -1 is negative\n"


@pytest.mark.parametrize("command", ["solve", "reduce", "oracle"])
def test_vertex_count_past_the_limit_exit_two(tmp_path, capsys, command):
    p = tmp_path / "huge.graph"
    p.write_text(f"n {MAX_VERTICES + 1}\n")
    argv = {
        "solve": ["solve", "--target", "T4", "--mode", "ios"],
        "reduce": ["reduce", "--kind", "ios-t4", "--output", str(tmp_path / "out.graph")],
        "oracle": ["oracle"],
    }[command]
    assert main(argv + ["--input", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: vertex count")


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


def test_reduce_too_large_an_instance_exit_two(tmp_path, capsys):
    # a legal source file whose ios-t4 instance would pass MAX_VERTICES
    p = tmp_path / "wide.graph"
    p.write_text("n 32769\n")
    out = tmp_path / "inst.graph"
    rc = main(["reduce", "--kind", "ios-t4", "--input", str(p), "--output", str(out)])
    assert rc == 2
    assert "would have 1048608 vertices" in capsys.readouterr().err
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


# sha256 prefix of `verify-gadget --all`'s stdout, recorded while compose
# still built a disjoint union and merged ports by union-find: the composed
# vertex ids the edge lemmas print must not move
VERIFY_ALL_DIGEST = "137c7484ee0c5a10"


def test_verify_gadget_all_output_pinned(capsys):
    assert main(["verify-gadget", "--all"]) == 0
    out = capsys.readouterr().out
    assert "  [pass] equal 9 41\n" in out  # lemma 3.2, squares s1 and s1
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == VERIFY_ALL_DIGEST


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


@pytest.mark.parametrize("flags", [
    ["--target", "TT5"],
    ["--pivot", "a"],
    ["--direction", "out"],
    ["--target", "TT5", "--pivot", "a", "--direction", "in"],
])
def test_reduce_rejects_collapse_flags_on_other_kinds(cycle_file, tmp_path, capsys, flags):
    out = tmp_path / "o.graph"
    rc = main(["reduce", "--kind", "ios-t5", "--input", str(cycle_file),
               "--output", str(out), *flags])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ios-t5 takes no ") and "collapse kinds only" in err
    assert all(flag in err for flag in flags if flag.startswith("--"))


def test_reduce_collapse_direction_defaults_to_out(cycle_file, tmp_path, capsys):
    for direction in ([], ["--direction", "out"]):
        rc = main(["reduce", "--kind", "collapse-ios", "--input", str(cycle_file),
                   "--output", str(tmp_path / "c.graph"), "--target", "TT5",
                   "--pivot", "a", *direction])
        assert rc == 0 and "pivot a (out)" in capsys.readouterr().out
