"""The acceptance gate: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass,
or `injhom selfcheck` for the same battery outside pytest.
"""
import hashlib

import pytest

from injhom import acceptance


def _run(result):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_01_catalog_counts():
    _run(acceptance.criterion_1())


def test_criterion_02_uniqueness_facts():
    _run(acceptance.criterion_2())


def test_criterion_03_t5_automorphisms():
    _run(acceptance.criterion_3())


def test_criterion_04_solver_oracle_equivalence():
    _run(acceptance.criterion_4())


def test_criterion_05_mode_monotonicity():
    _run(acceptance.criterion_5())


def test_criterion_06_gadget_contracts():
    _run(acceptance.criterion_6())


def test_criterion_07_edge_colouring_reduction():
    _run(acceptance.criterion_7(quick=False))


def test_criterion_08_c3_lift_reduction():
    _run(acceptance.criterion_8())


def test_criterion_09_collapse_reduction():
    _run(acceptance.criterion_9())


def test_criterion_10_poly_decider_agreement():
    _run(acceptance.criterion_10())


def test_criterion_11_projection_lift_round_trips():
    _run(acceptance.criterion_11())


def test_subcubic_graphs_upto_iso_pinned():
    # counts and edge lists recorded before the canonical form reused
    # catalog's pair-permutation table
    counts, digest = [], hashlib.sha256()
    for n in range(7):
        graphs = acceptance.subcubic_graphs_upto_iso(n)
        counts.append(len(graphs))
        for g in graphs:
            digest.update(repr((g.n, sorted(g.edges))).encode())
    assert counts == [1, 1, 2, 4, 11, 23, 62]
    assert digest.hexdigest() == (
        "42556d95f05672818618e21c0b49e97b15f4f7c46f2473cf1f0f80c4a54ee881"
    )
