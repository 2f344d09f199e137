"""The acceptance gate: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass,
or `injhom selfcheck` for the same battery outside pytest.
"""
import hashlib

import pytest

from injhom import acceptance


@pytest.mark.parametrize("number", acceptance.CRITERIA)
def test_criterion(number):
    result = acceptance.run_criterion(number, acceptance.DEFAULT_SEED, False)
    print(result.line())
    assert result.passed, result.detail


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
