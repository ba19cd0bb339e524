"""Building-block counts, their polynomial structure, and the baselines."""

from __future__ import annotations

from fractions import Fraction

import pytest

from phylocount.onecomp import (
    block_closed_one,
    block_closed_two,
    block_count,
    block_egf,
    block_polynomial,
    block_shift_egf,
    block_sqrt_form,
    block_table_lines,
    closed_form,
    has_closed_form,
    normal_two_reticulation_count,
    one_component_count,
    shift_sqrt_form,
    single_reticulation_count,
    tree_count,
)


def test_block_spot_values():
    # frozen: (2,1) and (4,0) are small enough to enumerate by hand,
    # (3,2), (4,2) follow from the closed form (2l-1)(l-1)^2 (2l-5)!!
    assert block_count(2, 1) == 1
    assert block_count(4, 0) == 15
    assert block_count(3, 2) == 20
    assert block_count(4, 2) == 189
    assert block_count(3, 3) == 87


def test_block_out_of_range_is_zero():
    assert block_count(2, 3) == 0
    assert block_count(0, 0) == 0
    assert block_count(-1, 2) == 0
    assert block_count(3, -1) == 0


def test_block_recurrence_matches_closed_forms():
    for l in range(1, 51):
        assert block_count(l, 1) == block_closed_one(l)
        assert block_count(l, 2) == block_closed_two(l)


def test_block_count_needs_no_recursion_depth():
    import sys

    limit = sys.getrecursionlimit()
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    sys.setrecursionlimit(depth + 50)
    try:
        value = block_count(90, 80)
    finally:
        sys.setrecursionlimit(limit)
    assert isinstance(value, int) and value > 0


def test_block_values_nonnegative_up_to_60():
    for l in range(1, 61):
        for k in range(0, l + 1):
            assert block_count(l, k) >= 0


def test_block_polynomial_structure():
    p1 = block_polynomial(1)
    assert p1 == (Fraction(3), Fraction(-5), Fraction(2))  # (l-1)(2l-3)
    p2 = block_polynomial(2)
    assert len(p2) - 1 == 4 and p2[-1] == 4
    p4 = block_polynomial(4)
    assert len(p4) - 1 == 8 and p4[-1] == 16
    with pytest.raises(ValueError):
        block_polynomial(0)


def test_shift_forms_match_displays():
    # F0 = 1 - x, F1 = z / x^3, F2 = (3 - z + 7z^2 - 4z^3) / x^7
    for k in (0, 1, 2):
        assert shift_sqrt_form(k).egf(24) == block_shift_egf(k, 24)
        assert block_sqrt_form(k).egf(24) == block_egf(k, 24)


def test_one_component_counts():
    assert one_component_count(3, 1) == 18  # C(3,1) * 6
    for l in range(1, 9):
        assert one_component_count(l, 0) == tree_count(l)
    assert one_component_count(2, 3) == 0


def test_tree_counts():
    assert [tree_count(l) for l in range(1, 7)] == [1, 1, 3, 15, 105, 945]


def test_single_reticulation_counts():
    assert [single_reticulation_count(l) for l in range(1, 5)] == [0, 2, 21, 228]


def test_normal_two_reticulation_counts():
    # zero until four leaves (the class bound is leaves - 2)
    assert normal_two_reticulation_count(2) == 0
    assert normal_two_reticulation_count(3) == 0
    assert normal_two_reticulation_count(4) == 48


def test_baseline_record():
    assert [closed_form("trees", 3, 0), closed_form("pn", 3, 1), closed_form("normal", 3, 2)] == [3, 21, 0]


def test_closed_form_answers_every_form_and_only_those():
    for l in range(1, 12):
        assert closed_form("trees", l, 0) == closed_form("normal", l, 0) == tree_count(l)
        assert closed_form("onecomp", l, 2) == one_component_count(l, 2)
        shared = {closed_form(cls, l, 1) for cls in ("pn", "rv", "gn", "tc")}
        assert shared == {single_reticulation_count(l)}
        assert closed_form("normal", l, 2) == normal_two_reticulation_count(l)
    for cls, rets in (("pn", 2), ("tc", 2), ("normal", 1), ("normal", 3), ("gn", 4), ("rv", 4), ("trees", 1)):
        assert not has_closed_form(cls, rets)
        with pytest.raises(ValueError, match=f"no closed form for class '{cls}' at rets={rets}"):
            closed_form(cls, 5, rets)
    with pytest.raises(ValueError, match="leaves must be >= 1"):
        closed_form("gn", 0, 2)


def test_block_counts_safe_under_concurrent_calls():
    import threading

    import phylocount.onecomp as oc

    expected = {(l, k): block_count(l, k) for l in range(1, 31) for k in range(0, l + 1)}
    oc._block_table.clear()
    results: list[dict] = [dict() for _ in range(4)]

    def worker(slot: int):
        local = {}
        for (l, k) in expected:
            local[(l, k)] = block_count(l, k)
        results[slot] = local

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for local in results:
        assert local == expected


def test_block_table_csv_deterministic():
    first = "".join(block_table_lines(5, 3))
    assert first == "".join(block_table_lines(5, 3))
    lines = first.strip().split("\n")
    assert lines[0] == "leaves,k=0,k=1,k=2,k=3"
    assert lines[2] == "2,1,1,3,0"
    assert lines[3] == "3,3,6,20,87"
