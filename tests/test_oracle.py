"""Exhaustive enumeration and the saturated-network analysis."""

from __future__ import annotations

import gc
import math
import sys
import tracemalloc

import pytest

from phylocount import canon, networks, oracle, verify
from phylocount.networks import (
    Network,
    canonical_code,
    component_graph,
    is_galled,
    is_normal,
    is_reticulation_visible,
    is_tree_child,
    validation_errors,
)
from phylocount.onecomp import (
    normal_two_reticulation_count,
    single_reticulation_count,
    tree_count,
)
from phylocount.oracle import (
    airy_first_root,
    check_cell,
    count_by_class,
    decompress_max_reticulated,
    enumerate_networks,
    expected_compressed_form,
    max_reticulation_summary,
    reticulation_capacity,
    saturated_growth_term,
    saturated_growth_term_log,
    split_multifurcation,
)
from phylocount.retvis import enumerate_patterns
from phylocount.verify import _galled_by_max_flow


def test_job_budget():
    check_cell(3, 4)  # 14 vertices, the whole budget
    for leaves, rets in ((0, 1), (2, -1)):
        with pytest.raises(ValueError, match="need leaves >= 1 and rets >= 0"):
            check_cell(leaves, rets)
    with pytest.raises(ValueError, match="job needs 16 vertices, budget is 14"):
        check_cell(4, 4)
    with pytest.raises(ValueError, match="job needs 16 vertices, budget is 14"):
        next(enumerate_networks(5, 3))


def test_tiny_cells():
    assert count_by_class(1, 0).pn == 1
    assert count_by_class(1, 1).pn == 0
    assert count_by_class(2, 0).pn == 1
    assert count_by_class(2, 1).pn == 2
    assert count_by_class(3, 0).pn == 3


def test_enumerated_networks_validate_and_are_distinct():
    # the enumerator keeps a verdict on each network without validating it,
    # so each is validated here as a fresh copy, which keeps none: every
    # cell of at most 10 vertices, as the registry check, and the two
    # 12-vertex cells of the benchmark
    for l, k in verify.FRESH_CELLS + [(2, 4), (5, 1)]:
        nets = [Network(net.children, net.leaf_labels, net.root) for net in oracle.enumerate_networks(l, k)]
        codes = set()
        for net in nets:
            assert not validation_errors(net)
            assert net.num_leaves == l
            assert net.num_reticulations == k
            codes.add(canonical_code(net))
        assert len(codes) == len(nets)


# invalid networks that the enumerator could pass off as valid ones: each
# with the cell it claims, the indegrees it keeps and the fault a fresh
# validation names.  The parallel edge also upsets the max-flow galled
# reference; the leaf label is caught by validation alone
FORGED = [
    ((1, 1), Network(((1,), (2, 2), (3,), ()), (0, 0, 0, 1)), (0, 1, 2, 1), "parallel edges out of vertex 1"),
    ((1, 0), Network(((1,), ()), (0, 2)), (0, 1), r"leaf labels \[2\] are not a bijection"),
]


@pytest.mark.parametrize("cell, net, indeg, fault", FORGED, ids=["parallel-edge", "leaf-label"])
def test_a_forged_verdict_fails_both_fresh_validations(cell, net, indeg, fault, monkeypatch):
    # the enumerator, also yielding the forged network in its cell with the
    # kept verdict of a valid one
    def forging(leaves, rets, enumerate_networks=oracle.enumerate_networks):
        if (leaves, rets) == cell:
            networks._keep(net, (), indeg)
            yield net
        yield from enumerate_networks(leaves, rets)

    monkeypatch.setattr(oracle, "enumerate_networks", forging)
    assert net in oracle.enumerate_networks(*cell) and not validation_errors(net)  # the verdict is forged
    (check,) = [entry for entry in verify.CHECKS if entry[2] is verify._enumerated_networks]
    assert not verify.run_check(*check).ok
    with pytest.raises(AssertionError, match=fault):
        test_enumerated_networks_validate_and_are_distinct()


def test_enumerated_networks_share_labels_and_child_tuples():
    # one enumeration builds one label tuple and one indegree tuple, the
    # slot scheme's, and equal child tuples are one object, so the
    # representatives its dedupe table keeps stay small
    for cell in ((3, 2), (2, 4), (5, 1)):
        nets = list(enumerate_networks(*cell))
        assert len({id(net.leaf_labels) for net in nets}) == 1
        assert len({id(net._indeg) for net in nets}) == 1
        first = {}
        for net in nets:
            assert list(net._indeg) == net.indegrees()
            for kids in net.children:
                assert first.setdefault(kids, kids) is kids


def test_one_reticulation_coincidence():
    counts = count_by_class(3, 1)
    shared = single_reticulation_count(3)
    assert counts.pn == counts.rv == counts.gn == counts.tc == shared == 21


def test_small_matrix_against_formulas():
    assert count_by_class(2, 2).gn == 3
    assert count_by_class(2, 2).rv == 5
    assert count_by_class(2, 3).rv == 2
    assert count_by_class(2, 3).gn == 0
    assert count_by_class(2, 1).tc == 2
    assert count_by_class(4, 0).pn == tree_count(4)


def test_normal_counts_meet_closed_form():
    assert count_by_class(2, 2).normal == normal_two_reticulation_count(2) == 0
    assert count_by_class(3, 2).normal == normal_two_reticulation_count(3) == 0


def test_normal_four_leaves_two_reticulations():
    assert count_by_class(4, 2).normal == normal_two_reticulation_count(4) == 48


def test_class_inclusions_pointwise():
    for net in enumerate_networks(2, 2):
        if is_normal(net):
            assert is_tree_child(net)
        if is_tree_child(net):
            assert is_reticulation_visible(net)
        if is_galled(net):
            assert is_reticulation_visible(net)


def test_galled_equals_tree_shaped_compression():
    # three routes: the parents of each reticulation share a tree component
    # (is_galled), every edge of the component graph is double, and the
    # tree-cycle definition, checked by max flow
    seen = set()
    for l, k in ((2, 2), (3, 1), (2, 3), (3, 2)):
        for net in enumerate_networks(l, k):
            galled = is_galled(net)
            assert galled == component_graph(net).pattern.is_treelike() == _galled_by_max_flow(net)
            seen.add(galled)
    assert seen == {True, False}


def _reaches(net, start: int, avoid: int = -1) -> set[int]:
    # the vertices reachable from `start` without passing through `avoid`
    reached, stack = {start}, [start]
    while stack:
        for w in net.children[stack.pop()]:
            if w != avoid and w not in reached:
                reached.add(w)
                stack.append(w)
    return reached


def test_visible_and_normal_match_their_definitions():
    # references by plain reachability: a reticulation is visible iff
    # deleting it cuts some leaf off the root; a tree-child network is
    # normal iff no reticulation has a parent below its other parent
    seen = set()
    for l, k in ((2, 2), (3, 1), (2, 3), (3, 2)):
        for net in enumerate_networks(l, k):
            indeg = net.indegrees()
            parents = net.parents()
            rets = [v for v in range(net.n) if indeg[v] == 2]
            leaves = {v for v in range(net.n) if net.leaf_labels[v]}
            visible = all(leaves - _reaches(net, net.root, avoid=r) for r in rets)
            shortcut = any(q in _reaches(net, p) for r in rets for p in parents[r] for q in parents[r] if p != q)
            assert is_reticulation_visible(net) == visible
            assert is_normal(net) == (is_tree_child(net) and not shortcut)
            seen.add((visible, is_normal(net)))
    assert seen == {(True, True), (True, False), (False, False)}


def _count_work(monkeypatch, leaves: int, rets: int):
    # the cell's class counts, and how often the enumerator and its helpers
    # ran: structure_key once per candidate, each validation, canonical code,
    # unfolding, Kahn order and _find_errors pass, the canonical codes that
    # came out of the tie search and the tie search's branches.  The
    # enumerator calls its own reference to _unfolding, so that is counted too
    calls = dict.fromkeys(
        ("structure_key", "validation_errors", "canonical_code", "tie_codes", "_unfolding", "_topo_order",
         "_find_errors", "_least_code"),
        0,
    )

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def coded(*args, **kwargs):
        calls["canonical_code"] += 1
        code = canonical_code(*args, **kwargs)
        calls["tie_codes"] += code.startswith(networks._CANON_TAG)
        return code

    monkeypatch.setattr(oracle, "structure_key", counted("structure_key", oracle.structure_key))
    monkeypatch.setattr(oracle, "canonical_code", coded)
    monkeypatch.setattr(networks, "validation_errors", counted("validation_errors", networks.validation_errors))
    for name in ("_unfolding", "_topo_order", "_find_errors", "_least_code"):
        monkeypatch.setattr(networks, name, counted(name, getattr(networks, name)))
    monkeypatch.setattr(oracle, "_unfolding", networks._unfolding)
    return oracle.count_by_class.__wrapped__(leaves, rets), calls


def test_cell_2_4_work_matches_the_benchmark_pins(monkeypatch):
    # the pins of the traced benchmark self-check at (2, 4): one
    # structure_key per candidate, the distinct networks, and one
    # validation per canonical code and per predicate; the candidate's
    # unfolding serves both its key and its code.  No candidate is
    # validated from scratch: each keeps the enumerator's verdict, and its
    # unfolding builds the one Kahn order it needs; only a lazily coded
    # representative orders itself again
    def general_canonizer(*args):
        raise AssertionError("the network codes called canon.canonical_bytes")

    monkeypatch.setattr(canon, "canonical_bytes", general_canonizer)
    counts, calls = _count_work(monkeypatch, 2, 4)
    assert (calls["structure_key"], counts.pn, calls["validation_errors"]) == (8665, 3881, 18707)
    # one unfolding, and so one Kahn order, per candidate and per lazily
    # coded representative
    assert calls["_unfolding"] == calls["_topo_order"] == 10618
    assert calls["_find_errors"] == 0
    # the codes whose refinement keys tie, among all the codes: the tie
    # search breaks them without the general canonizer
    assert (calls["tie_codes"], calls["canonical_code"]) == (259, 7064)
    # the tie search's calls: a twin of a member already tried (same
    # parents, same children) opens no branch of its own
    assert calls["_least_code"] == 605


def test_cell_5_1_work(monkeypatch):
    # the benchmark's other fixed oracle cell, `count --class tc --leaves 5
    # --rets 1 --method brute`, pinned the same way
    counts, calls = _count_work(monkeypatch, 5, 1)
    assert (calls["structure_key"], counts.pn, calls["validation_errors"]) == (4470, 2805, 14370)
    assert calls["canonical_code"] == 3150
    assert (calls["_topo_order"], calls["_find_errors"]) == (5955, 0)


def test_an_exhausted_enumeration_frees_its_dedupe_table():
    # the table of representatives, and the canonizer's scratch, must go
    # when the enumeration ends, not wait for the cyclic collector: a long
    # process counts many cells.  With the collector off, it must find
    # nothing to free; the collection it then runs drops only the
    # interpreter's free lists (about 2000 spare tuples of each small size),
    # which tracemalloc counts as held
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in enumerate_networks(2, 4):
            pass
        del _
        unreachable = gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert unreachable == 0
    assert held < 100_000


def test_every_network_compresses_to_a_catalog_pattern():
    # building a component graph checks its weighted indegrees; its shape
    # must then be a pattern of the catalog, tree-like iff the network is
    # galled
    for l, k in verify.FRESH_CELLS:
        codes = {pattern.canonical_bytes() for pattern, _ in enumerate_patterns(k + 1)}
        for net in enumerate_networks(l, k):
            pattern = component_graph(net).pattern
            assert pattern.canonical_bytes() in codes
            assert pattern.is_treelike() == is_galled(net)


def test_reticulation_capacity_identity():
    # binary tree-child inputs satisfy capacity = 2*leaves + rets - 2
    for l, k in ((2, 1), (3, 1), (3, 2)):
        for net in enumerate_networks(l, k):
            if is_tree_child(net):
                assert reticulation_capacity(net) == 2 * l + k - 2
    with pytest.raises(ValueError):
        reticulation_capacity(
            next(
                net
                for net in enumerate_networks(2, 2)
                if not is_tree_child(net)
            )
        )


def test_capacity_on_compressed_shapes():
    # a star over three leaves (compressed convention: no stem)
    star = [[1, 2, 3], [], [], []]
    assert reticulation_capacity(star) == 3
    # a binary tree over three leaves has capacity 2*3 - 2 = 4
    binary = [[1, 2], [3, 4], [], [], []]
    assert reticulation_capacity(binary) == 4
    split = split_multifurcation(star, 0)
    assert reticulation_capacity(split) == 4
    with pytest.raises(ValueError):
        split_multifurcation(split, 0)


def test_decompression_two_leaves():
    images = []
    for net in enumerate_networks(2, 1):
        assert is_tree_child(net)
        image = decompress_max_reticulated(net)
        assert image.num_reticulations == 3
        assert is_reticulation_visible(image)
        images.append(image)
    codes = {canonical_code(img) for img in images}
    assert len(codes) == 2  # injective on the two inputs


def test_decompression_rejects_non_maximal():
    tree = next(iter(enumerate_networks(2, 0)))
    with pytest.raises(ValueError):
        decompress_max_reticulated(tree)


def test_decompression_three_leaves_round_trip():
    images = []
    for net in enumerate_networks(3, 2):
        if not is_tree_child(net):
            continue
        image = decompress_max_reticulated(net)
        images.append(image)
        assert image.num_reticulations == 6
        assert not validation_errors(image)
        assert is_reticulation_visible(image)
        actual = component_graph(image).canonical_bytes()
        expected = expected_compressed_form(net).canonical_bytes()
        assert actual == expected
    assert len({canonical_code(img) for img in images}) == len(images)
    assert len(images) == count_by_class(3, 2).tc == 42


def test_max_reticulation_summary(monkeypatch):
    asked = []
    real = oracle.count_by_class

    def recording(leaves, rets):
        asked.append((leaves, rets))
        return real(leaves, rets)

    monkeypatch.setattr(oracle, "count_by_class", recording)
    assert max_reticulation_summary() == {
        "max_rets": 3,
        "count_at_max": 2,
        "tc_max_count": 2,
    }
    # the scan stops at k = 4, the first count the bound 3l - 3 excludes
    assert sorted(set(asked)) == [(2, k) for k in range(5)]


def test_airy_root(monkeypatch):
    import mpmath

    with mpmath.workdps(30):
        root = float(mpmath.findroot(mpmath.airyai, mpmath.mpf("-2.338107")))
    monkeypatch.setitem(sys.modules, "mpmath", None)  # the package needs no mpmath
    assert math.isclose(airy_first_root(), root, rel_tol=1e-14)


def test_saturated_growth_term():
    # log-space evaluation matches the direct product at small scale
    l = 10
    a1 = airy_first_root()
    direct = l ** (-2 / 3) * math.exp(a1 * (3 * l) ** (1 / 3)) * (12 / math.e**2) ** l * l ** (2 * l)
    assert math.isclose(saturated_growth_term_log(l), math.log(direct), rel_tol=1e-10)
    mantissa, exponent = saturated_growth_term(l)
    assert math.isclose(mantissa * 10.0**exponent, direct, rel_tol=1e-8)
    # monotone growth
    logs = [saturated_growth_term_log(l) for l in range(2, 9)]
    assert all(b > a for a, b in zip(logs, logs[1:]))
