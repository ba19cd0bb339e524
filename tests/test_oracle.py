"""Exhaustive enumeration and the saturated-network analysis."""

from __future__ import annotations

import math

import pytest

from phylocount import networks, oracle
from phylocount.networks import (
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
    for l, k in ((2, 1), (2, 2), (3, 1)):
        nets = list(enumerate_networks(l, k))
        codes = set()
        for net in nets:
            assert not validation_errors(net)
            assert net.num_leaves == l
            assert net.num_reticulations == k
            codes.add(canonical_code(net))
        assert len(codes) == len(nets)


def test_enumerated_networks_share_labels_and_child_tuples():
    # one enumeration builds one label tuple, and equal child tuples are one
    # object, so the representatives its dedupe table keeps stay small
    nets = list(enumerate_networks(3, 2))
    assert len({id(net.leaf_labels) for net in nets}) == 1
    first = {}
    for net in nets:
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
    # (is_galled), the component graph with arrows ignored is a tree, and
    # the tree-cycle definition, checked by max flow
    seen = set()
    for l, k in ((2, 2), (3, 1), (2, 3), (3, 2)):
        for net in enumerate_networks(l, k):
            galled = is_galled(net)
            assert galled == component_graph(net).stripped_is_tree() == _galled_by_max_flow(net)
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


def test_cell_2_4_work_matches_the_benchmark_pins(monkeypatch):
    # the pins of the traced benchmark self-check at (2, 4): one
    # structure_key per candidate, the distinct networks, and one
    # validation per canonical code and per predicate; the candidate's
    # unfolding serves both its key and its code
    calls = {"structure_key": 0, "validation_errors": 0, "_unfolding": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "structure_key", counted("structure_key", oracle.structure_key))
    monkeypatch.setattr(networks, "validation_errors", counted("validation_errors", networks.validation_errors))
    unfolding = counted("_unfolding", networks._unfolding)
    monkeypatch.setattr(networks, "_unfolding", unfolding)
    monkeypatch.setattr(oracle, "_unfolding", unfolding)
    counts = oracle.count_by_class.__wrapped__(2, 4)
    assert (calls["structure_key"], counts.pn, calls["validation_errors"]) == (8665, 3881, 18707)
    assert calls["_unfolding"] < 15729  # one per candidate, and per lazily coded representative


def test_compressed_indegrees_are_two():
    for net in enumerate_networks(3, 2):
        cg = component_graph(net)
        indegs = cg.weighted_indegrees()
        assert all(indegs[v] == 2 for v in range(cg.n) if v != cg.root)


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


def test_airy_root():
    assert math.isclose(airy_first_root(), -2.33810741045977, rel_tol=1e-10)


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
