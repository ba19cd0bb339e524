"""Reticulation-visible counts: catalogs, pattern sums, closed forms, splits."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from phylocount import canon
from phylocount.canon import DagPattern
from phylocount.galled import galled_count, galled_egf
from phylocount.onecomp import PATTERN_PROFILES, pattern_egf
from phylocount.oracle import count_by_class
from phylocount.retvis import (
    closed_form_threshold,
    enumerate_patterns,
    pattern_sum_egf,
    rv_closed_form,
    rv_component_sum,
    rv_count,
    rv_egf,
)
from phylocount.series import Egf
from phylocount.verify import laurent_forms, three_ret_split_check


def test_catalog_sizes():
    assert len(enumerate_patterns(1)) == 1
    assert len(enumerate_patterns(2)) == 1
    assert len(enumerate_patterns(3)) == 3
    assert len(enumerate_patterns(4)) == 13
    with pytest.raises(ValueError):
        enumerate_patterns(0)
    with pytest.raises(ValueError):
        enumerate_patterns(9)


def test_catalog_symmetries():
    assert sorted(s for _, s in enumerate_patterns(3)) == [1, 1, 2]
    syms4 = sorted(s for _, s in enumerate_patterns(4))
    assert syms4 == [1] * 9 + [2, 2, 2] + [6]


def test_catalog_stability_under_relabeling():
    rng = random.Random(11)
    for pattern, _ in enumerate_patterns(4):
        rest = list(range(1, pattern.m))
        shuffled = rest[:]
        rng.shuffle(shuffled)
        perm = {0: 0, **dict(zip(rest, shuffled))}
        relabeled = DagPattern(
            pattern.m,
            tuple(sorted((perm[u], perm[v], mult) for u, v, mult in pattern.edges)),
        )
        assert relabeled.canonical_bytes() == pattern.canonical_bytes()


def test_counts_spot_values():
    assert rv_count(1, 0) == 1
    assert rv_count(2, 2) == 5
    assert rv_count(3, 2) == 123
    assert rv_count(4, 2) == 2493  # frozen from the closed form by hand
    assert rv_count(2, 3) == 2  # equals the maximally reticulated tree-child count
    assert rv_count(3, 3) == 447  # confirmed by exhaustive enumeration
    assert rv_count(1, 2) == 0


def test_counts_match_galled_for_low_rets():
    for k in (0, 1):
        rv = rv_egf(k, 12)
        for l in range(1, 13):
            assert rv.coeff(l) * math.factorial(l) == galled_count(l, k)


def test_galled_dominated_by_visible():
    for k in (2, 3):
        rv = rv_egf(k, 15)
        gn = galled_egf(k, 15)
        for l in range(1, 16):
            assert gn.count(l) <= rv.coeff(l) * math.factorial(l)


def test_zero_beyond_bound():
    for l in (1, 2):
        for k in range(3 * l - 2, 7):
            assert rv_count(l, k) == 0


def test_zero_at_seven_reticulations_directly():
    assert rv_count(1, 7) == 0
    assert rv_count(2, 7) == 0


@pytest.mark.parametrize("cls", ["gn", "rv"])
def test_recurrence_equals_pattern_sum(cls):
    # the labelled-pattern recurrence against the catalog route, m <= 7
    for k in range(0, 7):
        assert pattern_egf(cls, k, 12).coeffs == pattern_sum_egf(cls, k, 12).coeffs, k


def test_pattern_routes_reject_a_class_without_profiles():
    # a usage error like every other argument out of range, not a KeyError
    # from inside the memoised recurrence
    for route in (pattern_egf, pattern_sum_egf):
        with pytest.raises(ValueError, match=r"'tc'.*\['gn', 'rv'\]"):
            route("tc", 2, 5)


def permutation_scan_automorphisms(n, edges, colors):
    """Reference: every colour-preserving permutation, checked edge by edge."""
    mult = {}
    for u, w, m in edges:
        mult[(u, w)] = mult.get((u, w), 0) + m
    count = 0
    for image in permutations(range(n)):
        if any(colors[image[v]] != colors[v] for v in range(n)):
            continue
        if all(mult.get((image[u], image[w]), 0) == m for (u, w), m in mult.items()):
            count += 1
    return count


def test_automorphism_count_matches_permutation_scan():
    rng = random.Random(5)
    for m in range(1, 7):
        for pattern, symmetry in enumerate_patterns(m):
            root_colored = [int(v == 0) for v in range(m)]
            assert symmetry == permutation_scan_automorphisms(m, pattern.edges, root_colored)
            # a copy with every vertex relabelled, the root included
            perm = list(range(m))
            rng.shuffle(perm)
            edges = [(perm[u], perm[w], mult) for u, w, mult in pattern.edges]
            rng.shuffle(edges)
            colors = [int(v == perm[0]) for v in range(m)]
            assert canon.canonical_form(m, edges, colors) == pattern.canonical_form()


def test_colored_automorphism_count_matches_permutation_scan():
    # random coloured multigraphs, few colours so that twins and larger
    # groups occur; an isomorphic copy gets the same code and count
    rng = random.Random(28)
    for _ in range(400):
        n = rng.randint(1, 6)
        density = rng.choice([0.2, 0.4, 0.6])
        edges = [
            (u, w, rng.randint(1, 2))
            for u in range(n) for w in range(n) if u != w and rng.random() < density
        ]
        colors = [rng.randrange(rng.randint(2, 3)) for _ in range(n)]
        code, count = canon.canonical_form(n, edges, colors)
        assert count == permutation_scan_automorphisms(n, edges, colors), (n, edges, colors)
        perm = list(range(n))
        rng.shuffle(perm)
        copy = [(perm[u], perm[w], m) for u, w, m in edges]
        copy_colors = [0] * n
        for v in range(n):
            copy_colors[perm[v]] = colors[v]
        assert canon.canonical_form(n, copy, copy_colors) == (code, count)


def test_saturated_counts_through_the_series():
    # appendix: rv(l, 3l-3) equals the tree-child count at (l, l-1), and no
    # visible network has more reticulations
    assert rv_count(3, 6) == count_by_class(3, 2).tc == 42
    assert rv_count(3, 7) == 0
    assert rv_count(4, 9) == 2544  # oracle tc(4, 3), checked live under -m slow
    assert rv_count(4, 10) == 0


@pytest.mark.slow
def test_saturated_count_at_four_leaves_against_the_oracle():
    assert rv_count(4, 9) == count_by_class(4, 3).tc


def test_closed_forms_and_thresholds():
    assert closed_form_threshold(2) == 1
    assert closed_form_threshold(3) == 2
    assert rv_closed_form(1, 2) == 0
    assert rv_closed_form(1, 3) == Fraction(-1, 2)  # outside the validated range
    series2 = rv_egf(2, 40)
    series3 = rv_egf(3, 40)
    for l in range(1, 41):
        assert rv_closed_form(l, 2) == series2.coeff(l) * math.factorial(l)
    for l in range(2, 41):
        assert rv_closed_form(l, 3) == series3.coeff(l) * math.factorial(l)


def test_tree_like_split():
    cat = enumerate_patterns(4)
    tree_like = [p for p, _ in cat if p.is_treelike()]
    assert len(tree_like) == 4
    ok, bad = three_ret_split_check()
    assert ok, bad
    # the split halves sum to the class series
    total = laurent_forms()["tree"] + laurent_forms()["non-tree"]
    rv3 = rv_egf(3, 12)
    for l in range(13):
        assert total.coeff_z(l) == rv3.coeff(l)
    assert total.coeff_z(3) * 6 == 447


def test_tree_like_patterns_count_galled_networks():
    assert pattern_sum_egf("gn", 3, 3).count(3) == 114
    assert pattern_sum_egf("gn", 2, 4).count(4) == 1575


def test_tree_like_check_names_the_first_disagreement(monkeypatch):
    import phylocount.galled
    from phylocount import verify

    def off_by_one(rets, order):
        series = galled_egf(rets, order)
        return series + Egf.from_counts([0] * order + [1])

    # the registry check reads the galled series when it runs
    monkeypatch.setattr(phylocount.galled, "galled_egf", off_by_one)
    name = "tree-like patterns reproduce the galled series (k <= 5, l <= 20)"
    check = next(fn for _, check_name, fn in verify.CHECKS if check_name == name)
    result = verify.run_check("retvis", name, check)
    assert not result.ok and "leaves=20, rets=0" in result.detail


def test_component_sum():
    assert rv_component_sum(1) == 1
    assert rv_component_sum(2) == sum(rv_count(2, k) for k in range(4))
    from phylocount.galled import galled_tree_sum

    assert rv_component_sum(2) >= galled_tree_sum(2)
    with pytest.raises(ValueError):
        rv_component_sum(4)


def test_component_sum_three_leaves():
    # exhausts the compressed shapes of up to six internal vertices; builds no
    # pattern catalog (well under a second)
    assert rv_component_sum(3) == sum(rv_count(3, k) for k in range(7))


def test_asymmetric_patterns_have_trivial_symmetry():
    # distinct degree signatures force a trivial automorphism group
    for pattern, symmetry in enumerate_patterns(4):
        signatures = [
            (*pattern.profile(v), v == pattern.root)
            for v in range(pattern.m)
        ]
        if len(set(signatures)) == pattern.m:
            assert symmetry == 1


def test_catalog_profiles_match_the_recurrence_rule():
    # c + c1 weighs a double edge twice, so the profiles sum to the total
    # weighted indegree; and the tree-like patterns are those whose every
    # vertex profile the galled recurrence admits
    admits = PATTERN_PROFILES["gn"]
    for m in range(1, 8):
        for pattern, _ in enumerate_patterns(m):
            profiles = [pattern.profile(v) for v in range(m)]
            assert sum(c + c1 for c, c1 in profiles) == 2 * (m - 1)
            assert pattern.is_treelike() == all(admits(c, c1) for c, c1 in profiles)


def test_weighted_totals_are_integral():
    # every public count call asserts integrality internally; exercise a few
    for l in range(1, 10):
        for k in range(0, 4):
            rv_count(l, k)


def test_rv_egf_cache_counts_hits():
    rv_egf(2, 13)
    before = rv_egf.cache_info()
    assert rv_egf(2, 13) is rv_egf(2, 13)
    after = rv_egf.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
