"""Galled counts: series, closed forms, tree sums, identity, asymptotics."""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import pytest

from phylocount import galled
from phylocount.galled import (
    asymptotic_main_term,
    asymptotic_main_term_log,
    asymptotic_ratio,
    closed_form_threshold,
    galled_closed_form,
    galled_count,
    galled_egf,
    galled_sqrt_form,
    galled_tree_sum,
    galled_tree_sum_by_rets,
    gamma_half_identity_check,
    generating_identity_check,
    multifurcating_trees,
    set_partitions,
)
from phylocount.onecomp import (
    block_shift_egf,
    single_reticulation_count,
    tree_count,
)
from phylocount.series import Egf, SqrtPoly

DATA = Path(__file__).parent / "data"


def test_series_matches_baselines():
    # no reticulations: phylogenetic trees
    assert [galled_count(l, 0) for l in range(1, 7)] == [1, 1, 3, 15, 105, 945]
    # one reticulation: the shared closed form
    for l in range(1, 10):
        assert galled_count(l, 1) == single_reticulation_count(l)


def test_series_spot_values():
    assert galled_count(2, 2) == 3
    assert galled_count(3, 2) == 75
    assert galled_count(3, 3) == 114
    assert galled_count(4, 2) == 1575  # frozen from the closed form by hand
    assert galled_count(2, 3) == 0  # beyond 2l - 2


def test_series_support():
    for k in range(0, 6):
        egf = galled_egf(k, 16)
        for l in range(0, 17):
            count = egf.count(l)
            assert count >= 0
            assert (count == 0) == (l < 1 or k > max(2 * l - 2, 0))


def test_closed_forms_and_thresholds():
    assert closed_form_threshold(2) == 1
    assert closed_form_threshold(3) == 2
    assert galled_closed_form(1, 2) == 0
    assert galled_closed_form(2, 3) == 0
    assert galled_closed_form(1, 3) == Fraction(-1, 2)  # outside the validated range
    series2 = galled_egf(2, 40)
    series3 = galled_egf(3, 40)
    for l in range(1, 41):
        assert galled_closed_form(l, 2) == series2.count(l)
    for l in range(2, 41):
        assert galled_closed_form(l, 3) == series3.count(l)


def test_sqrt_forms():
    for k in (1, 2):
        assert galled_sqrt_form(k).egf(24) == galled_egf(k, 24)
    # one reticulation evaluates to zero at the origin and to 2 at two leaves
    one_ret = galled_sqrt_form(1)
    assert one_ret.coeff_z(0) == 0
    assert one_ret.coeff_z(2) * 2 == 2


def test_sqrt_form_golden_files():
    form = SqrtPoly.from_json((DATA / "galled_two_ret_form.json").read_text())
    assert form == galled_sqrt_form(2)
    series = Egf.from_json((DATA / "galled_two_ret_series.json").read_text())
    assert series == galled_egf(2, series.order)


def test_generating_identity():
    ok, bad = generating_identity_check(4, 12)
    assert ok and bad is None
    ok0, _ = generating_identity_check(0, 10)
    assert ok0
    # corrupting one coefficient is detected at that coefficient
    egfs = [galled_egf(k, 12) for k in range(5)]
    coeffs = list(egfs[2].coeffs)
    coeffs[5] += Fraction(1, 7)
    egfs[2] = Egf(tuple(coeffs))
    ok_bad, where = generating_identity_check(4, 12, _egfs=egfs)
    assert not ok_bad and where == (2, 5)


def test_set_partitions_count():
    # Bell numbers 1, 1, 2, 5, 15
    for n, bell in ((0, 1), (1, 1), (2, 2), (3, 5), (4, 15)):
        assert sum(1 for _ in set_partitions(tuple(range(n)))) == bell


def test_multifurcating_tree_counts():
    # total rooted multifurcating leaf-labeled trees: 1, 1, 4, 26, 236
    for n, total in ((1, 1), (2, 1), (3, 4), (4, 26), (5, 236)):
        assert sum(1 for _ in multifurcating_trees(tuple(range(1, n + 1)))) == total


def test_tree_sum_values():
    assert galled_tree_sum(1) == 1
    assert galled_tree_sum(2) == 6
    assert galled_tree_sum_by_rets(3)[1] == 21


def test_tree_sum_matches_series():
    for l in range(1, 6):
        by_rets = galled_tree_sum_by_rets(l)
        assert sum(by_rets) == galled_tree_sum(l)
        assert by_rets == [galled_count(l, k) for k in range(max(2 * l - 1, 1))]
    with pytest.raises(ValueError):
        galled_tree_sum(8)


def test_gamma_identity():
    assert gamma_half_identity_check(8)
    # spot: Gamma(3/2) = sqrt(pi)/2 and Gamma(7/2) = 15 sqrt(pi) / 8
    assert math.isclose(math.gamma(1.5), math.sqrt(math.pi) / 2, rel_tol=1e-12)
    assert math.isclose(math.gamma(3.5), 15 * math.sqrt(math.pi) / 8, rel_tol=1e-12)


def test_gamma_identity_rejects_a_wrong_double_factorial(monkeypatch):
    right = galled.double_factorial
    monkeypatch.setattr(galled, "double_factorial", lambda n: right(n + 2))
    assert not gamma_half_identity_check(8)


def test_asymptotic_log_matches_direct_evaluation():
    l, k = 20, 2
    direct = (
        2 ** (k - 1)
        * math.sqrt(2)
        / math.factorial(k)
        * (2 / math.e) ** l
        * l ** (l + 2 * k - 1)
    )
    assert math.isclose(asymptotic_main_term_log(l, k), math.log(direct), rel_tol=1e-12)
    mantissa, exponent = asymptotic_main_term(l, k)
    assert math.isclose(mantissa * 10.0**exponent, direct, rel_tol=1e-9)


def test_asymptotic_ratios_improve():
    assert abs(asymptotic_ratio(tree_count(200), 200, 0) - 1) < 0.01
    for k in (1, 2, 3):
        if k == 1:
            counts = {l: single_reticulation_count(l) for l in (100, 400)}
        else:
            counts = {l: galled_closed_form(l, k) for l in (100, 400)}
        r100 = asymptotic_ratio(counts[100], 100, k)
        r400 = asymptotic_ratio(counts[400], 400, k)
        assert abs(r400 - 1) < abs(r100 - 1)


def test_block_shift_alias():
    # the series construction reuses the shifted block series; check linkage
    assert galled_egf(1, 10) == block_shift_egf(1, 10) * galled_egf(0, 10)


def test_galled_egf_cache_counts_hits():
    galled_egf(2, 17)
    before = galled_egf.cache_info()
    assert galled_egf(2, 17) is galled_egf(2, 17)
    after = galled_egf.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
