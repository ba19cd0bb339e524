"""Acceptance suite: one test per criterion, each running the `verify`
registry checks listed for it in `CRITERIA` and printing a pass/fail line
(`pytest tests/test_acceptance.py -v -s`).  Every registry check that no
criterion claims runs as a `test_unclaimed_check` case.

The one assertion outside the registry is criterion 11's 5% envelope at 400
leaves, expected to fail for k >= 2: the main-term ratio gap decays only
like 1/sqrt(leaves) with k-dependent constants (see the README).  As a
registry check it would make `verify` exit 1.
"""

from __future__ import annotations

import time

import pytest

from phylocount import galled, retvis, verify

CHECKS = {(suite, name): fn for suite, name, fn in verify.CHECKS}

CRITERIA = {
    1: (1.0, "block recurrence equals closed forms for l <= 50", [
        ("onecomp", "smallest nontrivial block count"),
        ("onecomp", "recurrence equals closed forms (rets 1, 2; l <= 50)"),
    ]),
    2: (10.0, "galled series equals closed forms through l = 40", [
        ("galled", "closed forms match series from their thresholds through l = 40"),
    ]),
    3: (30.0, "visible pattern sum equals closed forms through l = 40", [
        ("retvis", "closed forms match recurrence series from their thresholds through l = 40"),
    ]),
    4: (1.0, "pattern catalogs: 3 and 13 members, known symmetries", [
        ("retvis", "pattern catalog sizes and symmetry factors"),
    ]),
    5: (5.0, "closed generating-function displays match series at order 24", [
        ("galled", "closed Laurent forms match series"),
        ("retvis", "tree/non-tree split matches closed Laurent forms"),
        ("retvis", "generating-function displays match series at order 24"),
    ]),
    6: (5.0, "bivariate fixed-point identity at K = 4, T = 12", [
        ("galled", "bivariate fixed-point identity (K=4, T=12)"),
    ]),
    7: (60.0, "tree sum equals series counts for l <= 5", [
        ("galled", "tree sum equals series counts (l <= 5)"),
    ]),
    8: (300.0, "exhaustive counts match formulas and series", [
        ("oracle", "exhaustive matrix matches formulas and series"),
        ("oracle", "tree count at 4 leaves"),
    ]),
    9: (300.0, "saturation bound and decompression round trips", [
        ("appendix", "saturation at 2 leaves: max 3 reticulations, count equals tree-child count"),
        ("appendix", "decompression: valid, visible, saturated, injective, round-trips"),
    ]),
    10: (1.0, "coefficient formula thresholds (table below)", [
        ("genfun", "coefficient formula thresholds"),
        ("genfun", "formula matches exact extraction beyond thresholds"),
    ]),
    11: (60.0, "main-term ratios: improvement and 5% envelope; gamma identity", [
        ("galled", "gamma half-integer identity (k <= 8, 1e-12)"),
        ("galled", "main-term ratio improves from l = 100 to l = 400 (k <= 3)"),
        ("retvis", "main-term ratio improves from l = 100 to l = 400 (k <= 3)"),
    ]),
    12: (1.0, "closed forms vanish at the class boundaries", [
        ("galled", "closed forms match series from their thresholds through l = 40"),
        ("retvis", "closed forms match recurrence series from their thresholds through l = 40"),
    ]),
}
CLAIMED = {key for _, _, keys in CRITERIA.values() for key in keys}


def run_criterion(number: int, extra=None) -> None:
    """Run a criterion's registry checks, then `extra()` (a list of further
    failure messages), and print the criterion's pass/fail line."""
    budget, summary, keys = CRITERIA[number]
    start = time.perf_counter()
    results = {key: verify.run_check(*key, CHECKS[key]) for key in keys}
    failures = [f"[{r.suite}] {r.name} ({r.detail})" for r in results.values() if not r.ok]
    if number == 10:
        print("  threshold table:", results["genfun", "coefficient formula thresholds"].detail)
    failures += extra() if extra else []
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d}: {'FAIL' if failures else 'PASS'} — {summary} ({elapsed:.2f}s)")
    assert not failures, "; ".join(failures)
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s"


def test_criterion_01_block_table():
    run_criterion(1)


def test_criterion_02_galled_cross_method():
    run_criterion(2)


def test_criterion_03_visible_cross_method():
    run_criterion(3)


def test_criterion_04_pattern_catalog():
    run_criterion(4)


def test_criterion_05_generating_function_displays():
    run_criterion(5)


def test_criterion_06_fixed_point_identity():
    run_criterion(6)


def test_criterion_07_tree_sum():
    run_criterion(7)


def test_criterion_08_exhaustive_matrix():
    run_criterion(8)


def test_criterion_09_saturation_and_decompression():
    run_criterion(9)


def test_criterion_10_coefficient_formula():
    run_criterion(10)


def _envelope_violations() -> list[str]:
    """|count / main term - 1| at 400 leaves must be within 5% for k <= 3."""
    gaps = {"gn": verify.main_term_gaps(galled.galled_closed_form), "rv": verify.main_term_gaps(retvis.rv_closed_form)}
    print(
        "  measured |ratio - 1|:",
        " ".join(
            f"{cls},k={k}: {gap[k, 100]:.4f}@100 {gap[k, 400]:.4f}@400"
            for cls, gap in gaps.items()
            for k in (1, 2, 3)
        ),
    )
    violations = {(cls, k): gap[k, 400] for cls, gap in gaps.items() for k in (1, 2, 3) if gap[k, 400] > 0.05}
    if not violations:
        return []
    return [
        "5% envelope exceeded at 400 leaves (gap decays as 1/sqrt(leaves) "
        f"with k-dependent constants): {violations}"
    ]


def test_criterion_11_asymptotics():
    run_criterion(11, _envelope_violations)


def test_criterion_12_boundary_zeros():
    run_criterion(12)


@pytest.mark.parametrize(
    "suite, name",
    [key for key in CHECKS if key not in CLAIMED],
    ids=lambda value: value,
)
def test_unclaimed_check(suite, name):
    result = verify.run_check(suite, name, CHECKS[suite, name])
    assert result.ok, result.detail
