"""Verification checks behind the `verify` command and the acceptance suite.

`CHECKS` is the one registry of (suite, name, fn) entries; each fn takes no
arguments and returns ok or (ok, detail).  `run_suite` runs the entries of
one suite, or of all of them, in registry order; a check that raises fails
with the exception as its detail, and the others still run.
tests/test_acceptance.py maps the acceptance criteria onto these entries.
The oracle suite runs the exhaustive cross-check matrix (about 8 s on a
2-vCPU machine).
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from types import MappingProxyType
from typing import Callable

from phylocount import canon, galled, networks, onecomp, oracle, retvis, series
from phylocount.records import Record
from phylocount.series import SqrtPoly

SUITES = ("genfun", "onecomp", "galled", "retvis", "oracle", "appendix")
# validated threshold of the gn and rv closed forms, per reticulation count
CLOSED_FORM_THRESHOLDS = {2: 1, 3: 2}
# pattern catalog per vertex count: size and sorted symmetry factors
CATALOGS = {3: (3, [1, 1, 2]), 4: (13, [1] * 9 + [2, 2, 2, 6])}
MATRIX_CELLS = [(l, k) for l in (1, 2, 3) for k in range(0, 4)] + [(2, 4), (2, 5)]
# the cells whose enumerated networks the registry validates from scratch
FRESH_CELLS = [(l, k) for l in range(1, 6) for k in range(6 - l)]
SPOT_VALUES = {(2, 2): {"gn": 3, "rv": 5}, (3, 1): dict.fromkeys(("pn", "rv", "gn", "tc"), 21)}


class CheckResult(Record):
    __slots__ = _fields = ("suite", "name", "ok", "detail")
    suite: str
    name: str
    ok: bool
    detail: str

    def __init__(self, suite: str, name: str, ok: bool, detail: str = ""):
        self._set(suite, name, ok, detail)


def run_check(suite: str, name: str, fn: Callable[[], object]) -> CheckResult:
    try:
        outcome = fn()
    except Exception as exc:  # one failing check must not stop the others
        return CheckResult(suite, name, False, f"{type(exc).__name__}: {exc}")
    ok, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
    return CheckResult(suite, name, bool(ok), str(detail))


def run_suite(name: str) -> list[CheckResult]:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [run_check(*entry) for entry in CHECKS if name in ("all", entry[0])]


@functools.cache
def _formula_thresholds() -> dict[int, int]:
    """Validity thresholds of the coefficient formula for each d in series.FORMULA_EXPONENTS."""
    return {d: series.formula_threshold(d) for d in series.FORMULA_EXPONENTS}


def _formula_threshold_bound():
    table = _formula_thresholds()
    rows = ", ".join(f"{d}:{n0}" for d, n0 in sorted(table.items()))
    return all(n0 <= max(0, math.ceil(d / 2)) + 1 for d, n0 in table.items()), rows


def _formula_matches_extraction():
    return all(
        series.sqrt_pow_coeff_formula(d, n) == series.sqrt_pow_coeff(d, n)
        for d, n0 in _formula_thresholds().items()
        for n in range(n0, series.FORMULA_N_MAX + 1)
    )


def _algebra_laws():
    rng = random.Random(421)
    for _ in range(25):
        a = _random_sqrt_poly(rng)
        b = _random_sqrt_poly(rng)
        c = _random_sqrt_poly(rng)
        if a * b != b * a or (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
            return False
        if a.diff_z().egf(7) != a.egf(8).diff(1):
            return False
    return True


def _random_sqrt_poly(rng: random.Random) -> SqrtPoly:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[rng.randint(-6, 6)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return SqrtPoly.of(terms)


def _z_poly_round_trip():
    poly = [Fraction(3), Fraction(-1), Fraction(7), Fraction(-4)]
    image = SqrtPoly.from_z_poly(poly)
    return [image.coeff_z(n) for n in range(4)] == poly and image.coeff_z(4) == 0


def _block_closed_forms():
    return all(
        onecomp.block_count(l, 1) == onecomp.block_closed_one(l)
        and onecomp.block_count(l, 2) == onecomp.block_closed_two(l)
        for l in range(1, 51)
    )


def _blocks_nonnegative():
    onecomp.block_count(60, 60)  # fill the table once, from its far corner
    return all(onecomp.block_count(l, k) >= 0 for l in range(1, 61) for k in range(0, l + 1))


def _block_polynomials():
    for k in range(1, 7):
        onecomp.block_polynomial(k)  # raises unless of degree 2k with leading coefficient 2^k
    return True


def _shift_is_derivative():
    # differentiate coefficient by coefficient, c'_n = (n + 1) c_(n+1), a
    # route that shares no code with Egf.diff
    for k in range(0, 7):
        coeffs = list(onecomp.block_series(0, k, 16 + k).coeffs)
        for _ in range(k):
            coeffs = [(n + 1) * coeffs[n + 1] for n in range(len(coeffs) - 1)]
        if list(onecomp.block_series(k, k, 16).coeffs) != coeffs:
            return False
    return True


def _galled_support():
    for k in range(0, 7):
        egf = galled.galled_egf(k, 40)
        for l in range(0, 41):
            count = egf.count(l)  # raises if not integral
            if count < 0 or (count == 0) != (k > max(2 * l - 2, 0) or l < 1):
                return False
    return True


def _closed_forms_match(threshold, closed_form, egf, zeros):
    """The closed forms for rets 2, 3 equal the series counts from their
    validated thresholds through l = 40, and vanish at the cells `zeros`."""
    thresholds = {k: threshold(k) for k in (2, 3)}
    ok = thresholds == CLOSED_FORM_THRESHOLDS and all(closed_form(l, k) == 0 for l, k in zeros)
    for k in (2, 3):
        counts = egf(k, 40).counts()  # raises if a count is not integral
        ok = ok and all(closed_form(l, k) == counts[l] for l in range(thresholds[k], 41))
    return ok, f"thresholds {thresholds}"


def _tree_sum():
    for l in range(1, 6):
        by_rets = galled.galled_tree_sum_by_rets(l)
        if any(value != galled.galled_count(l, k) for k, value in enumerate(by_rets)):
            return False
    return True


def main_term_gaps(closed_form) -> dict[tuple[int, int], float]:
    """|count / main term - 1| by (k, l) for k = 1, 2, 3 and l = 100, 400, with
    `closed_form(l, k)` giving the counts at k >= 2."""
    gaps = {}
    for k in (1, 2, 3):
        for l in (100, 400):
            count = onecomp.single_reticulation_count(l) if k == 1 else closed_form(l, k)
            gaps[k, l] = abs(galled.asymptotic_ratio(count, l, k) - 1)
    return gaps


def _main_term_improves(closed_form) -> bool:
    gaps = main_term_gaps(closed_form)
    return all(gaps[k, 400] < gaps[k, 100] for k in (1, 2, 3))


def _catalog_sizes():
    for m, (size, symmetries) in CATALOGS.items():
        catalog = retvis.enumerate_patterns(m)
        if len(catalog) != size or sorted(s for _, s in catalog) != symmetries:
            return False
    return True


def _catalog_stable():
    rng = random.Random(7)
    for pattern, _ in retvis.enumerate_patterns(4):
        perm = {0: 0}
        rest = list(range(1, pattern.m))
        shuffled = rest[:]
        rng.shuffle(shuffled)
        perm.update(zip(rest, shuffled))
        relabeled = canon.DagPattern(
            pattern.m,
            tuple(sorted((perm[u], perm[v], mult) for u, v, mult in pattern.edges)),
        )
        if relabeled.canonical_bytes() != pattern.canonical_bytes():
            return False
    return True


def _treelike_galled():
    # the catalog's tree-like patterns against the galled recurrence
    for k in range(0, 6):
        pairs = zip(retvis.pattern_sum_egf("gn", k, 20).coeffs, galled.galled_egf(k, 20).coeffs)
        first = next((l for l, (catalog, series) in enumerate(pairs) if catalog != series), None)
        if first is not None:
            return False, f"tree-like pattern sum differs from the galled series at (leaves={first}, rets={k})"
    return True


def _galled_dominated():
    for k in range(0, 4):
        gn_egf = galled.galled_egf(k, 25)
        rv_egf = retvis.rv_egf(k, 25)
        for l in range(1, 26):
            gn_c = gn_egf.count(l)
            rv_c = rv_egf.count(l)
            if gn_c > rv_c or (k <= 1 and gn_c != rv_c):
                return False
    return True


@functools.cache
def laurent_forms() -> MappingProxyType:
    """The paper's generating-function displays as Laurent polynomials in
    x = sqrt(1 - 2z), each entered once and built on first use.

    A vertex profile (c, c1) keys the form of block_series(c, c1), so B_k is
    (0, k) and F_k is (k, k); (1, 0) and (2, 1) are the other vertex series
    of the three-vertex patterns.  "G1" is the explicit one-reticulation
    galled series, "tree" and "non-tree" the halves of the four-vertex
    pattern sum, and "two-ret" the two-reticulation visible display."""
    x, z = SqrtPoly.x_power, SqrtPoly.from_z_poly
    one = x(0)
    b0 = one - x(1)
    one_plus_x = one + x(1)
    f2 = z([3, -1, 7, -4]).exact_div(x(7))
    # the z^5 coefficient of the first tree-like term is pinned by an exact fit
    # of the tree-like pattern sum (the sum equals the three-reticulation
    # galled series, so the fit is doubly anchored)
    tree_terms = (
        (z([0, 0, 0, 4]) * z([29, 12, 29, -37, 36, -16])).exact_div(x(11) * one_plus_x**3),
        (z([0, 0, 0, 6]) * f2).exact_div(x(3) * one_plus_x**2),
        z([0, 0, 0, 0, 2]).exact_div(x(9) * one_plus_x),
    )
    return MappingProxyType({
        (0, 0): b0,
        (0, 1): (b0**2).exact_div(x(1, 2)),
        # (4z^2 - 7z + 4 + (5 - 4z) x) (1 - x)^2 / (6 x^3)
        (0, 2): ((z([4, -7, 4]) + z([5, -4]) * x(1)) * b0**2).exact_div(x(3, 6)),
        (1, 0): x(-1) - one,
        (1, 1): z([0, 1]).exact_div(x(3)),
        (2, 1): z([1, 1]).exact_div(x(5)),
        (2, 2): f2,
        "G1": (z([0, 1]) * b0).exact_div(x(3)),
        "tree": sum(tree_terms, SqrtPoly.zero()),
        # the x^4 and x^6 coefficients are pinned by an exact fit of the
        # pattern sum (exponents -10..3, verified through order 34)
        "non-tree": (
            b0**2 * SqrtPoly.of({0: 258, 1: -105, 2: -153, 3: -16, 4: 14, 5: 7, 6: 7, 7: -2, 8: -2})
        ).exact_div(x(10, 8)),
        "two-ret": (b0**2 * SqrtPoly.of({0: 15, 2: -6, 4: 1, 6: 2})).exact_div(x(7, 8)),
    })


def galled_sqrt_form(rets: int) -> SqrtPoly:
    """Closed Laurent form of the galled EGF for rets in {1, 2}, built from
    the table's B0, F1 and F2 by the fixed point G(v) = Phi(v G(v)): two
    passes of :func:`galled.fixed_point_expansion` from G_0 = B_0, a route
    apart from the pattern recurrence.  The one-reticulation form must also
    equal the explicit G1."""
    if rets not in (1, 2):
        raise ValueError("closed Laurent forms are kept for rets in {1, 2}")
    forms = laurent_forms()
    fs = [forms[j, j] for j in range(3)]
    one = galled.fixed_point_expansion(fs[:1], fs[:2])
    if one[1] != forms["G1"]:
        raise ArithmeticError("one-reticulation Laurent forms disagree")
    return (one if rets == 1 else galled.fixed_point_expansion(one, fs))[rets]


def three_ret_split_check():
    """Compare the four-vertex pattern sums with their closed Laurent forms,
    coefficient by coefficient through z^34: the tree-like sum (gn) with the
    "tree" form, the whole sum (rv) with "tree" plus "non-tree".

    Returns (True, None) or (False, (which, n)) at the first disagreement.
    """
    order = 34
    forms = laurent_forms()
    halves = {
        "tree": (retvis.pattern_sum_egf("gn", 3, order), forms["tree"]),
        "non-tree": (retvis.pattern_sum_egf("rv", 3, order), forms["tree"] + forms["non-tree"]),
    }
    bad = [(half, n) for half, (computed, form) in halves.items() for n in range(order + 1)
           if computed.coeff(n) != form.coeff_z(n)]
    return not bad, (bad[0] if bad else None)


def _displays():
    order = 24
    forms = laurent_forms()
    profiles = [key for key in forms if isinstance(key, tuple)]
    catalog_profiles = {
        pattern.profile(v)
        for pattern, _ in retvis.enumerate_patterns(3)
        for v in range(pattern.m)
    }
    # both printed forms of the two-reticulation visible display, and the
    # star-pattern contribution F2 * E0^2 / 2 they must equal
    f2, b0 = forms[2, 2], forms[0, 0]
    printed = f2 * (SqrtPoly.from_z_poly([1, -1]) - SqrtPoly.x_power(1))
    parts = {
        "profile forms": all(
            forms[c, c1].egf(order) == onecomp.block_series(c, c1, order) for c, c1 in profiles
        ),
        "vertex profiles": catalog_profiles <= set(profiles),
        "two-reticulation display": printed == forms["two-ret"] == (f2 * b0**2).scale(Fraction(1, 2)),
    }
    return all(parts.values()), ", ".join(part for part, ok in parts.items() if not ok)


def _galled_by_max_flow(net: networks.Network) -> bool:
    """Reference galled test straight from the definition, independent of
    component graphs: every reticulation r sits in a tree cycle, i.e. some
    tree vertex s has two edge-disjoint paths to r whose interior vertices
    are all tree vertices (a unit-capacity max flow of 2)."""
    kinds = net.kinds()
    rets = [v for v in range(net.n) if kinds[v] is networks.VertexKind.RETICULATION]
    trees = [v for v in range(net.n) if kinds[v] is networks.VertexKind.TREE]
    return all(any(_two_edge_disjoint_paths(net, kinds, s, r) for s in trees) for r in rets)


def _two_edge_disjoint_paths(net: networks.Network, kinds, s: int, r: int) -> bool:
    # Unit-capacity max flow from s to r through tree-vertex interiors only.
    allowed = [kinds[v] is networks.VertexKind.TREE for v in range(net.n)]
    capacity: dict[tuple[int, int], int] = {}
    for v in range(net.n):
        if not allowed[v]:
            continue
        for w in net.children[v]:
            if allowed[w] or w == r:
                capacity[(v, w)] = 1
    flow = 0
    while flow < 2:
        # BFS for an augmenting path in the residual graph
        prev = {s: None}
        queue = [s]
        while queue and r not in prev:
            u = queue.pop(0)
            for (a, b), cap in capacity.items():
                if a == u and cap > 0 and b not in prev:
                    prev[b] = u
                    queue.append(b)
        if r not in prev:
            return False
        v = r
        while prev[v] is not None:
            u = prev[v]
            capacity[(u, v)] -= 1
            capacity[(v, u)] = capacity.get((v, u), 0) + 1
            v = u
        flow += 1
    return True


def _exhaustive_matrix():
    details = []
    for l, k in MATRIX_CELLS:
        counts = oracle.count_by_class(l, k)
        found = counts.as_dict()
        cell_ok = counts.gn == galled.galled_count(l, k) and counts.rv == retvis.rv_count(l, k)
        cell_ok = cell_ok and all(found[c] == v for c, v in SPOT_VALUES.get((l, k), {}).items())
        if k == 0:
            cell_ok = cell_ok and found == dict.fromkeys(found, onecomp.tree_count(l))
        if k == 1:
            shared = onecomp.single_reticulation_count(l)
            cell_ok = cell_ok and all(found[c] == shared for c in ("pn", "rv", "gn", "tc"))
        if k == 2:
            cell_ok = cell_ok and counts.normal == onecomp.normal_two_reticulation_count(l)
        ordered = (
            counts.normal <= counts.tc <= counts.rv <= counts.pn and counts.gn <= counts.rv
        )
        if not (cell_ok and ordered):
            details.append(f"({l},{k}): {found}")
    return not details, "; ".join(details)


def _tree_count_at_4():
    trees = oracle.count_by_class(4, 0).pn
    return trees == onecomp.tree_count(4), trees


def _enumerated_networks():
    # the enumerator keeps a verdict on each network it builds without
    # validating it, so the checks run on fresh copies, which keep none and
    # validate from scratch: every network of every cell of at most 10
    # vertices
    for l, k in FRESH_CELLS:
        nets = [
            networks.Network(net.children, net.leaf_labels, net.root) for net in oracle.enumerate_networks(l, k)
        ]
        if any(networks.validation_errors(net) for net in nets):
            return False
        if len({networks.canonical_code(net) for net in nets}) != len(nets):
            return False
        for net in nets:
            # building the component graph checks its weighted indegrees
            treelike = networks.component_graph(net).pattern.is_treelike()
            if not networks.is_galled(net) == treelike == _galled_by_max_flow(net):
                return False
            if networks.is_normal(net) and not networks.is_tree_child(net):
                return False
            if networks.is_tree_child(net) and not networks.is_reticulation_visible(net):
                return False
            if networks.is_galled(net) and not networks.is_reticulation_visible(net):
                return False
    return True


def _saturation():
    summary = oracle.max_reticulation_summary()
    return summary == {"max_rets": 3, "count_at_max": 2, "tc_max_count": 2}, str(summary)


def _capacity_identity():
    return all(
        oracle.reticulation_capacity(net) == 2 * l + k - 2
        for l, k in ((2, 1), (3, 1), (3, 2))
        for net in oracle.enumerate_networks(l, k)
        if networks.is_tree_child(net)
    )


def _multifurcation_split():
    star = [[1, 2, 3], [], [], []]  # multifurcating compressed shape
    before = oracle.reticulation_capacity(star)
    after = oracle.reticulation_capacity(oracle.split_multifurcation(star, 0))
    return after == before + 1, f"{before} -> {after}"


def _decompression():
    images = []
    round_trips = True
    for net in oracle.enumerate_networks(3, 2):
        if not networks.is_tree_child(net):
            continue
        image = oracle.decompress_max_reticulated(net)
        images.append(image)
        if (
            networks.validation_errors(image)
            or image.num_reticulations != 6
            or not networks.is_reticulation_visible(image)
        ):
            round_trips = False
        actual = networks.component_graph(image).canonical_bytes()
        if actual != oracle.expected_compressed_form(net).canonical_bytes():
            round_trips = False
    codes = {networks.canonical_code(img) for img in images}
    injective = len(codes) == len(images) == oracle.count_by_class(3, 2).tc
    return round_trips and injective, f"{len(images)} images"


CHECKS: list[tuple[str, str, Callable[[], object]]] = [
    ("genfun", "coefficient formula thresholds", _formula_threshold_bound),
    ("genfun", "formula matches exact extraction beyond thresholds", _formula_matches_extraction),
    ("genfun", "algebra laws and derivative consistency", _algebra_laws),
    ("genfun", "z-polynomial round trip", _z_poly_round_trip),
    ("onecomp", "smallest nontrivial block count", lambda: onecomp.block_count(2, 1) == 1),
    ("onecomp", "recurrence equals closed forms (rets 1, 2; l <= 50)", _block_closed_forms),
    ("onecomp", "block counts nonnegative and integral (l <= 60)", _blocks_nonnegative),
    ("onecomp", "block polynomial degree 2k, leading coefficient 2^k (k <= 6)", _block_polynomials),
    ("onecomp", "shifted series equals k-fold derivative (k <= 6)", _shift_is_derivative),
    ("galled", "series counts integral, zero exactly beyond 2l-2 (l <= 40)", _galled_support),
    # the thresholds scan the recurrence series, so the forms meet the catalog's
    ("galled", "closed forms match series from their thresholds through l = 40", lambda: _closed_forms_match(
        galled.closed_form_threshold, galled.galled_closed_form,
        lambda k, order: retvis.pattern_sum_egf("gn", k, order), [(1, 2), (2, 3)],
    )),
    ("galled", "closed Laurent forms match series", lambda: all(
        galled_sqrt_form(k).egf(24) == galled.galled_egf(k, 24) for k in (1, 2)
    )),
    ("galled", "bivariate fixed-point identity (K=4, T=12)", lambda: galled.generating_identity_check(4, 12)),
    ("galled", "tree sum equals series counts (l <= 5)", _tree_sum),
    ("galled", "gamma half-integer identity (k <= 8, 1e-12)", galled.gamma_half_identity_check),
    ("galled", "main-term ratio improves from l = 100 to l = 400 (k <= 3)",
     lambda: _main_term_improves(galled.galled_closed_form)),
    ("retvis", "pattern catalog sizes and symmetry factors", _catalog_sizes),
    ("retvis", "catalog stable under relabeling", _catalog_stable),
    ("retvis", "closed forms match recurrence series from their thresholds through l = 40", lambda: (
        _closed_forms_match(retvis.closed_form_threshold, retvis.rv_closed_form, retvis.rv_egf, [(1, 2)])
    )),
    ("retvis", "galled <= visible pointwise, equal for k <= 1 (l <= 25)", _galled_dominated),
    ("retvis", "counts vanish beyond 3l-3 (l in {1,2}, k <= 7)", lambda: all(
        retvis.rv_count(l, k) == 0 for l in (1, 2) for k in range(3 * l - 2, 8)
    )),
    ("retvis", "tree/non-tree split matches closed Laurent forms", three_ret_split_check),
    ("retvis", "tree-like patterns reproduce the galled series (k <= 5, l <= 20)", _treelike_galled),
    ("retvis", "generating-function displays match series at order 24", _displays),
    ("retvis", "component-graph sum matches series totals (l <= 2)", lambda: (
        retvis.rv_component_sum(1) == 1
        and retvis.rv_component_sum(2) == sum(retvis.rv_count(2, k) for k in range(4))
    )),
    ("retvis", "main-term ratio improves from l = 100 to l = 400 (k <= 3)",
     lambda: _main_term_improves(retvis.rv_closed_form)),
    ("oracle", "exhaustive matrix matches formulas and series", _exhaustive_matrix),
    # the matrix already checks every class against tree_count at (l, 0) for l <= 3
    ("oracle", "tree count at 4 leaves", _tree_count_at_4),
    ("oracle", "every enumerated network validates; codes distinct; predicates consistent", _enumerated_networks),
    ("appendix", "saturation at 2 leaves: max 3 reticulations, count equals tree-child count", _saturation),
    ("appendix", "capacity identity 2l + k - 2 on tree-child inputs", _capacity_identity),
    ("appendix", "multifurcation split raises capacity by one", _multifurcation_split),
    ("appendix", "decompression: valid, visible, saturated, injective, round-trips", _decompression),
]
