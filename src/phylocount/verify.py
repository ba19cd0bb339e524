"""Verification suites behind the `verify` command.

Each suite returns a list of (name, ok, detail) checks mirroring the library
invariants; `run_suite("all")` chains every suite.  The oracle suite runs the
full exhaustive cross-check matrix and takes a couple of minutes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from phylocount import galled, networks, onecomp, oracle, retvis, series


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _check(results: list, suite: str, name: str, ok: bool, detail: str = ""):
    results.append(CheckResult(suite, name, bool(ok), detail))


def genfun_suite() -> list[CheckResult]:
    out: list[CheckResult] = []
    table = series.formula_threshold_table(-9, 9, 60)
    rows = ", ".join(f"{d}:{n0}" for d, n0 in sorted(table.items()))
    bound_ok = all(n0 <= max(0, math.ceil(d / 2)) + 1 for d, n0 in table.items())
    _check(out, "genfun", "coefficient formula thresholds", bound_ok, rows)
    agree = all(
        series.sqrt_pow_coeff_formula(d, n) == series.sqrt_pow_coeff(d, n)
        for d, n0 in table.items()
        for n in range(n0, 61)
    )
    _check(out, "genfun", "formula matches exact extraction beyond thresholds", agree)
    rng = random.Random(421)
    props_ok = True
    for _ in range(25):
        a = _random_sqrt_poly(rng)
        b = _random_sqrt_poly(rng)
        c = _random_sqrt_poly(rng)
        if a * b != b * a or (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
            props_ok = False
            break
        if a.diff_z().egf(7) != a.egf(8).diff(1):
            props_ok = False
            break
    _check(out, "genfun", "algebra laws and derivative consistency", props_ok)
    poly = [Fraction(3), Fraction(-1), Fraction(7), Fraction(-4)]
    image = series.SqrtPoly.from_z_poly(poly)
    round_trip = [image.coeff_z(n) for n in range(4)] == poly and image.coeff_z(4) == 0
    _check(out, "genfun", "z-polynomial round trip", round_trip)
    return out


def _random_sqrt_poly(rng: random.Random) -> series.SqrtPoly:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[rng.randint(-6, 6)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return series.SqrtPoly.of(terms)


def onecomp_suite() -> list[CheckResult]:
    out: list[CheckResult] = []
    _check(
        out,
        "onecomp",
        "smallest nontrivial block count",
        onecomp.block_count(2, 1) == 1,
    )
    ok1 = all(onecomp.block_count(l, 1) == onecomp.block_closed_one(l) for l in range(1, 51))
    ok2 = all(onecomp.block_count(l, 2) == onecomp.block_closed_two(l) for l in range(1, 51))
    _check(out, "onecomp", "recurrence equals closed forms (rets 1, 2; l <= 50)", ok1 and ok2)
    nonneg = all(
        onecomp.block_count(l, k) >= 0 for l in range(1, 61) for k in range(0, l + 1)
    )
    _check(out, "onecomp", "block counts nonnegative and integral (l <= 60)", nonneg)
    poly_ok = True
    for k in range(1, 7):
        coeffs = onecomp.block_polynomial(k)
        if len(coeffs) - 1 != 2 * k or coeffs[-1] != 2**k:
            poly_ok = False
    _check(out, "onecomp", "block polynomial degree 2k, leading coefficient 2^k (k <= 6)", poly_ok)
    shift_ok = all(
        onecomp.block_shift_egf(k, 16) == onecomp.block_egf(k, 16 + k).diff(k)
        for k in range(0, 7)
    )
    _check(out, "onecomp", "shifted series equals k-fold derivative (k <= 6)", shift_ok)
    return out


def galled_suite() -> list[CheckResult]:
    out: list[CheckResult] = []
    support_ok = True
    for k in range(0, 7):
        egf = galled.galled_egf(k, 40)
        for l in range(0, 41):
            count = egf.count(l)  # raises if not integral
            if count < 0 or (count == 0) != (k > max(2 * l - 2, 0) or l < 1):
                support_ok = False
    _check(out, "galled", "series counts integral, zero exactly beyond 2l-2 (l <= 40)", support_ok)
    thresholds = {k: galled.closed_form_threshold(k) for k in (2, 3)}
    closed_ok = thresholds == {2: 1, 3: 2}
    series40 = {k: galled.galled_egf(k, 40) for k in (2, 3)}
    for k in (2, 3):
        for l in range(thresholds[k], 41):
            if galled.galled_closed_form(l, k) != series40[k].count(l):
                closed_ok = False
    _check(
        out,
        "galled",
        "closed forms match series from their thresholds through l = 40",
        closed_ok,
        f"thresholds {thresholds}",
    )
    sqrt_ok = all(galled.galled_sqrt_form(k).egf(24) == galled.galled_egf(k, 24) for k in (1, 2))
    _check(out, "galled", "closed Laurent forms match series", sqrt_ok)
    identity_ok, bad = galled.generating_identity_check(4, 12)
    _check(out, "galled", "bivariate fixed-point identity (K=4, T=12)", identity_ok, str(bad))
    tree_ok = True
    for l in range(1, 6):
        by_rets = galled.galled_tree_sum_by_rets(l)
        if sum(by_rets) != galled.galled_tree_sum(l):
            tree_ok = False
        for k, value in enumerate(by_rets):
            if value != galled.galled_count(l, k):
                tree_ok = False
    _check(out, "galled", "tree sum equals series counts (l <= 5)", tree_ok)
    gamma_ok = galled.gamma_half_identity_check(8)
    _check(out, "galled", "gamma half-integer identity (k <= 8, 1e-12)", gamma_ok)
    improving = True
    for k in (1, 2, 3):
        counts = {
            l: (
                onecomp.single_reticulation_count(l)
                if k == 1
                else galled.galled_closed_form(l, k)
            )
            for l in (100, 400)
        }
        r100 = galled.asymptotic_ratio(counts[100], 100, k)
        r400 = galled.asymptotic_ratio(counts[400], 400, k)
        if abs(r400 - 1) >= abs(r100 - 1):
            improving = False
    _check(out, "galled", "main-term ratio improves from l = 100 to l = 400 (k <= 3)", improving)
    return out


def retvis_suite() -> list[CheckResult]:
    out: list[CheckResult] = []
    cat3 = retvis.enumerate_patterns(3)
    cat4 = retvis.enumerate_patterns(4)
    sizes_ok = len(cat3) == 3 and len(cat4) == 13
    syms_ok = sorted(s for _, s in cat3) == [1, 1, 2] and sorted(s for _, s in cat4) == [
        1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 6,
    ]
    _check(out, "retvis", "pattern catalog sizes and symmetry factors", sizes_ok and syms_ok)
    stable = True
    rng = random.Random(7)
    for pattern, _ in cat4:
        perm = {0: 0}
        rest = list(range(1, pattern.m))
        shuffled = rest[:]
        rng.shuffle(shuffled)
        perm.update(zip(rest, shuffled))
        relabeled = networks.DagPattern(
            pattern.m,
            tuple(sorted((perm[u], perm[v], mult) for u, v, mult in pattern.edges)),
        )
        if relabeled.canonical_bytes() != pattern.canonical_bytes():
            stable = False
    _check(out, "retvis", "catalog stable under relabeling", stable)
    thresholds = {k: retvis.closed_form_threshold(k) for k in (2, 3)}
    closed_ok = thresholds == {2: 1, 3: 2}
    for k in (2, 3):
        egf = retvis.rv_egf(k, 40)
        for l in range(thresholds[k], 41):
            if retvis.rv_closed_form(l, k) != egf.count(l):
                closed_ok = False
    _check(
        out,
        "retvis",
        "closed forms match pattern-sum series through l = 40",
        closed_ok,
        f"thresholds {thresholds}",
    )
    dominance_ok = True
    for k in range(0, 4):
        gn_egf = galled.galled_egf(k, 25)
        rv_egf = retvis.rv_egf(k, 25)
        for l in range(1, 26):
            gn_c = gn_egf.count(l)
            rv_c = rv_egf.count(l)
            if gn_c > rv_c or (k <= 1 and gn_c != rv_c):
                dominance_ok = False
    _check(out, "retvis", "galled <= visible pointwise, equal for k <= 1 (l <= 25)", dominance_ok)
    zeros_ok = all(
        retvis.rv_count(l, k) == 0 for l in (1, 2) for k in range(3 * l - 2, 8)
    ) and all(retvis.vanishing_certificate(7, l) for l in (1, 2))
    _check(
        out,
        "retvis",
        "counts vanish beyond 3l-3 (l in {1,2}; k <= 6 direct, k = 7 certified)",
        zeros_ok,
    )
    split_ok, bad = retvis.three_ret_split_check(24)
    _check(out, "retvis", "tree/non-tree split matches closed Laurent forms", split_ok, str(bad))
    comp_ok = retvis.rv_component_sum(1) == 1 and retvis.rv_component_sum(2) == sum(
        retvis.rv_count(2, k) for k in range(4)
    )
    _check(out, "retvis", "component-graph sum matches series totals (l <= 2)", comp_ok)
    return out


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


MATRIX_CELLS = [(l, k) for l in (1, 2, 3) for k in range(0, 4)] + [(2, 4), (2, 5)]


def oracle_suite() -> list[CheckResult]:
    out: list[CheckResult] = []
    matrix_ok = True
    details = []
    for l, k in MATRIX_CELLS:
        counts = oracle.count_by_class(l, k)
        expected_rv = retvis.rv_count(l, k) if k + 1 <= retvis.MAX_PATTERN_VERTICES else None
        expected_gn = galled.galled_count(l, k)
        cell_ok = counts.gn == expected_gn
        if expected_rv is not None:
            cell_ok = cell_ok and counts.rv == expected_rv
        if k == 0:
            cell_ok = cell_ok and counts.as_dict() == {
                key: onecomp.tree_count(l) for key in ("pn", "rv", "gn", "tc", "normal")
            }
        if k == 1:
            shared = onecomp.single_reticulation_count(l)
            cell_ok = cell_ok and all(
                getattr(counts, name) == shared for name in ("pn", "rv", "gn", "tc")
            )
        if k == 2:
            cell_ok = cell_ok and counts.normal == onecomp.normal_two_reticulation_count(l)
        ordered = (
            counts.normal <= counts.tc <= counts.rv <= counts.pn and counts.gn <= counts.rv
        )
        cell_ok = cell_ok and ordered
        if not cell_ok:
            details.append(f"({l},{k}): {counts.as_dict()}")
            matrix_ok = False
    _check(out, "oracle", "exhaustive matrix matches formulas and series", matrix_ok, "; ".join(details))
    for l in (2, 3, 4):
        trees = oracle.count_by_class(l, 0).pn
        _check(
            out,
            "oracle",
            f"tree count at {l} leaves",
            trees == onecomp.tree_count(l),
            str(trees),
        )
    sample_ok = True
    for l, k in ((2, 2), (3, 1), (2, 3)):
        nets = list(oracle.enumerate_networks(l, k))
        codes = {networks.canonical_code(net) for net in nets}
        if len(codes) != len(nets):
            sample_ok = False
        for net in nets:
            if networks.validation_errors(net):
                sample_ok = False
            cg = networks.component_graph(net)
            if networks.is_galled(net) != _galled_by_max_flow(net):
                sample_ok = False
            indegs = cg.weighted_indegrees()
            if any(indegs[v] != 2 for v in range(cg.n) if v != cg.root):
                sample_ok = False
            if networks.is_normal(net) and not networks.is_tree_child(net):
                sample_ok = False
            if networks.is_tree_child(net) and not networks.is_reticulation_visible(net):
                sample_ok = False
            if networks.is_galled(net) and not networks.is_reticulation_visible(net):
                sample_ok = False
    _check(
        out,
        "oracle",
        "every enumerated network validates; codes distinct; predicates consistent",
        sample_ok,
    )
    return out


def appendix_suite() -> list[CheckResult]:
    out: list[CheckResult] = []
    summary = oracle.max_reticulation_summary(2)
    _check(
        out,
        "appendix",
        "saturation at 2 leaves: max 3 reticulations, count equals tree-child count",
        summary == {"max_rets": 3, "count_at_max": 2, "tc_max_count": 2},
        str(summary),
    )
    capacity_ok = True
    for l, k in ((2, 1), (3, 1), (3, 2)):
        for net in oracle.enumerate_networks(l, k):
            if networks.is_tree_child(net):
                if oracle.reticulation_capacity(net) != 2 * l + k - 2:
                    capacity_ok = False
    _check(out, "appendix", "capacity identity 2l + k - 2 on tree-child inputs", capacity_ok)
    star = [[1, 2, 3], [], [], []]  # multifurcating compressed shape
    split = oracle.split_multifurcation(star, 0)
    _check(
        out,
        "appendix",
        "multifurcation split raises capacity by one",
        oracle.reticulation_capacity(split) == oracle.reticulation_capacity(star) + 1,
        f"{oracle.reticulation_capacity(star)} -> {oracle.reticulation_capacity(split)}",
    )
    images = []
    round_trips = True
    for net in oracle.enumerate_networks(3, 2):
        if not networks.is_tree_child(net):
            continue
        image = oracle.decompress_max_reticulated(net)
        images.append(image)
        if image.num_reticulations != 6 or not networks.is_reticulation_visible(image):
            round_trips = False
        actual = networks.component_graph(image).canonical_bytes()
        expected = oracle.expected_compressed_form(net).canonical_bytes()
        if actual != expected:
            round_trips = False
    codes = {networks.canonical_code(img) for img in images}
    _check(
        out,
        "appendix",
        "decompression: valid, visible, saturated, injective, round-trips",
        round_trips and len(codes) == len(images) == oracle.count_by_class(3, 2).tc,
        f"{len(images)} images",
    )
    return out


SUITES = {
    "genfun": genfun_suite,
    "onecomp": onecomp_suite,
    "galled": galled_suite,
    "retvis": retvis_suite,
    "oracle": oracle_suite,
    "appendix": appendix_suite,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results: list[CheckResult] = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
