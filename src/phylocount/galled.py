"""Galled-network counts: series recurrence, closed forms, tree sums, asymptotics.

The series route is :func:`onecomp.pattern_egf` over tree-like patterns, the
compressed forms of galled networks; the fixed-point identity (expanded by
truncated powers, :func:`fixed_point_expansion`), the tree sum and the
oracle check it by routes of their own.  The closed forms for k = 2, 3
are polynomial-times-double-factorial expressions whose validity range is
discovered by comparison against the series, never assumed.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import product

from phylocount.series import Egf, double_factorial, validated_from
from phylocount.onecomp import block_count, block_series, closed_form, pattern_egf


@functools.cache
def galled_egf(rets: int, order: int) -> Egf:
    """EGF of galled networks with exactly `rets` reticulations, truncated:
    the pattern sum over tree-like patterns."""
    return pattern_egf("gn", rets, order)


def galled_count(leaves: int, rets: int) -> int:
    """Exact number of galled networks, by series extraction."""
    if leaves < 1:
        raise ValueError("leaves must be >= 1")
    return galled_egf(rets, leaves).count(leaves)


def galled_closed_form(leaves: int, rets: int):
    """Closed-form count for rets in {2, 3}, from :data:`onecomp.CLOSED_FORMS`;
    see :func:`closed_form_threshold` for the validated range."""
    return closed_form("gn", leaves, rets)


@functools.cache
def closed_form_threshold(rets: int) -> int:
    """Smallest l0 such that the closed form matches the series for every
    l in [l0, 40].  Discovered, then cached per rets."""
    series = galled_egf(rets, 40)
    return validated_from(lambda l: galled_closed_form(l, rets) == series.count(l), 1, 40)


def fixed_point_expansion(gs, fs) -> list:
    """rhs_0 = F_0 and rhs_k = sum_{j=1..k} F_j / j! [v^(k-j)] G(v)^j for
    1 <= k <= K = len(fs) - 1: the right-hand side of the fixed point
    G(v) = Phi(v G(v)) with Phi(t) = sum_j F_j t^j / j!.

    rhs_k reads only G_0..G_(k-1) of `gs`, so a call on G_0..G_(k-1) with
    `fs` cut to F_0..F_k solves for G_k, starting from G_0 = F_0.  G(v)^j is
    kept through v^(K-j), one multiplication by G(v) per power.  Only `+`, `*` and `.scale` are used,
    so the terms may be `Egf` or `SqrtPoly`."""
    K = len(fs) - 1
    total = functools.partial(functools.reduce, operator.add)
    powers = [None, gs[:K]]  # powers[j][i] = [v^i] G(v)^j
    for j in range(2, K + 1):
        powers.append([total(powers[-1][a] * gs[i - a] for a in range(i + 1)) for i in range(K - j + 1)])
    weights = [f.scale(Fraction(1, math.factorial(j))) for j, f in enumerate(fs)]
    return fs[:1] + [total(weights[j] * powers[j][k - j] for j in range(1, k + 1)) for k in range(1, K + 1)]


def generating_identity_check(max_rets: int, order: int, _egfs=None):
    """Verify the fixed-point identity of the bivariate generating function
    (a block at the top, lower networks substituted at its reticulation
    leaves) on the series G_0..G_max_rets through z^order: the right-hand
    side is :func:`fixed_point_expansion` over F_j = block_series(j, j), a
    route apart from the pattern recurrence of :func:`galled_egf`.  Returns
    (True, None) or (False, (rets, power)) at the first bad coefficient;
    `_egfs` lets tests inject a corrupted series family."""
    egfs = _egfs if _egfs is not None else [galled_egf(k, order) for k in range(max_rets + 1)]
    rhs = fixed_point_expansion(egfs, [block_series(j, j, order) for j in range(max_rets + 1)])
    bad = [(k, n) for k in range(max_rets + 1) for n in range(order + 1)
           if rhs[k].coeff(n) != egfs[k].coeff(n)]
    return not bad, (bad[0] if bad else None)


# Multifurcating labeled trees and the tree-shaped component sum.

def set_partitions(items: tuple):
    """All set partitions of `items`, each a tuple of disjoint tuples."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + ((first,) + partial[i],) + partial[i + 1 :]
        yield ((first,),) + partial


def multifurcating_trees(labels: tuple):
    """Rooted multifurcating leaf-labeled trees over `labels`.

    A tree is either a bare label or a tuple of >= 2 subtrees; every internal
    vertex has outdegree >= 2.
    """
    if len(labels) == 1:
        yield labels[0]
        return
    for partition in set_partitions(labels):
        if len(partition) < 2:
            continue
        for kids in product(*(tuple(multifurcating_trees(block)) for block in partition)):
            yield tuple(sorted(kids, key=repr))


MAX_TREE_SUM_LEAVES = 7


def galled_tree_sum_by_rets(leaves: int) -> list[int]:
    """Galled counts for 0..2*leaves-2 reticulations via the component-graph
    sum over multifurcating trees, tracking where arrows are placed."""
    if not 1 <= leaves <= MAX_TREE_SUM_LEAVES:
        raise ValueError(f"tree sum supports 1 <= leaves <= {MAX_TREE_SUM_LEAVES}")
    max_rets = max(2 * leaves - 2, 0)
    totals = [0] * (max_rets + 1)
    for tree in multifurcating_trees(tuple(range(1, leaves + 1))):
        dist = {0: 1}
        for vertex_factor in _internal_vertex_factors(tree):
            new: dict[int, int] = {}
            for k1, c1 in dist.items():
                for k2, c2 in vertex_factor.items():
                    new[k1 + k2] = new.get(k1 + k2, 0) + c1 * c2
            dist = new
        for k, c in dist.items():
            totals[k] += c
    return totals


def _internal_vertex_factors(tree):
    """Arrow-count distributions, one per internal vertex of the tree.

    A vertex with `c` children, of which `leafy` are leaves, can put arrows
    under any j of the leaf children; non-leaf children always carry arrows.
    """
    if not isinstance(tree, tuple):
        return
    kids = tree
    leafy = sum(1 for kid in kids if not isinstance(kid, tuple))
    non_leafy = len(kids) - leafy
    factor = {}
    for j in range(leafy + 1):
        k = non_leafy + j
        weight = math.comb(leafy, j) * block_count(len(kids), k)
        if weight:
            factor[k] = factor.get(k, 0) + weight
    yield factor
    for kid in kids:
        yield from _internal_vertex_factors(kid)


def galled_tree_sum(leaves: int) -> int:
    """Total galled networks over all reticulation counts, by the tree sum."""
    return sum(galled_tree_sum_by_rets(leaves))


# Asymptotics.

_LOG2 = math.log(2.0)


def asymptotic_main_term_log(leaves: int, rets: int) -> float:
    """Natural log of the shared main term
    2^(k-1) sqrt(2) / k! * (2/e)^l * l^(l+2k-1)."""
    l, k = leaves, rets
    if l < 1:
        raise ValueError("leaves must be >= 1")
    return (
        (k - 1) * _LOG2
        + 0.5 * _LOG2
        - math.lgamma(k + 1)
        + l * (_LOG2 - 1.0)
        + (l + 2 * k - 1) * math.log(l)
    )


def asymptotic_main_term(leaves: int, rets: int) -> tuple[float, int]:
    """(mantissa, decimal exponent) of the main term, from the log value."""
    log10 = asymptotic_main_term_log(leaves, rets) / math.log(10.0)
    exponent = math.floor(log10)
    return 10.0 ** (log10 - exponent), exponent


def asymptotic_ratio(count: int, leaves: int, rets: int) -> float:
    """count / main term, evaluated in log space to dodge overflow."""
    if count <= 0:
        raise ValueError("count must be positive")
    return math.exp(math.log(count) - asymptotic_main_term_log(leaves, rets))


def gamma_half_identity_check() -> bool:
    """Check Gamma(2k - 1/2) == 2^(1-2k) (4k-3)!! sqrt(pi) for 1 <= k <= 8,
    to a relative 1e-12.

    Double precision suffices: libm's Gamma is within a few ulps here, far
    inside the tolerance, while a wrong power of 2 or double factorial is
    off by a factor of 2 or more."""
    for k in range(1, 9):
        lhs = math.gamma(2 * k - 0.5)
        rhs = math.ldexp(double_factorial(4 * k - 3) * math.sqrt(math.pi), 1 - 2 * k)
        if abs(lhs - rhs) / abs(rhs) > 1e-12:
            return False
    return True
