"""Galled-network counts: series recurrence, closed forms, tree sums, asymptotics.

The series route builds the EGF for k reticulations out of the shifted block
series via the power-table recurrence; the closed forms for k = 2, 3 are
polynomial-times-double-factorial expressions whose validity range is
discovered by comparison against the series, never assumed.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import product

from phylocount.series import Egf, SqrtPoly, double_factorial, validated_from
from phylocount.onecomp import (
    block_count,
    block_egf,
    block_shift_egf,
    closed_form,
    shift_sqrt_form,
)


def _compositions(total: int, parts: int):
    """All ordered tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@functools.cache
def galled_egf(rets: int, order: int) -> Egf:
    """EGF of galled networks with exactly `rets` reticulations, truncated."""
    if rets < 0 or order < 0:
        raise ValueError("rets and order must be nonnegative")
    if rets == 0:
        return block_egf(0, order)  # trees: 1 - sqrt(1-2z)
    # G_k = sum_j F_j / j! [v^(k-j)] G(v)^j, with G(v)^j built up power
    # by power and truncated in v to the degree the next terms need
    lower = [galled_egf(i, order) for i in range(rets)]
    result = Egf.zero(order)
    g_pow = [Egf.one(order)]
    for j in range(1, rets + 1):
        g_pow = _bivariate_mul(g_pow, lower, rets - j)
        result = result + (block_shift_egf(j, order) * g_pow[rets - j]).scale(
            Fraction(1, math.factorial(j))
        )
    return result


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


def galled_sqrt_form(rets: int) -> SqrtPoly:
    """Closed Laurent form of the galled EGF for rets in {1, 2}, built from
    the composition identities E1 = F1 E0 and E2 = F1 E1 + F2 E0^2 / 2
    (`verify` compares it with the series)."""
    x = SqrtPoly.x_power
    one = SqrtPoly.of({0: 1})
    e0 = one - x(1)
    if rets == 1:
        form = shift_sqrt_form(1) * e0
        # equivalently z (1 - sqrt(1-2z)) / (1-2z)^(3/2)
        explicit = (SqrtPoly.from_z_poly([0, 1]) * e0).exact_div(x(3))
        if form != explicit:
            raise ArithmeticError("one-reticulation Laurent forms disagree")
    elif rets == 2:
        e1 = shift_sqrt_form(1) * e0
        form = shift_sqrt_form(1) * e1 + (shift_sqrt_form(2) * e0 * e0).scale(
            Fraction(1, 2)
        )
    else:
        raise ValueError("closed Laurent forms are kept for rets in {1, 2}")
    return form


def generating_identity_check(max_rets: int, order: int, _egfs=None):
    """Verify the fixed-point identity of the bivariate generating function:
    the class equals a block chosen at the top with lower networks substituted
    at its reticulation leaves.

    The right-hand side expands [v^(k-j)] G(v)^j over every ordered
    composition of k - j into j parts, independently of the power table
    that :func:`galled_egf` uses.  Returns (True, None) or
    (False, (rets, power)) at the first bad coefficient.  `_egfs` lets tests
    inject a corrupted series family.
    """
    K, T = max_rets, order
    egfs = _egfs if _egfs is not None else [galled_egf(k, T) for k in range(K + 1)]
    rhs = [block_shift_egf(0, T)]
    for k in range(1, K + 1):
        total = Egf.zero(T)
        for j in range(1, k + 1):
            inner = Egf.zero(T)
            for combo in _compositions(k - j, j):
                term = Egf.one(T)
                for part in combo:
                    term = term * egfs[part]
                inner = inner + term
            total = total + (block_shift_egf(j, T) * inner).scale(
                Fraction(1, math.factorial(j))
            )
        rhs.append(total)
    for k in range(K + 1):
        if rhs[k] != egfs[k]:
            for n in range(T + 1):
                if rhs[k].coeff(n) != egfs[k].coeff(n):
                    return False, (k, n)
    return True, None


def _bivariate_mul(a: list[Egf], b: list[Egf], max_power: int) -> list[Egf]:
    order = min(x.order for x in a + b)
    out = [Egf.zero(order) for _ in range(max_power + 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= max_power:
                out[i + j] = out[i + j] + ai * bj
    return out


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


def gamma_half_identity_check(k_max: int, rel_tol: float = 1e-12) -> bool:
    """Check Gamma(2k - 1/2) == 2^(1-2k) (4k-3)!! sqrt(pi) for 1 <= k <= k_max.

    Double precision suffices: libm's Gamma is within a few ulps here, far
    inside `rel_tol`, while a wrong power of 2 or double factorial is off by
    a factor of 2 or more.  Past k = 75, (4k-3)!! no longer fits a double and the check
    raises OverflowError."""
    for k in range(1, k_max + 1):
        lhs = math.gamma(2 * k - 0.5)
        rhs = math.ldexp(double_factorial(4 * k - 3) * math.sqrt(math.pi), 1 - 2 * k)
        if abs(lhs - rhs) / abs(rhs) > rel_tol:
            return False
    return True
