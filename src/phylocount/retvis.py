"""Reticulation-visible counts via sums over small DAG patterns.

For k reticulations the compressed form of a reticulation-visible network is
a rooted multigraph DAG on k+1 vertices whose non-root vertices have weighted
indegree 2 (a double edge counts twice).  Summing a per-vertex block series
over the catalog of such patterns, weighted by inverse symmetry, yields the
EGF of the class (:func:`pattern_sum_egf`, keyed by class: gn keeps the
tree-like patterns).  :func:`rv_egf` gets the same series without the
catalog, from the recurrence over vertex-labelled patterns in
:func:`onecomp.pattern_egf`, which the catalog sum checks for both classes.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from phylocount.series import Egf, validated_from
from phylocount.onecomp import admit_rule, block_count, block_series, closed_form, pattern_egf

MAX_PATTERN_VERTICES = 8


@functools.cache
def enumerate_patterns(m: int) -> tuple[tuple["canon.DagPattern", int], ...]:
    """All isomorphism classes of m-vertex patterns with their symmetry counts,
    sorted by canonical code.

    Generation assigns each non-root vertex its incoming edges from
    lower-indexed vertices (every DAG admits such a labeling) and dedupes by
    canonical form; the search that gives a class its code also counts its
    automorphisms.
    """
    # imported here: the series routes never load canon
    from phylocount.canon import DagPattern

    if not 1 <= m <= MAX_PATTERN_VERTICES:
        raise ValueError(f"pattern enumeration supports 1 <= m <= {MAX_PATTERN_VERTICES}")
    seen: dict[bytes, tuple[DagPattern, int]] = {}

    def assign(v: int, edges: list[tuple[int, int, int]], keys: list[tuple[int, ...]]):
        if v == m:
            pattern = DagPattern(m, tuple(sorted(edges)))
            code, symmetry = pattern.canonical_form()
            if code not in seen:
                seen[code] = pattern, symmetry
            return
        # adjacent-swap cut: if the previous vertex is not a parent of v,
        # swapping the two labels yields an isomorph generated elsewhere, so
        # demand non-decreasing parent keys in that case
        def feasible(parents: tuple[int, ...], key: tuple[int, ...]) -> bool:
            return v == 1 or (v - 1) in parents or key >= keys[-1]

        for p in range(v):  # double edge from one earlier vertex
            key = (p, p)
            if feasible((p,), key):
                assign(v + 1, edges + [(p, v, 2)], keys + [key])
        for p1 in range(v):  # two single edges from distinct earlier vertices
            for p2 in range(p1 + 1, v):
                key = (p1, p2)
                if feasible((p1, p2), key):
                    assign(v + 1, edges + [(p1, v, 1), (p2, v, 1)], keys + [key])

    assign(1, [], [])
    return tuple(entry for _, entry in sorted(seen.items()))


def pattern_term(pattern: "canon.DagPattern", symmetry: int, order: int) -> Egf:
    """One pattern's share of the pattern sum: the product of its vertex
    series, each :func:`onecomp.block_series` of the vertex's profile
    (:meth:`canon.DagPattern.profile`), weighted by 1/symmetry.  The product
    starts from vertex 0, the root of every catalog pattern."""
    series = (block_series(*pattern.profile(v), order) for v in range(pattern.m))
    return functools.reduce(operator.mul, series).scale(Fraction(1, symmetry))


def pattern_sum_egf(cls: str, rets: int, order: int) -> Egf:
    """The paper's pattern sum for class `cls` over the catalog of
    (rets+1)-vertex patterns: every pattern whose vertex profiles the class
    admits (:func:`onecomp.admit_rule`), so every pattern for rv and the
    tree-like ones for gn.

    The reference route for :func:`onecomp.pattern_egf`: it goes through the
    canonizer, the catalog and the automorphism counts, none of which the
    labelled recurrence uses."""
    admits = admit_rule(cls)
    if rets < 0:
        raise ValueError("rets must be nonnegative")
    total = Egf.zero(order)
    for pattern, symmetry in enumerate_patterns(rets + 1):
        if all(admits(*pattern.profile(v)) for v in range(pattern.m)):
            total = total + pattern_term(pattern, symmetry, order)
    return total


@functools.cache
def rv_egf(rets: int, order: int) -> Egf:
    """EGF of reticulation-visible networks with exactly `rets` reticulations:
    the pattern sum over every (rets+1)-vertex pattern."""
    return pattern_egf("rv", rets, order)


def rv_count(leaves: int, rets: int) -> int:
    """Exact count by series extraction; the 1/rets! weight of the labelled
    pattern sum must resolve to an integer, which :meth:`Egf.count` checks on
    every call."""
    if leaves < 1:
        raise ValueError("leaves must be >= 1")
    value = rv_egf(rets, leaves).count(leaves)
    if value < 0:
        raise ArithmeticError("negative count; pattern sum is inconsistent")
    return value


def rv_closed_form(leaves: int, rets: int):
    """Closed-form count for rets in {2, 3}, from :data:`onecomp.CLOSED_FORMS`;
    see :func:`closed_form_threshold` for the validated range."""
    return closed_form("rv", leaves, rets)


@functools.cache
def closed_form_threshold(rets: int) -> int:
    """Validated range start for the closed form, discovered against the
    catalog's pattern sum through l = 40 and cached per rets."""
    series = pattern_sum_egf("rv", rets, 40)
    return validated_from(lambda l: rv_closed_form(l, rets) == series.count(l), 1, 40)


# The small-scale component-graph sum: enumerate the admissible compressed
# shapes directly and apply the per-vertex block sums.

MAX_COMPONENT_SUM_LEAVES = 3


def rv_component_sum(leaves: int) -> int:
    """Total reticulation-visible networks over all reticulation counts,
    evaluated by exhausting the admissible compressed shapes.

    Admissible shapes are leaf-labeled rooted DAGs that are tree-child, have
    all indegrees at most 2, no indegree-2 vertex with a lone internal
    indegree-1 child, and no internal vertex with indegree and outdegree both
    one.  Capped at 3 leaves; the shape space grows violently after that.
    """
    if not 1 <= leaves <= MAX_COMPONENT_SUM_LEAVES:
        raise ValueError(f"component sum supports 1 <= leaves <= {MAX_COMPONENT_SUM_LEAVES}")
    from itertools import combinations, permutations, product

    from phylocount import canon

    seen: set[bytes] = set()
    total = 0
    # Internal-vertex count never exceeds 3*leaves - 3 (one compressed vertex
    # per reticulation of a saturated network, plus the root, minus the
    # terminal components that turn into labeled leaves).  The totals are
    # cross-checked against the pattern-sum counts, which certifies the cap.
    max_internal = 1 if leaves == 1 else 3 * leaves - 3
    for internal in range(1, max_internal + 1):
        # vertex v > 0 takes one or two parents among 0..v-1; the leaves are
        # spread over the vertices by stars and bars
        choices = [[(p,) for p in range(v)] + list(combinations(range(v), 2)) for v in range(1, internal)]
        end = leaves + internal - 1
        spreads = [
            [b - a - 1 for a, b in zip((-1,) + bars, bars + (end,))]
            for bars in combinations(range(end), internal - 1)
        ]
        for parent_sets in product(*choices):
            for counts in spreads:
                weight = _shape_weight(internal, parent_sets, counts)
                if weight == 0:
                    continue
                slots = [v for v in range(internal) for _ in range(counts[v])]
                for assignment in set(permutations(slots)):
                    code = _shape_code(canon, internal, parent_sets, assignment)
                    if code not in seen:
                        seen.add(code)
                        total += weight
    return total


def _shape_code(canon, internal: int, parent_sets, leaf_parents) -> bytes:
    leaves = len(leaf_parents)
    n = internal + leaves
    edges = []
    for v, parents in enumerate(parent_sets, start=1):
        for p in parents:
            edges.append((p, v, 1))
    for label, p in enumerate(leaf_parents, start=1):
        edges.append((p, internal + label - 1, 1))
    colors = [0] * internal + list(range(1, leaves + 1))
    return canon.canonical_bytes(n, edges, colors)


def _shape_weight(internal: int, parent_sets, counts) -> int:
    """The product of the per-vertex block sums of a shape, or 0 when the
    shape is not admissible."""
    indeg = [0] + [len(parents) for parents in parent_sets]
    kids: list[list[int]] = [[] for _ in range(internal)]
    for v, parents in enumerate(parent_sets, start=1):
        for p in parents:
            kids[p].append(v)
    weight = 1
    # bottom-up: the last vertices can have the fewest children, so most
    # inadmissible shapes fail there before any block sum is taken
    for v in reversed(range(internal)):
        leaf_kids = counts[v]
        c = len(kids[v]) + leaf_kids
        c1 = sum(1 for w in kids[v] if indeg[w] == 1)
        if not leaf_kids and not c1:
            return 0  # an internal sink, or a tree-child violation
        if c == 1 and (indeg[v] == 1 or indeg[v] == 2 and c1):
            return 0  # a suppressed unary vertex, or a reticulation over a lone tree vertex
        weight *= sum(math.comb(leaf_kids, j) * block_count(c, c1 + j) for j in range(leaf_kids + 1))
        if weight == 0:
            return 0
    return weight
