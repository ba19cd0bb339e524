"""Canonical forms and automorphism counts for small rooted directed
multigraphs, and the DAG patterns of the visible-network pattern sum, which
are also the shapes of network component graphs.

The canonizer is a standard colour-refinement / individualisation search.  It
is exact: two inputs get the same canonical bytes iff they are isomorphic as
vertex-coloured directed multigraphs.  The same search counts the
colour-preserving automorphisms, as in B. D. McKay, "Practical graph
isomorphism" (1981): they are the leaves that reach the canonical code.
Everything here targets graphs with at most a couple of dozen vertices; no
attempt is made at asymptotic cleverness.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from phylocount.records import Record

Edge = tuple[int, int, int]  # (src, dst, multiplicity)


def _refine(n: int, colors: list[int], out_adj, in_adj) -> list[int]:
    """Colour refinement to a fixed point.  Each round gives every vertex the
    rank of its signature among the distinct signatures in sorted order, so
    the result is canonical for the input colouring and refines its order.
    A round that splits no cell is the last: its ranks are those of the
    colouring it started from, or a dense relabelling of them."""
    cells = len(set(colors))
    while True:
        signatures = [
            (
                colors[v],
                sorted([(colors[w], m) for w, m in out_adj[v]]),
                sorted([(colors[w], m) for w, m in in_adj[v]]),
            )
            for v in range(n)
        ]
        new_colors = [0] * n
        rank, previous = -1, None
        for v in sorted(range(n), key=signatures.__getitem__):
            if signatures[v] != previous:
                rank, previous = rank + 1, signatures[v]
            new_colors[v] = rank
        colors = new_colors
        if rank + 1 == cells:
            return colors
        cells = rank + 1


def _encode(n: int, perm: list[int], init_colors: Sequence[int], edges: Iterable[Edge]) -> bytes:
    # perm[v] = canonical position of vertex v
    relabeled = sorted((perm[u], perm[w], m) for u, w, m in edges)
    colors = [0] * n
    for v in range(n):
        colors[perm[v]] = init_colors[v]
    return repr((n, tuple(colors), tuple(relabeled))).encode()


def canonical_form(n: int, edges: Iterable[Edge], colors: Sequence[int]) -> tuple[bytes, int]:
    """Canonical encoding of a vertex-coloured directed multigraph and the
    number of its automorphisms (colour-, direction- and multiplicity-
    preserving permutations of the vertices).

    `colors` are arbitrary integers; distinguish a root by giving it a unique
    colour.  Equal bytes <=> isomorphic inputs.

    One search gives both.  Its leaves are discrete colourings, and the code
    of a leaf is the graph relabelled by it; the canonical code is the
    smallest.  The automorphisms act freely on the leaves and map each leaf
    of the smallest code to another one, and any two such leaves differ by
    one automorphism, so there are exactly |Aut| of them.  The search skips
    the twins of a branch vertex (same raw neighbourhood); swapping twins is
    an automorphism that carries the explored subtree onto each skipped one,
    so a leaf counts for the product of the twin-class sizes on its path.
    """
    edges = [tuple(e) for e in edges]
    if any(u == w for u, w, _ in edges):
        raise ValueError("self-loops are not supported")
    init = list(colors)
    # normalise initial colours to compact ranks, keeping their identity
    rank = {c: i for i, c in enumerate(sorted(set(init)))}
    start = [rank[c] for c in init]
    out_adj = [[] for _ in range(n)]
    in_adj = [[] for _ in range(n)]
    for u, w, m in edges:
        out_adj[u].append((w, m))
        in_adj[w].append((u, m))
    # vertices with identical raw neighbourhoods are swapped by an automorphism
    twin_ids: dict = {}
    twin = [
        twin_ids.setdefault((tuple(sorted(out_adj[v])), tuple(sorted(in_adj[v]))), v)
        for v in range(n)
    ]
    best: list = [None, 0]  # the smallest code, and how many leaves reach it

    def search(colors: list[int], weight: int):
        colors = _refine(n, colors, out_adj, in_adj)
        sizes = [0] * n
        for c in colors:
            sizes[c] += 1
        target = next((c for c in range(n) if sizes[c] > 1), None)
        if target is None:
            # a discrete colouring: the colours are the canonical positions
            code = _encode(n, colors, start, edges)
            if best[0] is None or code < best[0]:
                best[:] = [code, weight]
            elif code == best[0]:
                best[1] += weight
            return
        # one branch per twin class of the first non-singleton cell; the
        # branch vertex gets a colour above all others
        classes: dict[int, list[int]] = {}
        for v in range(n):
            if colors[v] == target:
                classes.setdefault(twin[v], []).append(v)
        for members in classes.values():
            branched = list(colors)
            branched[members[0]] = n
            search(branched, weight * len(members))

    search(start, 1)
    del search  # it refers to itself: leave no cycle for the collector
    return best[0], best[1]


def canonical_bytes(n: int, edges: Iterable[Edge], colors: Sequence[int]) -> bytes:
    """The code of :func:`canonical_form` alone."""
    return canonical_form(n, edges, colors)[0]


class DagPattern(Record):
    """Unlabeled rooted multigraph DAG: root of indegree 0, every other vertex
    of weighted indegree exactly 2 and reached from the root, no cycle, edge
    multiplicities 1 or 2, a vertex with one parent on one double edge.  A
    pattern of the visible pattern sum, or the shape of a network's
    component graph (its weighted-indegree-2 lemma is checked here on every
    component graph built)."""

    __slots__ = _fields = ("m", "edges", "root")
    m: int
    edges: tuple[Edge, ...]
    root: int

    def __init__(self, m: int, edges: tuple[Edge, ...], root: int = 0):
        indeg = [0] * m
        for _, dst, mult in edges:
            if mult not in (1, 2):
                raise ValueError("edge multiplicities must be 1 or 2")
            indeg[dst] += mult
        if indeg[root] != 0:
            raise ValueError("root must have indegree 0")
        if any(indeg[v] != 2 for v in range(m) if v != root):
            raise ValueError("non-root vertices must have weighted indegree 2")
        if len({(src, dst) for src, dst, _ in edges}) < len(edges):
            raise ValueError("two single edges from one parent must be one double edge")
        # Kahn's order from the root misses every vertex on or below a cycle,
        # a self-loop included, and every vertex the root does not reach
        order = [root]
        for v in order:  # the loop also visits what it appends
            for src, dst, mult in edges:
                if src == v:
                    indeg[dst] -= mult
                    if not indeg[dst]:
                        order.append(dst)
        if len(order) < m:
            raise ValueError("every vertex must be reached from the root, with no cycle")
        self._set(m, edges, root)

    def profile(self, v: int) -> tuple[int, int]:
        """(c, c1): the number of distinct children of v and how many of
        them hang on a double edge, the key of :func:`onecomp.block_series`."""
        mults = [mult for src, _, mult in self.edges if src == v]
        return len(mults), mults.count(2)

    def is_treelike(self) -> bool:
        """Every edge is double, so every non-root vertex has one parent:
        the shape of a galled network's component graph."""
        return all(mult == 2 for _, _, mult in self.edges)

    def canonical_form(self) -> tuple[bytes, int]:
        """Canonical bytes and the number of automorphisms, each fixing the
        root: :func:`canonical_form` with the root in a colour of its own."""
        colors = [1 if v == self.root else 0 for v in range(self.m)]
        return canonical_form(self.m, self.edges, colors)

    def canonical_bytes(self) -> bytes:
        return self.canonical_form()[0]
