"""Canonical forms and automorphism counts for small rooted directed
multigraphs, and the DAG patterns of the visible-network pattern sum, which
are also the shapes of network component graphs.

The canonizer is a standard colour-refinement / individualisation search.  It
is exact: two inputs get the same canonical bytes iff they are isomorphic as
vertex-coloured directed multigraphs.  Everything here targets graphs with at
most a couple of dozen vertices; no attempt is made at asymptotic cleverness.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from phylocount.records import Record

Edge = tuple[int, int, int]  # (src, dst, multiplicity)


def _refine(n: int, colors: list[int], out_adj, in_adj) -> list[int]:
    """Colour refinement to a fixed point; colour ids are assigned by sorted
    signature order so the result is canonical for the input colouring."""
    while True:
        signatures = []
        for v in range(n):
            out_sig = tuple(sorted((colors[w], m) for w, m in out_adj[v]))
            in_sig = tuple(sorted((colors[w], m) for w, m in in_adj[v]))
            signatures.append((colors[v], out_sig, in_sig))
        ranks = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [ranks[sig] for sig in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def _encode(n: int, perm: list[int], init_colors: Sequence[int], edges: Iterable[Edge]) -> bytes:
    # perm[v] = canonical position of vertex v
    relabeled = sorted((perm[u], perm[w], m) for u, w, m in edges)
    colors = [0] * n
    for v in range(n):
        colors[perm[v]] = init_colors[v]
    return repr((n, tuple(colors), tuple(relabeled))).encode()


def canonical_bytes(n: int, edges: Iterable[Edge], colors: Sequence[int]) -> bytes:
    """Canonical encoding of a vertex-coloured directed multigraph.

    `colors` are arbitrary integers; distinguish a root by giving it a unique
    colour.  Equal bytes <=> isomorphic inputs (colour- and
    multiplicity-preserving).
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

    best: list[bytes] = []
    raw_neighborhood = [
        (
            tuple(sorted(out_adj[v])),
            tuple(sorted(in_adj[v])),
        )
        for v in range(n)
    ]

    def search(colors: list[int]):
        colors = _refine(n, colors, out_adj, in_adj)
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            perm = [0] * n
            order = sorted(range(n), key=lambda v: colors[v])
            for pos, v in enumerate(order):
                perm[v] = pos
            code = _encode(n, perm, start, edges)
            if not best or code < best[0]:
                best[:] = [code]
            return
        marker = n + max(colors) + 1
        # vertices of the cell with identical raw neighborhoods are swapped by
        # an automorphism, so one branch per neighborhood class suffices
        branched_on = set()
        for v in target:
            key = raw_neighborhood[v]
            if key in branched_on:
                continue
            branched_on.add(key)
            branched = list(colors)
            branched[v] = marker
            search(branched)

    search(start)
    del search  # it refers to itself: leave no cycle for the collector
    return best[0]


def automorphism_count(n: int, edges: Iterable[Edge], root: int = 0) -> int:
    """Order of the automorphism group fixing `root`, preserving directions
    and edge multiplicities.

    Colour refinement with the root individualised splits the vertices into
    cells that every such automorphism preserves.  A backtracking search then
    maps the vertices one by one, each into its own cell, and keeps a partial
    map only while the edge multiplicities agree, in both directions, with
    every vertex mapped so far."""
    mult: dict[tuple[int, int], int] = {}
    for u, w, m in edges:
        mult[(u, w)] = mult.get((u, w), 0) + m
    out_adj = [[] for _ in range(n)]
    in_adj = [[] for _ in range(n)]
    for (u, w), m in mult.items():
        out_adj[u].append((w, m))
        in_adj[w].append((u, m))
    colors = _refine(n, [int(v == root) for v in range(n)], out_adj, in_adj)
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    # map vertices in breadth-first order from the root, so that each one
    # meets already mapped neighbours and a wrong choice fails early
    order = [root]
    placed = {root}
    for v in order:
        for w, _ in out_adj[v] + in_adj[v]:
            if w not in placed:
                placed.add(w)
                order.append(w)
    order += [v for v in range(n) if v not in placed]
    image = [-1] * n
    used = [False] * n

    def fits(v: int, w: int, depth: int) -> bool:
        if mult.get((v, v), 0) != mult.get((w, w), 0):
            return False
        for u in order[:depth]:
            x = image[u]
            if mult.get((u, v), 0) != mult.get((x, w), 0):
                return False
            if mult.get((v, u), 0) != mult.get((w, x), 0):
                return False
        return True

    def extend(depth: int) -> int:
        if depth == n:
            return 1
        v = order[depth]
        found = 0
        for w in cells[colors[v]]:
            if not used[w] and fits(v, w, depth):
                image[v] = w
                used[w] = True
                found += extend(depth + 1)
                used[w] = False
        image[v] = -1
        return found

    count = extend(0)
    del extend  # it refers to itself: leave no cycle for the collector
    return count


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

    def canonical_bytes(self) -> bytes:
        colors = [1 if v == self.root else 0 for v in range(self.m)]
        return canonical_bytes(self.m, self.edges, colors)

    def automorphism_count(self) -> int:
        return automorphism_count(self.m, self.edges, self.root)
