"""Data model for rooted binary phylogenetic networks and their component graphs.

A network is stored as an immutable child-list DAG.  Vertex kinds are derived
from degrees: the root has indegree 0 and outdegree 1, leaves have indegree 1
and outdegree 0 and carry the labels 1..leaves, tree vertices are (1 in, 2
out) and reticulations (2 in, 1 out).  All predicates treat networks as
values; nothing here mutates.
"""

from __future__ import annotations

import enum
from itertools import permutations

from phylocount import canon
from phylocount.records import Record


class VertexKind(enum.Enum):
    ROOT = "root"
    TREE = "tree"
    RETICULATION = "reticulation"
    LEAF = "leaf"


_KIND_ORDER = {
    VertexKind.ROOT: 0,
    VertexKind.TREE: 1,
    VertexKind.RETICULATION: 2,
    VertexKind.LEAF: 3,
}


class Network(Record):
    """Rooted binary leaf-labeled network.

    `children[v]` lists the children of vertex v; `leaf_labels[v]` is the
    label of leaf v and 0 for non-leaves; `root` is the vertex expected to
    have indegree 0 and outdegree 1.  The validation result is computed once
    per object and kept (see :func:`validation_errors`).
    """

    _fields = ("children", "leaf_labels", "root")
    __slots__ = _fields + ("_errors",)
    children: tuple[tuple[int, ...], ...]
    leaf_labels: tuple[int, ...]
    root: int

    def __init__(self, children: tuple[tuple[int, ...], ...], leaf_labels: tuple[int, ...],
                 root: int = 0):
        self._set(children, leaf_labels, root)

    @staticmethod
    def build(children, leaf_labels: dict[int, int], root: int = 0) -> "Network":
        n = len(children)
        labels = [0] * n
        for v, label in leaf_labels.items():
            labels[v] = label
        return Network(tuple(tuple(c) for c in children), tuple(labels), root)

    @property
    def _validation_errors(self) -> tuple[str, ...]:
        try:
            return self._errors
        except AttributeError:  # the first request
            errors = _find_errors(self)
            object.__setattr__(self, "_errors", errors)
            return errors

    @property
    def n(self) -> int:
        return len(self.children)

    @property
    def num_leaves(self) -> int:
        return sum(1 for lab in self.leaf_labels if lab)

    @property
    def num_reticulations(self) -> int:
        indeg = self.indegrees()
        return sum(1 for v in range(self.n) if indeg[v] == 2)

    def indegrees(self) -> list[int]:
        indeg = [0] * self.n
        for kids in self.children:
            for w in kids:
                indeg[w] += 1
        return indeg

    def parents(self) -> list[list[int]]:
        par: list[list[int]] = [[] for _ in range(self.n)]
        for v, kids in enumerate(self.children):
            for w in kids:
                par[w].append(v)
        return par

    def edges(self) -> list[tuple[int, int]]:
        return [(v, w) for v in range(self.n) for w in self.children[v]]

    def kinds(self) -> list[VertexKind]:
        indeg = self.indegrees()
        return [_classify(indeg[v], len(self.children[v])) for v in range(self.n)]

    def relabel_vertices(self, perm: dict[int, int]) -> "Network":
        """Renumber vertices by `perm` (a bijection on 0..n-1); for tests."""
        n = self.n
        children = [[] for _ in range(n)]
        labels = [0] * n
        for v in range(n):
            children[perm[v]] = sorted(perm[w] for w in self.children[v])
        for v in range(n):
            labels[perm[v]] = self.leaf_labels[v]
        return Network(tuple(tuple(c) for c in children), tuple(labels), perm[self.root])


def _classify(indeg: int, outdeg: int) -> VertexKind:
    if indeg == 0 and outdeg == 1:
        return VertexKind.ROOT
    if indeg == 1 and outdeg == 0:
        return VertexKind.LEAF
    if indeg == 1 and outdeg == 2:
        return VertexKind.TREE
    if indeg == 2 and outdeg == 1:
        return VertexKind.RETICULATION
    raise ValueError(f"no binary vertex kind for indegree {indeg}, outdegree {outdeg}")


def validation_errors(net: Network) -> list[str]:
    """All invariant violations; an empty list means the network is valid."""
    return list(net._validation_errors)


def _find_errors(net: Network) -> tuple[str, ...]:
    errors = []
    children, labels, root = net.children, net.leaf_labels, net.root
    n = len(children)
    # one pass: simplicity (a repeated child would be a parallel edge), child
    # range, and the indegrees, which are only counted for in-range children
    if not 0 <= root < n:
        return (f"declared root {root} is out of range",)
    if len(labels) != n:
        return (f"{len(labels)} leaf labels for {n} vertices",)
    indeg = [0] * n
    for v, kids in enumerate(children):
        if len(kids) > 1 and len(kids) != len(set(kids)):
            errors.append(f"parallel edges out of vertex {v}")
        for w in kids:
            if not 0 <= w < n:
                errors.append(f"vertex {v} has an out-of-range child")
                return tuple(errors)
            indeg[w] += 1
    roots = [v for v in range(n) if not indeg[v]]
    if roots != [root]:
        errors.append(f"indegree-0 vertices {roots} do not match declared root {root}")
    if len(children[root]) != 1:
        errors.append("root must have outdegree 1")
    found = sorted(lab for lab in labels if lab)
    leaves = [v for v in range(n) if indeg[v] == 1 and not children[v]]
    expected = list(range(1, len(leaves) + 1))
    if found != expected:
        errors.append(f"leaf labels {found} are not a bijection with {expected}")
    for v in range(n):
        if labels[v] and (children[v] or indeg[v] != 1):
            errors.append(f"labeled vertex {v} is not a leaf")
    for v in range(n):
        if v == root or labels[v]:
            continue
        if (indeg[v], len(children[v])) not in ((1, 2), (2, 1)):
            errors.append(f"internal vertex {v} has degrees ({indeg[v]}, {len(children[v])})")
    # acyclicity and reachability from the root: depth-first search on an
    # explicit stack of child iterators, stopping at the first edge back
    # onto the stack
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    state[root] = 1
    path = [root]
    stack = [iter(children[root])]
    while stack:
        for w in stack[-1]:
            if state[w] == 1:
                errors.append("the edge relation has a directed cycle")
                stack.clear()
                break
            if not state[w]:
                state[w] = 1
                path.append(w)
                stack.append(iter(children[w]))
                break
        else:
            state[path.pop()] = 2
            stack.pop()
    unreachable = [v for v in range(n) if not state[v]]
    if unreachable:
        errors.append(f"vertices {unreachable} are unreachable from the root")
    return tuple(errors)


def is_valid(net: Network) -> bool:
    return not validation_errors(net)


def _require_valid(net: Network):
    errors = validation_errors(net)
    if errors:
        raise ValueError("invalid network: " + "; ".join(errors))


def _ancestor_masks(net: Network) -> list[int]:
    """ancestors[v] as a bitmask (proper ancestors, excluding v itself)."""
    n = net.n
    indeg = net.indegrees()
    masks = [0] * n
    remaining = indeg[:]
    queue = [net.root]
    while queue:
        v = queue.pop()
        for w in net.children[v]:
            masks[w] |= masks[v] | (1 << v)
            remaining[w] -= 1
            if remaining[w] == 0:
                queue.append(w)
    return masks


def is_tree_child(net: Network) -> bool:
    """Every non-leaf vertex has at least one child that is not a reticulation."""
    _require_valid(net)
    indeg = net.indegrees()
    for v in range(net.n):
        if not net.children[v]:
            continue
        if all(indeg[w] == 2 for w in net.children[v]):
            return False
    return True


def is_normal(net: Network) -> bool:
    """Tree-child and shortcut-free: no reticulation has one parent that is
    an ancestor of the other."""
    _require_valid(net)
    if not is_tree_child(net):
        return False
    indeg = net.indegrees()
    parents = net.parents()
    anc = _ancestor_masks(net)
    for v in range(net.n):
        if indeg[v] == 2:
            p, q = parents[v]
            if (anc[q] >> p) & 1 or (anc[p] >> q) & 1:
                return False
    return True


def is_reticulation_visible(net: Network) -> bool:
    """Every reticulation is visible: deleting it cuts some leaf off the root."""
    _require_valid(net)
    indeg = net.indegrees()
    rets = [v for v in range(net.n) if indeg[v] == 2]
    return all(_is_visible(net, v) for v in rets)


def _is_visible(net: Network, v: int) -> bool:
    reached = 1 << net.root
    stack = [net.root]
    while stack:
        u = stack.pop()
        for w in net.children[u]:
            if w != v and not (reached >> w) & 1:
                reached |= 1 << w
                stack.append(w)
    for leaf in range(net.n):
        if net.leaf_labels[leaf] and not (reached >> leaf) & 1:
            return True
    return False


def is_galled(net: Network) -> bool:
    """Every reticulation sits in a tree cycle.

    Equivalently, the component graph with arrows ignored is a tree (Gunawan,
    Lu & Zhang, Bioinformatics 2016); `verify` keeps the tree-cycle
    definition as an independent max-flow reference.
    """
    return component_graph(net).stripped_is_tree()


class ComponentGraph(Record):
    """Compressed view of a network: one vertex per tree component.

    Edges record how reticulations join components; `double` marks the case
    where both reticulation edges come from the same component.  Labels of
    leaves sit either attached to their component (`attached`) or, for a
    single-leaf terminal component under a double edge, directly on the
    component vertex (`terminal_labels`).
    """

    __slots__ = _fields = ("n", "root", "edges", "attached", "terminal_labels")
    n: int
    root: int
    edges: tuple[tuple[int, int, bool], ...]
    attached: tuple[tuple[int, ...], ...]
    terminal_labels: tuple[int, ...]  # 0 where absent

    def __init__(self, n: int, root: int, edges, attached, terminal_labels):
        self._set(n, root, edges, attached, terminal_labels)

    def weighted_indegrees(self) -> list[int]:
        indeg = [0] * self.n
        for _, dst, double in self.edges:
            indeg[dst] += 2 if double else 1
        return indeg

    def stripped_is_tree(self) -> bool:
        """True iff ignoring arrows leaves each non-root component exactly one
        incoming edge (the component graph of a galled network)."""
        count = [0] * self.n
        for _, dst, _ in self.edges:
            count[dst] += 1
        return all(count[v] == 1 for v in range(self.n) if v != self.root)

    def canonical_bytes(self) -> bytes:
        keys = [
            (self.attached[v], self.terminal_labels[v], v == self.root)
            for v in range(self.n)
        ]
        ranks = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [ranks[key] for key in keys]
        edges = [(u, v, 2 if double else 1) for u, v, double in self.edges]
        return canon.canonical_bytes(self.n, edges, colors)


def component_graph(net: Network) -> ComponentGraph:
    """The component graph of a valid network."""
    _require_valid(net)
    n = net.n
    indeg = net.indegrees()
    parents = net.parents()
    comp_root: list[int] = [-1] * n  # representative network vertex per vertex

    def walk_up(v: int) -> int:
        seen = []
        while comp_root[v] == -1 and not (indeg[v] == 2 or v == net.root):
            seen.append(v)
            v = parents[v][0]
        rep = comp_root[v] if comp_root[v] != -1 else v
        for u in seen:
            comp_root[u] = rep
        comp_root[v] = rep
        return rep

    for v in range(n):
        walk_up(v)
    reps = [net.root] + sorted(v for v in range(n) if indeg[v] == 2)
    index = {rep: i for i, rep in enumerate(reps)}
    edges: list[tuple[int, int, bool]] = []
    for r in reps[1:]:
        sources = [index[comp_root[p]] for p in parents[r]]
        dst = index[r]
        if sources[0] == sources[1]:
            edges.append((sources[0], dst, True))
        else:
            edges.append((sources[0], dst, False))
            edges.append((sources[1], dst, False))
    attached: list[list[int]] = [[] for _ in reps]
    for v in range(n):
        if net.leaf_labels[v]:
            attached[index[comp_root[v]]].append(net.leaf_labels[v])
    has_out = [False] * len(reps)
    for src, _, _ in edges:
        has_out[src] = True
    terminal = [0] * len(reps)
    for i in range(1, len(reps)):
        double_in = any(dst == i and double for _, dst, double in edges)
        if not has_out[i] and len(attached[i]) == 1 and double_in:
            terminal[i] = attached[i][0]
            attached[i] = []
    return ComponentGraph(
        n=len(reps),
        root=0,
        edges=tuple(sorted(edges)),
        attached=tuple(tuple(sorted(a)) for a in attached),
        terminal_labels=tuple(terminal),
    )


# leading byte of a canonical code: written in refinement order, or by canon
_ORDER_TAG = b"o"
_CANON_TAG = b"c"


def canonical_code(net: Network) -> bytes:
    """Deterministic bytes equal for two networks iff they are isomorphic as
    leaf-labeled rooted DAGs.

    Each vertex gets an invariant key: the rank of its unfolding signature
    (see :func:`_unfolding`) among the network's signatures, with the sorted
    keys of its parents.  When the keys are pairwise distinct, sorting by key
    orders the vertices canonically and the code is the network written in
    that order.  Only otherwise does the general canonizer of
    :mod:`phylocount.canon` run.  Distinctness is itself an invariant, and
    the two kinds of code carry different tags, so they never meet.
    """
    _require_valid(net)
    n = net.n
    order, kinds, up = _unfolding(net)
    rank = {sig: i for i, sig in enumerate(sorted(set(up)))}
    parents = net.parents()
    key: list = [None] * n
    for v in order:
        keys = [key[p] for p in parents[v]]
        if len(keys) == 2 and keys[1] < keys[0]:
            keys.reverse()
        key[v] = (rank[up[v]], tuple(keys))
    colors = [(kinds[v] << 20) | net.leaf_labels[v] for v in range(n)]
    if len(set(key)) < n:
        edges = [(u, w, 1) for u, w in net.edges()]
        return _CANON_TAG + canon.canonical_bytes(n, edges, colors)
    position = [0] * n
    for i, v in enumerate(sorted(range(n), key=key.__getitem__)):
        position[v] = i
    ordered_colors = [0] * n
    for v in range(n):
        ordered_colors[position[v]] = colors[v]
    edges = sorted((position[u], position[w]) for u, w in net.edges())
    return _ORDER_TAG + repr((n, tuple(ordered_colors), tuple(edges))).encode()


def structure_key(net: Network) -> str:
    """Cheap isomorphism invariant: the root's unfolding signature, one flat
    string (see :func:`_unfolding`).

    Equal keys do not in general imply isomorphism (sharing is lost), so this
    only serves as a fast pre-filter before :func:`canonical_code`.
    """
    _, _, up = _unfolding(net)
    return up[net.root]


# the _KIND_ORDER place of each binary (indegree, outdegree) pair
_DEGREE_KIND_ORDER = {
    degrees: _KIND_ORDER[_classify(*degrees)] for degrees in ((0, 1), (1, 2), (2, 1), (1, 0))
}


def _unfolding(net: Network) -> tuple[list[int], list[int], list[str]]:
    """A topological order (root first), every vertex's kind as its place in
    `_KIND_ORDER`, and every vertex's bottom-up signature.

    A signature is one string: the kind's place, then `:label;` for a leaf,
    or the sorted signatures of the children inside `(...)`.  The encoding
    is prefix-free, so two signatures are equal iff the unfoldings (the
    trees obtained by copying every shared subnetwork) are equal; this is the
    string form of the classic tree-isomorphism code (Aho, Hopcroft &
    Ullman 1974, section 3.2).
    """
    children = net.children
    indeg = net.indegrees()
    order = _topo_order(net, indeg)
    kinds = [0] * net.n
    up: list = [None] * net.n
    for v in reversed(order):
        kids = children[v]
        kind = _DEGREE_KIND_ORDER.get((indeg[v], len(kids)))
        if kind is None:
            _classify(indeg[v], len(kids))  # raises
        kinds[v] = kind
        if not kids:  # a leaf
            up[v] = f"{kind}:{net.leaf_labels[v]};"
        elif len(kids) == 2:
            a, b = up[kids[0]], up[kids[1]]
            up[v] = f"{kind}({a}{b})" if a <= b else f"{kind}({b}{a})"
        else:
            up[v] = f"{kind}({up[kids[0]]})"
    return order, kinds, up


def _topo_order(net: Network, indeg: list[int]) -> list[int]:
    remaining = indeg[:]
    order = [net.root]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w in net.children[v]:
            remaining[w] -= 1
            if remaining[w] == 0:
                order.append(w)
    if len(order) != net.n:
        raise ValueError("graph is not acyclic")
    return order


def all_leaf_relabelings(net: Network) -> list[Network]:
    """Every network obtained by permuting the leaf labels; for tests."""
    leaves = [v for v in range(net.n) if net.leaf_labels[v]]
    labels = sorted(net.leaf_labels[v] for v in leaves)
    out = []
    for perm in permutations(labels):
        new_labels = list(net.leaf_labels)
        for v, lab in zip(leaves, perm):
            new_labels[v] = lab
        out.append(Network(net.children, tuple(new_labels), net.root))
    return out
