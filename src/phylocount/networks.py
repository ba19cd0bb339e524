"""Data model for rooted binary phylogenetic networks and their component graphs.

A network is stored as an immutable child-list DAG.  Vertex kinds are derived
from degrees: the root has indegree 0 and outdegree 1, leaves have indegree 1
and outdegree 0 and carry the labels 1..leaves, tree vertices are (1 in, 2
out) and reticulations (2 in, 1 out).  All predicates treat networks as
values; nothing here mutates.
"""

from __future__ import annotations

import enum

from phylocount.records import Record


class VertexKind(enum.Enum):
    ROOT = "root"
    TREE = "tree"
    RETICULATION = "reticulation"
    LEAF = "leaf"


class Network(Record):
    """Rooted binary leaf-labeled network.

    `children[v]` lists the children of vertex v; `leaf_labels[v]` is the
    label of leaf v and 0 for non-leaves; `root` is the vertex expected to
    have indegree 0 and outdegree 1.  The validation result is computed once
    per object and kept (see :func:`validation_errors`), and so are, on a
    valid network, the indegrees it counted: `_indeg`, a tuple the class
    predicates and canonical codes read.  The enumerator, whose networks
    are valid by construction, keeps both without validating (see
    :func:`phylocount.oracle.enumerate_networks`); a copy made from the
    fields validates from scratch.
    """

    _fields = ("children", "leaf_labels", "root")
    __slots__ = _fields + ("_errors", "_indeg")
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
            errors, indeg = _find_errors(self)
            _keep(self, errors, indeg)
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


def _find_errors(net: Network) -> tuple[tuple[str, ...], list[int]]:
    """The invariant violations and the indegrees; the indegrees are empty
    or partial when the errors are not empty."""
    children, labels, root = net.children, net.leaf_labels, net.root
    n = len(children)
    if not 0 <= root < n:
        return (f"declared root {root} is out of range",), []
    if len(labels) != n:
        return (f"{len(labels)} leaf labels for {n} vertices",), []
    errors = []
    # one pass over the edges: simplicity (a repeated child would be a
    # parallel edge), child range, and the indegrees, which are only counted
    # for in-range children
    indeg = [0] * n
    for v, kids in enumerate(children):
        if len(kids) == 2 and kids[0] == kids[1] or len(kids) > 2 and len(set(kids)) < len(kids):
            errors.append(f"parallel edges out of vertex {v}")
        for w in kids:
            if not 0 <= w < n:
                errors.append(f"vertex {v} has an out-of-range child")
                return tuple(errors), indeg
            indeg[w] += 1
    # one pass over the vertices: roots, leaves, and the degrees of labeled
    # and of internal vertices
    roots, leaves, not_leaves, bad_degrees = [], 0, [], []
    for v, d_in, kids, label in zip(range(n), indeg, children, labels):
        d_out = len(kids)
        if not d_in:
            roots.append(v)
        elif d_in == 1 and not d_out:
            leaves += 1
        if label:
            if d_out or d_in != 1:
                not_leaves.append(f"labeled vertex {v} is not a leaf")
        elif v != root and not (d_in + d_out == 3 and 0 < d_in < 3):  # (1, 2) or (2, 1)
            bad_degrees.append(f"internal vertex {v} has degrees ({d_in}, {d_out})")
    if roots != [root]:
        errors.append(f"indegree-0 vertices {roots} do not match declared root {root}")
    if len(children[root]) != 1:
        errors.append("root must have outdegree 1")
    found = sorted(filter(None, labels))
    expected = list(range(1, leaves + 1))
    if found != expected:
        errors.append(f"leaf labels {found} are not a bijection with {expected}")
    errors += not_leaves + bad_degrees
    # one depth-first search from the root, on an explicit stack of child
    # iterators, notes every edge back onto the path and walks on, so it
    # also finds every vertex the root reaches
    state = [0] * n  # 0 unvisited, 1 on the path, 2 done
    state[root] = 1
    path = [root]
    stack = [iter(children[root])]
    cycle = False
    while stack:
        for w in stack[-1]:
            if state[w] == 1:
                cycle = True
            elif not state[w]:
                state[w] = 1
                path.append(w)
                stack.append(iter(children[w]))
                break
        else:
            state[path.pop()] = 2
            stack.pop()
    if cycle:
        errors.append("the edge relation has a directed cycle")
    unreachable = [v for v in range(n) if not state[v]]
    if unreachable:
        errors.append(f"vertices {unreachable} are unreachable from the root")
    return tuple(errors), indeg


def _keep(net: Network, errors: tuple[str, ...], indeg) -> None:
    """Keep a verdict on the network and, when it is valid, the indegrees,
    as a tuple (a tuple passed in is kept as the same object).  Outside a
    validation only the enumerator calls this, with the verdict its slot
    scheme guarantees."""
    object.__setattr__(net, "_errors", errors)
    if not errors:
        object.__setattr__(net, "_indeg", tuple(indeg))


def is_valid(net: Network) -> bool:
    return not validation_errors(net)


def _require_valid(net: Network):
    errors = validation_errors(net)
    if errors:
        raise ValueError("invalid network: " + "; ".join(errors))


def is_tree_child(net: Network) -> bool:
    """Every non-leaf vertex has at least one child that is not a reticulation."""
    _require_valid(net)
    return _tree_child(net.children, net._indeg)


def _tree_child(children, indeg: tuple[int, ...]) -> bool:
    # a vertex of a valid network has at most two children: its first and last
    for kids in children:
        if kids and indeg[kids[0]] == 2 and indeg[kids[-1]] == 2:
            return False
    return True


# The predicates below make one pass down from the root.  A vertex is taken
# up once its parents are done: a tree vertex or leaf at once, a reticulation
# when its second parent arrives; until then the reticulation's slot holds
# what the first parent passed down.


def is_normal(net: Network) -> bool:
    """Tree-child and shortcut-free: no reticulation has one parent that is
    an ancestor of the other."""
    _require_valid(net)
    children, indeg = net.children, net._indeg
    if not _tree_child(children, indeg):
        return False
    up = [0] * len(children)  # each vertex with its ancestors, as a bitmask
    up[net.root] = 1 << net.root
    stack = [net.root]
    while stack:
        v = stack.pop()
        mask = up[v]
        for w in children[v]:
            first = up[w]
            if indeg[w] == 1:
                up[w] = mask | 1 << w
            elif not first:
                up[w] = mask
                continue
            # with p the first parent: p is above v iff up[p] lies within
            # up[v], and v is above p iff v is in up[p]
            elif not first & ~mask or first >> v & 1:
                return False
            else:
                up[w] = first | mask | 1 << w
            stack.append(w)
    return True


def is_reticulation_visible(net: Network) -> bool:
    """Every reticulation is visible: it dominates some leaf, so deleting it
    cuts that leaf off the root."""
    _require_valid(net)
    children, indeg = net.children, net._indeg
    dom = [0] * len(children)  # each vertex's dominators, itself included, as a bitmask
    dom[net.root] = 1 << net.root
    rets = dominated = 0
    stack = [net.root]
    while stack:
        v = stack.pop()
        mask = dom[v]
        if not children[v]:
            dominated |= mask
        for w in children[v]:
            if indeg[w] == 1:
                dom[w] = mask | 1 << w
            elif not dom[w]:
                dom[w] = mask
                continue
            else:
                dom[w] = dom[w] & mask | 1 << w
                rets |= 1 << w
            stack.append(w)
    return not rets & ~dominated


def is_galled(net: Network) -> bool:
    """Every reticulation sits in a tree cycle: its two parents lie in one
    tree component.

    Equivalently, the component graph is tree-like, every edge double
    (Gunawan, Lu & Zhang, Bioinformatics 2016); `verify` keeps that as a
    second route and the tree-cycle definition as a max-flow reference.
    """
    _require_valid(net)
    children, indeg = net.children, net._indeg
    head = [-1] * len(children)  # each vertex's tree component, named by its top vertex
    head[net.root] = net.root
    stack = [net.root]
    while stack:
        v = stack.pop()
        top = head[v]
        for w in children[v]:
            if indeg[w] == 1:
                head[w] = top
            elif head[w] < 0:
                head[w] = top
                continue
            elif head[w] != top:
                return False
            else:
                head[w] = w
            stack.append(w)
    return True


class ComponentGraph(Record):
    """Compressed view of a network: one vertex per tree component.

    `pattern` is the shape, a :class:`phylocount.canon.DagPattern`: an edge
    of multiplicity 1 is a reticulation edge from one of two components, one
    of multiplicity 2 a pair of them from the same component.  Labels of
    leaves sit either attached to their component (`attached`) or, for a
    single-leaf terminal component under a double edge, directly on the
    component vertex (`terminal_labels`).
    """

    __slots__ = _fields = ("pattern", "attached", "terminal_labels")
    pattern: "canon.DagPattern"
    attached: tuple[tuple[int, ...], ...]
    terminal_labels: tuple[int, ...]  # 0 where absent

    def __init__(self, pattern, attached, terminal_labels):
        self._set(pattern, attached, terminal_labels)

    def canonical_bytes(self) -> bytes:
        from phylocount import canon

        pattern = self.pattern
        keys = [
            (self.attached[v], self.terminal_labels[v], v == pattern.root)
            for v in range(pattern.m)
        ]
        ranks = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [ranks[key] for key in keys]
        return canon.canonical_bytes(pattern.m, pattern.edges, colors)


def component_graph(net: Network) -> ComponentGraph:
    """The component graph of a valid network."""
    # the shape is a canon pattern, imported on first use: network codes and
    # the oracle never load canon
    from phylocount import canon

    _require_valid(net)
    n = net.n
    indeg = net._indeg
    parents = net.parents()
    # each vertex's component, named by its head, in one pass down from the
    # root: a reticulation heads its own, every other vertex takes its parent's
    head = [-1] * n
    head[net.root] = net.root
    stack = [net.root]
    while stack:
        v = stack.pop()
        for w in net.children[v]:
            if head[w] < 0:
                head[w] = w if indeg[w] == 2 else head[v]
                stack.append(w)
    reps = [net.root] + sorted(v for v in range(n) if indeg[v] == 2)
    index = {rep: i for i, rep in enumerate(reps)}
    edges: list[tuple[int, int, int]] = []
    for r in reps[1:]:
        sources = [index[head[p]] for p in parents[r]]
        dst = index[r]
        if sources[0] == sources[1]:
            edges.append((sources[0], dst, 2))
        else:
            edges.append((sources[0], dst, 1))
            edges.append((sources[1], dst, 1))
    attached: list[list[int]] = [[] for _ in reps]
    for v in range(n):
        if net.leaf_labels[v]:
            attached[index[head[v]]].append(net.leaf_labels[v])
    has_out = {src for src, _, _ in edges}
    terminal = [0] * len(reps)
    for _, dst, mult in edges:
        if mult == 2 and dst not in has_out and len(attached[dst]) == 1:
            terminal[dst] = attached[dst].pop()
    return ComponentGraph(
        pattern=canon.DagPattern(len(reps), tuple(sorted(edges))),
        attached=tuple(tuple(sorted(a)) for a in attached),
        terminal_labels=tuple(terminal),
    )


# leading byte of a canonical code: written in refinement order, or the
# least of the orders the tie search reaches
_ORDER_TAG = b"o"
_CANON_TAG = b"c"


def canonical_code(net: Network, unfolding: tuple | None = None) -> bytes:
    """Deterministic bytes equal for two networks iff they are isomorphic as
    leaf-labeled rooted DAGs.

    Each vertex gets an invariant key: one character for the rank of its
    unfolding signature (see :func:`_unfolding`) among the network's
    signatures, then its parents' keys, sorted and joined (see
    :func:`_keys`).  The rank fixes the vertex kind and so how many parent
    keys follow, so a key reads back uniquely.  When the keys are pairwise
    distinct, sorting by key orders the vertices canonically and the code is
    the network written in that order (see :func:`_written`).  When the
    signatures themselves are pairwise distinct, the leading ranks alone
    settle that order, so the vertices are sorted by signature and no parent
    key is built; the bytes are the same.  When the keys tie, the tie search
    of :func:`_least_code` writes the network in each discrete order it
    reaches and keeps the least.  Distinctness is itself an invariant, and
    the two kinds of code carry different tags, so they never meet.
    `unfolding` is ``_unfolding(net, indeg)`` when the caller has it already.
    """
    _require_valid(net)
    children, labels = net.children, net.leaf_labels
    n = len(children)
    order, up = unfolding or _unfolding(net, net._indeg)
    signatures = set(up)
    if len(signatures) == n:
        ranked = sorted(range(n), key=up.__getitem__)
    else:
        rank = {sig: chr(i) for i, sig in enumerate(sorted(signatures))}
        key = _keys(children, order, [rank[sig] for sig in up])
        if len(set(key)) < n:
            twin = [(sorted(ps), sorted(cs)) for ps, cs in zip(net.parents(), children)]
            return _CANON_TAG + _least_code(children, labels, order, key, twin)
        ranked = sorted(range(n), key=key.__getitem__)
    return _ORDER_TAG + _written(children, labels, ranked)


def _keys(children, order: list[int], own: list[str]) -> list[str]:
    """Every vertex's key, top-down in the topological `order`: its `own`
    character, then its parents' keys, sorted and joined."""
    key = [""] * len(own)  # the parents' keys, until the vertex's own is complete
    for v in order:
        mine = key[v] = own[v] + key[v]
        for w in children[v]:
            other = key[w]
            key[w] = other + mine if other <= mine else mine + other
    return key


def _least_code(children, labels, order: list[int], key: list[str], twin: list) -> bytes:
    """The least network code over the orders that individualisation on the
    keys reaches.

    Pairwise distinct keys give one order, the vertices sorted by key.
    Otherwise each member x of the tied class with the least key is marked
    in turn: each vertex's own character becomes twice its key's rank, plus
    one for x, the keys are computed again and the search goes on from
    there.  The new keys split the old classes and set x apart, so the
    search ends; it is equivariant and explores every branch, so the least
    code is the same for isomorphic networks, and a code writes its
    network out in full, so it differs for the rest.  A member whose
    sorted parents and children, its `twin` entry, equal those of a member
    already tried is skipped: swapping the two is an automorphism that
    fixes every marked vertex, so its branch reaches the same codes."""
    n = len(key)
    ranked = sorted(range(n), key=key.__getitem__)
    tied = next((key[u] for u, v in zip(ranked, ranked[1:]) if key[u] == key[v]), None)
    if tied is None:
        return _written(children, labels, ranked)
    rank = {k: 2 * i for i, k in enumerate(sorted(set(key)))}
    own = [chr(rank[k]) for k in key]
    marked = chr(rank[tied] + 1)
    best = None
    tried = []
    for x in range(n):
        if key[x] == tied and twin[x] not in tried:
            tried.append(twin[x])
            mine, own[x] = own[x], marked
            code = _least_code(children, labels, order, _keys(children, order, own), twin)
            own[x] = mine
            if best is None or code < best:
                best = code
    return best


def _written(children, labels, ranked: list[int]) -> bytes:
    """The network written in the order `ranked`: a width byte, then per
    vertex its outdegree and its children's places, or its label for a leaf,
    each number in one byte below 256 vertices and in `width` bytes from
    there."""
    n = len(ranked)
    position = sorted(range(n), key=ranked.__getitem__)  # the inverse order
    values = []
    for v in ranked:
        kids = children[v]
        if len(kids) == 2:
            a, b = position[kids[0]], position[kids[1]]
            values += (2, a, b) if a < b else (2, b, a)
        elif kids:
            values += (1, position[kids[0]])
        else:
            values += (0, labels[v])
    width = (n.bit_length() + 7) // 8
    if width == 1:
        return b"\x01" + bytes(values)
    return bytes([width]) + b"".join(x.to_bytes(width, "big") for x in values)


def structure_key(net: Network, unfolding: tuple | None = None) -> str:
    """Cheap isomorphism invariant: the root's unfolding signature, one flat
    string (see :func:`_unfolding`, which the caller may pass in; without
    it the network is validated first).

    Equal keys do not in general imply isomorphism (sharing is lost), so this
    only serves as a fast pre-filter before :func:`canonical_code`.
    """
    if unfolding is None:
        _require_valid(net)
        unfolding = _unfolding(net, net._indeg)
    return unfolding[1][net.root]


# a signature's first character: the vertex kind's place in `VertexKind`
_ROOT_SIG, _TREE_SIG, _RETICULATION_SIG, _LEAF_SIG = "0", "1", "2", "3"


def _unfolding(net: Network, indeg) -> tuple[list[int], list[str]]:
    """Kahn's topological order from the root (see :func:`_topo_order`) and
    every vertex's bottom-up signature, built on `indeg`: the indegrees a
    validation kept (`_indeg`), or the enumerator's.

    A signature is one string: the vertex kind's place in `VertexKind`, then
    `:label;` for a leaf, or the sorted signatures of the children inside
    `(...)`.  The encoding is prefix-free, so two signatures are equal iff
    the unfoldings (the trees obtained by copying every shared subnetwork)
    are equal; this is the string form of the classic tree-isomorphism code
    (Aho, Hopcroft & Ullman 1974, section 3.2).  The signatures compare as
    strings, and that order is the one :func:`canonical_code` ranks them by.

    An order that misses a vertex, on a cycle or out of the root's reach,
    raises ValueError, and so does a vertex with no binary kind.
    """
    children, labels = net.children, net.leaf_labels
    order = _topo_order(net, indeg)
    if len(order) != len(children):
        raise ValueError("no topological order from the root reaches every vertex")
    up: list = [None] * len(children)
    for v in reversed(order):
        kids = children[v]
        d, out = indeg[v], len(kids)
        if out == 2 and d == 1:
            a, b = up[kids[0]], up[kids[1]]
            up[v] = f"{_TREE_SIG}({a}{b})" if a <= b else f"{_TREE_SIG}({b}{a})"
        elif not out and d == 1:
            up[v] = f"{_LEAF_SIG}:{labels[v]};"
        elif out == 1 and d == 2:
            up[v] = f"{_RETICULATION_SIG}({up[kids[0]]})"
        elif out == 1 and not d:
            up[v] = f"{_ROOT_SIG}({up[kids[0]]})"
        else:
            _classify(d, out)  # raises
    return order, up


def _topo_order(net: Network, indeg) -> list[int]:
    """Kahn's order from the declared root; it misses every vertex on or
    below a cycle and every vertex the root does not reach."""
    children, remaining = net.children, list(indeg)
    order = [net.root]
    for v in order:  # the loop also visits what it appends
        for w in children[v]:
            remaining[w] -= 1
            if not remaining[w]:
                order.append(w)
    return order
