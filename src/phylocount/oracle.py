"""Ground truth by exhaustion.

Backtracking generation of every leaf-labeled binary network with a given
leaf and reticulation count (desk scale: at most 14 vertices), per-class
counting, and the saturated-network analysis: the reticulation capacity of a
compressed shape, the decompression of maximally reticulated tree-child
networks, and the growth-term evaluation built on the first Airy root.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Sequence

from phylocount.networks import (
    ComponentGraph,
    Network,
    canonical_code,
    is_galled,
    is_normal,
    is_reticulation_visible,
    is_tree_child,
    is_valid,
    structure_key,
    validation_errors,
    _keep,
    _unfolding,
)
from phylocount.records import Record

VERTEX_BUDGET = 14

# the enumerator hands its networks over this many at a time: handing each
# one to a caller that classifies it at once cost about 4 us a network at
# (2, 4), 15 ms of a 290 ms count, while 64 held networks cost no memory
# that shows
_BATCH = 64


CLASS_PREDICATES = {
    "pn": is_valid,
    "rv": is_reticulation_visible,
    "gn": is_galled,
    "tc": is_tree_child,
    "normal": is_normal,
}


def check_cell(leaves: int, rets: int) -> None:
    """Raise ValueError unless the enumerator can reach the (leaves, rets)
    cell: leaves >= 1, rets >= 0 and 2 leaves + 2 rets <= VERTEX_BUDGET."""
    if leaves < 1 or rets < 0:
        raise ValueError("need leaves >= 1 and rets >= 0")
    n = 2 * leaves + 2 * rets
    if n > VERTEX_BUDGET:
        raise ValueError(f"job needs {n} vertices, budget is {VERTEX_BUDGET}")


def enumerate_networks(leaves: int, rets: int) -> Iterator[Network]:
    """Every leaf-labeled binary network with the given counts, exactly once.

    Vertices are filled slot by slot in creation order; descriptor ordering on
    the two child slots of a tree vertex removes most duplicate derivations
    and canonical codes remove the rest.  The search runs on an explicit
    stack inside this one generator, which hands the networks over in
    batches of `_BATCH` with no chain of nested generators between.  The
    search keeps each vertex's child tuple as it goes, so a complete
    candidate is one tuple of them.  The slot scheme builds only valid
    networks (binary, rooted, each label on one leaf, and acyclic: a
    reticulation's two parents are distinct, and it gets its child slot
    only once both are in place) and numbers the vertices root, tree
    vertices, reticulations, leaves, so every candidate has one indegree
    tuple.  Each candidate keeps the empty verdict and that tuple without
    being validated (see :func:`phylocount.networks._keep`), for the class
    predicates and the canonical code; its unfolding, built on the tuple,
    serves both its `structure_key` and, on a collision, its canonical
    code.  The dedupe table goes with the generator's frame, when the
    enumeration ends or is dropped.
    """
    check_cell(leaves, rets)
    t = leaves + rets - 1  # tree vertices
    n = 2 * leaves + 2 * rets
    first_ret = t + 1
    first_leaf = t + rets + 1

    # each vertex's child tuple, taken from these tables as children are
    # put in place and taken back: every candidate shares one label tuple,
    # one indegree tuple and every equal child tuple, so the representatives
    # kept in `seen` are small
    single = [(w,) for w in range(n)]
    pair = [[(v, w) for w in range(n)] for v in range(n)]
    children: list[tuple[int, ...]] = [()] * n
    leaf_labels = (0,) * first_leaf + tuple(range(1, leaves + 1))
    indeg = (0,) + (1,) * t + (2,) * rets + (1,) * leaves
    slots: list[list] = [[0, None]]  # [vertex, minimum descriptor]
    ret_parent: dict[int, int] = {}  # open reticulations -> first parent
    # lazy canonical codes: the first member of a bucket is only canonized
    # when a second candidate shows up
    seen: dict = {}
    used_t = used_r = 0
    label_mask = (1 << leaves) - 1
    # one frame per slot being filled: [slot index, its vertex, the vertex's
    # other child slot when that comes next (else None), the options left to
    # try (last first), the descriptor in place, the parent a closing
    # displaced].  Each descriptor put in place becomes the other child
    # slot's minimum; that slot is read only right after, so the minimum
    # never needs a reset
    stack: list[list] = []
    batch: list[Network] = []  # new networks not yet handed over
    index = 0
    while True:
        if index < len(slots):
            # the options in descriptor order: new tree (0,0) < new ret (1,0)
            # < close ret (2, w) < leaf (3, label), kept from the slot's
            # minimum on; only the open reticulations need a sort, since
            # closing one re-inserts it at the end of `ret_parent`.  Options
            # that leave nothing to complete the network are dropped:
            # - the last open slot takes no new reticulation, which could
            #   never close, and no leaf but the very last
            # - no other slot takes the last label: the slots still open
            #   would need a leaf
            # - when u's other child slot comes next and is the last open
            #   one, it must take something above this slot's descriptor:
            #   so a new reticulation here needs another open one to close
            #   there (u, with no child yet, opened none), and a leaf here
            #   must be the smaller of the last two labels, with nothing
            #   else left to place
            u, min_desc = slots[index]
            last = index + 1 == len(slots)
            pair_last = index + 2 == len(slots) and slots[index + 1][0] == u
            found = [(0, 0)] if used_t < t else []
            if used_r < rets and not last and (ret_parent or not pair_last):
                found.append((1, 0))
            if ret_parent:
                found += [(2, w) for w in sorted(ret_parent) if ret_parent[w] != u]
            m = label_mask
            if last or pair_last:
                m = 0 if used_t < t or used_r < rets or ret_parent else m & -m
            elif not m & (m - 1):
                m = 0
            while m:
                low = m & -m
                found.append((3, low.bit_length()))
                m ^= low
            if min_desc is not None:
                found = [desc for desc in found if desc >= min_desc]
            if found:
                found.reverse()
                sibling = None if last or slots[index + 1][0] != u else slots[index + 1]
                stack.append([index, u, sibling, found, None, None])
        elif used_t == t and used_r == rets and not ret_parent and not label_mask:
            net = Network(tuple(children), leaf_labels)
            _keep(net, (), indeg)
            unfolding = _unfolding(net, indeg)
            key = structure_key(net, unfolding)
            bucket = seen.get(key)
            if bucket is None:
                seen[key] = [net, None]  # representative, its code (lazy)
                batch.append(net)
            else:
                if bucket[1] is None:
                    bucket[1] = canonical_code(bucket[0])
                code = canonical_code(net, unfolding)
                if code != bucket[1] and code not in bucket[2:]:
                    bucket.append(code)
                    batch.append(net)
            if len(batch) == _BATCH:
                yield from batch
                batch.clear()
        # take back the top frame's descriptor and put its next one in place
        while stack:
            frame = stack[-1]
            index, u, sibling, found, desc, displaced = frame
            if desc is not None:
                kind, arg = desc
                kids = children[u]
                children[u] = single[kids[0]] if len(kids) == 2 else ()
                if kind == 0:
                    used_t -= 1
                    del slots[-2:]
                elif kind == 1:
                    used_r -= 1
                    del ret_parent[first_ret + used_r]
                elif kind == 2:
                    slots.pop()
                    ret_parent[arg] = displaced
                else:
                    label_mask |= 1 << (arg - 1)
            if not found:
                stack.pop()
                continue
            desc = frame[4] = found.pop()
            if sibling is not None:
                sibling[1] = desc
            kind, arg = desc
            if kind == 0:
                used_t += 1
                w = used_t
                slots.append([w, None])
                slots.append([w, None])
            elif kind == 1:
                w = first_ret + used_r
                used_r += 1
                ret_parent[w] = u
            elif kind == 2:
                w = arg
                frame[5] = ret_parent.pop(w)
                slots.append([w, None])
            else:
                w = first_leaf + arg - 1
                label_mask &= ~(1 << (arg - 1))
            kids = children[u]
            children[u] = pair[kids[0]][w] if kids else single[w]
            index += 1
            break
        else:
            yield from batch
            return


class ClassCounts(Record):
    __slots__ = _fields = ("pn", "rv", "gn", "tc", "normal")
    pn: int
    rv: int
    gn: int
    tc: int
    normal: int

    def __init__(self, pn: int, rv: int, gn: int, tc: int, normal: int):
        self._set(pn, rv, gn, tc, normal)

    def as_dict(self) -> dict[str, int]:
        return {"pn": self.pn, "rv": self.rv, "gn": self.gn, "tc": self.tc, "normal": self.normal}


@functools.cache
def count_by_class(leaves: int, rets: int) -> ClassCounts:
    """Exhaustive per-class counts for one (leaves, rets) cell; memoized."""
    pn = rv = gn = tc = normal = 0
    for net in enumerate_networks(leaves, rets):
        pn += 1
        if is_galled(net):
            gn += 1
        if is_reticulation_visible(net):
            rv += 1
        if is_tree_child(net):
            tc += 1
            if is_normal(net):
                normal += 1
    return ClassCounts(pn, rv, gn, tc, normal)


def reticulation_capacity(children: Sequence[Sequence[int]] | Network) -> int:
    """Largest reticulation count obtainable by decompressing the given
    tree-child shape, per the arrow-placement rules.

    Accepts a Network (whose outdegree-1 stem root is skipped) or raw child
    lists of a compressed shape rooted at vertex 0, possibly multifurcating.
    Indegree-2 vertices with several children are treated as split into a
    reticulation plus an uncounted follow-up vertex; a reticulation's lone
    follow-up vertex is likewise not counted (merge normalisation).
    """
    if isinstance(children, Network):
        net = children
        if not is_tree_child(net):
            raise ValueError("reticulation capacity is defined for tree-child inputs")
        root = net.children[net.root][0]
        kids = net.children
    else:
        root = 0
        kids = [tuple(c) for c in children]
    n = len(kids)
    indeg = [0] * n
    parent = [0] * n  # the parent of each indegree-1 vertex
    for v in range(n):
        for w in kids[v]:
            indeg[w] += 1
            parent[w] = v
    def pure_ret(v: int) -> bool:
        return indeg[v] == 2 and len(kids[v]) == 1
    capacity = 0
    reachable = set()
    stack = [root]
    while stack:
        v = stack.pop()
        if v in reachable:
            continue
        reachable.add(v)
        stack.extend(kids[v])
    for v in sorted(reachable):
        if not kids[v]:  # leaf
            if not pure_ret(parent[v]):
                capacity += 1  # arrow-eligible pendant edge
        elif indeg[v] == 2:
            capacity += 1  # one reticulation per indegree-2 vertex
        elif v != root:
            if not pure_ret(parent[v]):
                capacity += 1  # internal vertex entered by an arrowed edge
    return capacity


def split_multifurcation(children: Sequence[Sequence[int]], vertex: int):
    """The capacity-raising split: detach all but the first child of a
    multifurcating vertex onto a fresh vertex.  Returns new child lists."""
    kids = [list(c) for c in children]
    if len(kids[vertex]) < 3:
        raise ValueError("vertex is not multifurcating")
    fresh = len(kids)
    keep, rest = kids[vertex][0], kids[vertex][1:]
    kids[vertex] = [keep, fresh]
    kids.append(rest)
    return kids


def decompress_max_reticulated(tc: Network) -> Network:
    """The unique reticulation-visible network whose compressed form is the
    given maximally reticulated binary tree-child network.

    Every tree vertex (with its single reticulation child and single other
    child) inflates to the unique two-leaf one-reticulation block; every
    reticulation of the input becomes a fresh reticulation fed by the spare
    slots of its two parents' blocks.  The result has 3*leaves - 3
    reticulations.
    """
    errors = validation_errors(tc)
    if errors:
        raise ValueError("invalid input: " + "; ".join(errors))
    if not is_tree_child(tc):
        raise ValueError("input must be tree-child")
    leaves = tc.num_leaves
    if tc.num_reticulations != leaves - 1:
        raise ValueError("input must be maximally reticulated (rets = leaves - 1)")
    indeg = tc.indegrees()
    tree_vertices = [
        v
        for v in range(tc.n)
        if v != tc.root and indeg[v] == 1 and len(tc.children[v]) == 2
    ]
    top = tc.children[tc.root][0]
    gadget_owner = tree_vertices
    for v in gadget_owner:
        ret_kids = [w for w in tc.children[v] if indeg[w] == 2]
        if len(ret_kids) != 1:
            raise ValueError("tree vertex without exactly one reticulation child")

    # fresh vertex ids: root, then per-owner gadget (entry, side, ret),
    # one reticulation per input reticulation, leaves keep their labels
    counter = [0]
    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    root = fresh()
    entry = {v: fresh() for v in gadget_owner}
    side = {v: fresh() for v in gadget_owner}
    gadget_ret = {v: fresh() for v in gadget_owner}
    shared_ret = {w: fresh() for w in range(tc.n) if indeg[w] == 2}
    leaf_of = {}
    for v in range(tc.n):
        if tc.leaf_labels[v]:
            leaf_of[v] = fresh()
    n = counter[0]
    children: list[list[int]] = [[] for _ in range(n)]
    labels = {leaf_of[v]: tc.leaf_labels[v] for v in leaf_of}

    def expansion_top(v: int) -> int:
        # where an edge pointing at input vertex v lands in the output
        if v in entry:
            return entry[v]
        if v in leaf_of:
            return leaf_of[v]
        raise ValueError("reticulation child where a tree part was expected")

    children[root] = [entry[top]]
    for v in gadget_owner:
        ret_kid = next(w for w in tc.children[v] if indeg[w] == 2)
        other_kid = next(w for w in tc.children[v] if indeg[w] != 2)
        children[entry[v]] = [side[v], gadget_ret[v]]
        children[side[v]] = [gadget_ret[v], shared_ret[ret_kid]]
        children[gadget_ret[v]] = [expansion_top(other_kid)]
    for w, ret in shared_ret.items():
        child = tc.children[w][0]
        children[ret] = [expansion_top(child)]
    out = Network.build(children, labels, root)
    errors = validation_errors(out)
    if errors:
        raise AssertionError("decompression built an invalid network: " + "; ".join(errors))
    if out.num_reticulations != 3 * leaves - 3:
        raise AssertionError("decompression missed the saturation bound")
    return out


def expected_compressed_form(tc: Network) -> ComponentGraph:
    """The component graph the decompression of `tc` must produce, built
    directly from `tc`: contract reticulation-to-tree edges, mark tree-tree
    edges as doubles, turn tree-parented leaves into labeled terminal
    vertices and keep reticulation-parented leaves attached."""
    from phylocount import canon  # imported here: a brute count never loads canon

    indeg = tc.indegrees()
    parents = tc.parents()
    top = tc.children[tc.root][0]
    rep = {}

    def find(v: int) -> int:
        while rep.get(v, v) != v:
            v = rep[v]
        return v

    for w in range(tc.n):
        if indeg[w] == 2:
            child = tc.children[w][0]
            if not tc.leaf_labels[child]:
                rep[find(child)] = find(w)  # merge the follow-up tree vertex
    internal = [
        v for v in range(tc.n) if v != tc.root and not tc.leaf_labels[v]
    ]
    terminal_leaves = [
        v for v in range(tc.n) if tc.leaf_labels[v] and indeg[parents[v][0]] != 2
    ]
    components = {find(v) for v in internal + [top]}
    comp_ids = {}
    ordered = [find(top)] + sorted(
        c for c in components if c != find(top)
    ) + sorted(terminal_leaves)
    for i, c in enumerate(ordered):
        comp_ids[c] = i
    n = len(ordered)
    edges = []
    attached: list[list[int]] = [[] for _ in range(n)]
    terminal = [0] * n
    for leaf in terminal_leaves:
        terminal[comp_ids[leaf]] = tc.leaf_labels[leaf]
        edges.append((comp_ids[find(parents[leaf][0])], comp_ids[leaf], 2))
    for v in range(tc.n):
        if tc.leaf_labels[v] and v not in terminal_leaves:
            attached[comp_ids[find(parents[v][0])]].append(tc.leaf_labels[v])
    for w in range(tc.n):
        if indeg[w] == 2:
            for parent in parents[w]:
                edges.append((comp_ids[find(parent)], comp_ids[find(w)], 1))
        elif w != tc.root and not tc.leaf_labels[w] and len(tc.children[w]) == 2:
            parent = parents[w][0]
            if parent != tc.root and indeg[parent] != 2:
                edges.append((comp_ids[find(parent)], comp_ids[find(w)], 2))
    return ComponentGraph(
        pattern=canon.DagPattern(n, tuple(sorted(edges))),
        attached=tuple(tuple(sorted(a)) for a in attached),
        terminal_labels=tuple(terminal),
    )


def max_reticulation_summary() -> dict[str, int]:
    """Saturation analysis by exhaustion at two leaves: the largest feasible
    reticulation count for the visible class and the count at the maximum
    against the tree-child count.  The scan runs through k = 3l - 2 = 4, the
    first count the proven bound 3l - 3 excludes.  (At three leaves the
    decompression bijection gives the saturated count; `verify` checks it
    there.)"""
    leaves = 2
    max_k = 0
    count_at_max = 0
    for k in range(3 * leaves - 1):
        rv = count_by_class(leaves, k).rv
        if rv > 0:
            max_k, count_at_max = k, rv
    tc_max = count_by_class(leaves, leaves - 1).tc
    return {"max_rets": max_k, "count_at_max": count_at_max, "tc_max_count": tc_max}


def airy_first_root() -> float:
    """Largest (least negative) root a1 of the Airy function of the first
    kind, as published (DLMF Table 9.9.1)."""
    return -2.338107410459767


def saturated_growth_term_log(leaves: int) -> float:
    """Natural log of l^(-2/3) exp(a1 (3l)^(1/3)) (12/e^2)^l l^(2l) with a1
    the first Airy root."""
    l = leaves
    if l < 2:
        raise ValueError("leaves must be >= 2")
    a1 = airy_first_root()
    return (
        -2.0 / 3.0 * math.log(l)
        + a1 * (3.0 * l) ** (1.0 / 3.0)
        + l * (math.log(12.0) - 2.0)
        + 2.0 * l * math.log(l)
    )


def saturated_growth_term(leaves: int) -> tuple[float, int]:
    """(mantissa, decimal exponent) of the saturated growth term."""
    log10 = saturated_growth_term_log(leaves) / math.log(10.0)
    exponent = math.floor(log10)
    return 10.0 ** (log10 - exponent), exponent
