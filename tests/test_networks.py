"""Network data model: validation, class predicates, component graphs, codes."""

from __future__ import annotations

import pickle
import random
from itertools import permutations

import pytest

from phylocount.canon import DagPattern
from phylocount.networks import (
    Network,
    VertexKind,
    canonical_code,
    component_graph,
    is_galled,
    is_normal,
    is_reticulation_visible,
    is_tree_child,
    is_valid,
    structure_key,
    validation_errors,
)
from phylocount import canon
from phylocount.networks import _CANON_TAG
from phylocount.oracle import enumerate_networks

# each vertex kind's place, the first character of its signatures
_KIND_ORDER = {kind: place for place, kind in enumerate(VertexKind)}


def relabel_vertices(net: Network, perm: dict[int, int]) -> Network:
    """Renumber the vertices of `net` by `perm`, a bijection on 0..n-1."""
    children = [[] for _ in range(net.n)]
    labels = [0] * net.n
    for v in range(net.n):
        children[perm[v]] = sorted(perm[w] for w in net.children[v])
        labels[perm[v]] = net.leaf_labels[v]
    return Network(tuple(map(tuple, children)), tuple(labels), perm[net.root])


def all_leaf_relabelings(net: Network) -> list[Network]:
    """Every network obtained from `net` by permuting its leaf labels."""
    leaves = [v for v in range(net.n) if net.leaf_labels[v]]
    out = []
    for perm in permutations(sorted(net.leaf_labels[v] for v in leaves)):
        labels = list(net.leaf_labels)
        for v, label in zip(leaves, perm):
            labels[v] = label
        out.append(Network(net.children, tuple(labels), net.root))
    return out


def single_edge_network() -> Network:
    return Network.build([[1], []], {1: 1})


def gadget_network() -> Network:
    # root -> a, a -> {b, r}, b -> {r, leaf2}, r -> leaf1: the unique
    # one-component block with two leaves and one reticulation
    return Network.build([[1], [2, 3], [3, 4], [5], [], []], {4: 2, 5: 1})


def test_single_edge_network_valid():
    net = single_edge_network()
    assert is_valid(net)
    assert net.kinds() == [VertexKind.ROOT, VertexKind.LEAF]


def test_degree_violations_reported():
    # internal vertex with three children
    net = Network.build([[1], [2, 3, 4], [], [], []], {2: 1, 3: 2, 4: 3})
    errors = validation_errors(net)
    assert errors and any("degrees" in e for e in errors)
    # parallel edge
    dup = Network.build([[1], [2, 2], []], {2: 1})
    assert any("parallel" in e for e in validation_errors(dup))
    # cycle: 1 -> 2 -> 1, which gives vertex 1 a third edge; every vertex is
    # still reached from the root
    twisted = Network.build([[1], [2, 3], [3, 1], [4], []], {4: 1})
    assert validation_errors(twisted) == [
        "internal vertex 1 has degrees (2, 2)",
        "the edge relation has a directed cycle",
    ]


def test_cycle_is_the_only_fault_reported():
    # the cycle 2 -> 3 -> 2 is the one fault: the search walks on past the
    # edge that closes it, so it reaches both leaves and calls nothing
    # unreachable
    net = Network.build([[1], [2, 5], [3], [2, 4], [], []], {4: 1, 5: 2})
    assert validation_errors(net) == ["the edge relation has a directed cycle"]


def test_gadget_classification():
    net = gadget_network()
    assert is_valid(net)
    assert is_tree_child(net)
    assert not is_normal(net)  # parents of the reticulation are a and its child b
    assert is_galled(net)
    assert is_reticulation_visible(net)


def test_predicates_reject_invalid_input():
    broken = Network.build([[1], [2, 2], []], {2: 1})
    with pytest.raises(ValueError):
        is_tree_child(broken)


CODED_PREDICATES = (is_tree_child, is_normal, is_reticulation_visible, is_galled, canonical_code, structure_key)


@pytest.mark.parametrize(
    "net",
    [
        Network.build([[1], [2, 2], []], {2: 1}),
        Network.build([[1], [2, 3], [3, 1], [4], []], {4: 1}),
        Network.build([[1], [2, 3], [], []], {2: 1, 3: 3}),
        Network(((1,), (5, 2), ()), (0, 0, 1)),
        Network.build([[1], [2, 3, 4], [], [], []], {2: 1, 3: 2, 4: 3}),
    ],
    ids=["parallel", "cycle", "labels", "out-of-range", "degrees"],
)
def test_invalid_networks_raise_before_any_indegree_is_read(net, monkeypatch):
    def unread(self):
        raise AssertionError("indegrees read")

    monkeypatch.setattr(Network, "indegrees", unread)
    for predicate in CODED_PREDICATES:
        fresh = Network(net.children, net.leaf_labels, net.root)
        for _ in range(2):  # a new verdict, then the kept one
            with pytest.raises(ValueError, match="invalid network"):
                predicate(fresh)
        assert not hasattr(fresh, "_indeg")


def test_validation_keeps_the_indegrees_as_a_tuple():
    tree_child_violation = Network.build([[1], [2, 3], [4, 5], [4, 5], [6], [7], [], []], {6: 1, 7: 2})
    for net in (single_edge_network(), gadget_network(), tree_child_violation):
        assert not hasattr(net, "_indeg")  # only a validation keeps them
        assert is_valid(net)
        assert type(net._indeg) is tuple and list(net._indeg) == net.indegrees()
        twin = pickle.loads(pickle.dumps(net))
        assert twin == net and not hasattr(twin, "_indeg")
        assert [p(twin) for p in CODED_PREDICATES] == [p(net) for p in CODED_PREDICATES]
        assert twin._indeg == net._indeg


def test_tree_child_violation():
    # tree vertex whose both children are reticulations
    net = Network.build(
        [[1], [2, 3], [4, 5], [4, 5], [6], [7], [], []],
        {6: 1, 7: 2},
    )
    assert is_valid(net)
    assert not is_tree_child(net)


def test_trees_are_normal_and_galled():
    tree = Network.build([[1], [2, 3], [4, 5], [], [], []], {3: 3, 4: 1, 5: 2})
    assert is_valid(tree)
    assert is_tree_child(tree) and is_normal(tree) and is_galled(tree)
    assert is_reticulation_visible(tree)


def test_component_graph_of_tree_is_single_vertex():
    tree = Network.build([[1], [2, 3], [4, 5], [], [], []], {3: 3, 4: 1, 5: 2})
    cg = component_graph(tree)
    assert cg.pattern == DagPattern(1, ())
    assert cg.attached == ((1, 2, 3),)
    assert cg.pattern.is_treelike()


def test_component_graph_special_terminal_rule():
    cg = component_graph(gadget_network())
    assert cg.pattern == DagPattern(2, ((0, 1, 2),))
    assert cg.attached == ((2,), ())
    assert cg.terminal_labels == (0, 1)
    assert cg.pattern.is_treelike()


def test_canonical_code_relabeling_invariance():
    net = gadget_network()
    code = canonical_code(net)
    rng = random.Random(5)
    for _ in range(10):
        perm = list(range(net.n))
        rng.shuffle(perm)
        relabeled = relabel_vertices(net, dict(enumerate(perm)))
        assert canonical_code(relabeled) == code
        assert structure_key(relabeled) == structure_key(net)


def test_canonical_code_separates_leaf_swaps():
    net = gadget_network()
    swapped = Network.build([[1], [2, 3], [3, 4], [5], [], []], {4: 1, 5: 2})
    assert canonical_code(swapped) != canonical_code(net)
    codes = {canonical_code(variant) for variant in all_leaf_relabelings(net)}
    assert len(codes) == 2


def test_canonical_code_deterministic():
    net = gadget_network()
    assert canonical_code(net) == canonical_code(net)


def test_canonical_code_writes_distinct_signatures_in_their_order():
    # the gadget's signatures are pairwise distinct, and in string order
    # they place root, a, b, r, leaf 1, leaf 2 at 0..5; each vertex is then
    # written as its outdegree and its children's places, or its label
    code = bytes([1, 1, 2, 2, 3, 2, 3, 5, 1, 4, 0, 1, 0, 2])
    assert canonical_code(gadget_network()) == b"o\x01" + code


def test_dag_pattern_invariants():
    pattern = DagPattern(3, ((0, 1, 2), (0, 2, 1), (1, 2, 1)))
    assert [pattern.profile(v) for v in range(3)] == [(2, 1), (1, 0), (0, 0)]
    assert not pattern.is_treelike()
    assert DagPattern(3, ((0, 1, 2), (1, 2, 2))).is_treelike()
    with pytest.raises(ValueError):
        DagPattern(3, ((0, 1, 2), (0, 2, 1)))  # vertex 2 has indegree 1
    with pytest.raises(ValueError):
        DagPattern(2, ((0, 1, 3),))  # multiplicity out of range


def test_canonical_bytes_rejects_self_loops():
    with pytest.raises(ValueError):
        canon.canonical_bytes(2, [(0, 0, 1)], [0, 1])


def test_canonical_bytes_distinguishes_multiplicity():
    a = canon.canonical_bytes(2, [(0, 1, 2)], [1, 0])
    b = canon.canonical_bytes(2, [(0, 1, 1)], [1, 0])
    assert a != b


def test_out_of_range_indices_reported_not_raised():
    net = Network(((1,), (5, 2), ()), (0, 0, 1))
    assert validation_errors(net) == ["vertex 1 has an out-of-range child"]
    assert not is_valid(net)
    stray_root = Network(((1,), ()), (0, 1), 5)
    assert validation_errors(stray_root) == ["declared root 5 is out of range"]


def test_leaf_label_count_mismatch_reported_not_raised():
    short = Network(((1,), ()), (0,))
    assert validation_errors(short) == ["1 leaf labels for 2 vertices"]
    with pytest.raises(ValueError, match="1 leaf labels for 2 vertices"):
        is_tree_child(short)
    long = Network(((1,), ()), (0, 1, 0))
    assert validation_errors(long) == ["3 leaf labels for 2 vertices"]


def test_validation_result_is_a_fresh_list_each_call():
    net = Network.build([[1], [2, 2], []], {2: 1})
    errors = validation_errors(net)
    errors.append("scribble")
    assert "scribble" not in validation_errors(net)
    assert validation_errors(net) == errors[:-1]


def _plain_canon_code(net: Network) -> bytes:
    # the general canonizer alone, with the kind/label colouring
    kinds = net.kinds()
    colors = [(_KIND_ORDER[kinds[v]] << 20) | net.leaf_labels[v] for v in range(net.n)]
    return canon.canonical_bytes(net.n, [(u, w, 1) for u, w in net.edges()], colors)


@pytest.mark.parametrize("cell, size, fallbacks", [((2, 2), 18, 1), ((2, 3), 225, 9), ((3, 2), 279, 6)])
def test_canonical_code_agrees_with_general_canonizer(cell, size, fallbacks):
    nets = list(enumerate_networks(*cell))
    assert len(nets) == size
    rng = random.Random(11)
    sample = []
    for net in nets:
        perm = list(range(net.n))
        rng.shuffle(perm)
        sample += [net, relabel_vertices(net, dict(enumerate(perm)))]
    codes = [canonical_code(net) for net in sample]
    plain = [_plain_canon_code(net) for net in sample]
    # equal codes <=> equal general-canonizer codes, over every pair
    assert len(set(zip(codes, plain))) == len(set(codes)) == len(set(plain)) == size
    assert sum(code.startswith(_CANON_TAG) for code in codes[::2]) == fallbacks


def _reference_unfolding(net: Network, v: int):
    # the unfolding as nested tuples: (kind place, label) for a leaf,
    # (kind place, sorted child unfoldings) otherwise
    kind = _KIND_ORDER[net.kinds()[v]]
    if not net.children[v]:
        return (kind, net.leaf_labels[v])
    return (kind, tuple(sorted(_reference_unfolding(net, w) for w in net.children[v])))


def _decode(sig: str, i: int = 0):
    # read one signature by its delimiters alone: the kind place, then
    # `:label;` or `(` child signatures `)`; returns (unfolding, end)
    kind = int(sig[i])
    if sig[i + 1] == ":":
        end = sig.index(";", i)
        return (kind, int(sig[i + 2 : end])), end + 1
    if sig[i + 1] != "(":
        raise ValueError(f"no delimiter after the kind at {i}")
    i += 2
    kids = []
    while sig[i] != ")":
        kid, i = _decode(sig, i)
        kids.append(kid)
    return (kind, tuple(sorted(kids))), i + 1


def _tree(nested) -> Network:
    # a tree from nested pairs of leaf labels, under a stem root
    children: list[list[int]] = [[]]
    labels = {}

    def add(node) -> int:
        v = len(children)
        children.append([])
        if isinstance(node, int):
            labels[v] = node
        else:
            children[v] = [add(node[0]), add(node[1])]
        return v

    children[0] = [add(nested)]
    return Network.build(children, labels)


# pairs of 11- and 12-leaf trees whose signatures are equal once the `;`
# and `( )` delimiters are struck out, as `3:11;3:2;` and `3:1;)1(3:2;`
# both read 3:113:2
COLLIDING_WITHOUT_DELIMITERS = [
    (
        (((((3, 8), 2), 10), 11), (((4, 9), 1), ((5, 6), 7))),
        (((((3, 8), 2), 10), 1), ((((4, 9), 11), (5, 6)), 7)),
    ),
    (
        (((((2, 7), 5), (10, 4)), 11), (((3, 8), 1), ((6, 9), 12))),
        (((((2, 7), 5), (10, 4)), 1), ((((3, 8), 11), (6, 9)), 12)),
    ),
]
_UNDELIMITED = str.maketrans("", "", ";()")


def test_structure_key_is_the_unfolding_written_with_delimiters():
    rng = random.Random(9)
    nets = [_tree(t) for pair in COLLIDING_WITHOUT_DELIMITERS for t in pair]
    for cell in ((2, 3), (3, 2)):
        for net in enumerate_networks(*cell):
            perm = list(range(net.n))
            rng.shuffle(perm)
            nets += [net, relabel_vertices(net, dict(enumerate(perm)))]
    keys = [structure_key(net) for net in nets]
    refs = [_reference_unfolding(net, net.root) for net in nets]
    # every key reads back as its network's unfolding, so the encoding is
    # injective; equal keys <=> equal unfoldings, over every pair
    for net, key, ref in zip(nets, keys, refs):
        assert _decode(key) == (ref, len(key))
    assert len(set(zip(keys, refs))) == len(set(keys)) == len(set(refs))
    for a, b in COLLIDING_WITHOUT_DELIMITERS:
        key_a, key_b = structure_key(_tree(a)), structure_key(_tree(b))
        assert key_a != key_b
        assert key_a.translate(_UNDELIMITED) == key_b.translate(_UNDELIMITED)


def _random_nested(labels: list[int], rng: random.Random):
    # a random binary tree over the labels, as nested pairs
    if len(labels) == 1:
        return labels[0]
    cut = rng.randrange(1, len(labels))
    return (_random_nested(labels[:cut], rng), _random_nested(labels[cut:], rng))


def _caterpillar(labels: list[int]):
    nested = labels[0]
    for label in labels[1:]:
        nested = (nested, label)
    return nested


@pytest.mark.parametrize(
    "nested, width",
    [
        (_random_nested(list(range(1, 21)), random.Random(3)), 1),  # 20 labels, 40 vertices
        (_caterpillar(list(range(1, 131))), 2),  # 130 labels, 260 vertices
    ],
)
def test_canonical_code_of_large_trees(nested, width):
    net = _tree(nested)
    code = canonical_code(net)
    assert code[:2] == b"o" + bytes([width])
    rng = random.Random(7)
    for _ in range(5):
        perm = list(range(net.n))
        rng.shuffle(perm)
        assert canonical_code(relabel_vertices(net, dict(enumerate(perm)))) == code
    # swapping the labels of two leaves that are not siblings moves a
    # cluster, so the swapped tree is not isomorphic to this one
    top = net.num_leaves
    parents = net.parents()
    assert parents[net.leaf_labels.index(1)] != parents[net.leaf_labels.index(top)]
    swap = {1: top, top: 1}
    swapped = Network(net.children, tuple(swap.get(lab, lab) for lab in net.leaf_labels), net.root)
    assert canonical_code(swapped) != code
