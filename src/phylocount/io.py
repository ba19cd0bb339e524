"""Serialization: versioned JSON schemas and DOT export.

Schema versions are embedded in the `schema` field; see README for the full
documentation.  All output is deterministic (sorted keys, sorted edges).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: `patterns` calls never load the network model
    from phylocount.canon import DagPattern
    from phylocount.networks import Network

NETWORK_SCHEMA = "phylocount.network/1"
PATTERN_SCHEMA = "phylocount.pattern/1"


def network_to_json(net: Network) -> str:
    kinds = net.kinds()
    vertices = []
    for v in range(net.n):
        entry: dict = {"id": v, "kind": kinds[v].value}
        if net.leaf_labels[v]:
            entry["label"] = net.leaf_labels[v]
        vertices.append(entry)
    doc = {
        "schema": NETWORK_SCHEMA,
        "root": net.root,
        "vertices": vertices,
        "edges": sorted([v, w] for v, w in net.edges()),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def network_from_json(text: str) -> Network:
    """Read a network document; malformed input raises `ValueError`.

    Well-formed documents may still describe an invalid network (say, an edge
    target out of range); :func:`phylocount.networks.validation_errors`
    reports those.
    """
    from phylocount.networks import Network

    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") != NETWORK_SCHEMA:
        raise ValueError(f"expected schema {NETWORK_SCHEMA}")
    missing = [field for field in ("root", "vertices", "edges") if field not in doc]
    if missing:
        raise ValueError(f"network document lacks {', '.join(missing)}")
    root, vertices, edges = doc["root"], doc["vertices"], doc["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, dict) for v in vertices):
        raise ValueError("vertices must be a list of objects")
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ValueError("edges must be a list of [source, target] pairs")
    _require_int(root, "root")
    n = len(vertices)
    children: list[list[int]] = [[] for _ in range(n)]
    for v, w in edges:
        children[_vertex_index(v, n, "edge source")].append(_require_int(w, "edge target"))
    labels = {
        _vertex_index(v.get("id"), n, "vertex id"): _require_int(v["label"], "label")
        for v in vertices
        if "label" in v
    }
    return Network.build(children, labels, root)


def _require_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):  # JSON true is no index
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def _vertex_index(value, n: int, what: str) -> int:
    if not 0 <= _require_int(value, what) < n:
        raise ValueError(f"{what} {value!r} is not a vertex index in 0..{n - 1}")
    return value


def network_to_dot(net: Network) -> str:
    kinds = net.kinds()
    shape = {"root": "diamond", "tree": "circle", "reticulation": "box", "leaf": "plaintext"}
    lines = ["digraph network {", "  rankdir=TB;"]
    for v in range(net.n):
        kind = kinds[v].value
        label = str(net.leaf_labels[v]) if net.leaf_labels[v] else f"{kind[0]}{v}"
        lines.append(f'  n{v} [shape={shape[kind]}, label="{label}"];')
    for v, w in sorted(net.edges()):
        lines.append(f"  n{v} -> n{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def pattern_doc(pattern: DagPattern, symmetry: int) -> dict:
    """The `phylocount.pattern/1` document of a pattern, as a dict."""
    return {
        "schema": PATTERN_SCHEMA,
        "root": pattern.root,
        "m": pattern.m,
        "edges": [
            {"from": u, "to": v, "multiplicity": mult} for u, v, mult in sorted(pattern.edges)
        ],
        "symmetries": symmetry,
    }


def pattern_to_dot(pattern: DagPattern, symmetry: int, name: str) -> str:
    lines = [f"digraph {name} {{", f'  label="symmetries: {symmetry}";']
    for v in range(pattern.m):
        shape = "diamond" if v == pattern.root else "circle"
        lines.append(f"  p{v} [shape={shape}];")
    for u, v, mult in sorted(pattern.edges):
        if mult == 2:
            lines.append(f'  p{u} -> p{v} [color="black:black", label="2"];')
        else:
            lines.append(f"  p{u} -> p{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
