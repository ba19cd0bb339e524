"""Package-wide properties: what a fresh interpreter imports, and no
`assert` statement in the source."""

from __future__ import annotations

import ast
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import phylocount
from phylocount import canon, networks, oracle, series, verify

PACKAGE = Path(phylocount.__file__).parent
NETWORK_MODULES = {f"phylocount.{m}" for m in ("networks", "canon", "oracle", "retvis", "verify", "io")}
SERIES_MODULES = {f"phylocount.{m}" for m in ("series", "onecomp", "galled", "retvis", "verify")}
# what a visible-class or catalog call never loads
NOT_VISIBLE = {f"phylocount.{m}" for m in ("networks", "galled", "oracle", "verify")} | {"dataclasses"}


def _fresh(script: str):
    """Run `script` in a new interpreter and decode the JSON on its last stdout line."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv, absent",
    [
        ("count --class gn --leaves 12 --rets 4 --method series", NETWORK_MODULES | {"dataclasses"}),
        ("blocks --lmax 12 --kmax 3", NETWORK_MODULES | {"dataclasses"}),
        ("count --class pn --leaves 2 --rets 1 --method brute", SERIES_MODULES | {"dataclasses"}),
        ("count --class rv --leaves 17 --rets 3", NOT_VISIBLE | {"phylocount.io"}),
        ("count --class rv --leaves 12 --rets 4 --method dagsum", NOT_VISIBLE | {"phylocount.io"}),
        ("table --class rv --lmax 6 --kmax 3", NOT_VISIBLE | {"phylocount.io"}),
        ("patterns --m 4", NOT_VISIBLE),
        ("verify --suite galled", {"mpmath"}),
    ],
    ids=["gn-series", "blocks", "brute", "rv-closed", "rv-dagsum", "rv-table", "patterns", "verify-galled"],
)
def test_cli_call_imports_only_what_its_subcommand_runs(argv, absent):
    loaded = set(_fresh(
        "import json, sys\n"
        "from phylocount.cli import main\n"
        f"if main({argv.split()!r}) != 0:\n"
        "    sys.exit('the call failed')\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ))
    assert "phylocount.cli" in loaded
    assert not loaded & absent, sorted(loaded & absent)


def test_reexports_resolve_on_first_access():
    eager, same, exported = _fresh(
        "import json, sys\n"
        "import phylocount\n"
        "eager = sorted(m for m in sys.modules if m.startswith('phylocount.'))\n"
        "from phylocount import Egf, SqrtPoly, Network, VertexKind, ComponentGraph\n"
        "from phylocount import series, networks\n"
        "same = [Egf is series.Egf, SqrtPoly is series.SqrtPoly, Network is networks.Network,\n"
        "        VertexKind is networks.VertexKind, ComponentGraph is networks.ComponentGraph]\n"
        "print(json.dumps([eager, same, sorted(phylocount.__all__)]))\n"
    )
    assert eager == []
    assert all(same)
    assert exported == sorted(["Egf", "SqrtPoly", "Network", "VertexKind", "ComponentGraph"])
    with pytest.raises(AttributeError, match="no_such_name"):
        phylocount.no_such_name


RECORDS = [
    (series.Egf.from_counts([1, 2, 3]), "nums", "Egf(nums=(1, 2, 3), den=1)"),
    (series.SqrtPoly.of({1: 2}), "terms", "SqrtPoly(terms=((1, Fraction(2, 1)),))"),
    (networks.Network(((1,), ()), (0, 1)), "root",
     "Network(children=((1,), ()), leaf_labels=(0, 1), root=0)"),
    (networks.ComponentGraph(1, 0, (), ((1,),), (0,)), "n",
     "ComponentGraph(n=1, root=0, edges=(), attached=((1,),), terminal_labels=(0,))"),
    (canon.DagPattern(2, ((0, 1, 2),)), "edges", "DagPattern(m=2, edges=((0, 1, 2),), root=0)"),
    (oracle.ClassCounts(1, 2, 3, 4, 5), "tc", "ClassCounts(pn=1, rv=2, gn=3, tc=4, normal=5)"),
    (verify.CheckResult("s", "n", True), "ok", "CheckResult(suite='s', name='n', ok=True, detail='')"),
]


@pytest.mark.parametrize("record, field, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_records_are_immutable_values(record, field, text):
    twin = pickle.loads(pickle.dumps(record))
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    assert repr(record) == text
    assert record != (getattr(record, field),)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(record, field, 0)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(record, field)
    assert not hasattr(record, "__dict__")


def test_records_compare_their_fields_only():
    net = networks.Network(((1,), ()), (0, 1))
    networks.validation_errors(net)  # kept on `net`, but not a field
    assert net == networks.Network(((1,), ()), (0, 1), 0)
    assert hash(net) == hash(networks.Network(((1,), ()), (0, 1)))
    assert net != networks.Network(((1,), ()), (0, 2))
    assert canon.DagPattern(3, ((0, 1, 2), (0, 2, 2))) != canon.DagPattern(3, ((0, 1, 2), (1, 2, 2)))
    assert oracle.ClassCounts(1, 2, 3, 4, 5) != oracle.ClassCounts(1, 2, 3, 4, 6)


@pytest.mark.parametrize(
    "make, args, message",
    [
        (canon.DagPattern, (2, ((0, 1, 3),)), "multiplicities must be 1 or 2"),
        (canon.DagPattern, (2, ((0, 1, 2),), 1), "root must have indegree 0"),
        (canon.DagPattern, (3, ((0, 1, 2), (0, 2, 1))), "weighted indegree 2"),
    ],
)
def test_record_validation_errors(make, args, message):
    with pytest.raises(ValueError, match=message):
        make(*args)


def test_source_imports_no_dataclasses():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert not found, found


def test_source_has_no_assert_statements():
    # invariants must raise, so they still fire under `python -O`
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
