"""Package-wide properties: what a fresh interpreter imports, no `assert`
statement in the source, and a reader for every public function."""

from __future__ import annotations

import ast
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
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
        ("table --class gn --lmax 8 --kmax 7", NETWORK_MODULES),
        ("blocks --lmax 12 --kmax 3", NETWORK_MODULES | {"dataclasses"}),
        ("count --class pn --leaves 2 --rets 1 --method brute", SERIES_MODULES | {"phylocount.canon", "dataclasses"}),
        ("count --class rv --leaves 17 --rets 3", NOT_VISIBLE | {"phylocount.io"}),
        ("count --class rv --leaves 12 --rets 4 --method dagsum", NOT_VISIBLE | {"phylocount.io", "phylocount.canon"}),
        ("table --class rv --lmax 6 --kmax 3", NOT_VISIBLE | {"phylocount.io", "phylocount.canon"}),
        ("patterns --m 4", NOT_VISIBLE),
        ("verify --suite galled", {"mpmath"}),
        ("verify --suite onecomp", {"mpmath"}),
    ],
    ids=[
        "gn-series", "gn-table", "blocks", "brute", "rv-closed", "rv-dagsum", "rv-table", "patterns",
        "verify-galled", "verify-onecomp",
    ],
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
    (networks.ComponentGraph(canon.DagPattern(1, ()), ((1,),), (0,)), "pattern",
     "ComponentGraph(pattern=DagPattern(m=1, edges=(), root=0), attached=((1,),), terminal_labels=(0,))"),
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
        (canon.DagPattern, (3, ((0, 1, 2), (1, 2, 1), (1, 2, 1))), "one double edge"),
        (canon.DagPattern, (3, ((1, 2, 2), (2, 1, 2))), "no cycle"),
        (canon.DagPattern, (2, ((1, 1, 2),)), "no cycle"),
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


@pytest.mark.parametrize(
    "argv",
    ["count --class tc --leaves 4 --rets 1 --method brute", "enumerate --leaves 2 --rets 2 --out enum"],
    ids=["brute", "enumerate"],
)
def test_cli_output_is_the_same_under_python_O(argv, tmp_path):
    # `-O` strips `assert` statements: a fast path that leaned on one would
    # answer differently, or not at all, when they are gone
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    outputs = []
    for flags in ([], ["-O"]):
        cwd = tmp_path / ("optimized" if flags else "plain")
        cwd.mkdir()
        done = subprocess.run(
            [sys.executable, *flags, "-m", "phylocount.cli", *argv.split()],
            capture_output=True, text=True, check=True, cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        )
        written = {p.name: p.read_bytes() for p in (cwd / "enum").glob("*")}
        outputs.append((done.stdout, written))
    assert outputs[0][0]
    assert outputs[0] == outputs[1]


# public names nothing in the package reads yet, each kept for the ROADMAP
# item that will give it a reader
READER_PENDING = {
    "io.network_from_json",  # items 6/7: a command that reads a network document
    "oracle.saturated_growth_term",  # item 2: a check on the saturated tc counts
    "series.fit_sqrt_poly",  # item 4: closed forms derived from the series
}


def _read_names(tree: ast.AST):
    """Every name a tree reads: as a name, as an attribute or as an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_public_function_has_a_reader():
    # a public module-level function or class, or a public method, must be
    # read somewhere in the package outside its own body; tests do not count
    reads: Counter = Counter()
    defined = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads.update(_read_names(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    unread = {
        qualified
        for qualified, node in defined
        if reads[node.name] <= Counter(_read_names(node))[node.name]
    }
    assert unread == READER_PENDING


def test_only_the_enumerator_keeps_a_verdict_it_did_not_validate():
    # `networks._keep` records a verdict as given; outside `networks`, only
    # the enumerator, whose slot scheme builds valid networks alone, may
    # read it (imports aside)
    readers = {
        f"{path.stem}.{getattr(node, 'name', '<module>')}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.stem != "networks"
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if not isinstance(node, (ast.Import, ast.ImportFrom)) and "_keep" in set(_read_names(node))
    }
    assert readers == {"oracle.enumerate_networks"}


def test_laurent_forms_are_entered_only_in_verify():
    # the hand-entered displays live in one table, verify.laurent_forms
    named = [
        module
        for module in ("onecomp", "galled", "retvis")
        if "SqrtPoly" in _read_names(ast.parse((PACKAGE / f"{module}.py").read_text()))
    ]
    assert not named, named


def test_retvis_imports_nothing_from_galled():
    # the catalog route is the reference for the galled series, so it must
    # not reach that series, not even through a local import
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "retvis.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not {name for name in imported if name.startswith("phylocount.galled")}, imported
