"""Package-wide properties: what a fresh interpreter imports, and no
`assert` statement in the source."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phylocount

PACKAGE = Path(phylocount.__file__).parent
NETWORK_MODULES = {f"phylocount.{m}" for m in ("networks", "canon", "oracle", "retvis", "verify", "io")}
SERIES_MODULES = {f"phylocount.{m}" for m in ("series", "onecomp", "galled", "retvis", "verify")}


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
        ("count --class pn --leaves 2 --rets 1 --method brute", SERIES_MODULES),
    ],
    ids=["gn-series", "blocks", "brute"],
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


def test_source_has_no_assert_statements():
    # invariants must raise, so they still fire under `python -O`
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
