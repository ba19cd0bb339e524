"""Record `reference.json`: the pinned answer of every call any seed can draw.

    python3 perfbench/record.py

Each call in `workloads.domain(...)` is run once through the same launcher
the benchmark uses, and its stdout digest is stored, with the exact decimal
value of a count and the digest of the files an `enumerate` call writes.
Before an entry is stored, its numbers are confirmed in this process by a
second route where one exists: closed forms at k <= 3, the exhaustive
oracle at <= 12 vertices, the galled tree sum at leaves <= 7, the block
closed forms at k <= 2, the pinned catalog sizes.  Each entry names the
routes that confirmed it; an entry with none is pinned by the CLI alone.
A disagreement stops the recording and writes nothing.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run as bench
import workloads

sys.path.insert(0, str(bench.SRC))

from phylocount import galled, onecomp, oracle, retvis  # noqa: E402

ORACLE_VERTICES = 12


class Mismatch(Exception):
    pass


def _opts(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _bound(cls: str, leaves: int):
    # the structural maxima the CLI reports as "bound"
    return {"gn": 2 * leaves - 2, "rv": 3 * leaves - 3, "tc": leaves - 1, "normal": leaves - 2}.get(cls)


def second_routes(cls: str, leaves: int, rets: int) -> list[tuple[str, int]]:
    """Independent values for one cell, as (route, value) pairs."""
    routes = []
    bound = _bound(cls, leaves)
    if bound is not None and rets > max(bound, 0):
        return [("structural bound", 0)]
    if rets == 0:
        routes.append(("closed form (trees)", onecomp.tree_count(leaves)))
    elif rets == 1 and cls in ("pn", "rv", "gn", "tc"):
        routes.append(("closed form (one reticulation)", onecomp.single_reticulation_count(leaves)))
    elif rets == 2 and cls == "normal":
        routes.append(("closed form (normal, two reticulations)", onecomp.normal_two_reticulation_count(leaves)))
    if cls == "gn" and rets in (2, 3) and leaves >= galled.closed_form_threshold(rets):
        routes.append(("closed form", galled.galled_closed_form(leaves, rets)))
    if cls == "rv" and rets in (2, 3) and leaves >= retvis.closed_form_threshold(rets):
        routes.append(("closed form", retvis.rv_closed_form(leaves, rets)))
    if cls == "gn" and leaves <= galled.MAX_TREE_SUM_LEAVES:
        by_rets = galled.galled_tree_sum_by_rets(leaves)
        routes.append(("tree sum", by_rets[rets] if rets < len(by_rets) else 0))
    if 2 * (leaves + rets) <= ORACLE_VERTICES and cls in oracle.CLASS_PREDICATES:
        routes.append(("oracle", getattr(oracle.count_by_class(leaves, rets), cls)))
    return routes


def series_routes(cls: str, leaves: int, rets: int) -> list[tuple[str, int]]:
    """The series routes, used to confirm oracle and closed-form answers."""
    if cls == "gn":
        return [("galled series", galled.galled_egf(rets, leaves).count(leaves))]
    if cls == "rv" and rets + 1 <= retvis.MAX_PATTERN_VERTICES:
        return [("pattern sum", retvis.rv_count(leaves, rets))]
    return []


def confirm(label: str, value: int, routes: list[tuple[str, int]], own: str) -> list[str]:
    used = []
    for route, expected in routes:
        if route.startswith(own):
            continue
        if expected != value:
            raise Mismatch(f"{label}: {value} but {route} gives {expected}")
        used.append(route)
    return used


def confirm_count(argv: list[str], record: dict) -> list[str]:
    opts = _opts(argv)
    cls, leaves, rets = opts["--class"], int(opts["--leaves"]), int(opts.get("--rets", 0))
    value = int(record["value"])
    label = " ".join(argv)
    method = record["method"]
    routes = second_routes(cls, leaves, rets)
    if method in ("brute", "closed", "bound"):
        routes += series_routes(cls, leaves, rets)
    own = {"brute": "oracle", "closed": "closed form", "series": "galled series",
           "dagsum": "pattern sum", "bound": "structural bound"}[method]
    return confirm(label, value, routes, own)


def confirm_table(argv: list[str], stdout: str) -> list[str]:
    opts = _opts(argv)
    cls = opts["--class"]
    # tc and normal tables reach the oracle themselves, so it confirms nothing there
    own = "oracle" if cls in ("tc", "normal") else "table"
    used: dict[str, int] = {}
    lines = stdout.strip().split("\n")[1:]
    cells = 0
    for line in lines:
        leaves, *row = (int(x) for x in line.split(","))
        for rets, value in enumerate(row):
            cells += 1
            for route in confirm(f"{' '.join(argv)} cell ({leaves},{rets})", value,
                                 second_routes(cls, leaves, rets), own):
                used[route] = used.get(route, 0) + 1
    return [f"{route}: {n}/{cells} cells" for route, n in sorted(used.items())]


def confirm_blocks(argv: list[str], stdout: str) -> list[str]:
    closed = {0: lambda l: onecomp.double_factorial(2 * l - 3), 1: onecomp.block_closed_one,
              2: onecomp.block_closed_two}
    cells = confirmed = 0
    for line in stdout.strip().split("\n")[1:]:
        leaves, *row = (int(x) for x in line.split(","))
        for rets, value in enumerate(row):
            cells += 1
            if rets in closed and rets <= leaves:
                if closed[rets](leaves) != value:
                    raise Mismatch(f"{' '.join(argv)} cell ({leaves},{rets}) disagrees with its closed form")
                confirmed += 1
    return [f"block closed forms k <= 2: {confirmed}/{cells} cells"]


def confirm_enumerate(argv: list[str], record: dict) -> list[str]:
    opts = _opts(argv)
    cls = opts.get("--class", "pn")
    leaves, rets = int(opts["--leaves"]), int(opts["--rets"])
    return confirm(" ".join(argv), record["written"], second_routes(cls, leaves, rets)
                   + series_routes(cls, leaves, rets), "oracle")


def record_call(harness: bench.Harness, argv: list[str]) -> dict:
    result = harness.call(argv)
    if result.error != bench.NO_ENTRY:
        raise Mismatch(f"{' '.join(argv)}: {result.error}")
    stdout = result.stdout.decode()
    entry = {"stdout_sha256": hashlib.sha256(result.stdout).hexdigest()}
    kind = argv[0]
    if kind == "count":
        record = json.loads(stdout)
        entry["value"] = record["value"]
        entry["routes"] = confirm_count(argv, record)
    elif kind == "table":
        entry["routes"] = confirm_table(argv, stdout)
    elif kind == "blocks":
        entry["routes"] = confirm_blocks(argv, stdout)
    elif kind == "enumerate":
        entry["routes"] = confirm_enumerate(argv, json.loads(stdout))
        entry["files_sha256"] = result.files
    elif kind == "patterns":
        count = json.loads(stdout)["count"]
        m = int(_opts(argv)["--m"])
        if count != bench.CATALOG_SIZES[m]:
            raise Mismatch(f"catalog m={m} has {count} patterns")
        entry["routes"] = ["pinned catalog size (acceptance criterion 4)"]
    elif kind == "verify":
        if "checks passed" not in stdout or any(l.startswith("[") and "FAIL" in l for l in stdout.split("\n")):
            raise Mismatch(f"{' '.join(argv)} reports a failing check")
        entry["routes"] = ["self-checking suite: every check passed"]
    return entry


def main() -> int:
    argvs = [bench.WARM_UP]
    for name in workloads.WORKLOADS:
        argvs += workloads.domain(name)
    entries = {}
    (bench.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="record-", dir=bench.ROOT / ".perfbench_work") as tmp:
        harness = bench.Harness({}, Path(tmp))
        for i, argv in enumerate(argvs, 1):
            key = " ".join(argv)
            if key in entries:
                continue
            try:
                entries[key] = record_call(harness, argv)
            except Mismatch as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"[{i}/{len(argvs)}] {key}: {', '.join(entries[key]['routes']) or 'CLI only'}", flush=True)
    bench.REFERENCE.write_text(json.dumps({"format": 1, "entries": entries}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
