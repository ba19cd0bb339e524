"""Benchmark of the phylocount CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list-metrics

One client, closed loop: the harness starts one fresh `phylocount` CLI call
at a time (through `launch.py`, which imports the package from this
checkout's `src`), waits for it, and checks its answer against the pinned
reference.  Memo caches are therefore cold at the start of every call.
The call set comes from `workloads.generate(workload, seed)`; it is run in
passes until S seconds have gone by.

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` untraced and traced passes alternate; the traced calls wrap the
package's public functions (see `spans.py`) and the last line carries the
per-layer metrics.  Everything the run writes lives under `.perfbench_work/`
in the checkout and is removed before exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

# untimed first call; its answer is pinned in the reference too
WARM_UP = ["count", "--class", "trees", "--leaves", "1"]

# exact per-call counts at cell (2 leaves, 4 rets), and pattern catalog sizes by m
CELL_2_4 = {"oracle.candidates": 8665, "oracle.networks": 3881, "networks.validation_errors.calls": 18707}
CELL_2_4_CALL = "count --class pn --leaves 2 --rets 4 --method brute".split()
CATALOG_SIZES = {1: 1, 2: 1, 3: 3, 4: 13, 5: 79, 6: 633}


def _clock() -> float:
    # CLOCK_MONOTONIC is shared by every process, so a child's import mark
    # and the parent's spawn time are comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class CallResult:
    argv: list[str]
    wall: float
    cpu: float
    rss_mb: float | None
    setup: float | None
    stdout: bytes
    error: str | None  # None when the answer matches the reference
    files: str | None = None  # digest of what an enumerate call wrote
    trace: dict | None = None


@dataclass
class Harness:
    """Runs CLI calls one at a time from a scratch directory in the checkout."""

    reference: dict
    workdir: Path
    package: str | None = None

    def call(self, argv: list[str], traced: bool = False) -> CallResult:
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        mark, trace = self.workdir / "mark", self.workdir / "trace.json"
        for path in (mark, trace):
            path.unlink(missing_ok=True)
        cmd = [sys.executable, str(LAUNCH), str(mark), str(trace) if traced else "-", "--", *argv]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = _clock()
            proc = subprocess.Popen(cmd, cwd=self.workdir, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
            _, status, usage = os.wait4(proc.pid, 0)  # one child: its CPU time
            wall = _clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr = out.read_bytes(), err.read_bytes()
        setup = rss_mb = None
        if mark.exists():
            stamp, package, *rest = mark.read_text().splitlines()
            setup = float(stamp) - start
            self.package = self.package or package
            rss_mb = int(rest[0]) / 1024.0 if rest else None
        files = None
        enum_dir = self.workdir / workloads.ENUMERATE_OUT
        if enum_dir.exists():
            files = files_digest(enum_dir)
            shutil.rmtree(enum_dir)
        error = check(self.reference, argv, proc.returncode, stdout, stderr, files)
        summary = json.loads(trace.read_text()) if traced and trace.exists() else None
        return CallResult(
            argv, wall, usage.ru_utime + usage.ru_stime, rss_mb, setup, stdout, error, files, summary,
        )


def files_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


NO_ENTRY = "no reference entry"


def check(reference: dict, argv, returncode: int, stdout: bytes, stderr: bytes, files) -> str | None:
    """Why a call's answer is wrong, or None when it matches the reference."""
    if returncode != 0:
        return f"exit status {returncode}"
    if b"Traceback (most recent call last)" in stderr:
        return "traceback on stderr"
    entry = reference.get(" ".join(argv))
    if entry is None:
        return NO_ENTRY
    if hashlib.sha256(stdout).hexdigest() != entry["stdout_sha256"]:
        return "stdout differs from the reference"
    if "value" in entry:
        try:
            value = json.loads(stdout)["value"]
        except (ValueError, KeyError):
            return "stdout is not a count record"
        if value != entry["value"]:
            return f"count {value} differs from the reference {entry['value']}"
    if entry.get("files_sha256") != files:
        return "written file set differs from the reference"
    return None


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["entries"]


# -- provenance ---------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "phylocount").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


# -- passes and metrics ---------------------------------------------------------


@dataclass
class Run:
    harness: Harness
    calls: list[list[str]]
    passes: list[list[CallResult]] = field(default_factory=list)
    traced: list[list[CallResult]] = field(default_factory=list)

    def one_pass(self, traced: bool) -> float:
        start = _clock()
        results = [self.harness.call(argv, traced) for argv in self.calls]
        (self.traced if traced else self.passes).append(results)
        return _clock() - start

    def every_call(self):
        for results in self.passes + self.traced:
            yield from results


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Run passes until `seconds` have gone by, never starting a pass that
    the last one says would overrun; at least one pass of each kind."""
    start = _clock()
    while True:
        took = run.one_pass(False)
        if trace:
            took += run.one_pass(True)
        if _clock() - start + took > seconds:
            return


def _per_call_fastest_sum(passes: list[list[CallResult]], attr: str) -> float:
    # The fastest pass of each call, not the median: on a shared machine the
    # same fixed Python loop swings between two speeds ~1.7x apart for
    # seconds at a time, and a median of a few passes follows the share of
    # time spent in the slow phase rather than the call's own cost.
    return sum(min(getattr(p[i], attr) for p in passes) for i in range(len(passes[0])))


def end_to_end(run: Run) -> dict:
    results = list(run.every_call())
    setups = [r.setup for r in results if r.setup is not None]
    ok = sum(r.error is None for r in results)
    return {
        "wall_s": _per_call_fastest_sum(run.passes, "wall"),
        "cpu_s": _per_call_fastest_sum(run.passes, "cpu"),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max((r.rss_mb for r in results if r.rss_mb is not None), default=0.0),
        "ok_frac": ok / len(results),
    }


def layer_totals(results: list[CallResult]) -> dict:
    """Per-layer metrics of one traced pass (sums over its calls)."""
    calls, self_s, distinct = Counter(), Counter(), Counter()
    coef_ops = networks = candidates = 0
    catalogs: dict[int, int] = {}
    for r in results:
        t = r.trace or {}
        calls.update(t.get("calls", {}))
        self_s.update(t.get("self_s", {}))
        distinct.update(t.get("distinct", {}))
        coef_ops += t.get("coef_ops", 0)
        networks += t.get("networks", 0)
        candidates += t.get("candidates", 0)
        for m, size in t.get("catalogs", {}).items():
            catalogs.setdefault(int(m), size)
    out = {}
    for name, unit, _, _ in metrics.PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = self_s[base]
        elif kind == "calls":
            out[name] = calls[base]
        elif kind == "repeat_share":
            out[name] = 1 - distinct[base] / calls[base] if calls[base] else 0.0
    validations = calls["networks.validation_errors"]
    out.update({
        "series.Egf.mul.coef_ops": coef_ops,
        "retvis.enumerate_patterns.patterns": sum(catalogs.values()),
        "networks.validations_per_network": validations / networks if networks else 0.0,
        "oracle.candidates": candidates,
        "oracle.networks": networks,
        "oracle.distinct_ratio": networks / candidates if candidates else 0.0,
    })
    return out


EXACT_LAYER_METRICS = tuple(
    name for name, unit, _, _ in metrics.PER_LAYER if unit in ("count", "ops_computed")
)


def trace_checks(run: Run, workload: str) -> list[str]:
    """Failures of the trace self-checks (empty when all hold)."""
    problems = []
    for traced in run.traced:
        for t, u in zip(traced, run.passes[0]):
            if t.stdout != u.stdout:
                problems.append(f"traced stdout differs for {' '.join(t.argv)}")
            if t.argv == CELL_2_4_CALL:
                got = layer_totals([t])
                bad = {k: got[k] for k, v in CELL_2_4.items() if got[k] != v}
                if bad:
                    problems.append(f"cell (2,4) counts {bad}, expected {CELL_2_4}")
            for m, size in ((t.trace or {}).get("catalogs") or {}).items():
                if CATALOG_SIZES.get(int(m)) != size:
                    problems.append(f"catalog m={m} has {size} patterns")
    totals = [layer_totals(p) for p in run.traced]
    for later in totals[1:]:
        moved = [k for k in EXACT_LAYER_METRICS if later[k] != totals[0][k]]
        if moved:
            problems.append(f"exact counts differ between traced passes: {moved}")
    if workload == "visible-series":
        seen = {int(m) for t in run.traced[0] for m in ((t.trace or {}).get("catalogs") or {})}
        if not {3, 4, 5, 6} <= seen:
            problems.append(f"catalogs built for m={sorted(seen)}, expected 3..6")
    return problems


def per_layer(run: Run) -> dict:
    totals = [layer_totals(p) for p in run.traced]
    out = {}
    for name, unit, _, _ in metrics.PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        if unit == "s":
            out[name] = statistics.median(t[name] for t in totals)
        else:
            out[name] = totals[0][name]
    traced_wall = statistics.median(sum(r.wall for r in p) for p in run.traced)
    plain_wall = statistics.median(sum(r.wall for r in p) for p in run.passes)
    out["trace.overhead_ratio"] = traced_wall / plain_wall
    return out


# -- command line -------------------------------------------------------------------


def list_metrics() -> None:
    for name, unit, better, bound in metrics.END_TO_END:
        print(f"end_to_end {name:<36} {unit:<13} {better:<7} bound {bound}: {metrics.END_TO_END_MEANING[name]}")
    for name, unit, better, moves in metrics.PER_LAYER:
        print(f"per_layer  {name:<36} {unit:<13} {better:<7} moves {moves}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true", help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    if args.list_metrics:
        list_metrics()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "phylocount" / "cli.py").is_file():
        print(f"error: no phylocount package under {SRC}", file=sys.stderr)
        return 2

    calls = workloads.generate(args.workload, args.seed)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work"))
    try:
        harness = Harness(load_reference(), workdir)
        # untimed: compiles bytecode and confirms which package is imported
        warm = harness.call(WARM_UP)
        expected = str(SRC / "phylocount" / "__init__.py")
        if harness.package != expected:
            print(f"error: imported {harness.package}, expected {expected}", file=sys.stderr)
            return 2
        if warm.error is not None:
            print(f"error: warm-up call failed: {warm.error}", file=sys.stderr)
            return 2
        run = Run(harness, calls)
        measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    results = list(run.every_call())
    failures = [r for r in results if r.error is not None]
    problems = trace_checks(run, args.workload) if args.trace else []
    values = per_layer(run) if args.trace else end_to_end(run)
    units = {m[0]: m[1] for m in metrics.END_TO_END + metrics.PER_LAYER}
    histogram = Counter(workloads.oracle_vertices(a) for a in calls)
    histogram.pop(None, None)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "package": harness.package,
        "source_sha256": source_digest(),
        "git_commit": git_commit(),
        "calls_per_pass": len(calls),
        "pass_wall_s": [sum(r.wall for r in p) for p in run.passes],
        "traced_pass_wall_s": [sum(r.wall for r in p) for p in run.traced],
        "repeat_share": 1 - len({" ".join(a) for a in calls}) / len(calls),
        "oracle_vertex_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "failed_frac": len(failures) / len(results),
        "failures": sorted({f"{' '.join(r.argv)}: {r.error}" for r in failures})[:10],
        "trace_check_failures": problems,
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
