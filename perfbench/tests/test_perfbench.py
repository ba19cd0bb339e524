"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CHEAP_CALLS = [
    "count --class gn --leaves 10 --rets 2".split(),
    "patterns --m 5".split(),
]


def _mix(argv):
    """The fixed part of a call: subcommand and options other than leaf
    counts and orders."""
    free = {"--leaves", "--lmax", "--kmax"}
    return (argv[0],) + tuple(p for p in zip(argv[1::2], argv[2::2]) if p[0] not in free)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_argv_list(workload):
    for seed in (0, 1, 17):
        assert workloads.generate(workload, seed) == workloads.generate(workload, seed)
    assert workloads.generate(workload, 0) != workloads.generate(workload, 1)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_seed_gets_the_same_mix(workload):
    mixes = {tuple(sorted(_mix(a) for a in workloads.generate(workload, seed))) for seed in range(20)}
    assert len(mixes) == 1


def test_reference_covers_every_drawable_call():
    reference = run.load_reference()
    assert " ".join(run.WARM_UP) in reference
    for workload in workloads.WORKLOADS:
        for argv in workloads.domain(workload):
            assert " ".join(argv) in reference
        for seed in range(50):
            for argv in workloads.generate(workload, seed):
                assert " ".join(argv) in reference


def _run_cheap(reference, tmp_path):
    work = tmp_path / "work"
    work.mkdir(parents=True)
    result = run.Run(run.Harness(reference, work), CHEAP_CALLS)
    result.one_pass(False)
    return run.end_to_end(result)


def test_corrupted_reference_entry_counts_as_failed(tmp_path):
    reference = run.load_reference()
    assert _run_cheap(reference, tmp_path / "a")["ok_frac"] == 1.0
    key = " ".join(CHEAP_CALLS[0])
    corrupted = dict(reference)
    corrupted[key] = dict(reference[key], value=str(int(reference[key]["value"]) + 1))
    failed_frac = 1 - _run_cheap(corrupted, tmp_path / "b")["ok_frac"]
    assert failed_frac > 0


def test_benchmark_json_lists_the_metrics_table():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _ in metrics.PER_LAYER]


def test_traced_run_reports_every_per_layer_metric():
    names = set(run.layer_totals([])) | {"trace.overhead_ratio"}
    assert names == {name for name, *_ in metrics.PER_LAYER}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-brute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
