"""Command-line interface: outputs, determinism, exit codes."""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from phylocount.cli import CLASSES, METHODS, main
from phylocount import io, onecomp, verify
from phylocount.networks import Network


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_count_closed_and_series_agree(capsys):
    code, out = run_cli(capsys, "count", "--class", "gn", "--leaves", "10", "--rets", "2")
    assert code == 0
    closed = json.loads(out)
    code, out = run_cli(
        capsys, "count", "--class", "gn", "--leaves", "10", "--rets", "2", "--method", "series"
    )
    series = json.loads(out)
    assert closed["value"] == series["value"]
    assert closed["method"] == "closed" and series["method"] == "series"


def test_count_trees(capsys):
    code, out = run_cli(capsys, "count", "--class", "trees", "--leaves", "6", "--format", "text")
    assert code == 0
    assert "945" in out


def test_count_treesum_total_honours_the_format(capsys):
    argv = ("count", "--class", "gn", "--leaves", "3", "--method", "treesum")
    assert run_cli(capsys, *argv, "--format", "text") == (0, "gn(3,all) = 240  [treesum, validated]\n")
    assert run_cli(capsys, *argv) == (
        0,
        '{"class": "gn", "leaves": 3, "method": "treesum", "rets": "all", "validity": "validated", "value": "240"}\n',
    )


def test_count_beyond_bound_flags_bound(capsys):
    for cls, leaves, rets in (("rv", 1, 5), ("gn", 1, 1), ("tc", 3, 3), ("normal", 2, 1)):
        code, out = run_cli(capsys, "count", "--class", cls, "--leaves", str(leaves), "--rets", str(rets))
        assert code == 0
        record = json.loads(out)
        assert record["value"] == "0" and record["method"] == record["validity"] == "bound"


def test_count_brute_matches_series(capsys):
    code, out = run_cli(
        capsys, "count", "--class", "rv", "--leaves", "2", "--rets", "2", "--method", "brute"
    )
    brute = json.loads(out)
    code, out = run_cli(
        capsys, "count", "--class", "rv", "--leaves", "2", "--rets", "2", "--method", "dagsum"
    )
    assert brute["value"] == json.loads(out)["value"] == "5"


def test_count_usage_error(capsys):
    assert main(["count", "--class", "tc", "--leaves", "9", "--rets", "3"]) == 2  # over budget


def test_table_galled_row(capsys):
    code, out = run_cli(capsys, "table", "--class", "gn", "--lmax", "10", "--kmax", "3")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[3] == "3,3,21,75,114"


def test_table_visible_shares_single_ret_column(capsys):
    _, gn_out = run_cli(capsys, "table", "--class", "gn", "--lmax", "6", "--kmax", "3")
    _, rv_out = run_cli(capsys, "table", "--class", "rv", "--lmax", "6", "--kmax", "3")
    gn_col = [line.split(",")[2] for line in gn_out.strip().split("\n")[1:]]
    rv_col = [line.split(",")[2] for line in rv_out.strip().split("\n")[1:]]
    assert gn_col == rv_col


def test_table_trees(capsys):
    code, out = run_cli(capsys, "table", "--class", "trees", "--lmax", "5", "--kmax", "0")
    assert code == 0
    values = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
    assert values == ["1", "1", "3", "15", "105"]


def test_table_deterministic(capsys):
    _, first = run_cli(capsys, "table", "--class", "gn", "--lmax", "8", "--kmax", "2")
    _, second = run_cli(capsys, "table", "--class", "gn", "--lmax", "8", "--kmax", "2")
    assert first == second


def test_blocks_csv(tmp_path, capsys):
    code, out = run_cli(capsys, "blocks", "--lmax", "4", "--kmax", "2")
    assert code == 0
    assert out.startswith("leaves,k=0,k=1,k=2\n")
    assert "3,3,6,20" in out
    path = tmp_path / "blocks.csv"
    code, out_with_file = run_cli(capsys, "blocks", "--lmax", "4", "--kmax", "2", "--out", str(path))
    assert code == 0 and out_with_file == ""
    assert path.read_bytes() == out.encode()


def test_blocks_failure_leaves_no_out_file(tmp_path, monkeypatch):
    def broken(leaves, rets):
        raise ArithmeticError(f"odd correction sum at (leaves={leaves}, rets={rets})")

    monkeypatch.setattr(onecomp, "block_count", broken)
    path = tmp_path / "blocks.csv"
    with pytest.raises(ArithmeticError):
        main(["blocks", "--lmax", "5", "--kmax", "2", "--out", str(path)])
    assert not path.exists()


# sha256 of the complete stdout of the fast suites; the same digests pin these
# calls in the benchmark
VERIFY_STDOUT = {
    "genfun": (4, "b448ff335d9ba3ab45cdfa9678235b6b1abdbcddb792df6f6fb5d4ee8f974880"),
    "onecomp": (5, "d6130ad490226f341b13ff209b0500e2c449f0a452477a4c357d83f0b351414a"),
    "galled": (7, "0298e8880d1a357b3c339cbb49af958690a39c6ba9ff8544692ba4c9623d8bc1"),
}


def test_verify_fast_suite(capsys):
    for suite, (passes, digest) in VERIFY_STDOUT.items():
        code, out = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        assert out.count(" PASS: ") == passes and "FAIL" not in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_verify_reports_a_raising_check_and_runs_the_rest(capsys, monkeypatch):
    checks = list(verify.CHECKS)
    index = next(i for i, (suite, _, _) in enumerate(checks) if suite == "genfun")
    suite, name, _ = checks[index]

    def broken():
        raise ArithmeticError("coefficient of z^3 is not 1/3! integral")

    checks[index] = (suite, name, broken)
    monkeypatch.setattr(verify, "CHECKS", checks)
    code, out = run_cli(capsys, "verify", "--suite", "genfun")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == f"[genfun] FAIL: {name}  (ArithmeticError: coefficient of z^3 is not 1/3! integral)"
    assert all(" PASS: " in line for line in lines[1:-1]) and len(lines) == 5
    assert lines[-1] == "3/4 checks passed"


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
# the two 12-vertex oracle cells take about 2 s between them
REPLAY_SKIPPED = {
    "count --class pn --leaves 2 --rets 4 --method brute",
    "count --class tc --leaves 5 --rets 1 --method brute",
}


def test_count_table_and_blocks_replay_the_pinned_reference(capsys):
    """Every `count`, `table` and `blocks` call of the benchmark reference
    prints the pinned bytes."""
    entries = json.loads(REFERENCE.read_text())["entries"]
    wrong = []
    for key, entry in entries.items():
        if key.split()[0] not in ("count", "table", "blocks") or key in REPLAY_SKIPPED:
            continue
        code, out = run_cli(capsys, *key.split())
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != entry["stdout_sha256"]:
            wrong.append(key)
    assert REPLAY_SKIPPED <= entries.keys() and not wrong, wrong


@pytest.mark.parametrize("cls", ["gn", "rv"])
@pytest.mark.parametrize("rets", [0, 2, 3])
def test_asympt_counts_are_the_closed_counts(capsys, cls, rets):
    leaves = [3, 7, 30]
    code, out = run_cli(capsys, "asympt", "--class", cls, "--rets", str(rets), "--leaves", "3,7,30")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["leaves"] for row in rows] == leaves
    for row, l in zip(rows, leaves):
        code, out = run_cli(
            capsys, "count", "--class", cls, "--leaves", str(l), "--rets", str(rets), "--method", "closed"
        )
        closed = json.loads(out)
        assert code == 0 and closed["validity"] == "validated"
        assert row["count"] == closed["value"]


@pytest.mark.parametrize(
    "cls, lmax, kmax",
    [("gn", 6, 3), ("rv", 5, 3), ("tc", 3, 2), ("normal", 4, 2), ("onecomp", 5, 3), ("trees", 4, 0)],
)
def test_table_json_holds_the_csv_cells(capsys, cls, lmax, kmax):
    args = ["table", "--class", cls, "--lmax", str(lmax), "--kmax", str(kmax)]
    _, csv_out = run_cli(capsys, *args)
    code, json_out = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    header, *lines = csv_out.splitlines()
    assert header == "leaves," + ",".join(f"k={k}" for k in range(kmax + 1))
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines}
    assert json_out == json.dumps({"class": cls, "rows": rows}, sort_keys=True) + "\n"


def test_count_normal_two_reticulations(capsys):
    from phylocount.onecomp import normal_two_reticulation_count

    for leaves in (4, 5, 9):
        code, out = run_cli(capsys, "count", "--class", "normal", "--leaves", str(leaves), "--rets", "2")
        record = json.loads(out)
        assert code == 0 and (record["method"], record["validity"]) == ("closed", "validated")
        assert record["value"] == str(normal_two_reticulation_count(leaves))
    # below four leaves two reticulations exceed the class bound leaves - 2
    code, out = run_cli(capsys, "count", "--class", "normal", "--leaves", "3", "--rets", "2")
    assert json.loads(out)["method"] == "bound"


@pytest.mark.parametrize("leaves", range(1, 6))
def test_count_treesum_cells_equal_the_series(capsys, leaves):
    for rets in range(0, 2 * leaves):
        values = []
        for method in ("treesum", "series"):
            code, out = run_cli(
                capsys, "count", "--class", "gn", "--leaves", str(leaves), "--rets", str(rets), "--method", method
            )
            assert code == 0
            values.append(json.loads(out)["value"])
        assert values[0] == values[1], (rets, values)


def test_asympt_output(capsys):
    code, out = run_cli(capsys, "asympt", "--class", "gn", "--rets", "1", "--leaves", "50,100")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().split("\n")]
    ratios = [float(line["ratio"]) for line in lines]
    assert abs(ratios[1] - 1) < abs(ratios[0] - 1)


def _full_decimal(value: int) -> str:
    # the reference digits, past CPython's 4300-digit int-to-str cap
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv, field, value",
    [
        ("count --class trees --leaves 1700", "value", lambda: onecomp.tree_count(1700)),
        ("count --class gn --leaves 5000 --rets 1", "value", lambda: onecomp.closed_form("gn", 5000, 1)),
        ("asympt --class gn --rets 1 --leaves 1700", "count", lambda: onecomp.closed_form("gn", 1700, 1)),
    ],
)
def test_counts_past_the_digit_cap_print_in_full(capsys, argv, field, value):
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    digits = json.loads(out)[field]
    assert len(digits) > 4300
    assert digits == _full_decimal(value())
    assert sys.get_int_max_str_digits() == limit  # the cap is back on


@pytest.mark.parametrize(
    "argv, value",
    [
        ("table --class trees --lmax 1500 --kmax 0", lambda: onecomp.tree_count(1500)),
        ("blocks --lmax 1500 --kmax 0", lambda: onecomp.block_count(1500, 0)),
    ],
)
def test_table_rows_past_the_digit_cap_print_in_full(capsys, argv, value):
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    last = out.splitlines()[-1]
    assert len(last) > 4300
    assert last == "1500," + _full_decimal(value())


def test_arguments_past_the_digit_cap_stay_usage_errors(capsys):
    huge = "1" * 5000
    assert main(["asympt", "--class", "gn", "--rets", "1", "--leaves", huge]) == 2
    assert capsys.readouterr().err == "error: --leaves must be a comma-separated list of integers\n"


@pytest.mark.parametrize(
    "argv",
    [
        "asympt --class rv --rets 3 --leaves 1",
        "asympt --class gn --rets -1 --leaves 5",
        "asympt --class gn --rets 3 --leaves 1",
        "count --class rv --leaves 5 --rets 8 --method dagsum",
        "count --class rv --leaves 5 --rets 8 --method series",
        "count --class rv --leaves 4 --method treesum",
        "count --class gn --leaves 9 --method treesum",
        "count --class gn --leaves 9 --rets 2 --method treesum",
        "count --class onecomp --leaves 2 --rets 1 --method brute",
        "verify --suite bogus",
        "enumerate --leaves 2 --rets 1 --class bogus --out {missing}",
        # output paths that cannot be written
        "table --class gn --lmax 3 --kmax 1 --out {missing}/x.csv",
        "blocks --lmax 3 --kmax 1 --out {missing}/x.csv",
        "enumerate --leaves 2 --rets 1 --out {file}",
        "patterns --m 3 --dot {file}",
        # cells and ranges out of bounds
        "count --class gn --leaves 0 --rets 1",
        "count --class gn --leaves 3 --rets -1",
        "table --class gn --lmax 0 --kmax 1",
        "table --class trees --lmax 3 --kmax 1",
        "blocks --lmax 0 --kmax 1",
        "asympt --class gn --rets 4 --leaves 5",
        "asympt --class gn --rets 2 --leaves 3,x",
        "asympt --class gn --rets 2 --leaves 0",
        "enumerate --leaves 0 --rets 1 --out {missing}",
        "enumerate --leaves 4 --rets 4 --class gn --out {missing}",
    ],
)
def test_bad_arguments_are_usage_errors(tmp_path, capsys, argv):
    existing = tmp_path / "file"
    existing.write_text("")
    missing = tmp_path / "missing"
    assert main(argv.format(missing=missing, file=existing).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not missing.exists()  # arguments are checked before any output is made


def test_enumerate_writes_files(tmp_path, capsys):
    code, out = run_cli(
        capsys,
        "enumerate", "--leaves", "2", "--rets", "1", "--out", str(tmp_path), "--format", "both",
    )
    assert code == 0
    assert json.loads(out)["written"] == 2
    json_files = sorted(tmp_path.glob("*.json"))
    dot_files = sorted(tmp_path.glob("*.dot"))
    assert len(json_files) == 2 and len(dot_files) == 2
    net = io.network_from_json(json_files[0].read_text())
    assert isinstance(net, Network)
    assert "digraph" in dot_files[0].read_text()


def test_enumerate_with_class_filter(tmp_path, capsys):
    code, out = run_cli(
        capsys,
        "enumerate", "--leaves", "2", "--rets", "2",
        "--class", "gn", "--out", str(tmp_path), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["written"] == 3


def test_enumerate_budget_exceeded(tmp_path, capsys):
    assert main(["enumerate", "--leaves", "5", "--rets", "4", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: job needs 18 vertices, budget is 14\n"
    assert main(["enumerate", "--leaves", "2", "--rets", "1", "--class", "xyz", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: unknown class 'xyz'\n"


def test_patterns_catalog(tmp_path, capsys):
    code, out = run_cli(capsys, "patterns", "--m", "3", "--dot", str(tmp_path))
    assert code == 0
    record = json.loads(out)
    assert record["count"] == 3
    assert sorted(p["symmetries"] for p in record["patterns"]) == [1, 1, 2]
    assert len(list(tmp_path.glob("*.dot"))) == 3


@pytest.mark.parametrize("m", range(1, 6))
def test_patterns_json_streams_the_bytes_of_one_dump(capsys, m):
    from phylocount.retvis import enumerate_patterns

    catalog = enumerate_patterns(m)
    doc = {
        "m": m,
        "count": len(catalog),
        "patterns": [
            {
                "schema": io.PATTERN_SCHEMA,
                "root": p.root,
                "m": p.m,
                "edges": [{"from": u, "to": v, "multiplicity": k} for u, v, k in sorted(p.edges)],
                "symmetries": s,
            }
            for p, s in catalog
        ],
    }
    assert run_cli(capsys, "patterns", "--m", str(m)) == (0, json.dumps(doc, sort_keys=True) + "\n")
    text = [f"{len(catalog)} patterns with {m} vertices"]
    text += [f"  edges={p.edges} symmetries={s}" for p, s in catalog]
    assert run_cli(capsys, "patterns", "--m", str(m), "--format", "text") == (0, "\n".join(text) + "\n")


def test_component_graph_serialization():
    from phylocount.networks import component_graph

    net = Network.build([[1], [2, 3], [3, 4], [5], [], []], {4: 2, 5: 1})
    cg = component_graph(net)
    doc = io.component_graph_to_json(cg)
    assert doc == io.component_graph_to_json(cg)  # deterministic
    assert '"schema":"phylocount.component_graph/1"' in doc.replace(" ", "")
    assert "digraph" in io.component_graph_to_dot(cg)


def test_json_round_trip_via_io():
    net = Network.build([[1], [2, 3], [3, 4], [5], [], []], {4: 2, 5: 1})
    assert io.network_from_json(io.network_to_json(net)) == net


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda doc: doc["edges"].append([9, 1]), "edge source 9"),
        (lambda doc: doc["vertices"][-1].update(id=6), "vertex id 6"),
        (lambda doc: doc.pop("root"), "lacks root"),
        (lambda doc: doc.pop("vertices"), "lacks vertices"),
        (lambda doc: doc.pop("edges"), "lacks edges"),
        (lambda doc: doc["edges"].append(3), "edges must be a list of"),
        (lambda doc: doc["vertices"].append(6), "vertices must be a list of objects"),
        (lambda doc: doc.update(vertices=7), "vertices must be a list of objects"),
        (lambda doc: doc.update(root="0"), "root '0' is not an integer"),
        (lambda doc: doc["edges"].append([1, "5"]), "edge target '5' is not an integer"),
        (lambda doc: doc["edges"].__setitem__(0, [False, True]), "edge source False is not an integer"),
        (lambda doc: doc["vertices"][-1].update(label=True), "label True is not an integer"),
        (lambda doc: doc["vertices"][-1].update(label="a"), "label 'a' is not an integer"),
    ],
    ids=[
        "edge-source-out-of-range", "vertex-id-out-of-range", "no-root", "no-vertices", "no-edges",
        "edge-not-a-pair", "vertex-not-an-object", "vertices-not-a-list", "root-not-an-integer",
        "edge-target-not-an-integer", "edge-given-as-booleans", "label-given-as-boolean",
        "label-not-an-integer",
    ],
)
def test_malformed_network_json_is_a_value_error(change, message):
    net = Network.build([[1], [2, 3], [3, 4], [5], [], []], {4: 2, 5: 1})
    doc = json.loads(io.network_to_json(net))
    change(doc)
    with pytest.raises(ValueError, match=message):
        io.network_from_json(json.dumps(doc))


def _call(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


BRUTE_VERTICES = 10  # cells the exhaustive oracle settles in well under a second


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cls=st.sampled_from(CLASSES),
    method=st.sampled_from(METHODS),
    leaves=st.integers(1, 4),
    rets=st.none() | st.integers(0, 3),
)
def test_count_exits_cleanly_and_methods_agree(cls, method, leaves, rets):
    # auto falls back to the oracle for the classes without a series
    brute = method == "brute" or (method == "auto" and cls in ("pn", "tc", "normal"))
    assume(not brute or 2 * (leaves + (rets or 0)) <= BRUTE_VERTICES)
    # the three-leaf rv component sum alone takes about a second
    assume(not (cls == "rv" and method == "treesum" and rets is None and leaves == 3))
    argv = ["count", "--class", cls, "--leaves", str(leaves), "--method", method]
    if rets is not None:
        argv += ["--rets", str(rets)]
    code, _, err = _call(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if cls not in ("gn", "rv") or rets is None or code != 0:
        return
    values = {}
    for other in ("closed", "series", "dagsum", "brute"):
        if other == "brute" and 2 * (leaves + rets) > BRUTE_VERTICES:
            continue
        code, out, _ = _call(argv[:5] + ["--method", other, "--rets", str(rets)])
        if code == 0 and json.loads(out)["validity"] != "below-threshold":
            values[other] = json.loads(out)["value"]
    assert len(set(values.values())) == 1, values


@pytest.mark.parametrize(
    "argv",
    [
        "count --class rv --leaves 5 --rets 8",
        "table --class rv --lmax 4 --kmax 8",
    ],
)
def test_rv_series_limit_holds_on_every_path(capsys, argv):
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == "error: rv series supports rets <= 7\n"
