"""Command-line interface.

Subcommands: count, table, blocks, verify, asympt, enumerate, patterns.
All exact values are printed as full decimal integers; floating-point output
carries explicit precision annotations.  Exit codes: 0 success, 1 verification
failure, 2 usage error or an output path that cannot be written.

Each handler imports the package modules it runs, so a call loads only what
its subcommand needs: a galled count or a block table never loads the
network model, the oracle or the verification suites.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Iterable

CLASSES = ("pn", "rv", "gn", "tc", "normal", "onecomp", "trees")
METHODS = ("auto", "series", "closed", "treesum", "dagsum", "brute")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    # a ValueError is an argument out of range, an OSError an unwritable output path
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@contextlib.contextmanager
def _exact_digits():
    """Write the CLI's own exact counts in full.  CPython caps int-to-str
    conversion at 4300 digits to guard the parsing of untrusted input; the
    cap stays on for every argument and is lifted only while counts are
    written."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no cap before CPython 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phylocount",
        description="Exact and asymptotic counts of phylogenetic network classes.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("count", help="count one class at one (leaves, rets) cell")
    p.add_argument("--class", dest="cls", required=True, choices=CLASSES)
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--rets", type=int, default=None)
    p.add_argument("--method", choices=METHODS, default="auto")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("table", help="matrix of exact counts")
    p.add_argument("--class", dest="cls", required=True, choices=CLASSES)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("blocks", help="building-block count table as CSV")
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(handler=_cmd_blocks)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", help="one suite, or all of them (default)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("asympt", help="exact counts against the asymptotic main term")
    p.add_argument("--class", dest="cls", required=True, choices=("gn", "rv"))
    p.add_argument("--rets", type=int, required=True)
    p.add_argument("--leaves", required=True, help="comma-separated leaf counts")
    p.set_defaults(handler=_cmd_asympt)

    p = sub.add_parser("enumerate", help="write every network of a cell to disk")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--rets", type=int, required=True)
    p.add_argument("--class", dest="cls", default=None, help="write only networks of this class")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--format", choices=("json", "dot", "both"), default="both")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("patterns", help="emit the DAG-pattern catalog")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dot", type=Path, default=None, help="directory for DOT files")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=_cmd_patterns)

    return parser


# the method a count reports when the series of its class answers it
SERIES_METHODS = {"gn": "series", "rv": "dagsum"}
# the most reticulations a network of the class has, (a, b) of a * leaves + b
# floored at 0; pn has no such bound
BOUNDS = {"gn": (2, -2), "rv": (3, -3), "tc": (1, -1), "normal": (1, -2), "onecomp": (1, 0), "trees": (0, 0)}


def _beyond_bound(cls: str, leaves: int, rets: int) -> bool:
    if cls not in BOUNDS:
        return False
    a, b = BOUNDS[cls]
    return rets > max(a * leaves + b, 0)


def _series(cls: str, rets: int, order: int):
    """The gn or rv series at one reticulation count, memoized by its module.
    The rv series is offered as far as the package builds a pattern catalog,
    rets <= MAX_PATTERN_VERTICES - 1; the catalog checks it to rets <= 6."""
    if cls == "gn":
        from phylocount import galled

        return galled.galled_egf(rets, order)
    if cls != "rv":
        raise ValueError(f"no series method for class {cls!r}")
    from phylocount import retvis

    if rets + 1 > retvis.MAX_PATTERN_VERTICES:
        raise ValueError(f"rv series supports rets <= {retvis.MAX_PATTERN_VERTICES - 1}")
    return retvis.rv_egf(rets, order)


def _threshold(cls: str, rets: int) -> int:
    """The validated range of a gn or rv closed form, discovered against its series."""
    if cls == "gn":
        from phylocount import galled

        return galled.closed_form_threshold(rets)
    from phylocount import retvis

    return retvis.closed_form_threshold(rets)


def _closed_count(cls: str, leaves: int, rets: int):
    """A closed form's value and validity; a `CLOSED_FORMS` row is validated
    only from the threshold its series confirms."""
    from phylocount import onecomp

    value = onecomp.closed_form(cls, leaves, rets)
    if (cls, rets) in onecomp.CLOSED_FORMS and leaves < _threshold(cls, rets):
        return value, "below-threshold"
    return value, "validated"


def _auto_count(cls: str, leaves: int, rets: int):
    """(value, method, validity) of the first route that answers: a validated
    closed form, the gn or rv series, the exhaustive oracle."""
    from phylocount import onecomp

    if onecomp.has_closed_form(cls, rets):
        value, validity = _closed_count(cls, leaves, rets)
        if validity == "validated":
            return value, "closed", validity
    if cls in SERIES_METHODS:
        return _series(cls, rets, leaves).count(leaves), SERIES_METHODS[cls], "validated"
    return _brute_count(cls, leaves, rets), "brute", "validated"


def _cmd_count(args) -> int:
    cls, leaves, rets, method = args.cls, args.leaves, args.rets, args.method
    if leaves < 1:
        raise ValueError("--leaves must be >= 1")
    if rets is None and cls == "trees":
        rets = 0
    validity = "validated"
    if rets is None:
        if method != "treesum":
            raise ValueError("--rets is required (or use --method treesum for totals)")
        value, rets = _treesum_total(cls, leaves), "all"
    elif rets < 0:
        raise ValueError("--rets must be >= 0")
    elif _beyond_bound(cls, leaves, rets):
        value, method, validity = 0, "bound", "bound"
    elif method == "auto":
        value, method, validity = _auto_count(cls, leaves, rets)
    elif method == "closed":
        value, validity = _closed_count(cls, leaves, rets)
    elif method in ("series", "dagsum"):
        value = _series(cls, rets, leaves).count(leaves)
    elif method == "treesum":
        if cls != "gn":
            raise ValueError("treesum counts per cell exist for the galled class only")
        from phylocount import galled

        by_rets = galled.galled_tree_sum_by_rets(leaves)
        value = by_rets[rets] if rets < len(by_rets) else 0
    else:
        value = _brute_count(cls, leaves, rets)
    with _exact_digits():
        digits = str(value)
    record = {
        "class": cls,
        "leaves": leaves,
        "rets": rets,
        "method": method,
        "value": digits,
        "validity": validity,
    }
    if args.format == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"{cls}({leaves},{rets}) = {digits}  [{method}, {validity}]")
    return 0


def _treesum_total(cls: str, leaves: int) -> int:
    """The count over every reticulation count, by the gn tree sum or the rv
    component-graph sum."""
    if cls == "gn":
        from phylocount import galled

        return galled.galled_tree_sum(leaves)
    if cls == "rv":
        from phylocount import retvis

        return retvis.rv_component_sum(leaves)
    raise ValueError("totals via treesum exist for classes gn and rv")


def _brute_count(cls: str, leaves: int, rets: int) -> int:
    from phylocount import oracle

    field = "pn" if cls == "trees" else cls
    if field not in oracle.CLASS_PREDICATES:
        raise ValueError(f"no exhaustive count for class {cls!r}")
    return getattr(oracle.count_by_class(leaves, rets), field)


def _table_cell(cls: str, leaves: int, rets: int, lmax: int):
    """One table cell: 0 beyond the bound, else the gn or rv series to order
    lmax (one per column), a closed form, or the exhaustive oracle."""
    from phylocount import onecomp

    if _beyond_bound(cls, leaves, rets):
        return 0
    if cls in SERIES_METHODS:
        return _series(cls, rets, lmax).count(leaves)
    if onecomp.has_closed_form(cls, rets):
        return onecomp.closed_form(cls, leaves, rets)
    return _brute_count(cls, leaves, rets)


def _check_oracle_cells(cls: str, lmax: int, kmax: int) -> None:
    """Raise ValueError, before any counting, if the oracle cannot reach a
    table cell it would answer: one within the bound that neither a series
    nor a closed form covers."""
    from phylocount import onecomp

    cells = [] if cls in SERIES_METHODS else [
        (l, k) for l in range(1, lmax + 1) for k in range(kmax + 1)
        if not (_beyond_bound(cls, l, k) or onecomp.has_closed_form(cls, k))
    ]
    if cells:
        from phylocount import oracle

        for l, k in cells:
            oracle.check_cell(l, k)


def _cmd_table(args) -> int:
    cls, lmax, kmax = args.cls, args.lmax, args.kmax
    if lmax < 1 or kmax < 0:
        raise ValueError("need --lmax >= 1 and --kmax >= 0")
    if cls == "trees" and kmax != 0:
        raise ValueError("trees support --kmax 0 only")
    _check_oracle_cells(cls, lmax, kmax)
    # every cell is computed first, so a failing cell leaves no partial --out file
    rows = [[_table_cell(cls, l, k, lmax) for k in range(kmax + 1)] for l in range(1, lmax + 1)]
    _write_lines(_table_lines(cls, args.format, rows), args.out)
    return 0


def _table_lines(cls: str, fmt: str, rows: list[list[int]]):
    """The table as text, one CSV line (header first) or one JSON row at a
    time; the counts become digits only as it is read."""
    if fmt == "json":
        # the bytes json.dumps(..., sort_keys=True) gives the whole document;
        # row keys sort as strings: "1", "10", "11", ..., "2"
        yield f'{{"class": {json.dumps(cls)}, "rows": {{'
        for i, l in enumerate(sorted(range(1, len(rows) + 1), key=str)):
            yield f'{", " if i else ""}"{l}": {json.dumps(list(map(str, rows[l - 1])))}'
        yield "}}\n"
        return
    yield "leaves," + ",".join(f"k={k}" for k in range(len(rows[0]))) + "\n"
    for l, row in enumerate(rows, 1):
        yield f"{l}," + ",".join(map(str, row)) + "\n"


def _write_lines(lines: Iterable[str], out: Path | None) -> None:
    """Write `lines` to the file `out`, or to stdout when there is none, with
    the CLI's exact counts in full."""
    with _exact_digits():
        if out:
            with out.open("w") as fh:
                fh.writelines(lines)
        else:
            sys.stdout.writelines(lines)


def _cmd_blocks(args) -> int:
    from phylocount import onecomp

    if args.lmax < 1 or args.kmax < 0:
        raise ValueError("need --lmax >= 1 and --kmax >= 0")
    # the table is filled here, so a failure leaves no partial --out file
    _write_lines(onecomp.block_table_lines(args.lmax, args.kmax), args.out)
    return 0


def _cmd_verify(args) -> int:
    from phylocount import verify

    results = verify.run_suite(args.suite)
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        detail = f"  ({r.detail})" if r.detail and not r.ok else ""
        print(f"[{r.suite}] {status}: {r.name}{detail}")
        failures += 0 if r.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_asympt(args) -> int:
    from phylocount import galled

    cls, rets = args.cls, args.rets
    if rets < 0:
        raise ValueError("--rets must be >= 0")
    if rets > 3:
        raise ValueError("asymptotic comparison supports rets <= 3")
    try:
        leaf_list = [int(part) for part in args.leaves.split(",")]
    except ValueError:
        raise ValueError("--leaves must be a comma-separated list of integers")
    counts = [_asympt_count(cls, leaves, rets) for leaves in leaf_list]
    for leaves, count in zip(leaf_list, counts):
        mantissa, exponent = galled.asymptotic_main_term(leaves, rets)
        ratio = galled.asymptotic_ratio(count, leaves, rets)
        with _exact_digits():
            digits = str(count)
        print(
            json.dumps(
                {
                    "class": cls,
                    "leaves": leaves,
                    "rets": rets,
                    "count": digits,
                    "main_term": f"{mantissa:.12f}e{exponent}",
                    "ratio": f"{ratio:.12f}",
                    "precision": "double (~1e-12 relative)",
                },
                sort_keys=True,
            )
        )
    return 0


def _asympt_count(cls: str, leaves: int, rets: int) -> int:
    """Exact count behind one asympt row: a positive integer from a closed
    form validated at this cell, or a usage error."""
    if leaves < 1:
        raise ValueError("--leaves values must be >= 1")
    if _beyond_bound(cls, leaves, rets):
        raise ValueError(
            f"no {cls} networks with {leaves} leaves and {rets} reticulations; "
            "the ratio needs a positive count"
        )
    value, validity = _closed_count(cls, leaves, rets)
    if validity != "validated":
        raise ValueError(
            f"the {cls} closed form for rets={rets} is validated for leaves >= {_threshold(cls, rets)}"
        )
    return value


def _cmd_enumerate(args) -> int:
    from phylocount import io, oracle

    oracle.check_cell(args.leaves, args.rets)
    if args.cls is not None and args.cls not in oracle.CLASS_PREDICATES:
        raise ValueError(f"unknown class {args.cls!r}")
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    predicate = oracle.CLASS_PREDICATES[args.cls] if args.cls else None
    kept = 0
    for index, net in enumerate(oracle.enumerate_networks(args.leaves, args.rets)):
        if predicate is not None and not predicate(net):
            continue
        kept += 1
        stem = out_dir / f"net_{args.leaves}_{args.rets}_{index:06d}"
        if args.format in ("json", "both"):
            stem.with_suffix(".json").write_text(io.network_to_json(net) + "\n")
        if args.format in ("dot", "both"):
            stem.with_suffix(".dot").write_text(io.network_to_dot(net))
    print(json.dumps({"written": kept, "directory": str(out_dir)}, sort_keys=True))
    return 0


def _cmd_patterns(args) -> int:
    from phylocount import io, retvis

    catalog = retvis.enumerate_patterns(args.m)
    if args.dot:
        args.dot.mkdir(parents=True, exist_ok=True)
        for index, (pattern, symmetry) in enumerate(catalog):
            path = args.dot / f"pattern_{args.m}_{index:04d}.dot"
            path.write_text(io.pattern_to_dot(pattern, symmetry, name=f"pattern_{index}"))
    if args.format == "json":
        # one pattern at a time, in the bytes json.dumps(..., sort_keys=True)
        # gives the whole document: keys count, m, patterns
        out = sys.stdout
        out.write(f'{{"count": {len(catalog)}, "m": {args.m}, "patterns": [')
        for index, (pattern, symmetry) in enumerate(catalog):
            if index:
                out.write(", ")
            out.write(json.dumps(io.pattern_doc(pattern, symmetry), sort_keys=True))
        out.write("]}\n")
    else:
        print(f"{len(catalog)} patterns with {args.m} vertices")
        for pattern, symmetry in catalog:
            print(f"  edges={pattern.edges} symmetries={symmetry}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
