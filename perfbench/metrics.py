"""Every metric the benchmark reports: name, unit, better, and, for a
per-layer metric, the end-to-end metric and workload it should move.

`BENCHMARK.json` at the repository root lists the same names, units and
directions; `tests/test_perfbench.py` keeps the two in step.
`python3 perfbench/run.py --list-metrics` prints this table.
"""

from __future__ import annotations

GS, VS, OB = "galled-series", "visible-series", "oracle-brute"

# (name, unit, better, bound)
END_TO_END = (
    ("wall_s", "s", "lower", 0.24),
    ("cpu_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.01),
)

END_TO_END_MEANING = {
    "wall_s": "wall time to answer the whole call set: each call's fastest pass, summed",
    "cpu_s": "user + system CPU of the calls from each child's rusage: each call's fastest pass, summed",
    "setup_s": "median per-call time from process spawn to phylocount.cli imported",
    "peak_rss_mb": "largest max-RSS of any call (MiB)",
    "ok_frac": "calls answered correctly / calls attempted (1 - failed_frac)",
}


def _self(name: str, moves: str):
    return (f"{name}.self_s", "s", "lower", moves)


def _calls(name: str, moves: str):
    return (f"{name}.calls", "count", "lower", moves)


def _repeat(name: str, moves: str):
    return (f"{name}.repeat_share", "ratio", "lower", moves)


_SERIES = f"wall_s, cpu_s on {GS} and {VS}; zero on {OB}"
_BLOCKS = f"wall_s on {GS} (blocks calls); light on {VS}"
_GALLED = f"wall_s on {GS}; zero on {VS}"
_RETVIS = f"wall_s on {VS}"
_ORACLE = f"wall_s on {OB}"
_ORACLE_RSS = f"wall_s, peak_rss_mb on {OB}"

# (name, unit, better, moves)
PER_LAYER = (
    _calls("series.Egf.mul", _SERIES),
    _self("series.Egf.mul", _SERIES),
    ("series.Egf.mul.coef_ops", "ops_computed", "lower",
     _SERIES + "; computed as sum (t+1)(t+2)/2 over Egf x Egf products of order t, not counted"),
    _self("series.Egf.from_counts", _SERIES),
    _calls("onecomp.block_count", _BLOCKS),
    _self("onecomp.block_count", _BLOCKS),
    _repeat("onecomp.block_count", _BLOCKS),
    _self("onecomp.block_shift_egf", _BLOCKS),
    _calls("galled.galled_egf", _GALLED),
    _self("galled.galled_egf", _GALLED),
    _repeat("galled.galled_egf", _GALLED),
    _self("galled.closed_form_threshold", _GALLED),
    _self("galled.generating_identity_check", _GALLED),
    _self("retvis.enumerate_patterns", _RETVIS),
    ("retvis.enumerate_patterns.patterns", "count", "higher",
     _RETVIS + "; catalog size summed over the distinct m built in a pass, an exact count"),
    _calls("retvis.rv_egf", _RETVIS),
    _self("retvis.rv_egf", _RETVIS),
    _repeat("retvis.rv_egf", _RETVIS),
    _calls("retvis.vertex_egf", _RETVIS),
    _self("retvis.vertex_egf", _RETVIS),
    _self("retvis.closed_form_threshold", _RETVIS),
    _calls("canon.canonical_bytes", f"wall_s on {OB} (network codes) and {VS} (catalog)"),
    _self("canon.canonical_bytes", f"wall_s on {OB} (network codes) and {VS} (catalog)"),
    _calls("canon.automorphism_count", _RETVIS),
    _self("canon.automorphism_count", _RETVIS),
    _calls("networks.validation_errors", _ORACLE),
    _self("networks.validation_errors", _ORACLE),
    ("networks.validations_per_network", "ratio", "lower",
     _ORACLE + "; validation_errors calls / oracle.networks"),
    _calls("networks.canonical_code", _ORACLE),
    _self("networks.canonical_code", _ORACLE),
    _self("networks.structure_key", _ORACLE),
    _self("networks.is_galled", _ORACLE),
    _self("networks.is_reticulation_visible", _ORACLE),
    _self("networks.is_tree_child", _ORACLE),
    _self("networks.is_normal", _ORACLE),
    ("oracle.candidates", "count", "lower", _ORACLE_RSS + "; structure_key calls made by the enumerator"),
    ("oracle.networks", "count", "higher", _ORACLE_RSS + "; networks yielded, the base of the ratios"),
    ("oracle.distinct_ratio", "ratio", "higher", _ORACLE_RSS + "; oracle.networks / oracle.candidates"),
    _self("oracle.enumerate_networks", _ORACLE_RSS + "; summed over next() calls"),
    _self("oracle.count_by_class", _ORACLE_RSS),
    _self("io.network_to_json", f"wall_s on {OB} (enumerate calls)"),
    _self("io.network_to_dot", f"wall_s on {OB} (enumerate calls)"),
    _self("cli.main", "wall_s on all three workloads; small on each (parsing, dispatch, formatting)"),
    _self("verify.run_suite", f"wall_s on {GS}"),
    ("trace.overhead_ratio", "ratio", "lower", "traced wall time / untraced wall time of a pass, per workload"),
)
