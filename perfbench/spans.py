"""Span tracer for one traced phylocount CLI call.

`Tracer.install()` replaces each public function named in `TARGETS` with a
timing wrapper, in its defining module and in every phylocount module (or
module-level dict, such as `oracle.CLASS_PREDICATES`) that holds the same
function object, so `from ... import` bindings are traced too.  Methods are
wrapped on their class.

Every call of a wrapped function records one span: name, start, end and
parent span; a traced process answers exactly one CLI call, so the process
is the call id.  A generator function records one span per `next()`.
Spans stay in memory, in flat arrays, until `summary()` folds them into
per-name totals at the end of the call.  Self time is a span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module, attribute, span name).  A target missing from the package under
# test is skipped and reports zero, so a later change may delete a function.
TARGETS = (
    ("series", "Egf.__mul__", "series.Egf.mul"),
    ("series", "Egf.from_counts", "series.Egf.from_counts"),
    ("onecomp", "block_count", "onecomp.block_count"),
    ("onecomp", "block_shift_egf", "onecomp.block_shift_egf"),
    ("galled", "galled_egf", "galled.galled_egf"),
    ("galled", "closed_form_threshold", "galled.closed_form_threshold"),
    ("galled", "generating_identity_check", "galled.generating_identity_check"),
    ("retvis", "enumerate_patterns", "retvis.enumerate_patterns"),
    ("retvis", "rv_egf", "retvis.rv_egf"),
    ("retvis", "vertex_egf", "retvis.vertex_egf"),
    ("retvis", "closed_form_threshold", "retvis.closed_form_threshold"),
    ("canon", "canonical_bytes", "canon.canonical_bytes"),
    ("canon", "automorphism_count", "canon.automorphism_count"),
    ("networks", "validation_errors", "networks.validation_errors"),
    ("networks", "canonical_code", "networks.canonical_code"),
    ("networks", "structure_key", "networks.structure_key"),
    ("networks", "is_galled", "networks.is_galled"),
    ("networks", "is_reticulation_visible", "networks.is_reticulation_visible"),
    ("networks", "is_tree_child", "networks.is_tree_child"),
    ("networks", "is_normal", "networks.is_normal"),
    ("oracle", "enumerate_networks", "oracle.enumerate_networks"),
    ("oracle", "count_by_class", "oracle.count_by_class"),
    ("io", "network_to_json", "io.network_to_json"),
    ("io", "network_to_dot", "io.network_to_dot"),
    ("cli", "main", "cli.main"),
    ("verify", "run_suite", "verify.run_suite"),
)

# functions whose distinct argument tuples are kept for repeat_share
KEYED = frozenset({"onecomp.block_count", "galled.galled_egf", "retvis.rv_egf"})
GENERATORS = frozenset({"oracle.enumerate_networks"})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self.coef_ops = 0
        self.yields = 0
        self.catalogs: dict[int, int] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"phylocount.{module_name}")
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                raw = None if cls is None else cls.__dict__.get(method)
                if raw is None:
                    continue
                if isinstance(raw, staticmethod):
                    setattr(cls, method, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, method, self._wrap(name, raw))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            _rebind(original, self._wrap(name, original))

    def _wrap(self, name: str, fn):
        self.calls[name] = 0
        self.names.append(name)
        nid = len(self.names) - 1
        observe = self._observer(name)
        if name in GENERATORS:
            return self._wrap_generator(name, nid, fn)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack, calls = self.span_start, self.span_end, self.stack, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(sid)
            calls[name] += 1
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, nid: int, fn):
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            inner = fn(*args, **kwargs)

            def spans():
                while True:
                    sid = len(span_name)
                    span_name.append(nid)
                    span_parent.append(stack[-1] if stack else -1)
                    span_end.append(0.0)
                    stack.append(sid)
                    span_start.append(clock())
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span_end[sid] = clock()
                        stack.pop()
                    tracer.yields += 1
                    yield item

            return spans()

        return wrapper

    def _observer(self, name: str):
        if name in KEYED:
            keys = self.keys[name]
            return lambda args, kwargs, result: keys.add((args, tuple(sorted(kwargs.items()))))
        if name == "series.Egf.mul":
            def count_ops(args, kwargs, result):
                left, right = args
                if isinstance(right, type(left)):
                    t = min(left.order, right.order)
                    self.coef_ops += (t + 1) * (t + 2) // 2
            return count_ops
        if name == "retvis.enumerate_patterns":
            def catalog_size(args, kwargs, result):
                m = args[0] if args else kwargs["m"]
                self.catalogs[m] = len(result)
            return catalog_size
        return None

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals over every span recorded so far."""
        n = len(self.span_name)
        names, parent = self.span_name, self.span_parent
        duration = array("d", (e - s for s, e in zip(self.span_start, self.span_end)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += duration[i]
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            self_s[self.names[names[i]]] += duration[i] - child[i]
        ids = {name: i for i, name in enumerate(self.names)}
        key_id, gen_id = ids.get("networks.structure_key"), ids.get("oracle.enumerate_networks")
        # the enumerator's candidates: structure_key spans opened directly under it
        candidates = sum(
            1 for i in range(n) if names[i] == key_id and parent[i] >= 0 and names[parent[i]] == gen_id
        )
        return {
            "spans": n,
            "calls": dict(self.calls),
            "self_s": self_s,
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "coef_ops": self.coef_ops,
            "networks": self.yields,
            "candidates": candidates,
            "catalogs": {str(m): size for m, size in sorted(self.catalogs.items())},
        }


def _rebind(original, wrapper) -> None:
    """Point every phylocount binding of `original` at `wrapper`."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("phylocount"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
            elif type(value) is dict:
                for dict_key, item in list(value.items()):
                    if item is original:
                        value[dict_key] = wrapper
