"""Spans around the public entry points of `gprs`, for the traced run.

The tracer patches each entry point at every module that holds a reference to
it (`gprs.codes` imports `_interp_enc` from `gprs.polynomial`, `gprs.cli`
imports `thm14_criterion`, and so on), so calls made inside the library are
seen as well as calls from the command line. Each call records its name,
start, end, parent span and request id. Self time is a span's duration minus
the time its child spans cover.

The hottest leaves (interpolation, evaluation, determinants) are aggregated
per name instead of kept as spans, and field arithmetic is only counted:
a sweep makes tens of millions of `add_enc`/`mul_enc` calls.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import sys
import time
import weakref
from collections import defaultdict


def count_calls(func, counter: list):
    """`func` with a call counter in `counter[0]`; the wrapper the tracer uses."""

    def counted(*args, **kwargs):
        counter[0] += 1
        return func(*args, **kwargs)

    return counted


def _arg_getter(func, name: str):
    """Read parameter `name` of a call to `func` from its args and kwargs."""
    params = list(inspect.signature(func).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default
    return lambda args, kwargs: kwargs.get(name, args[pos] if len(args) > pos else default)


class Tracer:
    """Records spans of patched callables; `restore()` undoes every patch."""

    def __init__(self):
        self.request_id = 0
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.edges = defaultdict(int)  # (parent name, child name) -> calls
        self.counters = defaultdict(lambda: [0])  # counted-only calls and tallies
        self.spans = []  # (request id, name, start, end, parent name)
        self.missing = []  # entry points not found in this version of gprs
        self._stack = []
        self._patches = []

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def span_function(self, module, attr, name, keep=True):
        """Wrap `module.attr` wherever a `gprs` module imported it."""
        func = vars(module).get(attr)
        if func is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self._wrap(func, lambda args, kwargs: name, keep)
        sites = [
            (mod, key)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "gprs" or mod_name.startswith("gprs."))
            for key, value in vars(mod).items()
            if value is func
        ]
        for mod, key in sites:
            self._patch(mod, key, wrapper)

    def _defining_class(self, cls, attr):
        owner = next((c for c in cls.__mro__ if attr in vars(c)), None)
        if owner is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
        return owner

    def span_method(self, cls, attr, namer, keep=True, after=None):
        """Wrap a method; `namer(args, kwargs)` names each call's span."""
        owner = self._defining_class(cls, attr)
        if owner is not None:
            self._patch(owner, attr, self._wrap(vars(owner)[attr], namer, keep, after))

    def count_method(self, cls, attr, name):
        owner = self._defining_class(cls, attr)
        if owner is not None:
            self._patch(owner, attr, count_calls(vars(owner)[attr], self.counters[name]))

    def _wrap(self, func, namer, keep, after=None):
        stack = self._stack
        stats = self.stats
        edges = self.edges
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = namer(args, kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat = stats[name]
                stat[0] += 1
                stat[1] += duration - frame[1]
                parent_name = None
                if parent is not None:
                    parent[1] += duration
                    parent_name = parent[0]
                edges[parent_name, name] += 1
                if keep:
                    spans.append((self.request_id, name, start, end, parent_name))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- output ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def write_spans(self, path) -> None:
        """Kept spans as gzipped JSON lines, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for rid, name, start, end, parent in self.spans:
                rec = {"rid": rid, "name": name, "parent": parent,
                       "start": start - origin, "end": end - origin}
                fh.write(json.dumps(rec) + "\n")


GALOIS_COUNTED = ("add_enc", "mul_enc", "inv_enc", "pow_enc")
DEEPHOLE_ENTRY_POINTS = (
    "is_deep_hole_oracle",
    "is_deep_hole_mds_extension",
    "thm14_criterion",
    "thm15_criterion",
    "build_family_word",
    "word_in_shifted_family",
    "word_in_degree_k_family",
    "validate_verdict",
)


def trace_gprs(tracer: Tracer) -> Tracer:
    """Install the benchmark's spans and counters on the loaded `gprs` modules."""
    from gprs import cli, codes, deepholes, galois, matrix, polynomial, verify

    tracer.span_function(cli, "main", "cli.main")
    tracer.span_function(verify, "run_sweep", "verify.run_sweep")
    tracer.span_method(verify.SweepReport, "to_json", lambda a, k: "verify.to_json")
    for attr in DEEPHOLE_ENTRY_POINTS:
        tracer.span_function(deepholes, attr, f"deepholes.{attr}")

    method_of = _arg_getter(codes.GprsCode.error_distance, "method")

    def after_distance(args, kwargs, result):
        if method_of(args, kwargs) == "agreement":
            code = args[0]
            tracer.counters["agreement.subsets"][0] += math.comb(code.n, code.k)

    tracer.span_method(
        codes.GprsCode, "error_distance",
        lambda a, k: "codes.error_distance." + method_of(a, k),
        after=after_distance,
    )
    matrix_of = weakref.WeakKeyDictionary()  # code -> id of the matrix it returned

    def after_matrix(args, kwargs, result):
        # a cached matrix comes back as the same object; anything else was built
        if matrix_of.get(args[0]) != id(result):
            tracer.counters["codeword_matrix.builds"][0] += 1
            matrix_of[args[0]] = id(result)

    tracer.span_method(
        codes.GprsCode, "_codeword_matrix", lambda a, k: "codes.codeword_matrix", after=after_matrix
    )
    for attr in ("covering_radius", "minimum_distance"):
        mode_of = _arg_getter(getattr(codes.GprsCode, attr), "mode")
        tracer.span_method(
            codes.GprsCode, attr,
            lambda a, k, attr=attr, mode_of=mode_of: f"codes.{attr}.{mode_of(a, k)}",
        )
    tracer.span_function(matrix, "first_singular_column_subset",
                         "matrix.first_singular_column_subset")
    tracer.span_function(matrix, "det_enc", "matrix.det_enc", keep=False)
    tracer.span_function(polynomial, "_interp_enc", "polynomial.interp", keep=False)
    tracer.span_function(polynomial, "_eval_enc", "polynomial.eval", keep=False)
    for attr in GALOIS_COUNTED:
        tracer.count_method(galois.FiniteField, attr, f"galois.{attr}")
    return tracer


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from a finished trace, keyed by metric name."""
    m = {}
    calls, self_s = tracer.calls, tracer.self_s
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")
    m["verify.run_sweep.self_s"] = self_s("verify.run_sweep")
    m["verify.to_json.self_s"] = self_s("verify.to_json")
    for attr in DEEPHOLE_ENTRY_POINTS:
        m[f"deepholes.{attr}.calls"] = calls(f"deepholes.{attr}")
        m[f"deepholes.{attr}.self_s"] = self_s(f"deepholes.{attr}")
    for method in ("agreement", "enumerate"):
        m[f"codes.error_distance.{method}.calls"] = calls(f"codes.error_distance.{method}")
        m[f"codes.error_distance.{method}.self_s"] = self_s(f"codes.error_distance.{method}")
    m["codes.covering_radius.bruteforce.calls"] = calls("codes.covering_radius.bruteforce")
    m["codes.covering_radius.bruteforce.self_s"] = self_s("codes.covering_radius.bruteforce")
    m["codes.minimum_distance.bruteforce.self_s"] = self_s("codes.minimum_distance.bruteforce")
    builds = tracer.counters["codeword_matrix.builds"][0]
    m["codes.codeword_matrix.builds"] = builds
    m["codes.codeword_matrix.self_s"] = self_s("codes.codeword_matrix")
    m["codes.codeword_matrix.reuse"] = calls("codes.codeword_matrix") / builds if builds else 0.0
    subsets = tracer.counters["agreement.subsets"][0]
    agreement_interps = tracer.edges.get(("codes.error_distance.agreement", "polynomial.interp"), 0)
    m["codes.agreement.scan_fraction"] = agreement_interps / subsets if subsets else 0.0
    scans = calls("matrix.first_singular_column_subset")
    m["matrix.first_singular_column_subset.calls"] = scans
    m["matrix.first_singular_column_subset.self_s"] = self_s("matrix.first_singular_column_subset")
    m["matrix.det_enc.calls"] = calls("matrix.det_enc")
    minors = tracer.edges.get(("matrix.first_singular_column_subset", "matrix.det_enc"), 0)
    m["matrix.minors_per_scan"] = minors / scans if scans else 0.0
    for short, name in (("interp", "polynomial.interp"), ("eval", "polynomial.eval")):
        m[f"polynomial.{short}.calls"] = calls(name)
        m[f"polynomial.{short}.self_s"] = self_s(name)
    for attr in GALOIS_COUNTED:
        m[f"galois.{attr}.calls"] = tracer.counters[f"galois.{attr}"][0]
    return m
