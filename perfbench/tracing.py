"""Spans around the layers of qmelon, recorded from the benchmark's side.

`install` wraps the public functions of every loaded ``qmelon`` module and
the arithmetic methods of ``LaurentPoly`` in spans, then rebinds every name
that refers to an original.  Names imported with ``from .x import f`` live
in several modules, and ``__radd__``/``__rmul__`` alias ``__add__``/
``__mul__``, so each binding is replaced, not only the defining one.  The
identity dispatch table ``identities._CASE_FUNCS`` gets one span per
identity, and the ``json`` module seen by ``cli`` and ``identities`` is
swapped for a proxy whose ``dumps`` is a serialize span.

A span records its name, the op it ran under and its parent span.  Self
time is the span's duration minus the time its child spans cover.  Spans
are aggregated in memory per (op, parent, name); a generator is one span
per ``next()`` call.  Nothing is written until the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Span names that differ from "<module>.<function>".
RENAMES = {
    "laurent.det_fraction_free": "laurent.det",
    "laurent.det_cofactor": "laurent.det",
    "identities.report_json_line": "cli.serialize",
    "cli.cmd_render": "cli.render",
}

# LaurentPoly methods that get spans; other methods count toward the caller.
METHOD_SPANS = {
    "__init__": "laurent.new",
    "__add__": "laurent.addsub",
    "__radd__": "laurent.addsub",
    "__sub__": "laurent.addsub",
    "__rsub__": "laurent.addsub",
    "__neg__": "laurent.addsub",
    "__mul__": "laurent.mul",
    "__rmul__": "laurent.mul",
    "exact_div": "laurent.exact_div",
    "to_pairs": "cli.serialize",
}

IDENTITIES = (
    "binet-cauchy",
    "q-binet-cauchy",
    "deviation-binet-cauchy",
    "kuperberg",
    "q-binomial-det",
    "watermelon-suite",
    "gessel-viennot",
    "zq-equals-w",
)

# (metric, span name, field) read straight off the span table.
_SPAN_FIELDS = (
    ("laurent.mul.calls", "laurent.mul", "calls"),
    ("laurent.mul.self_s", "laurent.mul", "self_s"),
    ("laurent.exact_div.calls", "laurent.exact_div", "calls"),
    ("laurent.exact_div.self_s", "laurent.exact_div", "self_s"),
    ("laurent.new.calls", "laurent.new", "calls"),
    ("laurent.new.self_s", "laurent.new", "self_s"),
    ("laurent.addsub.calls", "laurent.addsub", "calls"),
    ("laurent.addsub.self_s", "laurent.addsub", "self_s"),
    ("laurent.det.calls", "laurent.det", "calls"),
    ("laurent.det.self_s", "laurent.det", "self_s"),
    ("qanalogs.qbinomial.calls", "qanalogs.qbinomial", "calls"),
    ("tableaux.ssyt.yielded", "tableaux.enumerate_ssyt", "yielded"),
    ("tableaux.ssyt.self_s", "tableaux.enumerate_ssyt", "self_s"),
    ("tableaux.is_ssyt.calls", "tableaux.is_ssyt", "calls"),
    ("tableaux.is_ssyt.self_s", "tableaux.is_ssyt", "self_s"),
    ("paths.watermelons.yielded", "paths.enumerate_watermelons", "yielded"),
    ("paths.make_watermelon.calls", "paths.make_watermelon", "calls"),
    ("paths.make_watermelon.self_s", "paths.make_watermelon", "self_s"),
    ("paths.watermelon_genfunc.self_s", "paths.watermelon_genfunc", "self_s"),
    ("paths.closed_genfunc.self_s", "paths.closed_genfunc", "self_s"),
    ("paths.genfunc_det_forms.self_s", "paths.genfunc_det_forms", "self_s"),
    ("planepartitions.box.yielded", "planepartitions.enumerate_box", "yielded"),
    ("planepartitions.bijection.self_s", "planepartitions.gradient_bijection", "self_s"),
    ("planepartitions.bijection_inverse.self_s",
     "planepartitions.gradient_bijection_inverse", "self_s"),
    ("planepartitions.horizontal_steps.calls", "planepartitions.horizontal_steps", "calls"),
    ("schur.bialternant.calls", "schur.bialternant", "calls"),
    ("schur.bialternant.self_s", "schur.bialternant", "self_s"),
    ("schur.principal_product.self_s", "schur.principal_product", "self_s"),
    ("cli.serialize.self_s", "cli.serialize", "self_s"),
    ("cli.render.self_s", "cli.render", "self_s"),
    ("partitions.in_box.yielded", "partitions.enumerate_in_box", "yielded"),
)

_FIELD_INDEX = {"calls": 0, "total_s": 1, "self_s": 2, "yielded": 3}

# Every per-layer metric the traced pass reports, with its unit and direction.
LAYER_METRICS = (
    [(metric, "s" if field.endswith("_s") else "count", "lower")
     for metric, _, field in _SPAN_FIELDS]
    + [
        ("laurent.mul.term_pairs", "count", "lower"),
        ("laurent.det.max_dim", "count", "lower"),
        ("laurent.max_degree", "count", "lower"),
        ("laurent.max_coeff_bits", "bits", "lower"),
        ("qanalogs.qbinomial.hit_ratio", "ratio", "higher"),
        ("qanalogs.self_s", "s", "lower"),
        ("identities.reports", "count", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    + [(f"identities.case_s.{name}", "s", "lower") for name in IDENTITIES]
)


class Tracer:
    """Span table and counters of one traced pass."""

    def __init__(self):
        self.clock = time.process_time
        self.op = None
        # Open spans as [name, seconds covered by children]; the root is the op.
        self.stack = [["op", 0.0]]
        # (op, parent name, name) -> [calls, total_s, self_s, yielded]
        self.spans: dict[tuple, list] = {}
        self.counts = {"laurent.mul.term_pairs": 0, "laurent.det.max_dim": 0,
                       "laurent.max_degree": 0, "laurent.max_coeff_bits": 0}
        self.qbinomial = None

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op = op_id
        self.stack[:] = [[f"op.{kind}", 0.0]]

    def _close(self, parent: list, name: str, frame: list, dur: float, yielded: int) -> None:
        parent[1] += dur
        key = (self.op, parent[0], name)
        rec = self.spans.get(key)
        if rec is None:
            self.spans[key] = [1, dur, dur - frame[1], yielded]
        else:
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]
            rec[3] += yielded

    def wrap(self, fn, name: str, hook=None):
        """Span around fn; hook(args, result) runs after it, outside every span."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        stack, clock, close = self.stack, self.clock, self._close

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                close(parent, name, frame, dur, 0)
            if hook is not None:
                start = clock()
                hook(args, result)
                parent[1] += clock() - start
            return result

        return span

    def _wrap_generator(self, fn, name: str):
        stack, clock, close = self.stack, self.clock, self._close

        @functools.wraps(fn)
        def span(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [name, 0.0]
                stack.append(frame)
                start = clock()
                yielded = 0
                try:
                    item = next(inner)
                    yielded = 1
                except StopIteration:
                    return
                finally:
                    dur = clock() - start
                    stack.pop()
                    close(parent, name, frame, dur, yielded)
                yield item

        return span

    # ---- counters computed from arguments and results ----

    def _poly_size(self, poly) -> None:
        terms = poly.terms()
        if not terms:
            return
        counts = self.counts
        counts["laurent.max_degree"] = max(counts["laurent.max_degree"], terms[-1][0])
        bits = max(abs(c) for _, c in terms).bit_length()
        counts["laurent.max_coeff_bits"] = max(counts["laurent.max_coeff_bits"], bits)

    def _mul_hook(self, args, result) -> None:
        if result is NotImplemented:
            return
        a, b = args
        width = len(b.terms()) if hasattr(b, "terms") else int(b != 0)
        self.counts["laurent.mul.term_pairs"] += len(a.terms()) * width
        self._poly_size(result)

    def _div_hook(self, args, result) -> None:
        self._poly_size(result)

    def _det_hook(self, args, result) -> None:
        self.counts["laurent.det.max_dim"] = max(self.counts["laurent.det.max_dim"], args[0].rows)

    def layer_metrics(self, reports: int) -> dict[str, float]:
        """Per-layer metrics of the pass, except trace.overhead_ratio."""
        empty = [0, 0.0, 0.0, 0]
        by_name: dict[str, list] = {}
        for (_, _, name), rec in self.spans.items():
            acc = by_name.setdefault(name, list(empty))
            for i, v in enumerate(rec):
                acc[i] += v
        out = {}
        for metric, name, field in _SPAN_FIELDS:
            out[metric] = by_name.get(name, empty)[_FIELD_INDEX[field]]
        out.update(self.counts)
        info = self.qbinomial.cache_info() if self.qbinomial is not None else None
        lookups = info.hits + info.misses if info else 0
        out["qanalogs.qbinomial.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["qanalogs.self_s"] = sum(rec[2] for name, rec in by_name.items()
                                     if name.startswith("qanalogs."))
        out["identities.reports"] = reports
        for name in IDENTITIES:
            out[f"identities.case_s.{name}"] = by_name.get(f"identities.case.{name}", empty)[1]
        return out

    def top_spans(self) -> list[tuple[int, str, float]]:
        """(op, span name, self seconds) of the five largest self times."""
        rows = sorted(((rec[2], op, name) for (op, _, name), rec in self.spans.items()),
                      reverse=True)
        return [(op, name, seconds) for seconds, op, name in rows[:5]]


class _JsonProxy:
    """Stands in for the json module inside one qmelon module."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


def _is_own_function(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def install(tracer: Tracer) -> None:
    """Wrap every qmelon layer loaded in this process; there is no undo."""
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "qmelon" or name.startswith("qmelon.")]
    hooks = {"laurent.mul": tracer._mul_hook, "laurent.exact_div": tracer._div_hook,
             "laurent.det": tracer._det_hook}
    wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not _is_own_function(obj, mod.__name__):
                continue
            name = RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
            wrapped[id(obj)] = (obj, tracer.wrap(obj, name, hooks.get(name)))
            if name == "qanalogs.qbinomial":
                tracer.qbinomial = obj

    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])

    laurent = sys.modules["qmelon.laurent"]
    cls = laurent.LaurentPoly
    by_original: dict[int, object] = {}
    for attr, name in METHOD_SPANS.items():
        original = cls.__dict__.get(attr)
        if original is None:
            continue
        if id(original) not in by_original:
            by_original[id(original)] = tracer.wrap(original, name, hooks.get(name))
        setattr(cls, attr, by_original[id(original)])

    identities = sys.modules["qmelon.identities"]
    table = getattr(identities, "_CASE_FUNCS", {})
    for key, fn in list(table.items()):
        entry = wrapped.get(id(fn))
        table[key] = tracer.wrap(entry[1] if entry else fn, f"identities.case.{key}")

    proxy = _JsonProxy(tracer.wrap(json.dumps, "cli.serialize"))
    for name in ("qmelon.cli", "qmelon.identities"):
        sys.modules[name].json = proxy
