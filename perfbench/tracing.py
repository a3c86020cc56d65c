"""Per-layer tracing installed from outside the library.

The tracer replaces the public callables at each module boundary with
wrappers. A module-level function is replaced in every loaded fqharmonic
module that holds it, so names imported directly (``harness.suites`` imports
``images1``, ``fourier0``, ``fourier2`` and the rest) are traced too; a
method is replaced on its class.

Two kinds of wrapper:

* a counter, for the scalar arithmetic, which is called too often to time;
* a span, which records its layer, start, end and parent span. A layer's
  self time is its spans' time minus the time their child spans cover, and
  its call count counts entries into the layer from outside it, so
  ``C1Fn.at`` calling ``fn_at`` is one call.

Spans stay in memory, up to a cap, and are written out at the end.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


def _fourier_sizes(counts, layer, args, result):
    table = args[0]
    n = len(table)
    counts[layer + ".points"] += n
    counts[layer + ".pair_ops"] += n * sum(1 for c in table if c)


def _out_points(counts, layer, args, result):
    counts[layer + ".points"] += len(result)


def _checked(name):
    def measure(counts, layer, args, result):
        counts[f"{layer}.{name}"] += result.cases

    return measure


# (layer, module under fqharmonic, callables, measure hook, name of the total-time metric)
SPANS = (
    ("tables.fourier", "tables", ("fourier",), _fourier_sizes, None),
    (
        "tables.transport", "tables",
        ("expand", "contract", "apply_perm", "translate", "check_table"), _out_points, None,
    ),
    ("tables.pointwise", "tables", ("scale", "add", "mul_pointwise", "dot"), None, None),
    ("dim0.fourier0", "dim0", ("fourier0",), None, None),
    ("dim0.echelon", "dim0", ("rref", "annihilator0"), None, None),
    ("c1.at", "c1", ("C1Fn.at", "C1Dist.at", "fn_at", "dist_at"), None, None),
    ("c1_triples.images1", "c1_triples", ("images1",), None, None),
    ("c1_triples.poisson1", "c1_triples", ("poisson1_verify",), _checked("windows"), None),
    ("c2.at", "c2", ("D2Elem.at", "D2Dist.at", "E2Fn.at"), None, None),
    ("c2.fourier2", "c2", ("fourier2",), None, None),
    ("c2_triples.images2", "c2_triples", ("images2",), None, None),
    ("c2_triples.poisson2", "c2_triples", ("poisson2_verify",), _checked("biwindows"), None),
    ("c2_triples.validate", "c2_triples", ("GradedC2Triple.__post_init__",), None, None),
    ("c2_aut.rep_act", "c2_aut", ("rep_act",), None, None),
    ("harness.config", "harness.config", ("parse_config",), None, "parse_s"),
    ("harness.rng", "harness.rng", ("LCG.next_u32", "LCG.randint", "LCG.choice", "LCG.fraction"), None, None),
    ("harness.report", "harness.report", ("emit_report",), None, "emit_s"),
)

SPAN_CAP = 100_000  # spans kept in memory; later ones are only counted

COUNTERS = (
    ("exactnum.cyc_mul", "exactnum", "CycNum.__mul__"),
    ("exactnum.cyc_add", "exactnum", "CycNum.__add__"),
)


def patch(mod_name: str, name: str, make) -> None:
    """Replace ``fqharmonic.<mod_name>.<name>`` by ``make(original)``.

    A method (``Class.method``) is replaced on its class; a function in
    every loaded fqharmonic module that holds it.
    """
    mod = sys.modules.get("fqharmonic." + mod_name)
    if mod is None:
        return
    if "." in name:
        cls_name, meth = name.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return
    orig = getattr(mod, name)
    wrapped = make(orig)
    for m in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fqharmonic"]:
        for key, value in list(vars(m).items()):
            if value is orig:
                setattr(m, key, wrapped)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (id, parent id or -1, layer, start, end)
        self.dropped = 0
        self.counts: defaultdict = defaultdict(float)  # flat metric name -> value
        self._stack: list = []
        self._next_id = 0

    def reset(self) -> None:
        """Zero the metrics; recorded spans are kept."""
        self.counts.clear()

    def install(self) -> None:
        """Wrap every target in the fqharmonic modules loaded now."""
        for layer, mod_name, names, measure, total in SPANS:
            for name in names:
                patch(mod_name, name, lambda fn: self._span(layer, fn, measure, total))
        for layer, mod_name, name in COUNTERS:
            patch(mod_name, name, lambda fn: self._counter(layer, fn))

    def _counter(self, layer, fn):
        counts, key = self.counts, layer + ".calls"

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _span(self, layer, fn, measure, total):
        counts, stack, spans = self.counts, self._stack, self.spans
        calls_key, self_key = layer + ".calls", layer + ".self_s"
        total_key = f"{layer}.{total}" if total else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                counts[self_key] += dur - frame[1]
                if parent is None or parent[0] != layer:
                    counts[calls_key] += 1
                    if total_key:
                        counts[total_key] += dur
                if parent is not None:
                    parent[1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[2], parent[2] if parent else -1, layer, t0, t1))
                else:
                    self.dropped += 1
            if measure is not None:
                measure(counts, layer, args, result)
            return result

        return traced

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
