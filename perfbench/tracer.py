"""Span tracing of the ``beyondcp`` layers, installed from outside the package.

``install`` rebinds every public function of each layer module (the names in
its ``__all__``) in every ``beyondcp`` module that holds it, and likewise
``Operator.__post_init__``, ``OperatorSubspace.contains`` and
``numpy.linalg.svd``, to a wrapper that records a span: name, start, end and
parent span.  Spans are recorded only while ``recording`` is set, which the
worker does around each timed op, so oracle checks are not traced.

Self time is a span's duration minus the time its child spans cover.  It is
accumulated as spans close; the spans themselves are kept in memory (up to
``MAX_SPANS``) and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = (
    "operators",
    "subspaces",
    "consistency",
    "maps",
    "dilations",
    "catalog",
    "serialization",
    "cli",
)
MAX_SPANS = 100_000


class Tracer:
    def __init__(self) -> None:
        self.recording = False
        self.op = -1
        self._stack: list[list] = []  # [span id, start ns, child ns]
        self._next_id = 0
        self.spans: list[tuple] = []  # (op, id, parent, name, start ns, end ns)
        self.calls: Counter = Counter()  # by span name
        self.self_ns: Counter = Counter()  # by span name
        self.counts: Counter = Counter()  # extra counters, by metric name
        self.op_self_ns = 0  # sum of self time in the current op

    def begin_op(self, index: int) -> None:
        self.op = index
        self.op_self_ns = 0
        self.recording = True

    def end_op(self) -> int:
        """Stop recording; return the op's summed self time in ns."""
        self.recording = False
        return self.op_self_ns

    def wrap(self, name: str, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            tracer._next_id += 1
            frame = [tracer._next_id, time.perf_counter_ns(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span_id, start, child = frame
                duration = end - start
                self_ns = duration - child
                parent = 0
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                tracer.calls[name] += 1
                tracer.self_ns[name] += self_ns
                tracer.op_self_ns += self_ns
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((tracer.op, span_id, parent, name, start, end))
            if on_call is not None:
                on_call(tracer.counts, args, kwargs, result)
            return result

        return traced

    def write_spans(self, path: Path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["op", "id", "parent", "name", "start_ns", "end_ns"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _count_states(counts, args, kwargs, result) -> None:
    counts["maps.positivity_scan.states_tested"] += result.n_tested


def _count_accepts(counts, args, kwargs, result) -> None:
    counts["maps.positive_domain_membership.accepted"] += bool(result)


def _count_svd_flops(counts, args, kwargs, result) -> None:
    shape = np.shape(args[0] if args else kwargs["a"])
    m, n = shape[-2:]
    counts["linalg.svd.flops"] += int(np.prod(shape[:-2])) * m * n * min(m, n)


_ON_CALL = {
    "maps.positivity_scan": _count_states,
    "maps.positive_domain_membership": _count_accepts,
}


def _rebind(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Instrument the imported ``beyondcp`` package and ``numpy.linalg.svd``."""
    package = [m for n, m in sys.modules.items() if n == "beyondcp" or n.startswith("beyondcp.")]
    for layer in LAYERS:
        module = importlib.import_module(f"beyondcp.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                _rebind(package, fn, tracer.wrap(name, fn, _ON_CALL.get(name)))
    from beyondcp.operators import Operator
    from beyondcp.subspaces import OperatorSubspace

    Operator.__post_init__ = tracer.wrap("operators.Operator.new", Operator.__post_init__)
    OperatorSubspace.contains = tracer.wrap("subspaces.contains", OperatorSubspace.contains)
    linalg = [m for n, m in sys.modules.items() if n.startswith("numpy.linalg")]
    _rebind(linalg, np.linalg.svd, tracer.wrap("linalg.svd", np.linalg.svd, _count_svd_flops))


# name -> unit of every per-layer metric, in report order
UNITS = {
    **{
        f"{layer}.{kind}": unit
        for layer in LAYERS
        for kind, unit in (("calls", "1/op"), ("self_ms", "ms/op"), ("share", "fraction"))
    },
    "operators.partial_trace.calls": "1/op",
    "operators.adjoint_action.calls": "1/op",
    "operators.Operator.new": "1/op",
    "subspaces.span_from_generators.calls": "1/op",
    "subspaces.subspace_intersection.self_ms": "ms/op",
    "subspaces.kernel_of_partial_trace.calls": "1/op",
    "subspaces.contains.calls": "1/op",
    "consistency.is_unitary_consistent.calls": "1/op",
    "consistency.consistent_kernel.self_ms": "ms/op",
    "maps.derive_map.calls": "1/op",
    "maps.is_cp.self_ms": "ms/op",
    "maps.positivity_scan.states_tested": "1/op",
    "maps.positive_domain_membership.accept_ratio": "fraction",
    "dilations.swap_representation.self_ms": "ms/op",
    "dilations.verify_representation.calls": "1/op",
    "serialization.validate_document.self_ms": "ms/op",
    "serialization.emit_report.self_ms": "ms/op",
    "linalg.svd.calls": "1/op",
    "linalg.svd.self_ms": "ms/op",
    "linalg.svd.flops": "computed-flop/op",
    "trace.overhead": "ratio",
}


def layer_metrics(tracer: Tracer, n_ops: int, wall_ns: int) -> dict[str, float]:
    """Per-op layer metrics over ``n_ops`` traced ops of total wall time ``wall_ns``.

    ``trace.overhead`` is left to the caller, which also has the untraced rate.
    """
    calls, self_ns = Counter(), Counter()
    for name, c in tracer.calls.items():
        calls[name.split(".")[0]] += c
        self_ns[name.split(".")[0]] += tracer.self_ns[name]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / n_ops
        out[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / n_ops
        out[f"{layer}.share"] = self_ns[layer] / wall_ns
    for metric in UNITS:
        if metric in out or metric == "trace.overhead":
            continue
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = tracer.calls[base] / n_ops
        elif kind == "self_ms":
            out[metric] = tracer.self_ns[base] / 1e6 / n_ops
        elif kind == "accept_ratio":
            attempts = tracer.calls[base]
            out[metric] = tracer.counts[f"{base}.accepted"] / attempts if attempts else 0.0
        elif metric == "operators.Operator.new":
            out[metric] = tracer.calls[metric] / n_ops
        else:
            out[metric] = tracer.counts[metric] / n_ops
    return out
