"""Span tracing around wattrank's public functions, from the benchmark side.

``Tracer.active`` swaps each traced module attribute for a wrapper that
records a span (name, start, end, parent span, op id) plus the counts seen
at that boundary, and puts the originals back on exit.  Spans stay in memory
until ``write`` at the end of the run.  ``per_layer`` turns them into the
``<module>.<function>.<measure>`` metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    parent: int | None
    op: str
    end_ns: int = 0
    counts: dict = field(default_factory=dict)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Wraps the functions in ``TRACED`` of the modules in namespace ``w``.

    ``files`` maps each generated file path to what the generator knows about
    it (lines and kernel name of a PTX file, data rows of a power log), so
    work counts need no extra reads inside the timed region.
    """

    def __init__(self, w, files: dict):
        self.w = w
        self.files = files
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = "setup"

    def _wrap(self, name, original, observe):
        def traced(*args, **kwargs):
            span = Span(
                len(self.spans), name, 0, self._stack[-1] if self._stack else None, self._op
            )
            self.spans.append(span)
            self._stack.append(span.span_id)
            span.start_ns = time.perf_counter_ns()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
                if observe is not None:  # result is None when the call raised
                    span.counts = observe(self, args, kwargs, result) or {}

        return traced

    @contextmanager
    def active(self, op: str):
        """Trace every call made inside the block, tagged with ``op``."""
        self._op = op
        saved = []
        for module_name, function, observe, attr_module in TRACED:
            module = getattr(self.w, attr_module or module_name)
            original = getattr(module, function)
            saved.append((module, function, original))
            setattr(module, function, self._wrap(f"{module_name}.{function}", original, observe))
        try:
            yield
        finally:
            for module, function, original in reversed(saved):
                setattr(module, function, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start_ns": s.start_ns,
                    "end_ns": s.end_ns, "parent": s.parent, "op": s.op,
                    "counts": s.counts,
                }) + "\n")


def _parsed(tracer, args, kwargs, doc):
    """The kernel counts as attempted even when parsing raised."""
    info = tracer.files[str(_arg(args, kwargs, 0, "path"))]
    if doc is None:
        return {"kernel": info["kernel"]}
    return {
        "kernel": info["kernel"],
        "lines": info["lines"],
        "instructions": len(doc.instructions),
        "skipped": doc.skipped_directive_count,
    }


def _power(tracer, args, kwargs, trace):
    if trace is None:
        return None
    rows = tracer.files[str(_arg(args, kwargs, 0, "path"))]["rows"]
    return {"rows": rows, "dropped": rows - len(trace.samples)}


def _trained(tracer, args, kwargs, result):
    if result is None:
        return None
    config = _arg(args, kwargs, 2, "config") or tracer.w.estimator.TrainConfig()
    _, history = result
    epochs = len(history.train_mse)
    return {
        "epochs": epochs,
        "best_epoch": history.best_epoch,
        "early_stopped": int(epochs < config.epochs),
    }


# (module, function, observer, module whose attribute is swapped).  ranking
# calls ``predict`` through its own global, so that is the name wrapped to
# make predict spans children of rank_devices.
TRACED = (
    ("ptx_parser", "parse_ptx_file", _parsed, None),
    ("instruction_profiler", "profile", lambda t, a, k, r: r and {"instructions": r.total}, None),
    ("telemetry_ingest", "load_run_meta", None, None),
    ("telemetry_ingest", "parse_power_csv", _power, None),
    ("telemetry_ingest", "build_run_record", None, None),
    ("device_catalog", "default_catalog", None, None),
    ("device_catalog", "load_catalog", None, None),
    ("device_catalog", "find_device", None, None),
    ("dataset_builder", "make_sample", None, None),
    ("dataset_builder", "sample_to_json", None, None),
    ("dataset_builder", "sample_from_json", None, None),
    ("dataset_builder", "assemble", lambda t, a, k, r: r and {
        "train_rows": len(r.train_indices), "val_rows": len(r.val_indices)}, None),
    ("dataset_builder", "save_dataset", None, None),
    ("dataset_builder", "load_dataset", None, None),
    ("estimator", "init_model", None, None),
    ("estimator", "train", _trained, None),
    ("estimator", "fit_linear_baseline", None, None),
    ("estimator", "evaluate", None, None),
    ("estimator", "save_model", None, None),
    ("estimator", "load_model", None, None),
    ("estimator", "predict", lambda t, a, k, r: r and {"clamped": int(r.clamped)}, "ranking"),
    ("ranking", "rank_devices", lambda t, a, k, r: r and {"excluded": len(r.excluded)}, None),
    ("ranking", "report", None, None),
)


@dataclass
class _Layer:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    counts: dict = field(default_factory=dict)

    def total(self, key):
        return self.counts.get(key, 0)

    def ms(self):
        return self.busy_ns / 1e6 / self.calls if self.calls else 0.0


def _layers(spans: list[Span]) -> dict[str, _Layer]:
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end_ns - s.start_ns
    layers = {f"{m}.{f}": _Layer() for m, f, _, _ in TRACED}
    kernels: dict[str, set] = {}
    for s in spans:
        layer = layers[s.name]
        layer.calls += 1
        layer.busy_ns += s.end_ns - s.start_ns
        layer.self_ns += s.end_ns - s.start_ns - child_ns[s.span_id]
        for key, value in s.counts.items():
            if key == "kernel":
                kernels.setdefault(s.name, set()).add(value)
            else:
                layer.counts[key] = layer.counts.get(key, 0) + value
    for name, names in kernels.items():
        layers[name].counts["distinct"] = len(names)
    return layers


def _per(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(spans: list[Span], overhead_ms: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over every traced call (set-up and traced ops).

    ``ms`` and ``self_ms`` are mean busy milliseconds per call; ``calls`` and
    the work counts are totals; ``epochs``, ``best_epoch`` and the split
    sizes are means per call; a function that did no work reports 0.
    """
    L = _layers(spans)
    parse = L["ptx_parser.parse_ptx_file"]
    csv_ = L["telemetry_ingest.parse_power_csv"]
    fit = L["estimator.train"]
    prof = L["instruction_profiler.profile"]
    predict = L["estimator.predict"]
    assemble = L["dataset_builder.assemble"]
    out = {
        "ptx_parser.parse_ptx_file.ms": (parse.ms(), "ms"),
        "ptx_parser.parse_ptx_file.calls": (parse.calls, "count"),
        "ptx_parser.parse_ptx_file.us_per_line": (
            _per(parse.busy_ns / 1e3, parse.total("lines")), "us"),
        "ptx_parser.parse_ptx_file.unique_share": (
            _per(parse.total("distinct"), parse.calls), "share"),
        "ptx_parser.lines": (parse.total("lines"), "count"),
        "ptx_parser.instructions": (parse.total("instructions"), "count"),
        "ptx_parser.skipped_statements": (parse.total("skipped"), "count"),
        "instruction_profiler.profile.ms": (prof.ms(), "ms"),
        "instruction_profiler.profile.calls": (prof.calls, "count"),
        "instruction_profiler.profile.instructions": (prof.total("instructions"), "count"),
        "telemetry_ingest.parse_power_csv.ms": (csv_.ms(), "ms"),
        "telemetry_ingest.parse_power_csv.calls": (csv_.calls, "count"),
        "telemetry_ingest.parse_power_csv.rows": (csv_.total("rows"), "count"),
        "telemetry_ingest.parse_power_csv.us_per_row": (
            _per(csv_.busy_ns / 1e3, csv_.total("rows")), "us"),
        "telemetry_ingest.parse_power_csv.zero_w_dropped": (csv_.total("dropped"), "count"),
    }
    for name in (
        "telemetry_ingest.load_run_meta", "telemetry_ingest.build_run_record",
        "device_catalog.default_catalog", "device_catalog.load_catalog",
        "device_catalog.find_device", "dataset_builder.make_sample",
        "dataset_builder.sample_to_json", "dataset_builder.sample_from_json",
        "dataset_builder.assemble", "dataset_builder.save_dataset",
        "dataset_builder.load_dataset",
    ):
        out[f"{name}.ms"] = (L[name].ms(), "ms")
    out["dataset_builder.assemble.train_rows"] = (
        _per(assemble.total("train_rows"), assemble.calls), "count")
    out["dataset_builder.assemble.val_rows"] = (
        _per(assemble.total("val_rows"), assemble.calls), "count")
    out.update({
        "estimator.train.ms": (fit.ms(), "ms"),
        "estimator.train.epochs": (_per(fit.total("epochs"), fit.calls), "count"),
        "estimator.train.best_epoch": (_per(fit.total("best_epoch"), fit.calls), "epoch"),
        "estimator.train.us_per_epoch": (_per(fit.busy_ns / 1e3, fit.total("epochs")), "us"),
        "estimator.train.early_stopped_share": (
            _per(fit.total("early_stopped"), fit.calls), "share"),
    })
    for name in ("init_model", "fit_linear_baseline", "evaluate", "save_model", "load_model"):
        out[f"estimator.{name}.ms"] = (L[f"estimator.{name}"].ms(), "ms")
    rank = L["ranking.rank_devices"]
    out.update({
        "estimator.predict.ms": (predict.ms(), "ms"),
        "estimator.predict.calls": (predict.calls, "count"),
        "estimator.predict.clamped": (predict.total("clamped"), "count"),
        "ranking.rank_devices.self_ms": (_per(rank.self_ns / 1e6, rank.calls), "ms"),
        "ranking.report.ms": (L["ranking.report"].ms(), "ms"),
        "ranking.excluded": (rank.total("excluded"), "count"),
        "trace.spans": (len(spans), "count"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    })
    return out
