"""In-memory span tracing of gpiodac's layers, installed from outside the package.

Each layer is one module of ``gpiodac``. ``Tracer.install`` replaces every
public function of a traced layer with a wrapper that records a span (layer,
function, start, end, parent span, operation id, exception name) and puts the
wrapper in every gpiodac namespace that holds the function, so calls between
layers (``sizing.transfer_curve``, ``transient.solve_units``, ...) are spans
too and self time can subtract child spans. ``devices`` functions are leaves
called per Newton step, so they are counted, not spanned, and only where
another layer imported them: the recursion inside ``devices`` is not an
evaluation of its own.

``layer_metrics`` turns the spans and counters of one traced pass into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

SPANNED_LAYERS = ("network", "metrics", "sizing", "explorer", "transient", "hdlgen", "cli")
# Unit-device evaluations; devices' constructors such as calibrated_pair are not.
DEVICE_EVALS = frozenset(
    {"current_and_derivatives", "classify_region", "drain_current", "on_resistance",
     "midrange_resistance"}
)
CLI_FORMATTERS = frozenset({"transfer_csv", "csv_text", "json_text", "report_doc"})
CLI_SUBCOMMANDS = ("simulate", "extract", "size_two_resistor", "size_four_resistor",
                   "sweep", "transient_seed", "hdl", "hdl_staircase")
# Every per-layer metric with its unit. layer_metrics fills those read off the
# spans; cli.import_s, cli.cmd.* and trace.overhead_s come from the run itself.
LAYER_UNITS = {
    "network.calls": "count",
    "network.codes": "count",
    "network.busy_s": "s",
    "network.s_per_code": "s/code",
    "network.solver_errors": "count",
    "network.fail_busy_s": "s",
    "devices.evals": "count",
    "devices.evals_per_code": "evals/code",
    "sizing.busy_s": "s",
    "sizing.self_s": "s",
    "sizing.resolved_codes": "count",
    "explorer.points": "count",
    "explorer.busy_s": "s",
    "explorer.self_s": "s",
    "explorer.point_errors": "count",
    "metrics.calls": "count",
    "metrics.busy_s": "s",
    "transient.replays": "count",
    "transient.busy_s": "s",
    "transient.self_s": "s",
    "transient.events": "count",
    "transient.level_solves": "count",
    "transient.level_solves_per_event": "solves/event",
    "transient.glitch_scan_s": "s",
    "hdlgen.calls": "count",
    "hdlgen.busy_s": "s",
    "hdlgen.bytes": "bytes",
    "cli.import_s": "s",
    "cli.load_config_s": "s",
    "cli.format_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    **{f"cli.cmd.{sub}_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "trace.overhead_s": "s",
}

# Span tuple fields.
LAYER, NAME, START, END, PARENT, OP, ERROR = range(7)


def _result_counts(name: str, args: tuple, kwargs: dict, result) -> dict[str, int]:
    """Counters read off a call's arguments or result."""
    if name == "synthesize":
        return {"transient.events": len(result.times) - 1}
    if name in ("generate_dac", "generate_staircase"):
        return {"hdlgen.bytes": len(result.rtl_text) + len(result.constraints_text)}
    if name == "manifest_text":
        return {"hdlgen.bytes": len(result)}
    if name == "sweep_parallel":
        return {
            "explorer.points": len(result),
            "explorer.point_errors": sum(p.status != "ok" for p in result),
        }
    if name == "write_atomic":
        text = args[1] if len(args) > 1 else kwargs["text"]
        return {"cli.bytes_written": len(text.encode())}
    return {}


class Tracer:
    """Records spans and counters while installed; restores the package on uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span_wrapper(self, layer: str, fn):
        name = fn.__name__
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (layer, name, start, end, parent, self.op, error)
            for key, n in _result_counts(name, args, kwargs, result).items():
                self._count(key, n)
            return result

        return wrapper

    def _count_wrapper(self, layer: str, fn):
        key = f"{layer}.evals"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every imported gpiodac layer."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "gpiodac" or name.startswith("gpiodac."))
        }
        wrappers: dict[int, tuple[object, str]] = {}
        for layer in SPANNED_LAYERS + ("devices",):
            mod = modules.get(f"gpiodac.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                if layer == "devices":
                    if attr in DEVICE_EVALS:
                        wrappers[id(fn)] = (self._count_wrapper(layer, fn), mod.__name__)
                else:
                    wrappers[id(fn)] = (self._span_wrapper(layer, fn), "")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is None or entry[1] == mod.__name__:
                    continue  # counted leaves stay unwrapped in their own module
                self._patched.append((mod, attr, value))
                setattr(mod, attr, entry[0])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_metrics(spans: list[tuple], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans may come from several processes)."""
    out = dict.fromkeys(LAYER_UNITS, 0.0)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def ancestors(idx: int):
        parent = spans[idx][PARENT]
        while parent >= 0:
            yield spans[parent]
            parent = spans[parent][PARENT]

    for idx, span in enumerate(spans):
        layer, name = span[LAYER], span[NAME]
        dur = span[END] - span[START]
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        entry = parent is None or parent[LAYER] != layer
        self_key = f"{layer}.self_s"
        if self_key in out:
            out[self_key] += dur - child_time[idx]
        if entry:
            busy_key = f"{layer}.busy_s"
            if busy_key in out:
                out[busy_key] += dur
            if layer in ("network", "metrics", "hdlgen"):
                out[f"{layer}.calls"] += 1
            if layer == "network" and span[ERROR] is not None:
                out["network.fail_busy_s"] += dur
                if span[ERROR] == "SolverError":
                    out["network.solver_errors"] += 1
        if layer == "network" and name == "solve_units":
            out["network.codes"] += 1
            if parent is not None and parent[LAYER] == "transient":
                out["transient.level_solves"] += 1
            if any(a[LAYER] == "sizing" for a in ancestors(idx)):
                out["sizing.resolved_codes"] += 1
        elif layer == "transient":
            if name == "synthesize":
                out["transient.replays"] += 1
            elif name == "detect_glitches":
                out["transient.glitch_scan_s"] += dur
        elif layer == "cli":
            if name == "load_config":
                out["cli.load_config_s"] += dur
            elif name == "write_atomic":
                out["cli.write_s"] += dur
            elif name in CLI_FORMATTERS and (parent is None or parent[NAME] not in CLI_FORMATTERS):
                out["cli.format_s"] += dur

    for key in ("transient.events", "hdlgen.bytes", "explorer.points",
                "explorer.point_errors", "cli.bytes_written"):
        out[key] += counts.get(key, 0)
    out["devices.evals"] += counts.get("devices.evals", 0)
    if out["network.codes"]:
        out["network.s_per_code"] = out["network.busy_s"] / out["network.codes"]
        out["devices.evals_per_code"] = out["devices.evals"] / out["network.codes"]
    if out["transient.events"]:
        out["transient.level_solves_per_event"] = (
            out["transient.level_solves"] / out["transient.events"]
        )
    return out


def merge_spans(groups: list[list[tuple]]) -> list[tuple]:
    """Concatenate span lists recorded by separate processes, re-basing parents."""
    merged: list[tuple] = []
    for group in groups:
        base = len(merged)
        for span in group:
            span = tuple(span)
            parent = span[PARENT] + base if span[PARENT] >= 0 else -1
            merged.append(span[:PARENT] + (parent,) + span[PARENT + 1:])
    return merged
