"""Run one modkv CLI job in-process, with spans around the package's layers.

    python3 perfbench/traced_job.py SUMMARY.json -- <modkv arguments>

The package has no timing hooks, so this file wraps its public functions from
outside. Each wrapper replaces the function at every module attribute that
holds it, because a caller looks the name up in its own module: `plan_budgets`
is reached through both `modkv.simulate` and `modkv.cli`. Modules are resolved
with importlib, since `modkv.simulate` on the package is the re-exported
function, not the module.

Spans (name, start, end, parent) stay in memory while the job runs. At the end
the file writes SUMMARY.json with per-span-name calls, self and total time,
bytes and peak-RSS growth, and SUMMARY.spans.json with the raw spans. The exit
code is the one `modkv.cli.main` returned.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path

# (defining module, attribute) of every wrapped function. Span names are
# "<module>.<function>". Helpers left out of this list (trace_to_text,
# window_scores, ...) stay unwrapped, so their time counts as their caller's
# self time.
SPANS = (
    ("cli", "main"),
    ("trace", "load_trace"),
    ("trace", "trace_from_text"),
    ("trace", "trace_from_binary"),
    ("trace", "AttentionTrace.validate"),
    ("trace", "save_trace"),
    ("synth", "generate_synthetic"),
    ("importance", "proxy_importance_matrix"),
    ("importance", "head_text_share"),
    ("importance", "sparsity_curve"),
    ("policy", "plan_budgets"),
    ("policy", "build_masks"),
    ("policy", "coverage_counts"),
    ("baselines", "baseline_mask"),
    ("simulate", "compare"),
    ("simulate", "replay"),
    ("report", "write_table"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


SPAN_NAMES = tuple(span_name(m, a) for m, a in SPANS)

# Spans whose peak-RSS growth is recorded: the growth of the process's peak
# resident set while the span ran. Each is the first large allocation of its
# job, so the growth is the span's own peak.
RSS_SPANS = {"trace.load_trace", "synth.generate_synthetic"}
# Spans whose file size is recorded after the call, by parameter name.
BYTES_SPANS = {"trace.load_trace": "path", "trace.save_trace": "path", "report.write_table": "path"}
FAILED_WARNING = "policy failed"


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder; one per job."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.bytes: dict[str, int] = {}
        self.rss_growth_kib: dict[str, int] = {}
        self.seen_inputs: dict[tuple, object] = {}
        self.repeats = 0
        self.failed_cells = 0

    def wrap(self, name: str, fn):
        byte_param = BYTES_SPANS.get(name)
        signature = inspect.signature(fn) if byte_param else None
        track_rss = name in RSS_SPANS

        def wrapper(*args, **kwargs):
            if name == "importance.proxy_importance_matrix":
                self._note_input(*args, **kwargs)
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self.stack[-1] if self.stack else -1))
            self.stack.append(index)
            rss_before = _peak_rss_kib() if track_rss else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, self.spans[index][3])
            if track_rss:
                growth = _peak_rss_kib() - rss_before
                self.rss_growth_kib[name] = max(self.rss_growth_kib.get(name, 0), growth)
            if signature is not None:
                path = signature.bind(*args, **kwargs).arguments[byte_param]
                self.bytes[name] = self.bytes.get(name, 0) + os.path.getsize(path)
            if name == "simulate.compare":
                self.failed_cells += sum(
                    any(w.startswith(FAILED_WARNING) for w in rep.warnings) for rep in result
                )
            return result

        return wrapper

    def _note_input(self, trace, proxy=None):
        # A call repeats when the same trace object and proxy count were seen
        # before in this job. The trace is held so its id cannot be reused.
        key = (id(trace), None if proxy is None else proxy.proxy_count)
        if key in self.seen_inputs:
            self.repeats += 1
        else:
            self.seen_inputs[key] = trace

    def summary(self) -> dict:
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for (name, start, end, _), children in zip(self.spans, child_s):
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        for name, value in self.bytes.items():
            stats[name]["bytes"] = value
        for name, kib in self.rss_growth_kib.items():
            stats[name]["peak_rss_growth_mib"] = kib / 1024.0
        return {
            "spans": stats,
            "repeats": {"importance.proxy_importance_matrix": self.repeats},
            "failed_cells": self.failed_cells,
        }


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap every function in SPANS at each module attribute that holds it.

    Returns the patched sites per span name. Raises RuntimeError when a
    function is missing, so a renamed layer fails loudly.
    """
    importlib.import_module("modkv.cli")
    modules = {
        name: mod for name, mod in sys.modules.items()
        if name == "modkv" or name.startswith("modkv.")
    }
    sites: dict[str, list[str]] = {}
    # SPANS[0] is cli.main, which main() calls through the tracer directly.
    for module, attr in SPANS[1:]:
        name = span_name(module, attr)
        home = importlib.import_module(f"modkv.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name, None)
            original = None if cls is None else cls.__dict__.get(method)
            if original is None:
                raise RuntimeError(f"modkv.{module} has no {attr}")
            setattr(cls, method, tracer.wrap(name, original))
            sites[name] = [f"modkv.{module}.{cls_name}"]
            continue
        original = getattr(home, attr, None)
        if not callable(original):
            raise RuntimeError(f"modkv.{module} has no function {attr}")
        wrapper = tracer.wrap(name, original)
        sites[name] = []
        for mod_name, mod in sorted(modules.items()):
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                sites[name].append(mod_name)
    return sites


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    summary_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    sites = install(tracer)
    cli = importlib.import_module("modkv.cli")
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    result = tracer.summary()
    result["sites"] = sites
    result["exit"] = code
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    names = sorted(set(SPAN_NAMES))
    index = {n: i for i, n in enumerate(names)}
    with open(Path(summary_path).with_suffix(".spans.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "names": names,
                "columns": ["name", "start_s", "end_s", "parent"],
                "spans": [[index[n], s, e, p] for n, s, e, p in tracer.spans],
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
