"""The benchmark's traced-span contract, checked at a tiny shape.

A traced benchmark run fails a job that records no call of a span it expects
(`expected_spans` in `perfbench/run.py`). Here `compare` jobs on a binary and
a text trace, a `sweep` job, and `analyze` jobs on both containers run under
`perfbench/traced_job.py`, and `traced_problem` judges their summaries, so a
refactor that stops calling a traced layer fails the suite, not only a
traced benchmark run. The sweep must also plan each threshold cell once and
build each distinct keep-set once, however many cells repeat it. The test
only reads `perfbench/`.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from modkv import PolicyConfig, PolicyMode, build_masks, load_trace, plan_budgets
from modkv.cli import BASELINE_NAMES, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
POLICIES = ("adaptive", "proportional", "recent_window", "sink_window",
            "cumulative_topk", "fixed_priority")
SWEEP_BUDGETS = (0.2, 0.4)
SWEEP_THETAS = (0.5, 0.9)


@pytest.fixture(scope="module")
def bench():
    """`perfbench/run.py` as a module; it imports `traced_job` from its own
    directory."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    sys.modules[spec.name] = module
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tiny_traces(tmp_path_factory):
    """The test's trace in each container, by the `reads` a job of it has."""
    out = tmp_path_factory.mktemp("tiny")
    for kind in ("binary", "text"):
        assert main(["generate", "--trace-format", kind, "--layers", "2", "--heads", "2",
                     "--prompt-len", "64", "--decode-steps", "2", "--head-bias", "0.1,0.9",
                     "--name", "trace", "--out", str(out)]) == 0
    return {"binary": out / "trace.mkvt", "text": out / "trace.json"}


def sweep_cells(path) -> tuple[int, int, int]:
    """(baseline cells, threshold cells, distinct keep-sets) of the test's
    sweep on the trace at `path`. Each baseline cell is its own keep-set;
    threshold cells that keep the same positions are one."""
    trace = load_trace(path)
    keeps = set()
    baselines = thresholds = 0
    for budget in SWEEP_BUDGETS:
        for index, theta in enumerate(SWEEP_THETAS):
            for name in POLICIES:
                if name in BASELINE_NAMES:
                    # Baselines ignore theta: a sweep runs them once a budget.
                    baselines += index == 0
                    continue
                thresholds += 1
                spec = PolicyConfig(budget, theta, mode=PolicyMode(name))
                keeps.add(build_masks(trace, plan_budgets(trace, spec), spec).keep.tobytes())
    return baselines, thresholds, baselines + len(keeps)


@pytest.mark.parametrize("kind, reads, extra", [
    ("compare", "binary", ("--budget", "0.1,0.2")),
    ("compare", "text", ("--budget", "0.1,0.2")),
    ("sweep", "binary", (*(a for p in POLICIES for a in ("--policy", p)),
                         "--budget", ",".join(map(str, SWEEP_BUDGETS)),
                         "--thetas", ",".join(map(str, SWEEP_THETAS)))),
    ("analyze", "binary", ()),
    ("analyze", "text", ()),
])
def test_traced_job_records_every_expected_span(bench, tiny_traces, tmp_path, kind, reads,
                                                extra):
    tiny_trace = tiny_traces[reads]
    out = tmp_path / kind
    argv = (kind, "--trace", str(tiny_trace), *extra, "--out", str(out))
    summary_path = tmp_path / f"{kind}.traced.json"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_job.py"), str(summary_path), "--", *argv],
        env=bench.child_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(summary_path.read_text())
    job = bench.Job(kind, argv, out, reads=reads)
    assert bench.traced_problem(summary, job) is None
    assert summary["failed_cells"] == 0
    if kind == "sweep":
        # Adaptive keeps its coverage needs at both budgets, so the sweep
        # builds fewer keep-sets than it has cells, and replays them all in
        # one pass over the trace's decode steps.
        baselines, thresholds, distinct = sweep_cells(tiny_trace)
        assert distinct < baselines + thresholds
        calls = {name: summary["spans"][name]["calls"] for name in
                 ("simulate.replay", "policy.plan_budgets", "policy.build_masks",
                  "baselines.baseline_mask")}
        assert calls["policy.build_masks"] + calls["baselines.baseline_mask"] == distinct
        assert calls["baselines.baseline_mask"] == baselines
        assert calls["policy.plan_budgets"] == thresholds
        assert calls["simulate.replay"] == 1
