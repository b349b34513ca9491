"""Tables loaded from a trace file: `TraceTables.load`.

A `run`, `compare` or `sweep` job keeps only the tables its policies read.
The loaded tables must equal, bit for bit, those of an in-memory trace
loaded with the same rows, while the trace itself is gone; and a job over
several traces must hold one trace's tables at a time.
"""

import weakref

import pytest

import modkv.policy as policy_module
from conftest import small_spec, traced_peak
from modkv import (
    BaselineConfig,
    BaselineKind,
    ParameterError,
    PolicyConfig,
    PolicyMode,
    ProxyConfig,
    TraceTables,
    compare,
    generate_synthetic,
    load_trace,
    plan_budgets,
    save_trace,
)
from modkv.cli import main

N = 40
SPECS = [
    PolicyConfig(0.2, 0.7, ProxyConfig(5)),
    PolicyConfig(0.3, 0.9, ProxyConfig(12), mode=PolicyMode.PROPORTIONAL),
    PolicyConfig(0.3, 0.5, ProxyConfig(N + 5)),  # clamps to the prompt
    BaselineConfig(BaselineKind.CUMULATIVE_TOPK, 0.2, observation_window=9),
    BaselineConfig(BaselineKind.RECENT_WINDOW, 0.2),
]
COUNTS = (5, 12, N, 9)


@pytest.fixture(params=["binary", "text"])
def trace_file(request, tmp_path):
    path = tmp_path / ("t.mkvt" if request.param == "binary" else "t.json")
    trace = generate_synthetic(small_spec(3, layers=3, heads=2, prompt_len=N, steps=4,
                                          bias=(0.2, 0.8)))
    save_trace(trace, path)
    return path


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_load_lets_the_trace_go(trace_file, monkeypatch):
    loaded = []
    real = policy_module.load_trace

    def spy(path, rows=None):
        trace = real(path, rows=rows)
        loaded.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(policy_module, "load_trace", spy)
    tables = TraceTables.load(trace_file, SPECS)
    assert len(loaded) == 1
    assert loaded[0]() is None
    assert tables.trace is None
    assert tables.num_steps == 4 and tables.header.prompt_len == N


def test_loaded_tables_equal_those_of_the_loaded_trace(trace_file):
    tables = TraceTables.load(trace_file, SPECS)
    want = TraceTables(load_trace(trace_file, rows=N))
    assert tables.header == want.header
    for count in COUNTS:
        assert same_bits(tables.importance(count), want.importance(count))
    tables.fill_needs(SPECS)
    want.fill_needs(SPECS)
    for spec in SPECS[:3]:
        for got, ref in zip(tables.needs(spec.proxy.proxy_count, spec.coverage_threshold),
                            want.needs(spec.proxy.proxy_count, spec.coverage_threshold)):
            assert same_bits(got, ref)
    for got, ref in zip(tables.decode(), want.decode()):
        assert same_bits(got, ref)
    got = compare(tables, SPECS)
    ref = compare(want, SPECS)
    assert [(r.policy, r.per_step_retained_mass, r.warnings) for r in got] == [
        (r.policy, r.per_step_retained_mass, r.warnings) for r in ref
    ]


def test_loaded_tables_refuse_a_row_count_they_were_not_built_for(trace_file):
    tables = TraceTables.load(trace_file, SPECS[:1])
    assert tables.importance(5) is tables.importance(5)
    with pytest.raises(ParameterError, match=r"importance over 8 prefill rows.*\[5\]"):
        tables.importance(8)
    with pytest.raises(ParameterError, match=r"\[5\]"):
        plan_budgets(tables, PolicyConfig(0.2, proxy=ProxyConfig(8)))
    # Only the window baselines: no importance at all.
    tables = TraceTables.load(trace_file, SPECS[-1:])
    with pytest.raises(ParameterError, match=r"\[\]"):
        tables.importance(1)


def test_a_sweep_holds_one_traces_tables_at_a_time(tmp_path):
    """Under tracemalloc, a sweep over two traces peaks no higher than the
    same sweep over one of them, give or take 10%."""
    paths = []
    for seed in (1, 2):
        path = tmp_path / f"t{seed}.mkvt"
        save_trace(generate_synthetic(small_spec(seed, layers=8, heads=8, prompt_len=256,
                                                 steps=16)), path)
        paths.append(str(path))
    sweep = ["sweep", "--policy", "adaptive", "--budget", "0.2", "--thetas", "0.9"]

    def peak(traces, out):
        argv = [*sweep, *(a for p in traces for a in ("--trace", p)), "--out", str(out)]
        code, peak_bytes = traced_peak(lambda: main(argv))
        assert code == 0
        return peak_bytes

    one = peak(paths[:1], tmp_path / "one")
    two = peak(paths, tmp_path / "two")
    assert two <= 1.10 * one, (one, two)
