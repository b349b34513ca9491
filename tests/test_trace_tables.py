"""Tables loaded from a trace file (`TraceTables.load`), and the replay memo
the tables hold (`TraceTables.replayed`).

A `run`, `compare` or `sweep` job keeps only the tables its policies read.
The loaded tables must equal, bit for bit, those of an in-memory trace
loaded with the same rows, while the trace itself is gone, and report what
that trace reports although its decode steps were replayed while the file
streamed; a job over several traces must hold one trace's tables at a time,
and a job over many decode steps no more than one step. Cells that repeat
an allocation must share one mask and one replay, report exactly what fresh
tables report, and hold nothing more than counts and masses.
"""

import importlib
import tracemalloc
import weakref

import numpy as np
import pytest

import modkv.policy as policy_module
import oracles
from conftest import assert_same_report, dense, small_spec, traced_peak, warning_count
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
    simulate,
)
from modkv.cli import main
from modkv.simulate import settle

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
    """The loader hands each checked layer over as a trace of that layer
    alone, all sharing one buffer, and builds no trace of every layer. No
    layer's trace and not the buffer outlive the prefill: they are freed
    before the first decode step is read."""
    layers, buffers, refs, alive = [], set(), [], []
    real = policy_module.load_trace

    def spy(path, rows=None, on_layer=None, on_decode=None, **kwargs):
        assert kwargs.get("on_prefill") is None

        def layer(trace):
            layers.append(trace.layer)
            buffers.add(id(trace.prefill.base))
            refs.extend((weakref.ref(trace), weakref.ref(trace.prefill.base)))
            on_layer(trace)

        def decode(steps):
            def watched():
                for step in steps:
                    alive.append(any(ref() is not None for ref in refs))
                    yield step
            on_decode(watched())

        return real(path, rows=rows, on_layer=layer, on_decode=decode, **kwargs)

    monkeypatch.setattr(policy_module, "load_trace", spy)
    tables = TraceTables.load(trace_file, SPECS, settle)
    assert layers == [0, 1, 2]
    assert len(buffers) == 1
    assert alive == [False] * 4
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
    # The masses replayed while the file streamed equal, bit for bit, those
    # replayed from the loaded trace's steps. Settling drops the prefill
    # tables, which every cell has been planned from.
    tables = TraceTables.load(trace_file, SPECS, settle)
    assert not tables._tables
    got = compare(tables, SPECS)
    ref = compare(want, SPECS)
    assert len(got) == len(ref) == len(SPECS)
    for a, b in zip(got, ref):
        assert_same_report(a, b)
    for spec in SPECS:
        assert_same_report(simulate(tables, spec), simulate(want, spec))


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


@pytest.mark.parametrize("suffix, reader", [("mkvt", 1 << 19), ("json", 3 << 20)])
def test_a_loaded_grid_holds_no_prefill_tail(tmp_path, suffix, reader):
    """Under tracemalloc, `TraceTables.load` of a grid over 32 kept rows
    peaks below what it must hold at one time or another: importance, its
    16-bit rank tables, one layer's kept rows, one float32 decode step with
    one float64 replay block of it and of a keep-set, and the reader's own
    buffers (the binary reader's blocks, the text reader's pending text and
    decoded head). The (L, H, rows, n) tail of kept rows, 8 MiB here, does
    not fit beside them: a load that built it peaked about 6 MiB above the
    bound."""
    L, H, n, T, rows = 16, 16, 256, 2, 32
    path = tmp_path / f"t.{suffix}"
    save_trace(generate_synthetic(small_spec(4, layers=L, heads=H, prompt_len=n, steps=T,
                                             bias=(0.1, 0.9) * (H // 2))), path)
    specs = [PolicyConfig(budget, theta, ProxyConfig(rows), mode=mode)
             for budget in (0.1, 0.2) for theta in (0.5, 0.9) for mode in PolicyMode]
    specs += [BaselineConfig(kind, 0.2, observation_window=rows) for kind in BaselineKind
              if kind is not BaselineKind.SINK_WINDOW]
    settle(TraceTables(generate_synthetic(small_spec(4))), specs)  # numpy's caches
    tables, peak = traced_peak(lambda: TraceTables.load(path, specs, settle))
    assert len(tables.settled) == len(specs)
    block = min(L * H, simulate_module._REPLAY_BLOCK // n)
    bound = (L * H * n * 8  # importance
             + 3 * L * H * n * 2  # modality ranks, pinned and not, and token ranks
             + H * rows * n * 4  # one layer's kept rows
             + L * H * (n + T - 1) * 4 + block * (2 * n + T - 1) * 8  # replay
             + reader)
    assert peak <= bound, (peak, bound)


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


# ---------------------------------------------------------------------------
# the replay memo: one build_masks and one replay per distinct keep-set


simulate_module = importlib.import_module("modkv.simulate")

BUDGETS = (0.05, 0.1, 0.2, 0.4, 0.6)
MEMO_GRID = [
    PolicyConfig(budget, theta, ProxyConfig(5), mode=mode)
    for budget in BUDGETS for theta in (0.5, 0.9) for mode in PolicyMode
]


@pytest.fixture(scope="module")
def memo_trace():
    return generate_synthetic(small_spec(7, layers=3, heads=4, prompt_len=N, steps=3,
                                         bias=(0.1, 0.9, 0.3, 0.7)))


def count_calls(monkeypatch, *names):
    """Wrap each named function of modkv.simulate with a call counter."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(simulate_module, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(simulate_module, name, spy)
    return calls


def allocation_key(trace, spec):
    """What build_masks reads of a spec's plan, computed on fresh tables."""
    plan = plan_budgets(trace, spec)
    return (min(spec.proxy.proxy_count, N), spec.pinned(N),
            plan.alloc_visual.tobytes(), plan.alloc_text.tobytes())


def test_a_grid_builds_and_replays_each_distinct_allocation_once(memo_trace, monkeypatch):
    distinct = {allocation_key(memo_trace, spec) for spec in MEMO_GRID}
    # Adaptive retains its coverage needs at every budget below 1.
    assert len(distinct) < len(MEMO_GRID)
    calls = count_calls(monkeypatch, "build_masks", "replay", "plan_budgets")
    tables = TraceTables(memo_trace)
    for spec in MEMO_GRID:
        simulate(tables, spec)
    assert calls == {"build_masks": len(distinct), "replay": len(distinct),
                     "plan_budgets": len(MEMO_GRID)}
    # Baselines are replayed every time.
    baseline = BaselineConfig(BaselineKind.CUMULATIVE_TOPK, 0.2)
    simulate(tables, baseline)
    simulate(tables, baseline)
    assert calls["replay"] == len(distinct) + 2


def test_a_shared_grid_reports_what_fresh_tables_report(memo_trace):
    specs = MEMO_GRID + [
        PolicyConfig(0.1, 0.9, ProxyConfig(N + 5)),
        PolicyConfig(0.1, 0.9, ProxyConfig(12), pin_proxy_tokens=False),
        PolicyConfig(0.2, 0.7, ProxyConfig(5), min_keep_per_modality=3),
        PolicyConfig(1.0, 0.7, ProxyConfig(5), mode=PolicyMode.PROPORTIONAL),
        BaselineConfig(BaselineKind.RECENT_WINDOW, 0.2),
    ]
    got = compare(TraceTables(memo_trace), specs * 2)
    want = compare(memo_trace, specs * 2)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_report(a, b)


@pytest.mark.parametrize("first, second", [
    # The same proxy rows, pinned or not.
    ({"proxy": ProxyConfig(5)}, {"proxy": ProxyConfig(5), "pin_proxy_tokens": False}),
    # Nothing pinned, ranked from other proxy rows.
    ({"proxy": ProxyConfig(5), "pin_proxy_tokens": False},
     {"proxy": ProxyConfig(12), "pin_proxy_tokens": False}),
    # A proxy count clamped to the prompt.
    ({"proxy": ProxyConfig(5)}, {"proxy": ProxyConfig(N + 9)}),
])
def test_specs_that_read_the_same_allocation_differently_do_not_share(memo_trace, monkeypatch,
                                                                       first, second):
    """The planner is held to one allocation, so only the knobs that
    build_masks also reads tell the two cells apart."""
    first, second = (PolicyConfig(0.2, 0.9, **kwargs) for kwargs in (first, second))
    plan = plan_budgets(memo_trace, first)
    real = simulate_module.plan_budgets

    def fixed(tables, cfg):
        out = real(tables, cfg)
        out.alloc_visual, out.alloc_text = plan.alloc_visual.copy(), plan.alloc_text.copy()
        return out

    monkeypatch.setattr(simulate_module, "plan_budgets", fixed)
    want = [simulate(TraceTables(memo_trace), spec) for spec in (first, second)]
    assert want[0].per_step_retained_mass != want[1].per_step_retained_mass
    calls = count_calls(monkeypatch, "build_masks", "replay")
    tables = TraceTables(memo_trace)
    got = [simulate(tables, spec) for spec in (first, second, first, second)]
    assert calls == {"build_masks": 2, "replay": 2}
    for rep, ref in zip(got, want * 2):
        assert_same_report(rep, ref)


def test_clamped_proxy_counts_share_one_entry(memo_trace, monkeypatch):
    calls = count_calls(monkeypatch, "replay")
    tables = TraceTables(memo_trace)
    a = simulate(tables, PolicyConfig(0.2, 0.9, ProxyConfig(N + 5)))
    b = simulate(tables, PolicyConfig(0.2, 0.9, ProxyConfig(N + 9)))
    assert calls["replay"] == 1
    assert_same_report(a, b)


def test_reports_from_one_table_share_no_array(memo_trace):
    tables = TraceTables(memo_trace)
    reps = [simulate(tables, spec) for spec in MEMO_GRID * 2]
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not np.shares_memory(a.kept_counts, b.kept_counts)
            assert a.per_step_retained_mass is not b.per_step_retained_mass
            assert a.warnings is not b.warnings
    want = simulate(TraceTables(memo_trace), MEMO_GRID[0])
    # A caller that edits its report leaves the next cell's alone.
    reps[0].kept_counts[...] = 0
    reps[0].per_step_retained_mass.clear()
    reps[0].warnings.append("edited")
    assert_same_report(simulate(tables, MEMO_GRID[0]), want)


def test_the_memo_holds_counts_and_masses_only():
    """Under tracemalloc, a grid whose other tables are built already grows
    by no more than the memo's entries: per distinct keep-set, at most 8
    bytes of kept counts per (layer, head), the two int32 allocations in its
    key and the per-step masses. A keep array (n bytes per head) or the
    proportional cells' pinned-proxy warnings (one per head here) would not
    fit."""
    L, H, n, S = 8, 8, 128, 4
    trace = generate_synthetic(small_spec(3, layers=L, heads=H, prompt_len=n, steps=S,
                                          bias=(0.1, 0.9) * (H // 2)))
    specs = [PolicyConfig(budget / 100, theta, mode=mode)
             for budget in range(2, 42, 2) for theta in (0.6, 0.9) for mode in PolicyMode]
    tables = TraceTables(trace)
    tables.fill_needs(specs)
    for spec in specs:
        plan_budgets(tables, spec)
        tables.modality_ranks(spec.proxy.proxy_count, spec.pinned(n))
    distinct = len({
        (plan.alloc_visual.tobytes(), plan.alloc_text.tobytes())
        for plan in (plan_budgets(tables, spec) for spec in specs)
    })

    warned = 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for spec in specs:
            warned += warning_count(simulate(tables, spec), "pinned_over_text")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert warned >= 10 * L * H
    # Past the arrays' bytes: about 1 KiB of objects per entry, and the
    # growth of the table dict.
    per_entry = 8 * L * H + 2 * 4 * L * H + 32 * S + 1024
    assert held <= distinct * per_entry + 16384, (held, distinct)


def test_a_grids_outcomes_grow_by_a_fixed_size_per_cell():
    """Under tracemalloc, the outcomes `settle` keeps grow by as many bytes
    per cell at 16x16 heads as at 4x4, give or take 64, although every head
    of every cell warns: an outcome holds one summary entry per warning
    code, and no per-head line or array. The cells' budgets round to one
    per-head budget, so they share one plan's allocations and one keep-set,
    and only the outcomes grow with the cell count."""
    specs = [PolicyConfig(0.2 + k / 10**5, mode=PolicyMode.PROPORTIONAL,
                          min_keep_per_modality=3) for k in range(40)]
    per_cell = {}
    for size in (4, 16):
        trace = dense(generate_synthetic(
            small_spec(3, layers=size, heads=size, prompt_len=64, mix=0.05, bias=0.9)))
        # A first grid fills numpy's and the trace's caches.
        settle(TraceTables(trace), specs[:1])
        held = {}
        for count in (8, 40):
            tables = TraceTables(trace)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                settle(tables, specs[:count])
                held[count] = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert len(tables.replayed) == 1
        spills = [w for w in plan_budgets(trace, specs[0]).warnings if "spilled" in w]
        assert len(spills) == size * size
        per_cell[size] = (held[40] - held[8]) / 32
    assert per_cell[16] <= per_cell[4] + 64, per_cell


# ---------------------------------------------------------------------------
# one decode step at a time


def test_simulating_a_generated_trace_builds_no_decode_list():
    """A generated trace is replayed through `decode_rows`, one step at a
    time: neither `simulate` nor `compare` builds its `decode` list, and
    both report what the per-step reference path reports."""
    trace = generate_synthetic(small_spec(11, layers=3, heads=2, prompt_len=N, steps=5,
                                          bias=(0.2, 0.8)))
    spec = PolicyConfig(0.2, 0.7, ProxyConfig(5))
    got = [simulate(trace, spec), *compare(trace, SPECS)]
    assert trace._decode is None
    want = [oracles.reference_simulate(trace, spec),
            *sorted((oracles.reference_simulate(trace, s) for s in SPECS),
                    key=lambda r: (-r.mean_retained_mass, r.policy))]
    for a, b in zip(got, want):
        assert_same_report(a, b)


def test_a_compare_holds_one_decode_step_at_a_time(tmp_path):
    """Under tracemalloc, `compare` of a trace with 256 decode steps peaks
    no higher than the same compare of a 4-step trace of that shape, plus
    1 KiB per step and cell (a mass and a series row take well under that)
    and 256 KiB of slack. Holding the steps, as float32 or as a float64
    table, would take 6 to 8 MiB more."""
    L, H, n = 4, 4, 256
    argv = ["compare", "--policy", "adaptive", "--policy", "recent_window", "--budget", "0.2"]
    peaks = {}
    for steps in (4, 256):
        path = tmp_path / f"t{steps}.mkvt"
        save_trace(generate_synthetic(small_spec(5, layers=L, heads=H, prompt_len=n,
                                                 steps=steps, bias=(0.2, 0.8, 0.4, 0.6))),
                   path)
        code, peaks[steps] = traced_peak(
            lambda: main([*argv, "--trace", str(path), "--out", str(tmp_path / f"o{steps}")]))
        assert code == 0
    assert peaks[256] <= peaks[4] + 2 * 256 * 1024 + 256 * 1024, peaks
