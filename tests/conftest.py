"""Shared builders for hand-written traces and generated fixtures."""

import tracemalloc

import numpy as np
import pytest

from modkv import AttentionTrace, SyntheticTraceSpec, TraceHeader, generate_synthetic
from modkv.policy import pool_ranks


def labels_from(spec, n):
    """'tvt' style strings, bool sequences, or None (all text) -> bool array."""
    if spec is None:
        return np.zeros(n, dtype=bool)
    if isinstance(spec, str):
        return np.array([c == "v" for c in spec], dtype=bool)
    return np.asarray(spec, dtype=bool)


def make_trace(rows, labels=None, decode=(), tile=(1, 1), validate=True):
    """Build a trace whose every (layer, head) shares one causal triangle.

    rows: list of causal rows, row i holding i+1 entries. decode: one vector
    per step, step s holding len(rows)+s entries. tile replicates the pattern
    across (layers, heads).
    """
    L, H = tile
    n = len(rows)
    prefill = np.zeros((L, H, n, n), dtype=np.float32)
    for i, row in enumerate(rows):
        prefill[:, :, i, : len(row)] = np.asarray(row, dtype=np.float32)
    dec = []
    for s, vec in enumerate(decode):
        arr = np.zeros((L, H, n + s), dtype=np.float32)
        arr[:, :] = np.asarray(vec, dtype=np.float32)
        dec.append(arr)
    header = TraceHeader(L, H, n, len(dec), labels_from(labels, n))
    trace = AttentionTrace(header, prefill, dec)
    if validate:
        trace.validate()
    return trace


def dense(trace, rows=None):
    """`trace` as a plain AttentionTrace that stores its prefill rows, stacked
    from `head_rows`: the last `rows` of them, as a partial load keeps, or
    every row `trace` holds. A generated trace stores none of its own."""
    h = trace.header
    n = h.prompt_len
    first = trace.first_row if rows is None else n - min(rows, n)
    prefill = np.empty((h.num_layers, h.num_heads, n - first, n), dtype=np.float32)
    for l, hd in np.ndindex(h.num_layers, h.num_heads):
        prefill[l, hd] = trace.head_rows(l, hd, first)
    return AttentionTrace(h, prefill, trace.decode, first)


def assert_same_report(got, want):
    """Two SimReports agree field by field, floats and arrays bit for bit."""
    assert (got.policy, got.budget_frac, got.theta) == (want.policy, want.budget_frac, want.theta)
    assert [m.hex() for m in got.per_step_retained_mass] == [
        m.hex() for m in want.per_step_retained_mass]
    assert got.mean_retained_mass.hex() == want.mean_retained_mass.hex()
    a, b = got.kept_counts, want.kept_counts
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert got.memory_bytes_est == want.memory_bytes_est
    assert got.warnings == want.warnings


def warning_count(report, code):
    """The count a report's warning summary gives for `code`, 0 if none."""
    for entry in report.warnings:
        if entry.startswith(f"{code} x"):
            return int(entry.split(" ", 2)[1][1:])
    return 0


def traced_peak(fn):
    """`fn()` and the peak of the memory Python allocated while it ran, in
    bytes, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def top_by_rank(scores, candidates, quota):
    """The candidates the library's rank-prefix kernel keeps at `quota`, in
    position order."""
    ranks = pool_ranks(np.asarray(scores), [candidates])
    return candidates[ranks[candidates] < quota]


def uniform_rows(n):
    """Causal rows where row i spreads its mass evenly over positions 0..i."""
    return [[1.0 / (i + 1)] * (i + 1) for i in range(n)]


def small_spec(seed, layers=2, heads=2, prompt_len=24, steps=2, skew=1.2,
               mix=0.5, bias=0.5):
    return SyntheticTraceSpec(
        num_layers=layers,
        num_heads=heads,
        prompt_len=prompt_len,
        num_decode_steps=steps,
        skew=skew,
        modality_mix=mix,
        head_preference_bias=bias,
        seed=seed,
    )


@pytest.fixture
def mixed_trace():
    """A small two-layer trace with one visual-leaning and one text-leaning head."""
    return dense(generate_synthetic(small_spec(9, bias=(0.8, 0.2))))


@pytest.fixture
def text_only_trace():
    return dense(generate_synthetic(small_spec(5, mix=0.0, bias=0.0)))
