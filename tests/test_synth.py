"""Synthetic generator tests: determinism, bias contract, limit behavior."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modkv.synth as synth
import oracles
from conftest import dense, small_spec
from modkv import ParameterError, SyntheticTraceSpec, generate_synthetic, load_trace, save_trace
from modkv.synth import _SyntheticTrace
from modkv.trace import trace_to_binary, trace_to_text
from oracles import (
    reference_generate_synthetic,
    reference_packed_rows,
    reference_trace_to_binary,
    reference_trace_to_text_v2,
)


def visual_mass_share(trace, layer, head):
    block = trace.head_rows(layer, head).astype(np.float64)
    return block[:, trace.header.modality_labels].sum() / block.sum()


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(prompt_len=0),
            dict(layers=0),
            dict(steps=-1),
            dict(skew=0.0),
            dict(skew=-1.0),
            dict(mix=1.5),
            dict(bias=-0.1),
            dict(bias=(0.5, 0.5, 0.5)),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            small_spec(0, **kwargs)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_must_fit_64_bits(self, seed):
        with pytest.raises(ParameterError):
            small_spec(seed)

    def test_scalar_bias_broadcasts(self):
        a = small_spec(3, bias=0.3)
        b = small_spec(3, bias=(0.3, 0.3))
        assert a.head_preference_bias == (0.3, 0.3)
        assert generate_synthetic(a) == generate_synthetic(b)


class TestDeterminism:
    def test_seed_42_twice_is_identical(self):
        spec = small_spec(42)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a == b
        assert trace_to_text(a) == trace_to_text(b)

    def test_different_seeds_differ(self):
        assert generate_synthetic(small_spec(1)) != generate_synthetic(small_spec(2))

    def test_decode_steps_do_not_disturb_prefill(self):
        short = generate_synthetic(small_spec(7, steps=0))
        long = generate_synthetic(small_spec(7, steps=3))
        assert np.array_equal(dense(short).prefill, dense(long).prefill)
        assert np.array_equal(
            short.header.modality_labels, long.header.modality_labels
        )


class TestStructure:
    def test_generated_traces_validate(self):
        for seed in range(4):
            generate_synthetic(small_spec(seed, mix=0.3, bias=(0.1, 0.9))).validate()

    def test_modality_mix_sets_visual_count(self):
        t = generate_synthetic(small_spec(0, prompt_len=40, mix=0.25))
        assert int(t.header.modality_labels.sum()) == 10

    def test_single_modality_extremes(self):
        all_text = generate_synthetic(small_spec(1, mix=0.0, bias=0.0))
        assert not all_text.header.modality_labels.any()
        all_vis = generate_synthetic(small_spec(1, mix=1.0, bias=1.0))
        assert all_vis.header.modality_labels.all()


class TestBiasContract:
    def test_rows_with_both_modalities_hit_bias_exactly(self):
        """Once a causal prefix holds both modalities, the row's visual share
        is the head bias up to float32 storage noise."""
        t = generate_synthetic(small_spec(11, prompt_len=32, bias=(0.8, 0.2)))
        vis = t.header.modality_labels
        for head, bias in ((0, 0.8), (1, 0.2)):
            for i in range(t.header.prompt_len):
                prefix_vis = vis[: i + 1]
                if not (prefix_vis.any() and (~prefix_vis).any()):
                    continue
                row = t.head_rows(0, head, i, i + 1)[0].astype(np.float64)
                assert row[vis].sum() == pytest.approx(bias, abs=1e-6)

    def test_decode_rows_hit_bias_exactly(self):
        t = generate_synthetic(small_spec(13, steps=3, bias=(0.7, 0.3)))
        vis = t.header.modality_labels
        n = t.header.prompt_len
        for head, bias in ((0, 0.7), (1, 0.3)):
            for vec in t.decode:
                row = vec[1, head].astype(np.float64)
                assert row[:n][vis].sum() == pytest.approx(bias, abs=1e-6)

    def test_half_mix_half_bias_mass_split(self):
        """Aggregate visual mass stays near one half on a 1000-token prompt."""
        spec = SyntheticTraceSpec(1, 2, 1000, 0, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=0.5, seed=21)
        t = generate_synthetic(spec)
        for head in range(2):
            assert 0.45 <= visual_mass_share(t, 0, head) <= 0.55


def test_vanishing_skew_approaches_uniform_rows():
    t = generate_synthetic(small_spec(2, prompt_len=16, skew=1e-9, mix=0.0, bias=0.0))
    last = t.head_rows(0, 0, 15)[0].astype(np.float64)
    assert last.max() - last.min() < 1e-7
    assert last.sum() == pytest.approx(1.0, abs=1e-6)


def test_strong_skew_concentrates_mass():
    t = generate_synthetic(small_spec(2, prompt_len=64, skew=2.5, mix=0.0, bias=0.0))
    last = np.sort(t.head_rows(0, 0, 63)[0].astype(np.float64))[::-1]
    assert last[:4].sum() > 0.8


@settings(max_examples=40, deadline=None)
@given(
    layers=st.integers(1, 3),
    heads=st.integers(1, 3),
    n=st.integers(1, 16),
    steps=st.integers(0, 3),
    skew=st.floats(0.05, 2.5),
    mix=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    bias=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_every_generated_trace_validates(layers, heads, n, steps, skew, mix, bias, seed):
    spec = SyntheticTraceSpec(layers, heads, n, steps, skew=skew,
                              modality_mix=mix, head_preference_bias=bias, seed=seed)
    generate_synthetic(spec).validate()


# ---------------------------------------------------------------------------
# on-demand prefill blocks against the dense reference generator

EDGE_SPECS = {
    "general": small_spec(3, bias=(0.1, 0.9)),
    "n1": small_spec(4, prompt_len=1),
    "n1_no_decode": small_spec(4, prompt_len=1, steps=0),
    "no_decode": small_spec(5, steps=0),
    "all_text": small_spec(6, mix=0.0, bias=0.0),
    "all_visual": small_spec(6, mix=1.0, bias=1.0),
    "bias_0_and_1": small_spec(7, bias=(0.0, 1.0)),
    "tiny_skew": small_spec(8, skew=1e-9),
    "one_visual_token": small_spec(9, prompt_len=3, mix=0.34, bias=0.6),
}


def assert_packed_rows_equal_reference(trace, ref, layer, head, start, stop):
    """`trace.packed_rows` is byte for byte the reference gather of the
    generated rows and of the dense reference generator's rows."""
    packed = trace.packed_rows(layer, head, start, stop)
    assert packed.dtype == np.dtype("<f4")
    assert packed.tobytes() == reference_packed_rows(trace, layer, head, start, stop).tobytes()
    assert packed.tobytes() == reference_packed_rows(ref, layer, head, start, stop).tobytes()


@pytest.mark.parametrize("spec", EDGE_SPECS.values(), ids=EDGE_SPECS.keys())
class TestMatchesDenseReference:
    def test_trace_equals_reference(self, spec):
        assert generate_synthetic(spec) == reference_generate_synthetic(spec)

    def test_head_rows_equal_reference_blocks_without_the_cube(self, spec):
        trace = generate_synthetic(spec)
        ref = reference_generate_synthetic(spec)
        for l in range(spec.num_layers):
            for h in range(spec.num_heads):
                block = trace.head_rows(l, h)
                assert block.dtype == np.float32
                assert np.array_equal(block, ref.prefill[l, h])

    def test_packed_rows_equal_the_reference_gather(self, spec):
        trace = generate_synthetic(spec)
        ref = reference_generate_synthetic(spec)
        n = spec.prompt_len
        windows = {(0, n), (n // 3, n), (0, (n + 1) // 2)} | {(i, i + 1) for i in range(n)}
        for l in range(spec.num_layers):
            for h in range(spec.num_heads):
                for start, stop in sorted(windows):
                    assert_packed_rows_equal_reference(trace, ref, l, h, start, stop)

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "text"])
    def test_saved_files_equal_reference(self, tmp_path, spec, binary):
        trace = generate_synthetic(spec)
        ref = reference_generate_synthetic(spec)
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        save_trace(trace, ours, binary=binary)
        save_trace(ref, theirs, binary=binary)
        render = reference_trace_to_binary if binary else reference_trace_to_text_v2
        assert ours.read_bytes() == theirs.read_bytes() == render(ref)


COHERENCE_SPECS = {
    **EDGE_SPECS,
    "3x12x67": SyntheticTraceSpec(3, 12, 67, 3, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=(0.0, 0.1, 0.9, 1.0) * 3, seed=17),
}


@pytest.mark.parametrize("spec", COHERENCE_SPECS.values(), ids=COHERENCE_SPECS.keys())
def test_rows_read_in_any_order_equal_reference(spec):
    """Reads in shuffled (layer, head, chunk) order, alternating between two
    generated traces, each equal the dense reference generator's rows: the
    factors a trace keeps for one layer never reach another layer's rows, nor
    the other trace's."""
    other = dataclasses.replace(spec, seed=spec.seed + 1)
    pairs = [(generate_synthetic(s), reference_generate_synthetic(s)) for s in (spec, other)]
    n = spec.prompt_len
    step = max(1, n // 3)
    chunks = [(a, min(a + step, n)) for a in range(0, n, step)] + [(0, n), (n - 1, n)]
    reads = [(l, h, chunk, full) for l in range(spec.num_layers) for h in range(spec.num_heads)
             for chunk in chunks for full in (False, True)]
    rng = random.Random(spec.seed)
    orders = [rng.sample(reads, len(reads)) for _ in pairs]
    for step_reads in zip(*orders):
        for (trace, ref), (l, h, (start, stop), full) in zip(pairs, step_reads):
            if full:
                rows, expected = (t.head_rows(l, h, start, stop) for t in (trace, ref))
            else:
                rows = trace.packed_rows(l, h, start, stop)
                expected = reference_packed_rows(ref, l, h, start, stop)
            assert rows.dtype == expected.dtype and rows.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", COHERENCE_SPECS.values(), ids=COHERENCE_SPECS.keys())
def test_decode_blocks_read_in_any_order_equal_reference(spec):
    """Decode blocks read in shuffled (step, layer) order, alternating between
    two generated traces, are byte for byte the dense reference generator's
    steps, and no read builds a trace's `decode` list."""
    other = dataclasses.replace(spec, seed=spec.seed + 1)
    pairs = [(generate_synthetic(s), reference_generate_synthetic(s)) for s in (spec, other)]
    reads = [(s, l) for s in range(spec.num_decode_steps) for l in range(spec.num_layers)]
    rng = random.Random(spec.seed)
    orders = [rng.sample(reads, len(reads)) for _ in pairs]
    for step_reads in zip(*orders):
        for (trace, ref), (s, l) in zip(pairs, step_reads):
            block = trace.decode_rows(s, l)
            expected = ref.decode[s][l]
            assert block.dtype == np.dtype("<f4") and block.shape == expected.shape
            assert block.tobytes() == expected.tobytes() == ref.decode_rows(s, l).tobytes()
    assert all(trace._decode is None for trace, _ in pairs)


def test_row_chunked_blocks_and_files_equal_reference():
    # 2**18 // 700 = 374 rows a chunk, so the writers take each head in two;
    # each decode step is written one layer at a time.
    spec = small_spec(11, layers=2, prompt_len=700, steps=3)
    trace = generate_synthetic(spec)
    ref = reference_generate_synthetic(spec)
    for start, stop in ((0, 700), (0, 1), (100, 375), (374, 700), (699, 700)):
        block = trace.head_rows(0, 1, start, stop)
        assert np.array_equal(block, ref.prefill[0, 1, start:stop])
    assert np.array_equal(trace.head_rows(0, 1, 600), ref.prefill[0, 1, 600:])
    for start, stop in ((0, 1), (100, 375), (374, 700), (699, 700)):
        assert_packed_rows_equal_reference(trace, ref, 0, 1, start, stop)
    assert trace_to_binary(trace) == reference_trace_to_binary(ref)
    assert trace_to_text(trace) == reference_trace_to_text_v2(ref)


@pytest.mark.parametrize("n, mix", [(256, 0.5), (300, 0.3), (701, 0.6)])
def test_decode_scale_pool_sums_equal_the_references_per_head_sums(monkeypatch, n, mix):
    """The float64 pool sums behind each decode step's scales are, bit for
    bit, the per-head sums of each head's own contiguous pool. Rounding the
    rows to float32 can hide a 1-ulp change in a scale, so the sums are
    compared where they are handed to `_rebalance_scales`."""
    L, H, T = 2, 5, 3
    spec = SyntheticTraceSpec(L, H, n, T, skew=1.1, modality_mix=mix,
                              head_preference_bias=(0.1, 0.9, 0.3, 0.7, 0.5), seed=n)
    got, want = [], []

    def spy(record, real):
        def rebalance(sum_v, sum_t, bias):
            record.append(np.broadcast_arrays(sum_v, sum_t))
            return real(sum_v, sum_t, bias)
        return rebalance

    monkeypatch.setattr(synth, "_rebalance_scales", spy(got, synth._rebalance_scales))
    monkeypatch.setattr(oracles, "reference_rebalance_scales",
                        spy(want, oracles.reference_rebalance_scales))
    generate_synthetic(spec)
    oracles.reference_generate_synthetic(spec)
    # The library passes one layer's (H, 1) visual and (T, H, 1) text sums;
    # the reference one (layer, head, step) at a time.
    got = np.array([[v[..., 0], t[..., 0]] for v, t in got])  # (L, 2, T, H)
    want = np.array([[v, t] for v, t in want]).reshape(L, H, T, 2)
    assert got.shape == (L, 2, T, H)
    assert got.transpose(0, 3, 2, 1).view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("name", ["gen.mkvt", "gen.json"])
def test_saving_a_generated_trace_reads_only_packed_rows(tmp_path, monkeypatch, name):
    """The writers take packed chunks; a full-width row of a generated trace
    is never built on the way to a file."""
    spec = small_spec(12, prompt_len=700, steps=1)
    trace = generate_synthetic(spec)

    def no_full_rows(*args, **kwargs):
        raise AssertionError("a writer asked a generated trace for full rows")

    monkeypatch.setattr(_SyntheticTrace, "head_rows", no_full_rows)
    save_trace(trace, tmp_path / name)
    monkeypatch.undo()
    assert load_trace(tmp_path / name) == reference_generate_synthetic(spec)


@pytest.mark.parametrize("name", ["gen.mkvt", "gen.json"])
def test_saving_a_generated_trace_builds_no_decode_list(tmp_path, monkeypatch, name):
    """The writers take one layer of a decode step at a time from
    `decode_rows`; the trace's list of whole decode steps is never built."""
    spec = small_spec(14, layers=3, prompt_len=40, steps=4)
    trace = generate_synthetic(spec)

    def no_decode_list(self):
        raise AssertionError("a writer built a generated trace's decode list")

    monkeypatch.setattr(_SyntheticTrace, "decode", property(no_decode_list))
    save_trace(trace, tmp_path / name)
    monkeypatch.undo()
    assert trace._decode is None
    assert load_trace(tmp_path / name) == reference_generate_synthetic(spec)


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "text"])
def test_an_edit_to_a_generated_decode_step_is_saved(tmp_path, binary):
    """Once read, a generated trace's `decode` list is what the writers save,
    so an in-place edit reaches the file as it would for a loaded trace."""
    spec = small_spec(15, layers=2, prompt_len=30, steps=3)
    trace = generate_synthetic(spec)
    row = trace.decode[2][1, 0]
    row[[3, 31]] = row[[31, 3]]  # a swap keeps the row a probability vector
    assert row[3] != row[31]
    path = tmp_path / "edited"
    save_trace(trace, path, binary=binary)
    render = reference_trace_to_binary if binary else reference_trace_to_text_v2
    assert path.read_bytes() == render(trace) != render(reference_generate_synthetic(spec))
    loaded = load_trace(path)
    assert loaded == trace
    assert loaded.decode[2][1, 0].tobytes() == row.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    layers=st.integers(1, 2),
    heads=st.integers(1, 3),
    n=st.integers(1, 12),
    steps=st.integers(0, 2),
    skew=st.floats(0.05, 2.5),
    mix=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    bias=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_generated_trace_equals_reference(layers, heads, n, steps, skew, mix, bias, seed):
    spec = SyntheticTraceSpec(layers, heads, n, steps, skew=skew,
                              modality_mix=mix, head_preference_bias=bias, seed=seed)
    trace = generate_synthetic(spec)
    ref = reference_generate_synthetic(spec)
    assert trace_to_binary(trace) == reference_trace_to_binary(ref)
    assert trace == ref
