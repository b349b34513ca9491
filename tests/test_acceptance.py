"""Acceptance suite: one test per release criterion.

Run `pytest -v tests/test_acceptance.py` for a pass/fail line per criterion;
each test also prints a short verdict (visible with -s or on failure).
"""

import csv
import time
from fractions import Fraction

import numpy as np

from modkv import (
    AttentionTrace,
    BaselineConfig,
    BaselineKind,
    PolicyConfig,
    PolicyMode,
    ProxyConfig,
    SyntheticTraceSpec,
    TraceTables,
    build_masks,
    coverage_counts,
    generate_synthetic,
    load_trace,
    plan_budgets,
    proxy_importance_matrix,
    save_trace,
    simulate,
    sparsity_curve,
)
from modkv.cli import main
from modkv.simulate import estimate_memory
from modkv.trace import TraceHeader
from oracles import (
    best_subset_mass,
    brute_coverage,
    brute_importance,
    brute_preference,
    exact_budget_chain,
    exact_topk_share,
)


def verdict(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def random_trace(rng, num_layers, num_heads, n, decode_steps=0, visual_frac=0.5):
    """A trace with independent random rows per layer and head."""
    labels = rng.random(n) < visual_frac
    prefill = np.zeros((num_layers, num_heads, n, n), dtype=np.float32)
    for l in range(num_layers):
        for hd in range(num_heads):
            for i in range(n):
                row = rng.random(i + 1) + 1e-3
                prefill[l, hd, i, : i + 1] = row / row.sum()
    decode = []
    for s in range(decode_steps):
        step = rng.random((num_layers, num_heads, n + s)) + 1e-3
        decode.append((step / step.sum(axis=2, keepdims=True)).astype(np.float32))
    return AttentionTrace(
        TraceHeader(num_layers, num_heads, n, decode_steps, labels), prefill, decode
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_1_importance_and_preference_match_brute_force():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    for _ in range(200):
        layers = int(rng.integers(1, 5))
        heads = int(rng.integers(1, 5))
        n = int(rng.integers(2, 21))
        trace = random_trace(rng, layers, heads, n, visual_frac=float(rng.random()))
        p = int(rng.integers(1, 13))
        mat = proxy_importance_matrix(trace, ProxyConfig(proxy_count=p))
        mass_v, mass_t = TraceTables(trace).pool_mass(p)
        vis = trace.header.modality_labels
        for l in range(layers):
            for hd in range(heads):
                expected = brute_importance(trace, l, hd, p)
                assert np.max(np.abs(mat[l, hd] - expected)) <= 1e-12
                w_v, w_t = brute_preference(expected, vis)
                assert abs(mass_v[l, hd] - w_v) <= 1e-12
                assert abs(mass_t[l, hd] - w_t) <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    verdict(1, f"importance and preference match brute force on 200 traces ({elapsed:.2f}s)")


def test_criterion_2_coverage_counts_match_enumeration_and_grow_with_threshold():
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    grid = np.linspace(0.1, 1.0, 10)
    for _ in range(200):
        n = int(rng.integers(1, 41))
        scores = rng.random(n) * float(rng.choice([0.1, 1.0, 7.0]))
        visual = rng.random(n) < float(rng.random())
        theta = float(rng.uniform(0.05, 1.0))
        kv, kt = coverage_counts(scores, visual, theta)
        assert kv == brute_coverage(scores[visual], theta)
        assert kt == brute_coverage(scores[~visual], theta)
        prev = (0, 0)
        for g in grid:
            cur = coverage_counts(scores, visual, float(g))
            assert cur[0] >= prev[0] and cur[1] >= prev[1]
            prev = cur
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    verdict(2, f"coverage counts match enumeration on 200 instances ({elapsed:.2f}s)")


def test_criterion_3_head_normalized_budget_chain_telescopes_exactly():
    rng = np.random.default_rng(303)
    t0 = time.monotonic()
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 500, "too many warned instances skipped"
        layers = int(rng.integers(2, 5))
        heads = int(rng.integers(1, 5))
        n = int(rng.integers(12, 41))
        trace = random_trace(rng, layers, heads, n,
                             visual_frac=float(rng.uniform(0.2, 0.8)))
        cfg = PolicyConfig(budget_frac=float(rng.uniform(0.6, 0.98)))
        plan = plan_budgets(trace, cfg)
        if plan.warnings:
            continue
        needs = [
            [int(plan.need_visual[l, hd] + plan.need_text[l, hd]) for hd in range(heads)]
            for l in range(layers)
        ]
        budgets, deviations = exact_budget_chain(
            needs, Fraction(plan.layer_budget[0]), heads
        )
        assert Fraction(plan.total_allocated()) == layers * heads * budgets[0] + deviations[-1]
        for l in range(layers):
            ref_b, ref_d = float(budgets[l]), float(deviations[l])
            assert abs(plan.layer_budget[l] - ref_b) <= 1e-6 * max(1.0, abs(ref_b))
            assert abs(plan.deviation[l] - ref_d) <= 1e-6 * max(1.0, abs(ref_d))
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    verdict(3, f"retained total telescopes exactly on 100 instances ({elapsed:.2f}s)")


def test_criterion_4_masks_keep_the_best_tokens_per_modality():
    rng = np.random.default_rng(404)

    def plan_and_mask(trace):
        mode = PolicyMode.ADAPTIVE if rng.random() < 0.5 else PolicyMode.PROPORTIONAL
        cfg = PolicyConfig(
            budget_frac=float(rng.uniform(0.2, 0.9)), mode=mode, pin_proxy_tokens=False
        )
        plan = plan_budgets(trace, cfg)
        return build_masks(trace, plan, cfg), proxy_importance_matrix(trace, cfg.proxy)

    # Exhaustive part: the kept set per modality carries the best achievable mass.
    for _ in range(60):
        layers = int(rng.integers(1, 3))
        heads = int(rng.integers(1, 3))
        n = int(rng.integers(4, 13))
        trace = random_trace(rng, layers, heads, n,
                             visual_frac=float(rng.uniform(0.2, 0.8)))
        mask, scores = plan_and_mask(trace)
        vis = trace.header.modality_labels
        for l in range(layers):
            for hd in range(heads):
                for group in (vis, ~vis):
                    kept = mask.keep[l, hd] & group
                    got = float(scores[l, hd][kept].sum())
                    best = best_subset_mass(scores[l, hd][group], int(kept.sum()))
                    assert abs(got - best) <= 1e-12

    # Fuzz part: no discarded token may outrank a kept token of its modality.
    for _ in range(500):
        layers = int(rng.integers(1, 3))
        heads = int(rng.integers(1, 3))
        n = int(rng.integers(4, 41))
        trace = random_trace(rng, layers, heads, n,
                             visual_frac=float(rng.uniform(0.1, 0.9)))
        mask, scores = plan_and_mask(trace)
        vis = trace.header.modality_labels
        for l in range(layers):
            for hd in range(heads):
                for group in (vis, ~vis):
                    kept = scores[l, hd][mask.keep[l, hd] & group]
                    dropped = scores[l, hd][~mask.keep[l, hd] & group]
                    if kept.size and dropped.size:
                        assert dropped.max() <= kept.min() + 1e-12
    verdict(4, "kept sets are exhaustively optimal (60 cases) and rank-clean (500 cases)")


def test_criterion_5_memory_estimate_is_proportional_and_anchors_are_reported(tmp_path):
    full = estimate_memory(np.full((1, 1), 100))
    assert estimate_memory(np.full((1, 1), 20)) / full == 0.20
    assert estimate_memory(np.full((1, 1), 5)) / full == 0.05

    assert main(["generate", "--name", "m", "--seed", "3", "--layers", "2",
                 "--heads", "2", "--prompt-len", "64", "--out", str(tmp_path)]) == 0
    out = tmp_path / "cmp"
    assert main(["compare", "--trace", str(tmp_path / "m.json"),
                 "--policy", "adaptive", "--budget", "0.05,0.2,1.0",
                 "--out", str(out)]) == 0
    rows = {r["budget_frac"]: r for r in read_csv(out / "memory_model.csv")}
    assert rows["1.0"]["measured_gib"] == "1.63"
    assert rows["0.2"]["measured_gib"] == "0.41"
    assert rows["0.05"]["measured_gib"] == "0.16"
    assert float(rows["0.2"]["model_gib"]) == 0.2 * 1.63
    assert float(rows["0.05"]["model_gib"]) == 0.05 * 1.63
    verdict(5, "memory model is exactly proportional and prints measured anchors")


def test_criterion_6_adaptive_policy_outranks_baselines_on_mixed_traces():
    t0 = time.monotonic()
    kinds = list(BaselineKind)
    wins = {kind: 0 for kind in kinds}
    margins = []
    for seed in range(101, 121):
        rng = np.random.default_rng(seed)
        bias = tuple(float(b) for b in rng.choice([0.1, 0.9], size=8))
        trace = generate_synthetic(SyntheticTraceSpec(
            num_layers=8, num_heads=8, prompt_len=2048, num_decode_steps=4,
            skew=1.2, modality_mix=0.5, head_preference_bias=bias, seed=seed,
        ))
        adaptive = simulate(trace, PolicyConfig(budget_frac=0.2)).mean_retained_mass
        best_base = 0.0
        for kind in kinds:
            base = simulate(trace, BaselineConfig(kind=kind, budget_frac=0.2))
            best_base = max(best_base, base.mean_retained_mass)
            if adaptive >= base.mean_retained_mass:
                wins[kind] += 1
        margins.append(adaptive - best_base)
        del trace
    elapsed = time.monotonic() - t0
    for kind, count in wins.items():
        assert count >= 16, f"adaptive beat {kind.value} on only {count}/20 traces"
    assert elapsed < 120.0
    verdict(6, "adaptive wins " + ", ".join(
        f"{wins[k]}/20 vs {k.value}" for k in kinds
    ) + f"; worst margin {min(margins):+.3f} ({elapsed:.1f}s)")


def test_criterion_7_sparsity_curve_matches_exact_partial_sums():
    trace = generate_synthetic(SyntheticTraceSpec(
        num_layers=1, num_heads=1, prompt_len=1000, num_decode_steps=0,
        skew=1.5, modality_mix=0.0, head_preference_bias=0.0, seed=77,
    ))
    fracs = [i / 20 for i in range(1, 21)]
    rows = sparsity_curve(trace, fracs)
    psi = proxy_importance_matrix(trace)[0, 0]
    share_at = {f: s for f, g, s in rows if g == "all"}
    assert abs(share_at[0.2] - float(exact_topk_share(psi, 0.2))) <= 1e-9
    for group in ("all", "text", "visual"):
        shares = [s for f, g, s in sorted(rows) if g == group]
        assert all(b >= a for a, b in zip(shares, shares[1:]))
    verdict(7, "retained share at f=0.2 matches the exact partial sum; curves monotone")


def test_criterion_8_round_trips_and_reruns_are_byte_identical(tmp_path):
    trace = generate_synthetic(SyntheticTraceSpec(
        num_layers=2, num_heads=2, prompt_len=48, num_decode_steps=2,
        skew=1.2, modality_mix=0.5, head_preference_bias=0.7, seed=5,
    ))
    for suffix in (".json", ".mkvt"):
        first = tmp_path / f"a{suffix}"
        second = tmp_path / f"b{suffix}"
        save_trace(trace, first)
        save_trace(load_trace(first), second)
        assert first.read_bytes() == second.read_bytes()

    trace_path = tmp_path / "t.json"
    save_trace(trace, trace_path)
    out = tmp_path / "r"
    argv = ["compare", "--trace", str(trace_path),
            "--policy", "adaptive", "--policy", "recent_window",
            "--policy", "cumulative_topk", "--budget", "0.1,0.3",
            "--out", str(out)]
    assert main(argv) == 0
    first = tmp_path / "r_first"
    out.rename(first)
    assert main(argv) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in out.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (out / name).read_bytes()
    verdict(8, "save/load round-trips and compare reruns are byte-identical")
