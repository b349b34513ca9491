"""Trace replay, the linear memory model, and policy comparison.

Replay is strictly read-only: it walks the recorded decode-step vectors and
measures how much of each step's attention mass lands on positions a policy
kept. Nothing is recomputed from queries and keys; a policy is judged purely
on what the recorded run would still have been able to see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baselines import BaselineConfig, baseline_mask
from .errors import ModkvError, ValidationError
from .policy import (
    BudgetPlan,
    EvictionMask,
    PolicyConfig,
    TraceTables,
    _pinning,
    build_masks,
    plan_budgets,
)
from .trace import AttentionTrace

# Bytes of KV cache per retained token, per layer, per head: K and V vectors
# at head dimension 64 in 16-bit precision.
DEFAULT_BYTES_PER_TOKEN = 2 * 2 * 64

# Published A100 measurements for a 7B multimodal model (GiB of KV cache at
# full budget, 20%, and 5%). Real hardware deviates a little from strict
# proportionality (allocator granularity, fragmentation); the linear model
# below is exact by construction, and reports print both side by side.
MEASURED_GIB_BY_BUDGET = {1.0: 1.63, 0.2: 0.41, 0.05: 0.16}
FULL_CACHE_GIB = MEASURED_GIB_BY_BUDGET[1.0]

PolicySpec = PolicyConfig | BaselineConfig


@dataclass
class SimReport:
    """Outcome of replaying one policy against one trace.

    theta is the policy's coverage threshold, None for a baseline.
    """

    policy: str
    budget_frac: float
    theta: float | None
    per_step_retained_mass: list[float]
    mean_retained_mass: float
    kept_counts: np.ndarray
    memory_bytes_est: int
    warnings: list[str] = field(default_factory=list)


def replay(tables: TraceTables | AttentionTrace, mask: EvictionMask) -> list[float]:
    """Retained attention mass per decode step, averaged over (layer, head).

    A step's retained mass for one (layer, head) is the share of the recorded
    vector's mass on surviving positions: the kept prompt tokens plus every
    decode token generated so far (decode tokens are never evicted). Each
    share is normalized by the vector's own recorded total, so keeping
    everything yields exactly 1.0 regardless of float32 storage noise.

    `tables` shares the stacked float64 decode table and its totals with
    other replays of the same trace; given the trace itself, they are built
    for this call.
    """
    tables = TraceTables.of(tables)
    h = tables.header
    L, H, n = h.num_layers, h.num_heads, h.prompt_len
    if mask.keep.shape != (L, H, n):
        raise ValidationError(
            f"mask shape {mask.keep.shape} does not match trace ({L}, {H}, {n})"
        )
    if mask.keep.all():
        return [1.0] * tables.num_steps
    prompt, tail, denom = tables.decode()
    # Each (layer, head, step) sum runs the same contiguous sum of products
    # over the n prompt columns as an einsum over one step would, so the
    # sums are bit-identical to a per-step replay. Every step's (L, H) block
    # is then contiguous, as np.mean's summation order requires.
    kept = np.einsum("lhsn,lhn->lhs", prompt, mask.keep.astype(np.float64))
    numer = np.ascontiguousarray(kept.transpose(2, 0, 1)) + tail
    ratio = np.clip(np.divide(numer, denom, out=np.ones_like(numer), where=denom > 0), 0.0, 1.0)
    # One row per step: each row's mean sums as np.mean over that step does.
    return ratio.reshape(tables.num_steps, L * H).mean(axis=1).tolist()


def estimate_memory(kept_counts: np.ndarray, bytes_per_token: int = DEFAULT_BYTES_PER_TOKEN) -> int:
    """KV-cache bytes for the kept tokens; exactly linear in the total count."""
    return int(np.asarray(kept_counts).sum()) * int(bytes_per_token)


def memory_model_rows(budget_fracs) -> list[tuple[float, float, float | None]]:
    """(budget_frac, modeled GiB, measured GiB or None) for the report."""
    rows = []
    for f in budget_fracs:
        f = float(f)
        rows.append((f, FULL_CACHE_GIB * f, MEASURED_GIB_BY_BUDGET.get(f)))
    return rows


def make_mask(
    tables: TraceTables | AttentionTrace, spec: PolicySpec
) -> tuple[EvictionMask, BudgetPlan | None, list[str]]:
    """Build the keep-vectors for any policy spec; returns (mask, plan,
    warnings), where plan is None for a baseline."""
    tables = TraceTables.of(tables)
    if isinstance(spec, PolicyConfig):
        plan = plan_budgets(tables, spec)
        mask = build_masks(tables, plan, spec)
        return mask, plan, plan.warnings + mask.warnings
    mask = baseline_mask(tables, spec)
    return mask, None, list(mask.warnings)


def _theta(spec: PolicySpec) -> float | None:
    return spec.coverage_threshold if isinstance(spec, PolicyConfig) else None


def _report(spec: PolicySpec, kept: np.ndarray, warnings: list[str],
            per_step: list[float]) -> SimReport:
    """The SimReport of `spec`, given its kept counts and replayed masses."""
    return SimReport(
        policy=spec.name,
        budget_frac=spec.budget_frac,
        theta=_theta(spec),
        per_step_retained_mass=per_step,
        mean_retained_mass=float(np.mean(per_step)) if per_step else 1.0,
        kept_counts=kept,
        memory_bytes_est=estimate_memory(kept),
        warnings=warnings,
    )


def _mask_replay(tables: TraceTables, plan: BudgetPlan,
                 cfg: PolicyConfig) -> tuple[np.ndarray, list[float], list[str]]:
    """Kept counts, per-step masses and mask warnings of `plan` under `cfg`.

    `build_masks` and `replay` run once per distinct keep-set on `tables`;
    a repeat reuses their counts and masses and rebuilds the warnings.
    Counts never exceed the prompt length, so they are stored as int32;
    each caller gets its own int64 copy of them and its own list of masses.
    """
    warnings = None

    def build():
        nonlocal warnings
        mask = build_masks(tables, plan, cfg)
        warnings = mask.warnings
        return mask.kept_counts().astype(np.int32), tuple(replay(tables, mask))

    kept, per_step = tables.replayed(plan, cfg, build)
    if warnings is None:
        warnings = _pinning(tables.header, plan, cfg)[2]
    return kept.astype(np.int64), list(per_step), warnings


def simulate(tables: TraceTables | AttentionTrace, spec: PolicySpec) -> SimReport:
    """Plan, mask, and replay one policy against one trace's tables (or the
    trace itself)."""
    tables = TraceTables.of(tables)
    if isinstance(spec, PolicyConfig):
        plan = plan_budgets(tables, spec)
        kept, per_step, warnings = _mask_replay(tables, plan, spec)
        return _report(spec, kept, plan.warnings + warnings, per_step)
    mask = baseline_mask(tables, spec)
    return _report(spec, mask.kept_counts(), list(mask.warnings), replay(tables, mask))


def compare(tables: TraceTables | AttentionTrace, specs) -> list[SimReport]:
    """Run several policies on one trace.

    Reports come back sorted by mean retained mass (descending), name as the
    tie-break. A policy that raises a ModkvError (a bad parameter for this
    trace, say) is reported with zero mass and the error in its warnings; it
    does not abort the batch. Any other exception is a bug and propagates.
    The policies share `tables`, or, given the trace itself, one set built
    for this call.
    """
    tables = TraceTables.of(tables)
    h = tables.header
    reports = []
    for spec in specs:
        try:
            reports.append(simulate(tables, spec))
        except ModkvError as exc:
            reports.append(
                SimReport(
                    policy=spec.name,
                    budget_frac=spec.budget_frac,
                    theta=_theta(spec),
                    per_step_retained_mass=[],
                    mean_retained_mass=0.0,
                    kept_counts=np.zeros((h.num_layers, h.num_heads), dtype=np.int64),
                    memory_bytes_est=0,
                    warnings=[f"policy failed: {exc}"],
                )
            )
    return sorted(reports, key=lambda r: (-r.mean_retained_mass, r.policy))
