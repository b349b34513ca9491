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


def replay(
    trace: AttentionTrace, mask: EvictionMask, *, tables: TraceTables | None = None
) -> list[float]:
    """Retained attention mass per decode step, averaged over (layer, head).

    A step's retained mass for one (layer, head) is the share of the recorded
    vector's mass on surviving positions: the kept prompt tokens plus every
    decode token generated so far (decode tokens are never evicted). Each
    share is normalized by the vector's own recorded total, so keeping
    everything yields exactly 1.0 regardless of float32 storage noise.

    `tables` shares the float64 decode vectors and their totals with other
    replays of the same trace.
    """
    h = trace.header
    L, H, n = h.num_layers, h.num_heads, h.prompt_len
    if mask.keep.shape != (L, H, n):
        raise ValidationError(
            f"mask shape {mask.keep.shape} does not match trace ({L}, {H}, {n})"
        )
    if mask.keep.all():
        return [1.0] * len(trace.decode)
    if tables is None:
        tables = TraceTables(trace)
    keep_f = mask.keep.astype(np.float64)
    out = []
    for v, tail, denom in tables.decode():
        numer = np.einsum("lhn,lhn->lh", v[:, :, :n], keep_f) + tail
        ratio = np.divide(numer, denom, out=np.ones_like(numer), where=denom > 0)
        out.append(float(np.mean(np.clip(ratio, 0.0, 1.0))))
    return out


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
    trace: AttentionTrace, spec: PolicySpec, *, tables: TraceTables | None = None
) -> tuple[EvictionMask, BudgetPlan | None, list[str]]:
    """Build the keep-vectors for any policy spec; returns (mask, plan,
    warnings), where plan is None for a baseline."""
    if isinstance(spec, PolicyConfig):
        plan = plan_budgets(trace, spec, tables=tables)
        mask = build_masks(trace, plan, spec, tables=tables)
        return mask, plan, plan.warnings + mask.warnings
    mask = baseline_mask(trace, spec, tables=tables)
    return mask, None, list(mask.warnings)


def _theta(spec: PolicySpec) -> float | None:
    return spec.coverage_threshold if isinstance(spec, PolicyConfig) else None


def _report(spec: PolicySpec, mask: EvictionMask, warnings: list[str],
            per_step: list[float]) -> SimReport:
    """The SimReport of `spec`, given its mask and its replayed masses."""
    kept = mask.kept_counts()
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


def simulate(
    trace: AttentionTrace, spec: PolicySpec, *, tables: TraceTables | None = None
) -> SimReport:
    """Plan, mask, and replay one policy against one trace."""
    if tables is None:
        tables = TraceTables(trace)
    mask, _, warnings = make_mask(trace, spec, tables=tables)
    return _report(spec, mask, warnings, replay(trace, mask, tables=tables))


def compare(trace: AttentionTrace, specs, *, tables: TraceTables | None = None) -> list[SimReport]:
    """Run several policies on one trace.

    Reports come back sorted by mean retained mass (descending), name as the
    tie-break. A policy that raises a ModkvError (a bad parameter for this
    trace, say) is reported with zero mass and the error in its warnings; it
    does not abort the batch. Any other exception is a bug and propagates.
    The policies share `tables`, or one set built for this call.
    """
    h = trace.header
    if tables is None:
        tables = TraceTables(trace)
    reports = []
    for spec in specs:
        try:
            reports.append(simulate(trace, spec, tables=tables))
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
