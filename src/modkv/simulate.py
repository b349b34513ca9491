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
from .errors import ModkvError, ParameterError, ValidationError
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


# `replay` multiplies a keep-set into a step's prompt columns this many
# float64 scores at a time (512 KiB), so that the block of the step and the
# keep-set's block stay in cache for every keep-set.
_REPLAY_BLOCK = 1 << 16


def replay(tables: TraceTables | AttentionTrace, masks, steps=None):
    """Retained attention mass per decode step, averaged over (layer, head).

    A step's retained mass for one (layer, head) is the share of the recorded
    vector's mass on surviving positions: the kept prompt tokens plus every
    decode token generated so far (decode tokens are never evicted). Each
    share is normalized by the vector's own recorded total, so keeping
    everything yields exactly 1.0 regardless of float32 storage noise.

    `masks` is one EvictionMask, for its list of masses, or a list of
    keep-sets, each (L, H, n) bool packed by `np.packbits(keep, axis=-1)`,
    for one such list per keep-set. `steps` yields the decode steps, each
    (L, H, n + s) float32, as a loader's `on_decode` gets them; None reads
    them from the trace of `tables` through `decode_rows`. Each step is
    replayed on every keep-set before the next is read, so one step is held
    at a time, as float64, with one block of one keep-set unpacked into
    float64 beside it.
    """
    tables = TraceTables.of(tables)
    h = tables.header
    L, H, n = h.num_layers, h.num_heads, h.prompt_len
    if isinstance(masks, EvictionMask):
        if masks.keep.shape != (L, H, n):
            raise ValidationError(
                f"mask shape {masks.keep.shape} does not match trace ({L}, {H}, {n})"
            )
        return replay(tables, [np.packbits(masks.keep, axis=-1)], steps)[0]
    rows = L * H
    keeps = [np.asarray(keep).reshape(rows, -1) for keep in masks]
    masses = [[] for _ in keeps]
    # A keep-set that keeps every position retains all of every step.
    live = []
    for k, keep in enumerate(keeps):
        if np.unpackbits(keep, axis=-1, count=n).all():
            masses[k] = [1.0] * tables.num_steps
        else:
            live.append(k)
    if not live:
        return masses
    if steps is None:
        if tables.trace is None:
            raise ParameterError(
                "the decode steps of these tables were read while their file was "
                "loaded; only the specs settled then can be replayed"
            )
        steps = tables.trace.decode_steps()
    # Every buffer is allocated once: the widest step as float64, one block
    # of a keep-set, and each keep-set's kept mass and ratio per (layer, head).
    wide = np.empty(rows * (n + max(tables.num_steps - 1, 0)), dtype=np.float64)
    block = min(rows, max(1, _REPLAY_BLOCK // n))
    unpacked = np.empty((block, n), dtype=np.float64)
    numer = np.empty((len(live), rows), dtype=np.float64)
    ratio = np.empty_like(numer)
    for step in steps:
        v = wide[:step.size].reshape(step.shape)
        np.copyto(v, step)
        del step  # not held while the next is read
        prompt = v[:, :, :n].reshape(rows, n)
        for lo in range(0, rows, block):
            hi = min(lo + block, rows)
            for i, k in enumerate(live):
                np.copyto(unpacked[:hi - lo], np.unpackbits(keeps[k][lo:hi], axis=-1, count=n))
                # Each row runs the same contiguous sum of products over the
                # n prompt columns as an einsum over the whole step would, so
                # the sums are bit-identical to a per-step replay.
                np.einsum("rn,rn->r", prompt[lo:hi], unpacked[:hi - lo], out=numer[i, lo:hi])
        numer += v[:, :, n:].sum(axis=2).reshape(rows)
        denom = v.sum(axis=2).reshape(rows)
        ratio.fill(1.0)
        np.divide(numer, denom, out=ratio, where=denom > 0)
        np.clip(ratio, 0.0, 1.0, out=ratio)
        # One row per keep-set: each row's mean sums as np.mean over the
        # step's (L, H) ratios does.
        for k, mass in zip(live, ratio.mean(axis=1).tolist()):
            masses[k].append(mass)
    return masses


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


class _KeepSet:
    """One distinct keep-set of an evaluation: its kept counts, (L, H)
    int32, its keep-vectors packed along positions until it is replayed, and
    then its per-step retained masses."""

    __slots__ = ("kept", "packed", "masses")

    def __init__(self, mask: EvictionMask):
        # Counts never exceed the prompt length, so int32 holds them.
        self.kept = mask.kept_counts().astype(np.int32)
        self.packed = np.packbits(mask.keep, axis=-1)
        self.masses = None


def _plan_cell(tables: TraceTables, spec: PolicySpec, fresh: dict) -> tuple:
    """Phase 1 of one cell: `spec`'s keep-set, the warnings of its plan, and
    for a threshold policy its keep-set's key, from which the pinned-proxy
    warnings are rebuilt when it is reported.

    A threshold policy is planned, and `build_masks` runs only for a
    keep-set that neither `tables.replayed` nor `fresh` holds. A baseline's
    mask is built every time. Each new keep-set is added to `fresh`, under
    its key or, for a baseline, under a key of its own.
    """
    if isinstance(spec, PolicyConfig):
        plan = plan_budgets(tables, spec)
        key = tables.keep_key(plan, spec)
        entry = tables.replayed.get(key) or fresh.get(key)
        if entry is None:
            entry = fresh[key] = _KeepSet(build_masks(tables, plan, spec))
        return entry, plan.warnings, key
    mask = baseline_mask(tables, spec)
    entry = fresh[("baseline", len(fresh))] = _KeepSet(mask)
    return entry, mask.warnings, None


def _plan_cells(tables: TraceTables, specs) -> tuple[list, dict]:
    """Phase 1 of an evaluation: each spec's `_plan_cell` outcome, or the
    ModkvError it raised, and the new keep-sets to replay, by key. It reads
    only the prefill-derived tables."""
    fresh: dict = {}
    outcomes = []
    for spec in specs:
        try:
            outcomes.append(_plan_cell(tables, spec, fresh))
        except ModkvError as exc:
            outcomes.append(exc)
    return outcomes, fresh


def _replay_fresh(tables: TraceTables, fresh: dict, steps) -> None:
    """Phase 2 of an evaluation: every new keep-set replayed in one `replay`
    call over `steps` (None reads the trace of `tables`). The threshold
    policies' keep-sets then join `tables.replayed`, holding only their
    counts and masses."""
    if not fresh:
        return
    masses = replay(tables, [entry.packed for entry in fresh.values()], steps)
    for (key, entry), per_step in zip(fresh.items(), masses):
        entry.packed, entry.masses = None, tuple(per_step)
        if key[0] != "baseline":
            tables.replayed[key] = entry


def settle(tables: TraceTables, specs, steps=None) -> None:
    """Evaluate every spec in `specs` on `tables` in one pass over the
    decode steps `steps` (see `replay`), and keep each spec's outcome in
    `tables.settled`, so that `compare` and `simulate` report it once the
    steps are gone. `TraceTables.load` calls it while the file streams.

    Phase 1 plans every cell, with the coverage needs of every threshold
    from one sort per row count (`TraceTables.fill_needs`), and builds each
    distinct keep-set once. The prefill-derived tables are then dropped
    (`TraceTables.release_prefill`), before phase 2 replays the keep-sets.
    A kept outcome is the spec's keep-set and its plan's warnings, or the
    ModkvError it raised, without its traceback.
    """
    tables.fill_needs(specs)
    outcomes, fresh = _plan_cells(tables, specs)
    tables.release_prefill()
    _replay_fresh(tables, fresh, steps)
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, ModkvError):
            outcome = outcome.with_traceback(None)
        tables.settled[spec] = outcome


def _outcomes(tables: TraceTables, specs) -> list:
    """The outcome of each spec: settled already, or evaluated now in two
    phases on the trace of `tables`, in one pass over its decode steps."""
    outcomes = [tables.settled.get(spec) for spec in specs]
    todo = [spec for spec, outcome in zip(specs, outcomes) if outcome is None]
    planned, fresh = _plan_cells(tables, todo)
    _replay_fresh(tables, fresh, None)
    planned = iter(planned)
    return [next(planned) if outcome is None else outcome for outcome in outcomes]


def _outcome_report(tables: TraceTables, spec: PolicySpec, outcome) -> SimReport:
    """The report of a spec's `_plan_cell` outcome. A threshold policy's
    pinned-proxy warnings are rebuilt from its keep-set's allocations
    through `_pinning`, the helper `build_masks` also calls, so no outcome
    holds them. Each report gets its own int64 copy of the counts and its
    own lists."""
    entry, warnings, key = outcome
    if key is not None:
        allocs = tables.key_allocations(key)
        warnings = warnings + _pinning(tables.header, *allocs, spec)[2]
    return _report(spec, entry.kept.astype(np.int64), list(warnings), list(entry.masses))


def simulate(tables: TraceTables | AttentionTrace, spec: PolicySpec) -> SimReport:
    """Plan, mask, and replay one policy against one trace's tables (or the
    trace itself): the two phases of `compare` with one cell. A ModkvError
    the policy raises is raised."""
    tables = TraceTables.of(tables)
    (outcome,) = _outcomes(tables, [spec])
    if isinstance(outcome, ModkvError):
        raise outcome
    return _outcome_report(tables, spec, outcome)


def compare(tables: TraceTables | AttentionTrace, specs) -> list[SimReport]:
    """Run several policies on one trace.

    Reports come back sorted by mean retained mass (descending), name as the
    tie-break. A policy that raises a ModkvError (a bad parameter for this
    trace, say) is reported with zero mass and the error in its warnings; it
    does not abort the batch. Any other exception is a bug and propagates.
    The policies share `tables`, or, given the trace itself, one set built
    for this call. Every spec not settled on `tables` is planned and masked
    first, and all their keep-sets are then replayed in one pass over the
    decode steps.
    """
    tables = TraceTables.of(tables)
    h = tables.header
    reports = []
    for spec, outcome in zip(specs, _outcomes(tables, specs)):
        if isinstance(outcome, ModkvError):
            reports.append(
                SimReport(
                    policy=spec.name,
                    budget_frac=spec.budget_frac,
                    theta=_theta(spec),
                    per_step_retained_mass=[],
                    mean_retained_mass=0.0,
                    kept_counts=np.zeros((h.num_layers, h.num_heads), dtype=np.int64),
                    memory_bytes_est=0,
                    warnings=[f"policy failed: {outcome}"],
                )
            )
        else:
            reports.append(_outcome_report(tables, spec, outcome))
    return sorted(reports, key=lambda r: (-r.mean_retained_mass, r.policy))
