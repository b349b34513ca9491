"""Trace-driven simulation of modality-aware KV cache eviction.

The package consumes recorded post-softmax attention traces from multimodal
transformer inference, plans per-(layer, head, modality) retention budgets,
materializes eviction masks, and replays decode steps to measure how much
attention mass each policy would have preserved.
"""

from .allocation import round_half_up
from .baselines import BaselineConfig, BaselineKind, baseline_mask
from .errors import FormatError, ModkvError, ParameterError, ValidationError
from .importance import (
    ProxyConfig,
    head_text_share,
    proxy_importance_matrix,
    sparsity_curve,
)
from .policy import (
    BudgetPlan,
    EvictionMask,
    PolicyConfig,
    PolicyMode,
    TraceTables,
    build_masks,
    coverage_counts,
    plan_budgets,
    save_mask,
    save_plan,
)
from .simulate import (
    DEFAULT_BYTES_PER_TOKEN,
    MEASURED_GIB_BY_BUDGET,
    SimReport,
    compare,
    estimate_memory,
    memory_model_rows,
    replay,
    simulate,
)
from .synth import SyntheticTraceSpec, generate_synthetic
from .trace import (
    AttentionTrace,
    Modality,
    TraceHeader,
    load_trace,
    save_trace,
    trace_from_binary,
    trace_from_text,
    trace_to_binary,
    trace_to_text,
)

__version__ = "0.1.0"
