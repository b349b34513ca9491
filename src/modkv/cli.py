"""Command-line front end.

Five subcommands: generate (synthetic traces), analyze (attention
statistics), run (one policy end to end, emitting plan/mask/report), compare
(policies x budgets on a set of traces), and sweep (compare extended with a
threshold grid).

Value precedence is flags > config file (--config, JSON) > built-in defaults.
The default output directory may also come from the MODKV_OUT environment
variable; an explicit --out wins. Exit codes: 0 success, 2 parameter or
configuration error, 3 trace/data error, 4 internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .baselines import BaselineConfig, BaselineKind
from .errors import FormatError, ModkvError, ParameterError, ValidationError
from .importance import ProxyConfig, head_text_share, sparsity_curve
from .files import write_atomic
from .policy import (
    PolicyConfig,
    PolicyMode,
    TraceTables,
    save_mask,
    save_plan,
)
from .report import write_table
from .simulate import SimReport, _report, compare, make_mask, memory_model_rows, replay
from .synth import SyntheticTraceSpec, generate_synthetic
from .trace import AttentionTrace, load_trace, save_trace

ENV_OUT = "MODKV_OUT"

BASELINE_NAMES = {kind.value for kind in BaselineKind}
POLICY_NAMES = {mode.value for mode in PolicyMode} | BASELINE_NAMES

DEFAULTS = {
    "layers": 2,
    "heads": 2,
    "prompt_len": 64,
    "decode_steps": 4,
    "skew": 1.2,
    "modality_mix": 0.5,
    "head_bias": "0.5",
    "seed": 0,
    "name": "trace",
    "trace_format": "text",
    "budget": "0.05,0.1,0.2,0.4,0.6",
    "theta": 0.9,
    "thetas": "0.5,0.7,0.9",
    "proxy_count": 8,
    "mode": "adaptive",
    "head_normalize": True,
    "min_keep": 0,
    "pin_proxy": True,
    "policy": [],
    "format": "csv",
}


def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ParameterError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in str(text).split(",") if x.strip() != ""]
    except ValueError:
        raise ParameterError(f"expected a comma-separated number list, got {text!r}") from None
    if not values:
        raise ParameterError(f"empty number list: {text!r}")
    return values


def _parse_policy_arg(text: str) -> tuple[str, dict]:
    """Parse NAME[:key=val,key=val] into (name, overrides)."""
    name, _, rest = str(text).partition(":")
    name = name.strip()
    if name not in POLICY_NAMES:
        raise ParameterError(
            f"unknown policy {name!r}; choose from {sorted(POLICY_NAMES)}"
        )
    params: dict = {}
    if rest:
        for piece in rest.split(","):
            key, eq, val = piece.partition("=")
            if not eq:
                raise ParameterError(f"bad policy parameter {piece!r} (expected key=val)")
            params[key.strip()] = val.strip()
    return name, params


def _coerce(value: str, like) -> object:
    if isinstance(like, bool):
        return _parse_bool(value)
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    return value


def build_policy_spec(name: str, params: dict, shared: dict, budget: float):
    """Materialize one policy config from its name, per-policy overrides, and
    the shared flag values."""
    def pick(key, default):
        raw = params.get(key)
        if raw is None:
            return default
        return _coerce(raw, default)

    if name in BASELINE_NAMES:
        return BaselineConfig(
            kind=BaselineKind(name),
            budget_frac=budget,
            sink_count=pick("sink_count", BaselineConfig.sink_count),
            observation_window=pick("observation_window", BaselineConfig.observation_window),
            text_priority_frac=pick("text_priority_frac", BaselineConfig.text_priority_frac),
        )
    return PolicyConfig(
        budget_frac=budget,
        coverage_threshold=pick("theta", float(shared["theta"])),
        proxy=ProxyConfig(pick("proxy_count", int(shared["proxy_count"]))),
        mode=PolicyMode(name),
        head_normalize_compensation=pick("head_normalize", bool(shared["head_normalize"])),
        min_keep_per_modality=pick("min_keep", int(shared["min_keep"])),
        pin_proxy_tokens=pick("pin_proxy", bool(shared["pin_proxy"])),
    )


# ---------------------------------------------------------------------------
# argument plumbing


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or '.')")
    p.add_argument("--seed", type=int, help="seed recorded in the effective config")


def _add_table_flags(p: argparse.ArgumentParser) -> None:
    """Shared flags plus those of the subcommands that read traces and
    write tables."""
    _add_shared_flags(p)
    p.add_argument("--format", choices=["csv", "json"], help="table format")
    p.add_argument("--trace", action="append", required=True, help="trace file; repeatable")


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--policy",
        action="append",
        metavar="NAME[:key=val,...]",
        help="policy to evaluate; repeatable",
    )
    p.add_argument("--budget", help="comma-separated budget fractions")
    p.add_argument("--theta", type=float, help="coverage threshold for the adaptive policies")
    p.add_argument("--proxy-count", type=int, dest="proxy_count", help="proxy rows for importance")
    p.add_argument("--mode", choices=["adaptive", "proportional"], help="default policy mode")
    p.add_argument(
        "--head-normalize",
        dest="head_normalize",
        type=_parse_bool,
        metavar="BOOL",
        help="normalize budget compensation by head count",
    )
    p.add_argument("--min-keep", dest="min_keep", type=int, help="per-modality keep floor")
    p.add_argument(
        "--pin-proxy", dest="pin_proxy", type=_parse_bool, metavar="BOOL",
        help="always keep proxy tokens",
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modkv",
        description="Trace-driven simulator for modality-aware KV cache eviction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic trace")
    _add_shared_flags(g)
    g.add_argument("--name", help="output file stem (default 'trace')")
    g.add_argument("--trace-format", dest="trace_format", choices=["text", "binary"])
    g.add_argument("--layers", type=int)
    g.add_argument("--heads", type=int)
    g.add_argument("--prompt-len", dest="prompt_len", type=int)
    g.add_argument("--decode-steps", dest="decode_steps", type=int)
    g.add_argument("--skew", type=float)
    g.add_argument("--modality-mix", dest="modality_mix", type=float)
    g.add_argument(
        "--head-bias", dest="head_bias",
        help="visual share per head: one value or a comma list",
    )

    a = sub.add_parser("analyze", help="sparsity curve and head modality shares")
    _add_table_flags(a)
    a.add_argument("--budget", help="comma-separated budget fractions for the curve")
    a.add_argument("--proxy-count", dest="proxy_count", type=int)

    r = sub.add_parser("run", help="run one policy, emitting plan, mask, and report")
    _add_table_flags(r)
    _add_policy_flags(r)

    c = sub.add_parser("compare", help="compare policies across budgets")
    _add_table_flags(c)
    _add_policy_flags(c)

    s = sub.add_parser("sweep", help="compare across budgets and thresholds")
    _add_table_flags(s)
    _add_policy_flags(s)
    s.add_argument("--thetas", help="comma-separated coverage thresholds")

    return parser


def effective_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and explicit flags (flags win)."""
    opts = dict(DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config {cfg_path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config {cfg_path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ParameterError(f"config {cfg_path} must hold a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        opts.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config", "trace", "out"):
            continue
        if value is not None and (key != "policy" or value):
            opts[key] = value
    opts["out"] = getattr(args, "out", None) or os.environ.get(ENV_OUT) or "."
    return opts


def _echo_config(out_dir: Path, command: str, opts: dict, traces: list[str]) -> None:
    payload = {
        "command": command,
        "options": {k: opts[k] for k in sorted(opts)},
        "traces": traces,
    }
    body = json.dumps(payload, separators=(",", ":"), sort_keys=False).encode("utf-8") + b"\n"
    write_atomic(out_dir / "effective_config.json", body)


def _prepare_out(opts: dict) -> Path:
    out_dir = Path(opts["out"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create output directory {out_dir}: {exc}") from None
    return out_dir


def _load_traces(paths: list[str], rows: int | None = None) -> list[tuple[str, AttentionTrace]]:
    """Load every trace, keeping the last `rows` prefill rows (None: all)."""
    loaded = []
    for p in paths:
        try:
            loaded.append((Path(p).stem, load_trace(p, rows=rows)))
        except OSError as exc:
            raise FormatError(f"cannot read trace {p}: {exc}") from None
    return loaded


def _rows_read(specs) -> int:
    """Prefill rows the specs read between them: the most proxy or
    observation-window rows any of them uses, and at least one."""
    return max([1, *(spec.prefill_rows for spec in specs)])


def _policy_list(opts: dict) -> list[tuple[str, dict]]:
    raw = opts["policy"]
    if not raw:
        raw = [opts["mode"], "recent_window", "cumulative_topk"]
    return [_parse_policy_arg(p) for p in raw]


def _report_rows(name: str, rep: SimReport) -> dict:
    return {
        "trace": name,
        "policy": rep.policy,
        "budget_frac": rep.budget_frac,
        "theta": rep.theta,
        "mean_retained_mass": rep.mean_retained_mass,
        "total_kept_tokens": int(rep.kept_counts.sum()),
        "memory_bytes_est": rep.memory_bytes_est,
        "warnings": ";".join(rep.warnings),
    }


COMPARE_COLUMNS = [
    "trace", "policy", "budget_frac", "theta", "mean_retained_mass",
    "total_kept_tokens", "memory_bytes_est", "warnings",
]
SERIES_COLUMNS = ["trace", "policy", "budget_frac", "theta", "step", "retained_mass"]


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args: argparse.Namespace) -> int:
    opts = effective_options(args)
    out_dir = _prepare_out(opts)
    bias = _parse_float_list(str(opts["head_bias"]))
    if len(bias) == 1:
        bias = bias * int(opts["heads"])
    spec = SyntheticTraceSpec(
        num_layers=int(opts["layers"]),
        num_heads=int(opts["heads"]),
        prompt_len=int(opts["prompt_len"]),
        num_decode_steps=int(opts["decode_steps"]),
        skew=float(opts["skew"]),
        modality_mix=float(opts["modality_mix"]),
        head_preference_bias=tuple(bias),
        seed=int(opts["seed"]),
    )
    trace = generate_synthetic(spec)
    binary = opts["trace_format"] == "binary"
    path = out_dir / f"{opts['name']}.{'mkvt' if binary else 'json'}"
    save_trace(trace, path, binary=binary)
    _echo_config(out_dir, "generate", opts, [str(path)])
    print(f"wrote {path}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    opts = effective_options(args)
    out_dir = _prepare_out(opts)
    traces = _load_traces(args.trace)
    fracs = _parse_float_list(str(opts["budget"]))
    proxy = ProxyConfig(int(opts["proxy_count"]))
    fmt = opts["format"]

    curve_rows, share_rows = [], []
    for name, trace in traces:
        for frac, group, share in sparsity_curve(trace, fracs, proxy):
            curve_rows.append(
                {"trace": name, "group": group, "budget_frac": frac, "retained_share": share}
            )
        for l in range(trace.header.num_layers):
            for hd in range(trace.header.num_heads):
                share_rows.append(
                    {
                        "trace": name,
                        "layer": l,
                        "head": hd,
                        "text_share": head_text_share(trace, l, hd),
                    }
                )
    write_table(out_dir / f"sparsity.{fmt}", curve_rows,
                ["trace", "group", "budget_frac", "retained_share"], fmt)
    write_table(out_dir / f"head_shares.{fmt}", share_rows,
                ["trace", "layer", "head", "text_share"], fmt)
    _echo_config(out_dir, "analyze", opts, args.trace)
    print(f"wrote {out_dir / f'sparsity.{fmt}'} and {out_dir / f'head_shares.{fmt}'}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    opts = effective_options(args)
    out_dir = _prepare_out(opts)
    budgets = _parse_float_list(str(opts["budget"]))
    if len(budgets) != 1:
        raise ParameterError(
            f"run takes exactly one --budget value, got {len(budgets)}: {opts['budget']}"
        )
    policies = opts["policy"] or [opts["mode"]]
    if len(policies) != 1:
        raise ParameterError(f"run takes exactly one --policy, got {len(policies)}")
    budget = budgets[0]
    name, params = _parse_policy_arg(policies[0])
    spec = build_policy_spec(name, params, opts, budget)
    traces = _load_traces(args.trace, _rows_read([spec]))
    fmt = opts["format"]

    rows = []
    for trace_name, trace in traces:
        tables = TraceTables(trace)
        mask, plan, warnings = make_mask(trace, spec, tables=tables)
        if plan is not None:
            save_plan(plan, out_dir / f"{trace_name}__{name}_plan.json")
        save_mask(mask, out_dir / f"{trace_name}__{name}_mask.json")
        rep = _report(spec, mask, warnings, replay(trace, mask, tables=tables))
        rows.append(_report_rows(trace_name, rep))
    write_table(out_dir / f"report.{fmt}", rows, COMPARE_COLUMNS, fmt)
    _echo_config(out_dir, "run", opts, args.trace)
    print(f"wrote {out_dir / f'report.{fmt}'}")
    return 0


def _run_grid(args: argparse.Namespace, thetas: list[float] | None) -> int:
    opts = effective_options(args)
    out_dir = _prepare_out(opts)
    budgets = _parse_float_list(str(opts["budget"]))
    theta_grid = thetas if thetas is not None else [None]
    policies = _policy_list(opts)
    fmt = opts["format"]

    cells = []
    for budget in budgets:
        for grid_index, theta in enumerate(theta_grid):
            shared = dict(opts)
            if theta is not None:
                shared["theta"] = theta
            # Baselines ignore the coverage threshold, so evaluate them
            # only at the first grid point.
            cell = policies if grid_index == 0 else [
                (n, p) for n, p in policies if n not in BASELINE_NAMES
            ]
            if cell:
                cells.append([build_policy_spec(n, p, shared, budget) for n, p in cell])
    grid_specs = [spec for specs in cells for spec in specs]
    traces = _load_traces(args.trace, _rows_read(grid_specs))

    rows, series = [], []
    for trace_name, trace in traces:
        # Every cell on this trace reuses one set of rankings; rebinding on
        # the next trace frees them.
        tables = TraceTables(trace)
        tables.fill_needs(grid_specs)
        for specs in cells:
            for rep in compare(trace, specs, tables=tables):
                rows.append(_report_rows(trace_name, rep))
                for step, mass in enumerate(rep.per_step_retained_mass):
                    series.append(
                        {
                            "trace": trace_name,
                            "policy": rep.policy,
                            "budget_frac": rep.budget_frac,
                            "theta": rep.theta,
                            "step": step + 1,
                            "retained_mass": mass,
                        }
                    )
    rows.sort(
        key=lambda r: (
            r["trace"], r["budget_frac"], -r["mean_retained_mass"], r["policy"],
            r["theta"] if r["theta"] is not None else -1.0,
        )
    )
    write_table(out_dir / f"compare.{fmt}", rows, COMPARE_COLUMNS, fmt)
    write_table(out_dir / f"series.{fmt}", series, SERIES_COLUMNS, fmt)
    mem_rows = [
        {"budget_frac": f, "model_gib": m, "measured_gib": a}
        for f, m, a in memory_model_rows(budgets)
    ]
    write_table(out_dir / f"memory_model.{fmt}", mem_rows,
                ["budget_frac", "model_gib", "measured_gib"], fmt)
    _echo_config(out_dir, args.command, opts, args.trace)
    print(f"wrote {out_dir / f'compare.{fmt}'}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    return _run_grid(args, None)


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = effective_options(args)
    return _run_grid(args, _parse_float_list(str(opts["thetas"])))


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "analyze": cmd_analyze,
        "run": cmd_run,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ValidationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ModkvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - report, don't traceback-bomb
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
