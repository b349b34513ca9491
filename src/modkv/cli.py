"""Command-line front end.

Five subcommands: generate (synthetic traces), analyze (attention
statistics), run (one policy end to end, emitting plan/mask/report), compare
(policies x budgets on a set of traces), and sweep (compare extended with a
threshold grid).

A subcommand's flags are its options: each flag gives an option's default,
its key in a --config file (JSON) and the type its value is parsed with.
Value precedence is flags > config file > flag defaults. The default output
directory may also come from the MODKV_OUT environment variable; an explicit
--out wins. Exit codes: 0 success, 2 parameter or configuration error, 3
trace/data error, 4 internal failure.
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
from .files import canonical_json, write_atomic
from .policy import PolicyConfig, PolicyMode, TraceTables, save_mask, save_plan
from .report import FORMATS, write_table
from .simulate import (
    SimReport,
    _report,
    compare,
    make_mask,
    memory_model_rows,
    replay,
    settle,
)
from .synth import SyntheticTraceSpec, generate_synthetic
from .trace import load_trace, save_trace

ENV_OUT = "MODKV_OUT"


def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


# The threshold policies' settings, key: (type, default, help). Each is a
# flag of run, compare and sweep (sweep fans theta over --thetas instead)
# and a per-policy override key, parsed with the same type.
POLICY_SETTINGS = {
    "theta": (float, PolicyConfig.coverage_threshold,
              "coverage threshold for the adaptive policies"),
    "proxy_count": (int, ProxyConfig.proxy_count, "proxy rows for importance"),
    "head_normalize": (_parse_bool, PolicyConfig.head_normalize_compensation,
                       "normalize budget compensation by head count"),
    "min_keep": (int, PolicyConfig.min_keep_per_modality, "per-modality keep floor"),
    "pin_proxy": (_parse_bool, PolicyConfig.pin_proxy_tokens, "always keep proxy tokens"),
}

# The override keys each policy reads (NAME:key=val), with their types: a
# baseline's are the BaselineConfig fields its rule uses.
OVERRIDE_KEYS = {
    BaselineKind.RECENT_WINDOW.value: {},
    BaselineKind.SINK_WINDOW.value: {"sink_count": int},
    BaselineKind.CUMULATIVE_TOPK.value: {"observation_window": int},
    BaselineKind.FIXED_PRIORITY.value: {"observation_window": int, "text_priority_frac": float},
    **{mode.value: {k: kind for k, (kind, _, _) in POLICY_SETTINGS.items()}
       for mode in PolicyMode},
}
BASELINE_NAMES = {kind.value for kind in BaselineKind}


def _parse_value(kind, value, key: str):
    """`value` parsed with an option's type; a bad value is a parameter
    error naming `key`."""
    try:
        return kind(str(value))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ParameterError(f"bad value for {key}: {exc}") from None


def _float_list(opts: dict, key: str) -> list[float]:
    text = opts[key]
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ParameterError(f"{key}: expected a comma-separated number list, got {text!r}") from None
    if not values:
        raise ParameterError(f"{key}: empty number list: {text!r}")
    return values


def _parse_policy_arg(text: str) -> tuple[str, dict]:
    """Parse NAME[:key=val,key=val] into (name, overrides)."""
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in OVERRIDE_KEYS:
        raise ParameterError(f"unknown policy {name!r}; choose from {sorted(OVERRIDE_KEYS)}")
    params: dict = {}
    if rest:
        for piece in rest.split(","):
            key, eq, val = piece.partition("=")
            if not eq:
                raise ParameterError(f"bad policy parameter {piece!r} (expected key=val)")
            params[key.strip()] = val.strip()
    return name, params


def build_policy_spec(name: str, params: dict, shared: dict, budget: float):
    """Materialize one policy config from its name, its overrides (parsed
    with their keys' types) and the shared flag values."""
    keys = OVERRIDE_KEYS[name]
    values = {}
    for key, raw in params.items():
        if key not in keys:
            raise ParameterError(f"policy {name!r} takes no key {key!r}; "
                                 f"it takes {sorted(keys) or 'none'}")
        values[key] = _parse_value(keys[key], raw, f"{name}:{key}")
    if name in BASELINE_NAMES:
        return BaselineConfig(kind=BaselineKind(name), budget_frac=budget, **values)
    s = {**shared, **values}
    return PolicyConfig(
        budget_frac=budget,
        coverage_threshold=s["theta"],
        proxy=ProxyConfig(s["proxy_count"]),
        mode=PolicyMode(name),
        head_normalize_compensation=s["head_normalize"],
        min_keep_per_modality=s["min_keep"],
        pin_proxy_tokens=s["pin_proxy"],
    )


# ---------------------------------------------------------------------------
# argument plumbing


def _add_setting(p: argparse.ArgumentParser, key: str) -> None:
    kind, default, text = POLICY_SETTINGS[key]
    p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, default=default,
                   metavar="BOOL" if kind is _parse_bool else None, help=text)


def _add_table_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the subcommands that read traces and write tables."""
    p.add_argument("--format", choices=FORMATS, default="csv", help="table format")
    p.add_argument("--trace", action="append", required=True, help="trace file; repeatable")
    p.add_argument("--budget", default="0.05,0.1,0.2,0.4,0.6",
                   help="comma-separated budget fractions")


def _add_policy_flags(p: argparse.ArgumentParser, *settings: str) -> None:
    _add_table_flags(p)
    p.add_argument("--policy", action="append", default=[], metavar="NAME[:key=val,...]",
                   help="policy to evaluate; repeatable")
    p.add_argument("--mode", choices=[mode.value for mode in PolicyMode],
                   default=PolicyMode.ADAPTIVE.value,
                   help="policy mode evaluated when no --policy is given")
    for key in settings:
        _add_setting(p, key)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modkv",
        description="Trace-driven simulator for modality-aware KV cache eviction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str) -> argparse.ArgumentParser:
        # No abbreviations: sweep would otherwise read --theta as --thetas.
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.add_argument("--config", help="JSON file of this command's options (flags override it)")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or '.')")
        return p

    g = command("generate", "generate a synthetic trace")
    g.add_argument("--seed", type=int, default=0, help="generator seed")
    g.add_argument("--name", default="trace", help="output file stem")
    g.add_argument("--trace-format", dest="trace_format", choices=["text", "binary"],
                   default="text")
    g.add_argument("--layers", type=int, default=2)
    g.add_argument("--heads", type=int, default=2)
    g.add_argument("--prompt-len", dest="prompt_len", type=int, default=64)
    g.add_argument("--decode-steps", dest="decode_steps", type=int, default=4)
    g.add_argument("--skew", type=float, default=1.2)
    g.add_argument("--modality-mix", dest="modality_mix", type=float, default=0.5)
    g.add_argument("--head-bias", dest="head_bias", default="0.5",
                   help="visual share per head: one value or a comma list")

    a = command("analyze", "sparsity curve and head modality shares")
    _add_table_flags(a)
    _add_setting(a, "proxy_count")

    _add_policy_flags(command("run", "run one policy, emitting plan, mask, and report"),
                      *POLICY_SETTINGS)
    _add_policy_flags(command("compare", "compare policies across budgets"),
                      *POLICY_SETTINGS)
    s = command("sweep", "compare across budgets and thresholds")
    _add_policy_flags(s, *(key for key in POLICY_SETTINGS if key != "theta"))
    s.add_argument("--thetas", default="0.5,0.7,0.9", help="comma-separated coverage thresholds")

    return parser


def _read_config(path: str, command: argparse.ArgumentParser) -> dict:
    """The config file's options, each parsed with its flag's type. Its keys
    are the command's flag destinations other than config, out and trace."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ParameterError(f"config {path} must hold a JSON object")
    actions = {a.dest: a for a in command._actions
               if a.dest not in ("help", "config", "out", "trace")}
    unknown = set(loaded) - set(actions)
    if unknown:
        raise ParameterError(
            f"unknown config keys: {sorted(unknown)}; {command.prog} takes {sorted(actions)}"
        )
    values = {}
    for key, value in loaded.items():
        action = actions[key]
        if key == "policy":
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise ParameterError(f"config key 'policy' must be a list of strings, got {value!r}")
        elif isinstance(value, (str, int, float)):
            value = _parse_value(action.type or str, value, f"config key {key!r}")
        else:
            raise ParameterError(f"bad value for config key {key!r}: {value!r}")
        if action.choices and value not in action.choices:
            raise ParameterError(
                f"bad value for config key {key!r}: {value!r}; choose from {action.choices}"
            )
        values[key] = value
    return values


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse the command line. A --config file's options become the
    command's flag defaults and the line is parsed again, so flags win."""
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.config:
        command = parser._subparsers._group_actions[0].choices[args.command]
        values = _read_config(args.config, command)
        # --policy flags append to the default list, so the file's list
        # stands only where no --policy flag is given.
        policies = values.pop("policy", None)
        command.set_defaults(**values)
        args = parser.parse_args(argv)
        if policies is not None and not args.policy:
            args.policy = policies
    return args


def effective_options(args: argparse.Namespace) -> dict:
    """The command's resolved options: every flag value but --config and
    --trace, and the output directory."""
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "config", "trace")}
    opts["out"] = args.out or os.environ.get(ENV_OUT) or "."
    return opts


def _echo_config(out_dir: Path, command: str, opts: dict, traces: list[str]) -> None:
    payload = {
        "command": command,
        "options": {k: opts[k] for k in sorted(opts)},
        "traces": traces,
    }
    write_atomic(out_dir / "effective_config.json", canonical_json(payload) + b"\n")


def _prepare_out(opts: dict) -> Path:
    out_dir = Path(opts["out"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create output directory {out_dir}: {exc}") from None
    return out_dir


def _load(load, path: str, *args, **kwargs):
    """`load(path, ...)`, a trace loader, with an OSError raised as a
    FormatError naming the trace."""
    try:
        return load(path, *args, **kwargs)
    except OSError as exc:
        raise FormatError(f"cannot read trace {path}: {exc}") from None


def _trace_names(paths: list[str]) -> list[str]:
    """Each trace's name in report rows and output file names: its file
    stem. Two traces of one stem would share rows and files, so they are a
    parameter error naming both paths."""
    seen: dict[str, str] = {}
    for path in paths:
        name = Path(path).stem
        if name in seen:
            raise ParameterError(f"traces {seen[name]} and {path} have the same name "
                                 f"{name!r}; give each trace its own file stem")
        seen[name] = path
    return list(seen)


def _report_rows(name: str, rep: SimReport) -> dict:
    return {
        "trace": name,
        "policy": rep.policy,
        "budget_frac": rep.budget_frac,
        "theta": rep.theta,
        "mean_retained_mass": rep.mean_retained_mass,
        "total_kept_tokens": int(rep.kept_counts.sum()),
        "memory_bytes_est": rep.memory_bytes_est,
        "status": rep.status,
        "warnings": ";".join(rep.warnings),
    }


COMPARE_COLUMNS = [
    "trace", "policy", "budget_frac", "theta", "mean_retained_mass",
    "total_kept_tokens", "memory_bytes_est", "status", "warnings",
]
SERIES_COLUMNS = ["trace", "policy", "budget_frac", "theta", "step", "retained_mass"]


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args: argparse.Namespace) -> int:
    opts = effective_options(args)
    out_dir = _prepare_out(opts)
    bias = _float_list(opts, "head_bias")
    if len(bias) == 1:
        bias = bias * opts["heads"]
    spec = SyntheticTraceSpec(
        num_layers=opts["layers"],
        num_heads=opts["heads"],
        prompt_len=opts["prompt_len"],
        num_decode_steps=opts["decode_steps"],
        skew=opts["skew"],
        modality_mix=opts["modality_mix"],
        head_preference_bias=tuple(bias),
        seed=opts["seed"],
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
    names = _trace_names(args.trace)
    out_dir = _prepare_out(opts)
    fracs = _float_list(opts, "budget")
    proxy = ProxyConfig(opts["proxy_count"])
    fmt = opts["format"]

    curve_rows, share_rows = [], []
    for path, name in zip(args.trace, names):

        def share(header, layer, head, block):
            share_rows.append(
                {
                    "trace": name,
                    "layer": layer,
                    "head": head,
                    "text_share": head_text_share(block, header.text_mask, layer, head),
                }
            )

        def curve(trace):
            for frac, group, retained in sparsity_curve(trace, fracs, proxy):
                curve_rows.append(
                    {"trace": name, "group": group, "budget_frac": frac,
                     "retained_share": retained}
                )

        # Each head's share is taken while the loader checks that head, and
        # the curve once every head is checked, from the proxy rows, which
        # are all the trace keeps. Each decode step is checked and dropped.
        _load(load_trace, path, rows=proxy.proxy_count, on_head=share, on_prefill=curve)
    write_table(out_dir / f"sparsity.{fmt}", curve_rows,
                ["trace", "group", "budget_frac", "retained_share"], fmt)
    write_table(out_dir / f"head_shares.{fmt}", share_rows,
                ["trace", "layer", "head", "text_share"], fmt)
    _echo_config(out_dir, "analyze", opts, args.trace)
    print(f"wrote {out_dir / f'sparsity.{fmt}'} and {out_dir / f'head_shares.{fmt}'}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    opts = effective_options(args)
    names = _trace_names(args.trace)
    out_dir = _prepare_out(opts)
    budgets = _float_list(opts, "budget")
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
    fmt = opts["format"]

    rows = []
    for path, trace_name in zip(args.trace, names):
        done = []

        def evaluate(tables, specs, steps):
            mask, plan, warnings = make_mask(tables, spec)
            done.extend((mask, plan, warnings, replay(tables, mask, steps)))

        # The mask is replayed while the file streams; plan and mask are
        # written once the whole trace has been checked.
        _load(TraceTables.load, path, [spec], evaluate)
        mask, plan, warnings, per_step = done
        if plan is not None:
            save_plan(plan, out_dir / f"{trace_name}__{name}_plan.json")
        save_mask(mask, out_dir / f"{trace_name}__{name}_mask.json")
        rows.append(_report_rows(trace_name, _report(spec, mask.kept_counts(), warnings,
                                                     per_step)))
    write_table(out_dir / f"report.{fmt}", rows, COMPARE_COLUMNS, fmt)
    _echo_config(out_dir, "run", opts, args.trace)
    print(f"wrote {out_dir / f'report.{fmt}'}")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    """compare, and sweep: compare with each threshold policy fanned over
    --thetas."""
    opts = effective_options(args)
    names = _trace_names(args.trace)
    out_dir = _prepare_out(opts)
    budgets = _float_list(opts, "budget")
    theta_grid = _float_list(opts, "thetas") if "thetas" in opts else [None]
    policies = [_parse_policy_arg(p) for p in
                opts["policy"] or [opts["mode"], "recent_window", "cumulative_topk"]]
    fmt = opts["format"]

    cells = []
    for budget in budgets:
        for grid_index, theta in enumerate(theta_grid):
            shared = opts if theta is None else {**opts, "theta": theta}
            # Baselines ignore the coverage threshold, so evaluate them
            # only at the first grid point.
            cell = policies if grid_index == 0 else [
                (n, p) for n, p in policies if n not in BASELINE_NAMES
            ]
            if cell:
                cells.append([build_policy_spec(n, p, shared, budget) for n, p in cell])
    grid_specs = [spec for specs in cells for spec in specs]

    rows, series = [], []
    for path, trace_name in zip(args.trace, names):
        # Every cell on this trace reuses one set of rankings, and is
        # settled in one pass over its decode steps while the file streams.
        tables = _load(TraceTables.load, path, grid_specs, settle)
        for specs in cells:
            for rep in compare(tables, specs):
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
        # Free this trace's tables before the next trace is loaded.
        del tables
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


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "generate": cmd_generate,
        "analyze": cmd_analyze,
        "run": cmd_run,
        "compare": cmd_grid,
        "sweep": cmd_grid,
    }
    try:
        args = parse_args(argv)
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
