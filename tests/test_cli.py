"""Command-line interface tests, driven through main()."""

import csv
import importlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import make_trace, small_spec, traced_peak, uniform_rows
import modkv
import modkv.policy as policy_module
import modkv.trace as trace_module
from modkv import (
    ProxyConfig,
    SyntheticTraceSpec,
    generate_synthetic,
    load_trace,
    save_trace,
    sparsity_curve,
)
from modkv.cli import build_policy_spec, effective_options, main, make_parser
from oracles import (
    reference_generate_synthetic,
    reference_trace_to_binary,
    reference_trace_to_text_v2,
    reference_warning_code,
)


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


@pytest.fixture
def demo_trace(tmp_path):
    p = tmp_path / "demo.json"
    assert run("generate", "--name", "demo", "--layers", "2", "--heads", "2",
               "--prompt-len", "32", "--decode-steps", "2", "--head-bias",
               "0.2,0.8", "--seed", "11", "--out", str(tmp_path)) == 0
    return p


def test_text_commands_leave_multiprocessing_unimported(tmp_path):
    """Text traces are written and read in one process: a text generate and
    analyze never import multiprocessing, which would add tens of
    milliseconds to every command."""
    src = os.path.dirname(os.path.dirname(modkv.__file__))
    code = (
        "import sys\n"
        "from modkv.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['generate', '--layers', '2', '--heads', '2', '--prompt-len', '300',"
        " '--out', out]) == 0\n"
        "assert main(['analyze', '--trace', out + '/trace.json', '--out', out]) == 0\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip().splitlines()[-1] == "False"


class TestGenerate:
    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("generate", "--name", "t", "--seed", "7",
                       "--out", str(out)) == 0
        assert (a / "t.json").read_bytes() == (b / "t.json").read_bytes()

    def test_format_flag_is_not_accepted(self, tmp_path, capsys):
        """generate writes no table, so a --format would be ignored: argparse
        rejects it with exit 2 and nothing is written."""
        with pytest.raises(SystemExit) as err:
            run("generate", "--format", "json", "--out", str(tmp_path / "g"))
        assert err.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_zero_length_prompt_is_a_parameter_error(self, tmp_path, capsys):
        assert run("generate", "--prompt-len", "0", "--out", str(tmp_path)) == 2
        assert "parameter error" in capsys.readouterr().err

    def test_binary_format_flag(self, tmp_path):
        assert run("generate", "--name", "t", "--trace-format", "binary",
                   "--out", str(tmp_path)) == 0
        assert (tmp_path / "t.mkvt").read_bytes()[:4] == b"MKVT"
        load_trace(tmp_path / "t.mkvt").validate()

    def test_output_is_loadable(self, demo_trace):
        load_trace(demo_trace).validate()

    @pytest.mark.parametrize("trace_format", ["binary", "text"])
    def test_files_equal_the_reference_writers_at_a_benchmark_like_shape(self, tmp_path,
                                                                         trace_format):
        """Many heads with the benchmark's alternating 0.1/0.9 bias: the
        file's bytes are the reference writer's of the dense reference
        generator's trace."""
        bias = ",".join(("0.1", "0.9")[h % 2] for h in range(12))
        assert run("generate", "--trace-format", trace_format, "--layers", "3", "--heads", "12",
                   "--prompt-len", "67", "--decode-steps", "3", "--skew", "1.2",
                   "--modality-mix", "0.5", "--head-bias", bias, "--seed", "5", "--name", "t",
                   "--out", str(tmp_path)) == 0
        spec = SyntheticTraceSpec(3, 12, 67, 3, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=(0.1, 0.9) * 6, seed=5)
        ref = reference_generate_synthetic(spec)
        if trace_format == "binary":
            assert (tmp_path / "t.mkvt").read_bytes() == reference_trace_to_binary(ref)
        else:
            assert (tmp_path / "t.json").read_bytes() == reference_trace_to_text_v2(ref)

    def test_unwritable_output_directory(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert run("generate", "--out", str(blocker / "sub")) == 2


class TestAnalyze:
    def test_runs_on_generated_trace(self, demo_trace, tmp_path):
        out = tmp_path / "an"
        assert run("analyze", "--trace", str(demo_trace), "--out", str(out)) == 0
        assert (out / "sparsity.csv").exists()
        assert (out / "head_shares.csv").exists()

    def test_uniform_trace_share_equals_budget(self, tmp_path):
        t = make_trace(uniform_rows(10))
        p = tmp_path / "uni.json"
        save_trace(t, p)
        assert run("analyze", "--trace", str(p), "--budget", "0.2",
                   "--proxy-count", "1", "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "sparsity.csv")
        all_row = next(r for r in rows if r["group"] == "all")
        assert float(all_row["retained_share"]) == 0.2

    def test_all_text_trace_shares_are_one(self, tmp_path):
        t = make_trace(uniform_rows(6), tile=(2, 2))
        p = tmp_path / "txt.json"
        save_trace(t, p)
        assert run("analyze", "--trace", str(p), "--out", str(tmp_path)) == 0
        rows = read_csv(tmp_path / "head_shares.csv")
        assert len(rows) == 4
        assert all(float(r["text_share"]) == 1.0 for r in rows)

    def test_malformed_trace_is_a_data_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{:::")
        assert run("analyze", "--trace", str(p), "--out", str(tmp_path)) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["nan.json", "nan.mkvt"])
    def test_nan_score_is_a_data_error(self, demo_trace, tmp_path, capsys, name):
        trace = load_trace(demo_trace)
        trace.prefill[1, 0, 20, 3] = float("nan")
        p = tmp_path / name
        save_trace(trace, p)
        for cmd in ("analyze", "compare"):
            assert run(cmd, "--trace", str(p), "--out", str(tmp_path / cmd)) == 3
            assert "NaN score at (1, 0, 20)" in capsys.readouterr().err

    @pytest.mark.parametrize("value, fragment", [
        ("x", "decode[1][0] is not base64: "),
        ("0.25", "decode[1][0] is not base64: Only base64 data is allowed"),
        (True, "decode[1][0] must be a base64 string, got bool"),
        ([0.5], "decode[1][0] must be a base64 string, got list"),
    ], ids=["x", "0.25", "True", "list"])
    def test_decode_piece_that_is_not_base64_is_a_data_error(self, demo_trace, tmp_path,
                                                             capsys, value, fragment):
        doc = json.loads(demo_trace.read_bytes())
        doc["decode"][1][0] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert run("analyze", "--trace", str(p), "--out", str(tmp_path / "an")) == 3
        assert capsys.readouterr().err.startswith(f"data error: {fragment}")

    @pytest.mark.parametrize("field, value, fragment", [
        ("prefill", float("inf"), "row sum inf at (1, 0, 5)"),
        ("prefill", float("-inf"), "negative score at (1, 0, 5)"),
        ("decode", float("inf"), "row sum inf at decode step 1, (0, 0)"),
        ("decode", float("-inf"), "negative score at decode step 1, (0, 0)"),
    ])
    def test_infinite_score_is_a_data_error(self, demo_trace, tmp_path, capsys, field,
                                            value, fragment):
        """An infinite float32 score is named as the score it is, with no
        numpy overflow or invalid-value warning on the way."""
        trace = load_trace(demo_trace)
        if field == "prefill":
            trace.prefill[1, 0, 5, 2] = value
        else:
            trace.decode[1][0, 0, 2] = value
        p = tmp_path / "inf.json"
        save_trace(trace, p)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("analyze", "--trace", str(p), "--out", str(tmp_path / "an")) == 3
        assert capsys.readouterr().err == f"data error: {fragment}\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_missing_trace_is_a_data_error(self, tmp_path):
        assert run("analyze", "--trace", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)) == 3

    def test_json_format(self, demo_trace, tmp_path):
        out = tmp_path / "aj"
        assert run("analyze", "--trace", str(demo_trace), "--format", "json",
                   "--out", str(out)) == 0
        rows = json.loads((out / "sparsity.json").read_text())
        assert all(r["format_version"] == 1 for r in rows)


class TestRun:
    def test_emits_plan_mask_and_report(self, demo_trace, tmp_path):
        out = tmp_path / "run"
        assert run("run", "--trace", str(demo_trace), "--policy", "adaptive",
                   "--budget", "0.25", "--out", str(out)) == 0
        assert (out / "demo__adaptive_plan.json").exists()
        assert (out / "demo__adaptive_mask.json").exists()
        rows = read_csv(out / "report.csv")
        assert rows[0]["policy"] == "adaptive"
        assert rows[0]["budget_frac"] == "0.25"

    def test_baseline_run_has_no_plan_file(self, demo_trace, tmp_path):
        out = tmp_path / "runb"
        assert run("run", "--trace", str(demo_trace), "--policy",
                   "recent_window", "--budget", "0.25", "--out", str(out)) == 0
        assert not (out / "demo__recent_window_plan.json").exists()
        assert (out / "demo__recent_window_mask.json").exists()

    def test_unknown_policy_is_a_parameter_error(self, demo_trace, tmp_path, capsys):
        assert run("run", "--trace", str(demo_trace), "--policy", "magic",
                   "--budget", "0.25", "--out", str(tmp_path)) == 2
        assert "unknown policy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (("--policy", "adaptive", "--budget", "0.1,0.2"), "--budget"),
            (("--policy", "adaptive"), "--budget"),
            (("--policy", "adaptive", "--policy", "recent_window", "--budget", "0.2"),
             "--policy"),
        ],
        ids=["two_budgets", "default_budget_list", "two_policies"],
    )
    def test_more_than_one_value_is_rejected(self, demo_trace, tmp_path, capsys,
                                             extra, flag):
        out = tmp_path / "many"
        assert run("run", "--trace", str(demo_trace), *extra, "--out", str(out)) == 2
        assert flag in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_policies_from_a_config_file_are_counted(self, demo_trace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policy": ["adaptive", "recent_window"],
                                   "budget": "0.2"}))
        assert run("run", "--trace", str(demo_trace), "--config", str(cfg),
                   "--out", str(tmp_path / "cfg_out")) == 2
        assert "--policy" in capsys.readouterr().err


class TestCompare:
    def test_cartesian_row_count(self, demo_trace, tmp_path):
        out = tmp_path / "cmp"
        assert run("compare", "--trace", str(demo_trace),
                   "--policy", "adaptive", "--policy", "recent_window",
                   "--policy", "sink_window", "--policy", "cumulative_topk",
                   "--budget", "0.05,0.1,0.2,0.4,0.6",
                   "--out", str(out)) == 0
        rows = read_csv(out / "compare.csv")
        assert len(rows) == 4 * 5

    def test_full_budget_rows_all_report_mass_one(self, demo_trace, tmp_path):
        out = tmp_path / "cmp1"
        assert run("compare", "--trace", str(demo_trace),
                   "--policy", "adaptive", "--policy", "proportional",
                   "--policy", "recent_window", "--policy", "fixed_priority",
                   "--budget", "1.0", "--out", str(out)) == 0
        rows = read_csv(out / "compare.csv")
        assert len(rows) == 4
        assert {r["mean_retained_mass"] for r in rows} == {"1.0"}

    def test_rows_sorted_by_trace_budget_mass_policy(self, demo_trace, tmp_path):
        out = tmp_path / "cmps"
        assert run("compare", "--trace", str(demo_trace),
                   "--policy", "adaptive", "--policy", "recent_window",
                   "--policy", "cumulative_topk",
                   "--budget", "0.4,0.1", "--out", str(out)) == 0
        rows = read_csv(out / "compare.csv")
        key = lambda r: (r["trace"], float(r["budget_frac"]),
                         -float(r["mean_retained_mass"]), r["policy"])
        assert [key(r) for r in rows] == sorted(key(r) for r in rows)

    def test_series_and_memory_model_files(self, demo_trace, tmp_path):
        out = tmp_path / "cmpm"
        assert run("compare", "--trace", str(demo_trace),
                   "--policy", "adaptive", "--budget", "0.05,0.2",
                   "--out", str(out)) == 0
        series = read_csv(out / "series.csv")
        assert {r["step"] for r in series} == {"1", "2"}
        mem = read_csv(out / "memory_model.csv")
        by_frac = {r["budget_frac"]: r for r in mem}
        assert by_frac["0.05"]["measured_gib"] == "0.16"
        assert by_frac["0.2"]["measured_gib"] == "0.41"

    def test_two_runs_are_byte_identical(self, demo_trace, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run("compare", "--trace", str(demo_trace),
                       "--policy", "adaptive", "--policy", "recent_window",
                       "--budget", "0.1,0.3", "--out", str(out)) == 0
        for name in ("compare.csv", "series.csv", "memory_model.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_per_policy_parameter_overrides(self, demo_trace, tmp_path):
        out = tmp_path / "cmpo"
        assert run("compare", "--trace", str(demo_trace),
                   "--policy", "adaptive:theta=0.5,pin_proxy=false",
                   "--budget", "0.2", "--out", str(out)) == 0
        rows = read_csv(out / "compare.csv")
        assert rows[0]["theta"] == "0.5"

    @pytest.mark.parametrize("thetas", [("0.5", "0.95"), ("0.95", "0.5")])
    def test_policies_sharing_a_name_keep_their_own_theta(self, tmp_path, thetas):
        assert run("generate", "--name", "t", "--layers", "2", "--heads", "2",
                   "--prompt-len", "64", "--out", str(tmp_path)) == 0
        trace = str(tmp_path / "t.json")

        def compare_files(out, *policies):
            argv = ["compare", "--trace", trace, "--budget", "0.2", "--out", str(out)]
            for policy in policies:
                argv += ["--policy", policy]
            assert run(*argv) == 0
            return read_csv(out / "compare.csv"), read_csv(out / "series.csv")

        rows, series = compare_files(
            tmp_path / "both", *(f"adaptive:theta={t}" for t in thetas)
        )
        assert sorted(r["theta"] for r in rows) == sorted(thetas)
        for theta in thetas:
            alone_rows, alone_series = compare_files(
                tmp_path / theta, f"adaptive:theta={theta}"
            )
            assert [r for r in rows if r["theta"] == theta] == alone_rows
            assert [r for r in series if r["theta"] == theta] == alone_series
        assert rows[0]["mean_retained_mass"] != rows[1]["mean_retained_mass"]

    def test_a_bug_in_a_policy_exits_4(self, demo_trace, tmp_path, monkeypatch, capsys):
        def broken(trace, spec, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(importlib.import_module("modkv.simulate"), "baseline_mask", broken)
        assert run("compare", "--trace", str(demo_trace), "--policy", "recent_window",
                   "--budget", "0.5", "--out", str(tmp_path / "bug")) == 4
        assert "internal error: ValueError" in capsys.readouterr().err
        assert not (tmp_path / "bug" / "compare.csv").exists()

    def test_bad_policy_parameter_is_a_parameter_error(self, demo_trace, tmp_path):
        assert run("compare", "--trace", str(demo_trace),
                   "--policy", "adaptive:junk", "--out", str(tmp_path)) == 2


class TestReports:
    """The warnings and status columns of `run`, `compare` and `sweep`."""

    @staticmethod
    def generate(tmp_path, name, layers=3, heads=4, mix="0.5", bias=None):
        bias = bias or ",".join(("0.1", "0.9")[h % 2] for h in range(heads))
        assert run("generate", "--name", name, "--trace-format", "binary",
                   "--layers", str(layers), "--heads", str(heads), "--prompt-len", "64",
                   "--decode-steps", "2", "--modality-mix", mix, "--head-bias", bias,
                   "--seed", "3", "--out", str(tmp_path)) == 0
        return tmp_path / f"{name}.mkvt"

    def test_summaries_count_the_lines_of_the_plan_and_mask_files(self, tmp_path):
        """For cells that raise every code, each summary entry's count is the
        number of that code's per-head lines in `run`'s plan and mask
        files, and its first text is the first of them."""
        cells = [
            # Few visual tokens: spills to text, clamps and pinning.
            ("0.05", "0.9", "proportional:min_keep=3", "0.005"),
            # Few text tokens: spills to visual.
            ("0.95", "0.1", "proportional:min_keep=3", "0.05"),
            ("0.5", None, "adaptive", "0.05"),
        ]
        seen = set()
        for k, (mix, bias, policy, budget) in enumerate(cells):
            trace = self.generate(tmp_path, f"t{k}", mix=mix, bias=bias)
            out = tmp_path / f"run{k}"
            assert run("run", "--trace", str(trace), "--policy", policy, "--budget", budget,
                       "--out", str(out)) == 0
            name = policy.split(":")[0]
            lines = []
            for kind in ("plan", "mask"):
                lines += json.loads((out / f"t{k}__{name}_{kind}.json").read_text())["warnings"]
            (row,) = read_csv(out / "report.csv")
            assert row["status"] == "ok"
            codes = [reference_warning_code(line) for line in lines]
            want = [f"{code} x{codes.count(code)} (first: {lines[codes.index(code)]})"
                    for code in dict.fromkeys(codes)]
            assert row["warnings"].split(";") == want
            seen.update(codes)
        assert seen == set(policy_module.WARNING_CODES)

    def test_a_wide_sweep_writes_short_warnings(self, tmp_path):
        """At 16x16 heads and budget 0.05 most heads warn, yet each row's
        warnings stay within 300 bytes: one entry per code."""
        trace = self.generate(tmp_path, "wide", layers=16, heads=16)
        out = tmp_path / "sweep"
        assert run("sweep", "--trace", str(trace), "--policy", "adaptive",
                   "--policy", "proportional", "--policy", "recent_window",
                   "--budget", "0.05", "--out", str(out)) == 0
        rows = read_csv(out / "compare.csv")
        assert len(rows) == 7
        assert max(len(r["warnings"].encode()) for r in rows) <= 300
        counts = [int(entry.split(" ", 2)[1][1:]) for r in rows if r["warnings"]
                  for entry in r["warnings"].split(";")]
        assert max(counts) > 16 * 16 / 2

    def test_a_failed_cell_has_status_failed(self, demo_trace, tmp_path):
        out = tmp_path / "failed"
        assert run("compare", "--trace", str(demo_trace), "--policy", "sink_window:sink_count=40",
                   "--policy", "recent_window", "--budget", "0.2", "--out", str(out)) == 0
        rows = {r["policy"]: r for r in read_csv(out / "compare.csv")}
        failed = rows["sink_window"]
        assert failed["status"] == "failed"
        assert failed["warnings"] == "policy failed: sink_count 40 must not exceed the budget 6"
        assert failed["mean_retained_mass"] == "0.0"
        assert rows["recent_window"]["status"] == "ok"


@pytest.mark.parametrize("command, extra", [
    ("run", ("--budget", "0.2")),
    ("compare", ()),
    ("sweep", ()),
    ("analyze", ()),
])
def test_two_traces_of_one_stem_are_refused_before_loading(tmp_path, capsys, command, extra):
    """Rows and `run`'s files are named by the trace's stem, so two traces
    of one stem are a parameter error naming both, before either is read:
    neither path exists here, and no output directory is made."""
    first, second = tmp_path / "a" / "x.mkvt", tmp_path / "b" / "x.json"
    out = tmp_path / "out"
    assert run(command, "--trace", str(first), "--trace", str(second), *extra,
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert str(first) in err and str(second) in err
    assert not out.exists()


@pytest.mark.parametrize("trace_format", ["binary", "text"])
def test_run_refuses_a_bad_baseline_before_the_prefill(tmp_path, capsys, monkeypatch,
                                                    trace_format):
    """`run` checks a baseline's header-only settings once the header is
    read: a sink_count above the budget exits 2 with the error that
    `compare` reports in its failed row, before any prefill row is read,
    and so before a fault in a later layer is met."""
    assert run("generate", "--name", "t", "--trace-format", trace_format,
               "--out", str(tmp_path)) == 0
    path = tmp_path / ("t.mkvt" if trace_format == "binary" else "t.json")
    added = []
    real = trace_module._PrefillTail.add

    def spy(self, layer, head, read):
        added.append((layer, head))
        return real(self, layer, head, read)

    monkeypatch.setattr(trace_module._PrefillTail, "add", spy)
    argv = ("--policy", "sink_window:sink_count=40", "--budget", "0.2")
    assert run("run", "--trace", str(path), *argv, "--out", str(tmp_path / "run")) == 2
    assert capsys.readouterr().err == (
        "parameter error: sink_count 40 must not exceed the budget 13\n")
    assert added == []
    assert not (tmp_path / "run" / "report.csv").exists()
    if trace_format == "binary":
        # A negative score in layer 1: the bad spec is still what is named.
        trace = load_trace(path)
        trace.prefill[1, 0, 5, 0] = -0.25
        path.write_bytes(trace_module.trace_to_binary(trace))
        assert run("run", "--trace", str(path), *argv, "--out", str(tmp_path / "bad")) == 2
        assert run("compare", "--trace", str(path), *argv, "--out", str(tmp_path / "c")) == 3


class TestPrefillRows:
    POLICIES = ("--policy", "adaptive:proxy_count=16",
                "--policy", "cumulative_topk:observation_window=32",
                "--policy", "recent_window")

    @pytest.mark.parametrize("trace_format", ["binary", "text"])
    def test_compare_loads_only_the_rows_policies_read(self, tmp_path, monkeypatch,
                                                      trace_format):
        assert run("generate", "--name", "t", "--trace-format", trace_format,
                   "--prompt-len", "64", "--decode-steps", "3", "--head-bias",
                   "0.3,0.7", "--seed", "4", "--out", str(tmp_path)) == 0
        trace = str(tmp_path / ("t.mkvt" if trace_format == "binary" else "t.json"))
        cli = importlib.import_module("modkv.cli")
        original = cli.load_trace
        seen = []

        def spy(path, rows=None, **kwargs):
            seen.append(rows)
            return original(path, rows=rows, **kwargs)

        def full(path, rows=None, **kwargs):
            return original(path, **kwargs)

        outputs = {}
        for name, loader in (("partial", spy), ("full", full)):
            # compare loads through TraceTables.load.
            monkeypatch.setattr(policy_module, "load_trace", loader)
            outputs[name] = tmp_path / name
            assert run("compare", "--trace", trace, *self.POLICIES,
                       "--budget", "0.1,0.3", "--out", str(outputs[name])) == 0
        assert seen == [32]
        for table in ("compare.csv", "series.csv", "memory_model.csv"):
            assert (outputs["partial"] / table).read_bytes() == (
                outputs["full"] / table
            ).read_bytes()

    def test_window_baselines_alone_load_one_row(self, demo_trace, tmp_path, monkeypatch):
        cli = importlib.import_module("modkv.cli")
        original = cli.load_trace
        seen = []

        def spy(path, rows=None, **kwargs):
            seen.append(rows)
            return original(path, rows=rows, **kwargs)

        # analyze loads in the CLI, sweep and run through TraceTables.load.
        for module in (cli, policy_module):
            monkeypatch.setattr(module, "load_trace", spy)
        assert run("sweep", "--trace", str(demo_trace), "--policy", "recent_window",
                   "--policy", "sink_window:sink_count=1", "--budget", "0.2",
                   "--out", str(tmp_path / "sw1")) == 0
        assert run("run", "--trace", str(demo_trace),
                   "--policy", "fixed_priority:observation_window=12",
                   "--budget", "0.2", "--out", str(tmp_path / "run1")) == 0
        assert run("analyze", "--trace", str(demo_trace), "--out", str(tmp_path / "an")) == 0
        # analyze keeps its proxy rows, 8 by default.
        assert seen == [1, 12, 8]


class TestAnalyzeStreams:
    @pytest.mark.parametrize("name", ["t.mkvt", "t.json"])
    def test_analyze_holds_no_decode_step(self, tmp_path, name):
        """Under tracemalloc, analyze of a trace with 64 decode steps peaks
        within 256 KiB of the same analyze with 4 steps: each step is checked
        and dropped. Holding the 64 steps would take 2.2 MiB more."""
        peaks = {}
        for steps in (4, 64):
            path = tmp_path / f"{steps}" / name
            path.parent.mkdir()
            save_trace(generate_synthetic(small_spec(8, layers=4, heads=4, prompt_len=512,
                                                     steps=steps)), path)
            code, peaks[steps] = traced_peak(
                lambda: main(["analyze", "--trace", str(path), "--out", str(path.parent)]))
            assert code == 0
        assert peaks[64] <= peaks[4] + 256 * 1024, peaks

    def test_shares_and_curves_match_the_dense_path(self, tmp_path):
        """analyze takes each head's text share from the loader's head
        buffer and keeps only the proxy rows. Its tables equal, bit for bit,
        what the dense cube of each trace gives: two traces of n = 600, one
        per container, where a head spans several loader blocks, and one of
        n = 5, below --proxy-count, all in one run."""
        assert 600 * 601 // 2 > 2 * trace_module._BLOCK_SCORES
        shape = ["--layers", "2", "--heads", "2", "--decode-steps", "2",
                 "--head-bias", "0.2,0.7", "--out", str(tmp_path)]
        assert run("generate", *shape, "--name", "wide_binary", "--prompt-len", "600",
                   "--seed", "3", "--trace-format", "binary") == 0
        assert run("generate", *shape, "--name", "wide_text", "--prompt-len", "600",
                   "--seed", "4") == 0
        assert run("generate", *shape, "--name", "short", "--prompt-len", "5", "--seed", "5") == 0
        paths = [tmp_path / "wide_binary.mkvt", tmp_path / "wide_text.json",
                 tmp_path / "short.json"]
        out = tmp_path / "an"
        assert run("analyze", *(a for p in paths for a in ("--trace", str(p))),
                   "--format", "json", "--budget", "0.1,0.5", "--out", str(out)) == 0

        want_shares, want_curve = [], []
        for path in paths:
            trace = load_trace(path)
            assert trace.first_row == 0
            mask = trace.header.text_mask
            for l, hd in np.ndindex(2, 2):
                block = trace.head_rows(l, hd).astype(np.float64)
                want_shares.append([path.stem, l, hd, float(block[:, mask].sum() / block.sum())])
            want_curve += [[path.stem, group, frac, share] for frac, group, share
                           in sparsity_curve(trace, [0.1, 0.5], ProxyConfig())]
        shares = json.loads((out / "head_shares.json").read_text())
        curve = json.loads((out / "sparsity.json").read_text())
        assert [[r["trace"], r["layer"], r["head"], r["text_share"].hex()] for r in shares] == [
            [*row[:3], row[3].hex()] for row in want_shares]
        assert [[r["trace"], r["group"], r["budget_frac"], r["retained_share"].hex()]
                for r in curve] == [[*row[:3], row[3].hex()] for row in want_curve]


REPORT_FILES = ["compare.csv", "series.csv", "memory_model.csv", "sparsity.csv",
                "head_shares.csv"]


def test_every_container_gives_byte_identical_reports(tmp_path):
    """One generated trace as binary and as text: compare and analyze write
    the same report bytes from each."""
    shape = ["--layers", "2", "--heads", "2", "--prompt-len", "40", "--decode-steps", "3",
             "--head-bias", "0.2,0.8", "--seed", "7"]
    assert run("generate", *shape, "--trace-format", "binary",
               "--out", str(tmp_path / "binary")) == 0
    assert run("generate", *shape, "--out", str(tmp_path / "v2")) == 0
    paths = {"binary": tmp_path / "binary" / "trace.mkvt",
             "v2": tmp_path / "v2" / "trace.json"}
    assert paths["v2"].read_bytes().startswith(b'{"format_version":2,')
    reports = {}
    for kind, path in paths.items():
        out = tmp_path / f"{kind}_out"
        assert run("compare", "--trace", str(path), "--policy", "adaptive",
                   "--policy", "proportional", "--policy", "cumulative_topk",
                   "--budget", "0.1,0.3", "--out", str(out)) == 0
        assert run("analyze", "--trace", str(path), "--out", str(out)) == 0
        reports[kind] = {name: (out / name).read_bytes() for name in REPORT_FILES}
    assert reports["v2"] == reports["binary"]


class TestSweep:
    def test_thresholded_policies_fan_out_and_baselines_run_once(self, demo_trace, tmp_path):
        out = tmp_path / "sw"
        assert run("sweep", "--trace", str(demo_trace),
                   "--policy", "adaptive", "--policy", "recent_window",
                   "--budget", "0.2", "--thetas", "0.5,0.7,0.9",
                   "--out", str(out)) == 0
        rows = read_csv(out / "compare.csv")
        adaptive = [r for r in rows if r["policy"] == "adaptive"]
        recents = [r for r in rows if r["policy"] == "recent_window"]
        assert sorted(r["theta"] for r in adaptive) == ["0.5", "0.7", "0.9"]
        assert len(recents) == 1
        assert recents[0]["theta"] == ""

    def test_importance_is_computed_once_per_trace_and_row_count(self, tmp_path, monkeypatch):
        """Every cell of a sweep reuses its trace's importance tables: one
        computation per trace, layer and distinct proxy count or
        observation window, as each layer streams in."""
        traces = []
        for n in (24, 20):
            assert run("generate", "--name", f"t{n}", "--prompt-len", str(n),
                       "--decode-steps", "2", "--out", str(tmp_path)) == 0
            traces.append(str(tmp_path / f"t{n}.json"))
        calls = []

        original = modkv.proxy_importance_matrix

        def counting(trace, proxy):
            calls.append((trace.header.prompt_len, proxy.effective(trace.header.prompt_len),
                          trace.layer))
            return original(trace, proxy)

        for module in list(sys.modules.values()):
            if (module.__name__.startswith("modkv")
                    and getattr(module, "proxy_importance_matrix", None) is original):
                monkeypatch.setattr(module, "proxy_importance_matrix", counting)

        argv = ["sweep", "--proxy-count", "8", "--budget", "0.1,0.3",
                "--thetas", "0.5,0.7,0.9", "--out", str(tmp_path / "sw")]
        for t in traces:
            argv += ["--trace", t]
        for policy in ("adaptive", "proportional", "recent_window", "fixed_priority",
                       "cumulative_topk:observation_window=5",
                       "sink_window:sink_count=1"):
            argv += ["--policy", policy]
        assert run(*argv) == 0
        assert sorted(calls) == [(n, p, l) for n in (20, 24) for p in (5, 8) for l in (0, 1)]

    def test_coverage_counts_sort_once_per_row_count(self, demo_trace, tmp_path, monkeypatch):
        """A sweep takes every threshold's coverage needs from one sort per
        trace and proxy row count."""
        calls = []
        original = policy_module.coverage_counts

        def counting(scores, visual, threshold):
            calls.append(sorted(np.atleast_1d(threshold).tolist()))
            return original(scores, visual, threshold)

        monkeypatch.setattr(policy_module, "coverage_counts", counting)
        assert run("sweep", "--trace", str(demo_trace), "--budget", "0.1,0.3",
                   "--thetas", "0.5,0.7,0.9", "--policy", "adaptive",
                   "--policy", "proportional", "--policy", "adaptive:proxy_count=4,theta=0.6",
                   "--policy", "recent_window", "--out", str(tmp_path / "sw")) == 0
        assert sorted(calls) == [[0.5, 0.7, 0.9], [0.6]]
        # Per budget: three thetas for each thresholded policy (the override
        # pins its theta at every grid point) and one baseline row.
        assert len(read_csv(tmp_path / "sw" / "compare.csv")) == 2 * (3 * 3 + 1)


class TestConfigPrecedence:
    def test_flags_override_config_file(self, demo_trace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": "0.5", "theta": 0.6}))
        out = tmp_path / "pc"
        assert run("run", "--trace", str(demo_trace), "--config", str(cfg),
                   "--budget", "0.25", "--out", str(out)) == 0
        rows = read_csv(out / "report.csv")
        assert rows[0]["budget_frac"] == "0.25"
        assert rows[0]["theta"] == "0.6"
        echoed = json.loads((out / "effective_config.json").read_text())
        assert echoed["options"]["budget"] == "0.25"
        assert echoed["options"]["theta"] == 0.6

    def test_config_file_overrides_defaults(self, demo_trace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": "0.5"}))
        out = tmp_path / "pcd"
        assert run("run", "--trace", str(demo_trace), "--config", str(cfg),
                   "--out", str(out)) == 0
        assert read_csv(out / "report.csv")[0]["budget_frac"] == "0.5"

    def test_config_thetas_drive_the_sweep_and_the_flag_wins(self, demo_trace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thetas": "0.6", "budget": "0.2"}))
        for out, extra, thetas in ((tmp_path / "cfg_only", (), ["0.6"]),
                                   (tmp_path / "flag", ("--thetas", "0.5,0.8"), ["0.5", "0.8"])):
            assert run("sweep", "--trace", str(demo_trace), "--config", str(cfg), *extra,
                       "--out", str(out)) == 0
            rows = [r for r in read_csv(out / "compare.csv") if r["policy"] == "adaptive"]
            assert sorted((r["budget_frac"], r["theta"]) for r in rows) == [("0.2", t) for t in thetas]
            echoed = json.loads((out / "effective_config.json").read_text())
            assert echoed["options"]["thetas"] == ",".join(thetas)

    def test_unknown_config_keys_rejected(self, demo_trace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budgett": "0.5"}))
        assert run("run", "--trace", str(demo_trace), "--config", str(cfg),
                   "--out", str(tmp_path)) == 2
        assert "budgett" in capsys.readouterr().err

    def test_invalid_config_json_rejected(self, demo_trace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[:::")
        assert run("run", "--trace", str(demo_trace), "--config", str(cfg),
                   "--out", str(tmp_path)) == 2

    def test_env_var_sets_output_dir_but_flag_wins(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("MODKV_OUT", str(env_dir))
        assert run("generate", "--name", "e", "--seed", "1") == 0
        assert (env_dir / "e.json").exists()
        flag_dir = tmp_path / "flag_out"
        assert run("generate", "--name", "f", "--seed", "1",
                   "--out", str(flag_dir)) == 0
        assert (flag_dir / "f.json").exists()
        assert not (env_dir / "f.json").exists()


class TestPolicySpecParsing:
    def test_shared_flags_fill_policy_fields(self):
        opts = dict(theta=0.8, proxy_count=4, head_normalize=True,
                    min_keep=2, pin_proxy=False)
        spec = build_policy_spec("adaptive", {}, opts, 0.3)
        assert spec.coverage_threshold == 0.8
        assert spec.proxy.proxy_count == 4
        assert spec.min_keep_per_modality == 2
        assert spec.pin_proxy_tokens is False

    def test_per_policy_overrides_beat_shared_flags(self):
        opts = dict(theta=0.8, proxy_count=4, head_normalize=True,
                    min_keep=0, pin_proxy=True)
        spec = build_policy_spec("adaptive", {"theta": "0.55"}, opts, 0.3)
        assert spec.coverage_threshold == 0.55

    def test_baseline_keys(self):
        spec = build_policy_spec("sink_window", {"sink_count": "2"}, {}, 0.3)
        assert spec.sink_count == 2

    def test_effective_options_reads_thetas(self):
        args = make_parser().parse_args(
            ["sweep", "--trace", "t.json", "--thetas", "0.4,0.6"]
        )
        assert effective_options(args)["thetas"] == "0.4,0.6"


def exit_code(*argv):
    """main's return code, or the code argparse exits with."""
    try:
        return run(*argv)
    except SystemExit as err:
        return err.code


def command_parser(command):
    (subparsers,) = make_parser()._subparsers._group_actions
    return subparsers.choices[command]


# Arguments each subcommand needs besides --out, and a key that is an option
# of some other subcommand only.
COMMAND_ARGS = {
    "generate": ((), "budget"),
    "analyze": (("--budget", "0.2"), "seed"),
    "run": (("--policy", "adaptive", "--budget", "0.2"), "thetas"),
    "compare": (("--budget", "0.2"), "layers"),
    "sweep": (("--budget", "0.2", "--thetas", "0.5"), "theta"),
}


class TestOptionTable:
    """Each subcommand accepts exactly the options it reads, from flags,
    config files and per-policy overrides alike."""

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_echoed_options_are_the_subcommands_flags(self, demo_trace, tmp_path, command):
        extra, _ = COMMAND_ARGS[command]
        traces = () if command == "generate" else ("--trace", str(demo_trace))
        out = tmp_path / command
        assert run(command, *traces, *extra, "--out", str(out)) == 0
        echoed = json.loads((out / "effective_config.json").read_text())
        dests = {a.dest for a in command_parser(command)._actions if a.option_strings}
        assert set(echoed["options"]) == dests - {"help", "config", "trace"} | {"out"}
        assert ("seed" in echoed["options"]) == (command == "generate")
        assert ("thetas" in echoed["options"]) == (command == "sweep")
        assert ("theta" in echoed["options"]) == (command in ("run", "compare"))

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_config_key_of_another_subcommand_is_rejected(self, demo_trace, tmp_path,
                                                          capsys, command):
        extra, key = COMMAND_ARGS[command]
        traces = () if command == "generate" else ("--trace", str(demo_trace))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "1"}))
        out = tmp_path / command
        assert run(command, *traces, *extra, "--config", str(cfg), "--out", str(out)) == 2
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
        assert not out.exists()

    def test_config_boolean_is_parsed_like_the_flag(self, demo_trace, tmp_path):
        """"false" in a config file unpins the proxy tokens, as
        --pin-proxy false does (bool("false") would keep them pinned)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pin_proxy": "false"}))
        outs = {name: tmp_path / name for name in ("config", "flag", "default")}
        base = ("compare", "--trace", str(demo_trace), "--budget", "0.2")
        assert run(*base, "--config", str(cfg), "--out", str(outs["config"])) == 0
        assert run(*base, "--pin-proxy", "false", "--out", str(outs["flag"])) == 0
        assert run(*base, "--out", str(outs["default"])) == 0
        tables = {name: (out / "compare.csv").read_bytes() for name, out in outs.items()}
        assert tables["config"] == tables["flag"] != tables["default"]
        echoed = json.loads((outs["config"] / "effective_config.json").read_text())
        assert echoed["options"]["pin_proxy"] is False

    @pytest.mark.parametrize("doc, fragment", [
        ({"pin_proxy": "maybe"}, "config key 'pin_proxy': expected a boolean, got 'maybe'"),
        ({"proxy_count": "abc"}, "config key 'proxy_count'"),
        ({"proxy_count": [8]}, "config key 'proxy_count'"),
        ({"format": "xml"}, "config key 'format': 'xml'"),
        ({"policy": "adaptive"}, "config key 'policy' must be a list of strings"),
        ({"budget": "x"}, "budget: expected a comma-separated number list"),
    ], ids=["bool", "int", "list", "choice", "policy", "budget"])
    def test_bad_config_value_names_its_key(self, demo_trace, tmp_path, capsys, doc,
                                             fragment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run("compare", "--trace", str(demo_trace), "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 2
        assert fragment in capsys.readouterr().err

    def test_policy_flags_replace_the_config_files_policies(self, demo_trace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policy": ["adaptive", "recent_window"], "budget": "0.2"}))
        for out, extra, policies in (
            (tmp_path / "cfg", (), {"adaptive", "recent_window"}),
            (tmp_path / "flag", ("--policy", "cumulative_topk"), {"cumulative_topk"}),
        ):
            assert run("compare", "--trace", str(demo_trace), "--config", str(cfg), *extra,
                       "--out", str(out)) == 0
            assert {r["policy"] for r in read_csv(out / "compare.csv")} == policies

    def test_sweep_does_not_read_theta_as_thetas(self, demo_trace, tmp_path, capsys):
        """sweep has --thetas but no --theta: an abbreviation would silently
        run a one-point grid."""
        out = tmp_path / "sw"
        assert exit_code("sweep", "--trace", str(demo_trace), "--budget", "0.2",
                         "--theta", "0.3", "--out", str(out)) == 2
        assert "unrecognized arguments: --theta 0.3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "run", "compare", "sweep"])
    def test_seed_belongs_to_generate_only(self, demo_trace, tmp_path, capsys, command):
        assert exit_code(command, "--trace", str(demo_trace), "--seed", "3",
                         "--out", str(tmp_path / "o")) == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--pin-proxy", "--head-normalize"])
    def test_bad_boolean_flag_is_a_usage_error(self, demo_trace, tmp_path, capsys, flag):
        assert exit_code("compare", "--trace", str(demo_trace), flag, "maybe",
                         "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: modkv compare")
        assert f"argument {flag}: expected a boolean, got 'maybe'" in err

    @pytest.mark.parametrize("policy, fragment", [
        ("adaptive:proxy_count=abc", "bad value for adaptive:proxy_count: invalid literal"),
        ("adaptive:pin_proxy=maybe", "bad value for adaptive:pin_proxy: expected a boolean"),
        ("sink_window:sink_count=1.5", "bad value for sink_window:sink_count"),
    ], ids=["int", "bool", "baseline"])
    def test_bad_override_value_is_a_parameter_error(self, demo_trace, tmp_path, capsys,
                                                     policy, fragment):
        assert run("compare", "--trace", str(demo_trace), "--policy", policy,
                   "--out", str(tmp_path / "o")) == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("policy", [
        "adaptive:thta=0.5", "sink_window:theta=0.3", "recent_window:sink_count=2",
        "cumulative_topk:text_priority_frac=0.5", "proportional:observation_window=4",
    ])
    def test_override_key_the_policy_does_not_read_is_rejected(self, demo_trace, tmp_path,
                                                               capsys, policy):
        name, _, rest = policy.partition(":")
        key = rest.partition("=")[0]
        assert run("sweep", "--trace", str(demo_trace), "--policy", policy,
                   "--out", str(tmp_path / "o")) == 2
        assert f"policy {name!r} takes no key {key!r}" in capsys.readouterr().err
