"""Command-line interface tests, driven through main()."""

import csv
import importlib
import json
import os
import subprocess
import sys
import warnings

import pytest

from conftest import make_trace, uniform_rows
from oracles import reference_trace_to_text
import modkv
from modkv import load_trace, save_trace
from modkv.cli import build_policy_spec, effective_options, main, make_parser


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


def v1_document(path):
    """The trace at `path` as a version 1 text document, parsed."""
    return json.loads(reference_trace_to_text(load_trace(path)))


class TestGenerate:
    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("generate", "--name", "t", "--seed", "7",
                       "--out", str(out)) == 0
        assert (a / "t.json").read_bytes() == (b / "t.json").read_bytes()

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

    @pytest.mark.parametrize("value", ["x", "0.25", True, [0.5]])
    def test_non_numeric_decode_score_is_a_data_error(self, demo_trace, tmp_path, capsys,
                                                      value):
        doc = v1_document(demo_trace)
        doc["decode"][1][0][0][2] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert run("analyze", "--trace", str(p), "--out", str(tmp_path / "an")) == 3
        err = capsys.readouterr().err
        assert "data error" in err
        assert "decode[1][0][0]: scores must be numbers" in err

    @pytest.mark.parametrize("field, fragment", [
        ("prefill", "prefill[1][0]: score out of range"),
        ("decode", "decode[1][0][0]: score out of range"),
    ])
    def test_score_too_large_for_a_float_is_a_data_error(self, demo_trace, tmp_path,
                                                         capsys, field, fragment):
        doc = v1_document(demo_trace)
        if field == "prefill":
            doc["prefill"][1][0][5][2] = 10 ** 400
        else:
            doc["decode"][1][0][0][2] = 10 ** 400
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        assert run("analyze", "--trace", str(p), "--out", str(tmp_path / "an")) == 3
        err = capsys.readouterr().err
        assert "data error" in err
        assert fragment in err

    @pytest.mark.parametrize("field, fragment", [
        ("prefill", "prefill[1][0]: score out of range"),
        ("decode", "decode[1][0][0]: score out of range"),
    ])
    def test_score_too_large_for_a_float32_is_a_data_error(self, demo_trace, tmp_path,
                                                           capsys, field, fragment):
        """1e39 fits a float64 but not a float32: named as the score it is,
        with no numpy overflow warning on the way."""
        doc = v1_document(demo_trace)
        if field == "prefill":
            doc["prefill"][1][0][5][2] = 1e39
        else:
            doc["decode"][1][0][0][2] = 1e39
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("analyze", "--trace", str(p), "--out", str(tmp_path / "an")) == 3
        err = capsys.readouterr().err
        assert "data error" in err
        assert fragment in err
        assert "RuntimeWarning" not in err
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

        def spy(path, rows=None):
            seen.append(rows)
            return original(path, rows=rows)

        def full(path, rows=None):
            return original(path)

        outputs = {}
        for name, loader in (("partial", spy), ("full", full)):
            monkeypatch.setattr(cli, "load_trace", loader)
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

        def spy(path, rows=None):
            seen.append(rows)
            return original(path, rows=rows)

        monkeypatch.setattr(cli, "load_trace", spy)
        assert run("sweep", "--trace", str(demo_trace), "--policy", "recent_window",
                   "--policy", "sink_window:sink_count=1", "--budget", "0.2",
                   "--out", str(tmp_path / "sw1")) == 0
        assert run("run", "--trace", str(demo_trace),
                   "--policy", "fixed_priority:observation_window=12",
                   "--budget", "0.2", "--out", str(tmp_path / "run1")) == 0
        assert run("analyze", "--trace", str(demo_trace), "--out", str(tmp_path / "an")) == 0
        assert seen == [1, 12, None]


REPORT_FILES = ["compare.csv", "series.csv", "memory_model.csv", "sparsity.csv",
                "head_shares.csv"]


def test_every_container_gives_byte_identical_reports(tmp_path):
    """One generated trace as binary, as version 1 text and as version 2
    text: compare and analyze write the same report bytes from each."""
    shape = ["--layers", "2", "--heads", "2", "--prompt-len", "40", "--decode-steps", "3",
             "--head-bias", "0.2,0.8", "--seed", "7"]
    assert run("generate", *shape, "--trace-format", "binary",
               "--out", str(tmp_path / "binary")) == 0
    assert run("generate", *shape, "--out", str(tmp_path / "v2")) == 0
    paths = {"binary": tmp_path / "binary" / "trace.mkvt",
             "v1": tmp_path / "v1" / "trace.json",
             "v2": tmp_path / "v2" / "trace.json"}
    paths["v1"].parent.mkdir()
    paths["v1"].write_bytes(reference_trace_to_text(load_trace(paths["binary"])))
    assert paths["v2"].read_bytes().startswith(b'{"format_version":2,')
    reports = {}
    for kind, path in paths.items():
        out = tmp_path / f"{kind}_out"
        assert run("compare", "--trace", str(path), "--policy", "adaptive",
                   "--policy", "proportional", "--policy", "cumulative_topk",
                   "--budget", "0.1,0.3", "--out", str(out)) == 0
        assert run("analyze", "--trace", str(path), "--out", str(out)) == 0
        reports[kind] = {name: (out / name).read_bytes() for name in REPORT_FILES}
    assert reports["v1"] == reports["binary"]
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
        computation per trace per distinct proxy count or observation
        window."""
        traces = []
        for n in (24, 20):
            assert run("generate", "--name", f"t{n}", "--prompt-len", str(n),
                       "--decode-steps", "2", "--out", str(tmp_path)) == 0
            traces.append(str(tmp_path / f"t{n}.json"))
        calls = []

        original = modkv.proxy_importance_matrix

        def counting(trace, proxy):
            calls.append((trace.header.prompt_len, proxy.effective(trace.header.prompt_len)))
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
        assert sorted(calls) == [(20, 5), (20, 8), (24, 5), (24, 8)]


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
