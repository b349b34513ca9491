"""modkv benchmark: closed-loop CLI jobs, checked against a recorded reference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record

One client drives the `modkv` CLI of this checkout (`src/`), one job at a
time, each job a child process. `os.wait4` gives each job's wall time (spawn
to exit) and peak RSS. Every job's outputs are compared with the reference
values recorded in `perfbench/reference/<workload>.json`.

With `--trace 0` the last stdout line holds the end-to-end metrics. With
`--trace 1` each job also runs in-process under `traced_job.py`, and the last
line holds the per-layer metrics. `--record` rewrites the reference from the
current code. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import traced_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = HERE / "reference"

# A workload seed selects one of these recorded input sets: the reference
# must be recorded ahead of time, so the set of inputs is finite.
REFERENCE_SEEDS = 16
# Setup runs this many times; setup_s and, in sweep-wide, generate_s are
# medians over them.
SETUP_REPEATS = 11
JOB_TIMEOUT_S = 60.0
# Time limit of a whole run: no cycle starts after it and a job still running
# at it is killed, so a run ends well under 180 s.
RUN_BUDGET_S = 165.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
FAILED_WARNING = "policy failed"
# CLI defaults that decide how many prefill rows the policies read.
PROXY_COUNT = 8
OBSERVATION_WINDOW = 8

ALL_POLICIES = ("adaptive", "proportional", "recent_window", "sink_window",
                "cumulative_topk", "fixed_priority")
THETAS = ",".join(f"{0.5 + 0.05 * i:.2f}" for i in range(9))
GRID_KINDS = ("compare", "sweep")


@dataclass(frozen=True)
class Workload:
    """One generated trace and the jobs that read it.

    The generate job runs once per setup when `generate_in_setup`, else once
    per cycle ahead of the readers. Each reader is (subcommand, extra args).
    """

    name: str
    layers: int
    heads: int
    prompt_len: int
    decode_steps: int
    trace_format: str
    generate_in_setup: bool
    readers: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def trace_file(self) -> str:
        return f"trace.{'mkvt' if self.trace_format == 'binary' else 'json'}"

    def head_bias(self) -> str:
        return ",".join(("0.1", "0.9")[h % 2] for h in range(self.heads))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-wide", 32, 32, 256, 8, "binary", True,
            (("sweep", (*(a for p in ALL_POLICIES for a in ("--policy", p)),
                        "--budget", "0.05,0.1,0.2,0.4,0.6", "--thetas", THETAS)),),
        ),
        Workload(
            "text-roundtrip", 8, 8, 512, 4, "text", False,
            (("analyze", ()), ("compare", ("--budget", "0.05,0.1,0.2,0.4"))),
        ),
        Workload(
            "long-binary", 8, 8, 2048, 4, "binary", False,
            (("compare", ("--budget", "0.05,0.1,0.2,0.4")),),
        ),
    )
}


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    out: Path
    reads: str | None = None


@dataclass
class Sample:
    kind: str
    wall_s: float
    rss_mib: float
    rows: int = 0
    traced: bool = False
    failure: str | None = None
    values: object = None
    summary: dict | None = None  # span summary of a traced job


@dataclass
class Run:
    """Everything one benchmark invocation measured."""

    samples: list[Sample] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    cycles: list[list[Sample]] = field(default_factory=list)

    def record(self, sample: Sample, cycle: list[Sample] | None) -> None:
        self.samples.append(sample)
        if cycle is not None:
            cycle.append(sample)
        if sample.failure:
            print(f"FAILED {sample.kind}: {sample.failure}")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# jobs


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(THREAD_ENV)
    return env


def spawn(argv: list[str], log: Path, timeout: float) -> tuple[float, float, str | None]:
    """Run one child to completion: (wall s, peak RSS MiB, failure or None)."""
    # Truncating a file that was just written can wait for its writeback.
    log.unlink(missing_ok=True)
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        try:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(proc.pid, 0)
        raise
    finally:
        os.close(pidfd)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    rss = usage.ru_maxrss / 1024.0
    if not ready:
        return wall, rss, f"timed out after {timeout:.0f} s"
    if code < 0:
        return wall, rss, f"killed by signal {-code}"
    if code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        return wall, rss, f"exit code {code}: {' '.join(tail)}"
    return wall, rss, None


def generate_job(w: Workload, seed: int, work: Path) -> Job:
    out = work / "generate"
    argv = ("generate", "--trace-format", w.trace_format, "--layers", str(w.layers),
            "--heads", str(w.heads), "--prompt-len", str(w.prompt_len),
            "--decode-steps", str(w.decode_steps), "--skew", "1.2", "--modality-mix", "0.5",
            "--head-bias", w.head_bias(), "--seed", str(seed), "--name", "trace",
            "--out", str(out))
    return Job("generate", argv, out)


def reader_jobs(w: Workload, work: Path) -> list[Job]:
    trace = work / "generate" / w.trace_file
    return [
        Job(kind, (kind, "--trace", str(trace), *extra, "--out", str(work / kind)),
            work / kind, reads=w.trace_format)
        for kind, extra in w.readers
    ]


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def job_values(job: Job, w: Workload) -> tuple[object, list[str]]:
    """The values a job's outputs are checked on (not file bytes), and the
    report rows whose warnings say a policy failed."""
    if job.kind == "generate":
        path = job.out / w.trace_file
        if path.stat().st_size == 0:
            raise ValueError(f"{path} is empty")
        return None, []
    if job.kind == "analyze":
        return {
            "sparsity": sorted(
                [r["group"], float(r["budget_frac"]), float(r["retained_share"])]
                for r in read_csv(job.out / "sparsity.csv")
            ),
            "head_shares": sorted(
                [int(r["layer"]), int(r["head"]), float(r["text_share"])]
                for r in read_csv(job.out / "head_shares.csv")
            ),
        }, []
    rows, failed = [], []
    for r in read_csv(job.out / "compare.csv"):
        theta = float(r["theta"]) if r["theta"] else None
        rows.append([r["policy"], float(r["budget_frac"]), theta,
                     float(r["mean_retained_mass"]), int(r["total_kept_tokens"])])
        if FAILED_WARNING in r["warnings"]:
            failed.append(f"{r['policy']} at budget {r['budget_frac']}: {r['warnings']}")
    rows.sort(key=lambda r: (r[0], r[1], -1.0 if r[2] is None else r[2]))
    return rows, failed


def run_job(job: Job, w: Workload, expected, deadline: float, traced: bool = False) -> Sample:
    """Spawn one job, then check its outputs against the reference values."""
    if job.out.exists():
        shutil.rmtree(job.out)
    job.out.mkdir(parents=True)
    log = job.out.parent / f"{job.kind}{'.traced' if traced else ''}.log"
    if traced:
        summary = job.out.parent / f"{job.kind}.traced.json"
        argv = [sys.executable, str(HERE / "traced_job.py"), str(summary), "--", *job.argv]
    else:
        argv = [sys.executable, "-m", "modkv.cli", *job.argv]
    timeout = min(JOB_TIMEOUT_S, deadline - time.monotonic())
    wall, rss, failure = spawn(argv, log, timeout)
    sample = Sample(job.kind, wall, rss, traced=traced, failure=failure)
    if failure:
        return sample
    try:
        values, failed_rows = job_values(job, w)
    except (OSError, ValueError, KeyError) as exc:
        sample.failure = f"bad output: {exc}"
        return sample
    if job.kind in GRID_KINDS:
        sample.rows = len(values)
    sample.values = values
    if failed_rows:
        sample.failure = f"{len(failed_rows)} report rows say {FAILED_WARNING}: {failed_rows[0]}"
    elif expected is not None and values != expected.get(job.kind):
        sample.failure = "outputs differ from the reference"
    if traced:
        sample.summary = json.loads(summary.read_text())
        sample.failure = sample.failure or traced_problem(sample.summary, job)
    return sample


# ---------------------------------------------------------------------------
# traced run checks


def expected_spans(job: Job) -> set[str]:
    """Spans a job of this kind must record at least once."""
    names = {"cli.main"}
    if job.kind == "generate":
        return names | {"synth.generate_synthetic", "trace.save_trace"}
    names |= {"trace.load_trace", "trace.validate", "report.write_table",
              "importance.proxy_importance_matrix",
              "trace.trace_from_binary" if job.reads == "binary" else "trace.trace_from_text"}
    if job.kind == "analyze":
        return names | {"importance.sparsity_curve", "importance.head_text_share"}
    return names | {"policy.plan_budgets", "policy.build_masks", "policy.coverage_counts",
                    "baselines.baseline_mask", "simulate.compare", "simulate.replay"}


def traced_problem(summary: dict, job: Job) -> str | None:
    spans = summary["spans"]
    missing = sorted(n for n in expected_spans(job) if spans[n]["calls"] == 0)
    if missing:
        return f"expected spans recorded zero calls: {', '.join(missing)}"
    main_s = spans["cli.main"]["total_s"]
    self_sum = sum(s["self_s"] for s in spans.values())
    if self_sum > main_s * (1 + 1e-9) + 1e-6:
        return f"span self times sum to {self_sum:.6f} s, more than the job's {main_s:.6f} s"
    return None


# ---------------------------------------------------------------------------
# provenance


PROBE = (
    "import json, sys, numpy, modkv; "
    "print(json.dumps({'modkv_file': modkv.__file__, 'python': sys.version.split()[0], "
    "'numpy': numpy.__version__}))"
)


def probe(work: Path, deadline: float) -> tuple[float, dict]:
    """Interpreter start plus `import modkv`, timed from outside."""
    log = work / "probe.log"
    wall, _, failure = spawn([sys.executable, "-c", PROBE], log, deadline - time.monotonic())
    if failure:
        raise BenchError(f"cannot import modkv from {SRC}: {failure}")
    info = json.loads(log.read_text().strip().splitlines()[-1])
    expected = SRC / "modkv" / "__init__.py"
    if Path(info["modkv_file"]).resolve() != expected.resolve():
        raise BenchError(f"modkv was imported from {info['modkv_file']}, not {expected}")
    return wall, info


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "modkv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def provenance(probe_info: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "modkv_imported_from": probe_info["modkv_file"],
        "python": probe_info["python"],
        "numpy": probe_info["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "child_env": THREAD_ENV,
    }


# ---------------------------------------------------------------------------
# the closed loop


def measure(w: Workload, seed: int, seconds: float, traced: bool, reference: dict | None,
            work: Path) -> tuple[Run, dict]:
    """Set up SETUP_REPEATS times, then run cycles until `seconds` have passed.

    A traced run runs each job untraced and then traced, and at least two
    cycles, so counted values can be compared across cycles.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    work.mkdir(parents=True, exist_ok=True)
    expected = None if reference is None else reference["seeds"].get(str(seed))
    if reference is not None and expected is None:
        raise BenchError(f"the reference holds no values for input seed {seed}")
    run = Run()
    info = {}
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wall, info = probe(work, deadline)
        run.probe_s.append(wall)
        if w.generate_in_setup:
            run.record(run_job(generate_job(w, seed, work), w, expected, deadline), None)
        run.setup_s.append(time.perf_counter() - start)

    cycle_jobs = ([] if w.generate_in_setup else [generate_job(w, seed, work)]) + reader_jobs(w, work)
    min_cycles = 2 if traced else 1
    start = time.monotonic()
    while len(run.cycles) < min_cycles or time.monotonic() - start < seconds:
        if time.monotonic() > deadline:
            break
        cycle: list[Sample] = []
        for job in cycle_jobs:
            run.record(run_job(job, w, expected, deadline), cycle)
            if traced:
                run.record(run_job(job, w, expected, deadline, traced=True), cycle)
        run.cycles.append(cycle)
    if not run.cycles:
        raise BenchError(f"setup left no time for a cycle within {RUN_BUDGET_S:.0f} s")
    return run, provenance(info)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def job_stats(run: Run) -> dict[str, dict]:
    """Per subcommand: sample count, median and max wall s and peak RSS MiB."""
    out = {}
    for kind in ("generate", "analyze", "compare", "sweep"):
        rows = [s for s in run.samples if s.kind == kind and not s.traced]
        if rows:
            walls = [s.wall_s for s in rows]
            rss = [s.rss_mib for s in rows]
            out[kind] = {"n": len(rows), "median_s": median(walls), "max_s": max(walls),
                         "median_rss_mib": median(rss), "max_rss_mib": max(rss),
                         "failed": sum(s.failure is not None for s in rows)}
    return out


def timed(sample: Sample) -> float:
    # A failed job counts as missing any latency limit.
    return JOB_TIMEOUT_S if sample.failure else sample.wall_s


def end_to_end_metrics(run: Run) -> dict[str, tuple[float, str]]:
    untraced = [s for s in run.samples if not s.traced]
    gen = [s for s in untraced if s.kind == "generate"]
    grid = [s for s in untraced if s.kind in GRID_KINDS]
    cycles = [sum(timed(s) for s in c if not s.traced) for c in run.cycles]
    return {
        "setup_s": (median(run.setup_s), "s"),
        "cycle_s": (median(cycles), "s"),
        "generate_s": (median([timed(s) for s in gen]), "s"),
        "generate_rss_mib": (median([s.rss_mib for s in gen]), "MiB"),
        "grid_s": (median([timed(s) for s in grid]), "s"),
        "grid_rss_mib": (median([s.rss_mib for s in grid]), "MiB"),
        "cells_per_s": (median([s.rows / timed(s) for s in grid]), "1/s"),
    }


MODULES = ("cli", "trace", "synth", "importance", "policy", "baselines", "simulate", "report")
# Spans whose call counts are reported.
CALL_SPANS = ("importance.proxy_importance_matrix", "policy.plan_budgets",
              "policy.coverage_counts", "baselines.baseline_mask", "simulate.replay",
              "report.write_table")


def cycle_layers(cycle: list[Sample]) -> tuple[dict[str, float], dict[str, float]]:
    """(timed, counted) per-layer values of one traced cycle."""
    traced = [s for s in cycle if s.summary is not None]
    spans = [s.summary["spans"] for s in traced]

    def total(name, stat):
        return sum(sp[name].get(stat, 0) for sp in spans)

    timed_values = {
        "cli.main.traced_s": total("cli.main", "total_s"),
        "cli.tracing_overhead_s": sum(s.wall_s for s in cycle if s.traced)
        - sum(s.wall_s for s in cycle if not s.traced),
    }
    for name in traced_job.SPAN_NAMES:
        timed_values[f"{name}.self_s"] = total(name, "self_s")
    for name in sorted(traced_job.RSS_SPANS):
        timed_values[f"{name}.peak_rss_growth_mib"] = max(
            (sp[name].get("peak_rss_growth_mib", 0.0) for sp in spans), default=0.0
        )
    pim_calls = total("importance.proxy_importance_matrix", "calls")
    repeats = sum(s.summary["repeats"]["importance.proxy_importance_matrix"] for s in traced)
    counted = {f"{n}.calls": total(n, "calls") for n in CALL_SPANS}
    counted.update({f"{n}.bytes": total(n, "bytes") for n in sorted(traced_job.BYTES_SPANS)})
    counted["importance.proxy_importance_matrix.repeat_frac"] = repeats / pim_calls if pim_calls else 0.0
    counted["simulate.failed_cells"] = sum(s.summary["failed_cells"] for s in traced)
    return timed_values, counted


def module_shares(run: Run) -> dict[str, dict[str, float]]:
    """Median share of traced cli.main time per module, per subcommand."""
    shares: dict[str, dict[str, list[float]]] = {}
    for s in run.samples:
        if s.summary is None:
            continue
        spans = s.summary["spans"]
        main_s = spans["cli.main"]["total_s"]
        per = shares.setdefault(s.kind, {m: [] for m in MODULES})
        for module in MODULES:
            self_s = sum(st["self_s"] for n, st in spans.items() if n.startswith(module + "."))
            per[module].append(self_s / main_s if main_s > 0 else 0.0)
    return {k: {m: median(v) for m, v in per.items()} for k, per in shares.items()}


UNIT_SUFFIXES = (("_s", "s"), ("_mib", "MiB"), ("bytes", "B"), ("_frac", "ratio"),
                 ("calls", "count"), ("_cells", "count"))


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNIT_SUFFIXES if name.endswith(suffix))


def per_layer_metrics(w: Workload, run: Run) -> tuple[dict[str, tuple[float, str]], str | None]:
    """Per-layer metrics of a traced run, and a problem if counts differ."""
    per_cycle = [cycle_layers(c) for c in run.cycles]
    counted = per_cycle[0][1]
    problem = None
    for _, other in per_cycle[1:]:
        if other != counted:
            diff = sorted(k for k in counted if counted[k] != other.get(k))
            problem = f"counted values differ between cycles: {', '.join(diff)}"
    values: dict[str, float] = {"cli.startup_s": median(run.probe_s)}
    for name in per_cycle[0][0]:
        values[name] = median([t[name] for t, _ in per_cycle])
    values.update(counted)
    # Computed from the workload's shape, not counted.
    values["trace.prefill_rows_read_frac"] = max(PROXY_COUNT, OBSERVATION_WINDOW) / w.prompt_len
    values["trace.dense_cube_bytes"] = w.layers * w.heads * w.prompt_len ** 2 * 4
    return {name: (values[name], unit_of(name)) for name in sorted(values)}, problem


COMPUTED = ("trace.prefill_rows_read_frac", "trace.dense_cube_bytes")


# ---------------------------------------------------------------------------
# entry points


def load_reference(name: str, directory: Path = REFERENCE_DIR) -> dict:
    path = directory / f"{name}.json"
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise BenchError(f"cannot read reference {path}: {exc}") from None


def benchmark(w: Workload, seed: int, seconds: float, traced: bool, reference: dict,
              label: str | None = None) -> dict:
    """Run one workload and return the result object; prints a report."""
    if not (SRC / "modkv" / "__init__.py").is_file():
        raise BenchError(f"no modkv sources at {SRC}")
    input_seed = seed % REFERENCE_SEEDS
    label = label or f"{w.name}-seed{seed}-trace{int(traced)}"
    work = WORK / label
    try:
        run, prov = measure(w, input_seed, seconds, traced, reference, work)
    finally:
        shutil.rmtree(work / "generate", ignore_errors=True)
    failed = sum(s.failure is not None for s in run.samples)
    problem = None
    if traced:
        metrics, problem = per_layer_metrics(w, run)
    else:
        metrics = end_to_end_metrics(run)
    stats = job_stats(run)
    report = {
        "workload": w.name, "seed": seed, "input_seed": input_seed, "trace": int(traced),
        "provenance": prov, "jobs": stats, "setup_s": run.setup_s, "probe_s": run.probe_s,
        "cycles": len(run.cycles), "failures": [s.failure for s in run.samples if s.failure],
        "samples": [[s.kind, s.traced, s.wall_s, s.rss_mib] for s in run.samples],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "computed": list(COMPUTED) if traced else [],
        "count_problem": problem,
    }
    if traced:
        report["module_shares"] = module_shares(run)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"workload {w.name}: seed {seed} (inputs {input_seed}), {len(run.cycles)} cycles, "
          f"{failed}/{len(run.samples)} jobs failed, error_rate {failed / len(run.samples):.4f}")
    print(f"{'job':10}{'n':>4}{'median_s':>11}{'max_s':>9}{'rss_mib':>10}{'max_rss':>10}{'failed':>8}")
    for kind, st in stats.items():
        print(f"{kind:10}{st['n']:>4}{st['median_s']:>11.4f}{st['max_s']:>9.4f}"
              f"{st['median_rss_mib']:>10.1f}{st['max_rss_mib']:>10.1f}{st['failed']:>8}")
    for kind, shares in report.get("module_shares", {}).items():
        print(f"share of traced {kind}: " + ", ".join(f"{m} {v:.3f}" for m, v in shares.items()))
    for name, (value, unit) in metrics.items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    if problem:
        print(f"FAILED: {problem}")
    return {
        "correct": failed == 0 and problem is None,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": report["metrics"],
    }


def record(w: Workload, directory: Path = REFERENCE_DIR, seeds=range(REFERENCE_SEEDS)) -> dict:
    """Record the reference values of every job, one cycle per input seed."""
    reference = {"workload": w.name, "source_sha256": source_sha256(),
                 "git_commit": git_commit(), "seeds": {}}
    for seed in seeds:
        work = WORK / f"record-{w.name}-{seed}"
        deadline = time.monotonic() + RUN_BUDGET_S
        jobs = [generate_job(w, seed, work)] + reader_jobs(w, work)
        values = {}
        try:
            for job in jobs:
                sample = run_job(job, w, None, deadline)
                if sample.values is None and job.kind != "generate":
                    raise BenchError(f"seed {seed} {job.kind}: {sample.failure}")
                if sample.failure:
                    print(f"recording anyway: {sample.failure}")
                if job.kind != "generate":
                    values[job.kind] = sample.values
        finally:
            shutil.rmtree(work, ignore_errors=True)
        reference["seeds"][str(seed)] = values
        print(f"recorded {w.name} seed {seed}", flush=True)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(reference[k])}," for k in ("workload", "source_sha256", "git_commit")]
    seeds_lines = [f"  {json.dumps(s)}: {json.dumps(v, separators=(',', ':'))}"
                   for s, v in reference["seeds"].items()]
    body = "{\n" + "\n".join(lines) + '\n"seeds": {\n' + ",\n".join(seeds_lines) + "\n}}\n"
    (directory / f"{w.name}.json").write_text(body)
    return reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the workload's reference from this checkout")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    w = WORKLOADS[args.workload]
    try:
        if args.record:
            record(w)
            return 0
        result = benchmark(w, args.seed, args.seconds, bool(args.trace), load_reference(w.name))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
