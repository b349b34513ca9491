"""Self-check of the benchmark at a tiny shape (L=H=2, n=64); takes seconds.

    python3 perfbench/selfcheck.py

It records a throwaway reference for two tiny workloads and shows that:
- every metric in BENCHMARK.json prints with its unit, in both modes;
- counted and computed per-layer values repeat exactly across traced runs;
- every wrapped span is expected by some job, so a dead wrapper fails;
- a corrupted reference is reported as a failure;
- a sink_window cell whose budget is below sink_count counts as a failed job,
  although `compare` turns the error into a 0.0 row and exits 0.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys

import run
from traced_job import SPAN_NAMES

TINY = run.Workload("selfcheck-tiny", 2, 2, 64, 2, "binary", False,
                    (("analyze", ()), ("compare", ("--budget", "0.1,0.2"))))
# At n=64 and budget 0.05 sink_window keeps 3 tokens, fewer than its 4 sinks.
SINK = run.Workload("selfcheck-sink", 2, 2, 64, 2, "binary", False,
                    (("compare", ("--policy", "sink_window", "--budget", "0.05")),))
COUNTED_SUFFIXES = (".calls", ".bytes", "_frac", "_cells")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ref_dir = run.WORK / "selfcheck-reference"
    shutil.rmtree(ref_dir, ignore_errors=True)
    refs = {w.name: run.record(w, ref_dir, seeds=[0]) for w in (TINY, SINK)}
    checks: list[tuple[str, bool]] = []

    def units(result):
        return {name: m["unit"] for name, m in result["metrics"].items()}

    plain = run.benchmark(TINY, 0, 1.0, False, refs[TINY.name])
    checks.append(("untraced run is correct", plain["correct"] and plain["failed"] == 0))
    checks.append(("every end-to-end metric prints with its unit",
                   units(plain) == {m["name"]: m["unit"] for m in spec["end_to_end"]}))
    checks.append(("end-to-end values are finite and nonzero",
                   all(math.isfinite(m["value"]) and m["value"] > 0
                       for m in plain["metrics"].values())))

    traced = [run.benchmark(TINY, 0, 1.0, True, refs[TINY.name], label=f"selfcheck-traced{i}")
              for i in range(2)]
    checks.append(("traced runs are correct", all(r["correct"] for r in traced)))
    checks.append(("every per-layer metric prints with its unit",
                   units(traced[0]) == {m["name"]: m["unit"] for m in spec["per_layer"]}))
    counted = [{k: m["value"] for k, m in r["metrics"].items() if k.endswith(COUNTED_SUFFIXES)}
               for r in traced]
    checks.append((f"{len(counted[0])} counted values repeat exactly across traced runs",
                   counted[0] == counted[1] and len(counted[0]) > 0))
    jobs = [run.generate_job(TINY, 0, run.WORK)] + [
        run.Job(kind, (), run.WORK, reads) for kind in ("analyze", "compare")
        for reads in ("text", "binary")
    ]
    checks.append(("every wrapped span is expected by some job",
                   set().union(*(run.expected_spans(j) for j in jobs)) == set(SPAN_NAMES)))

    corrupt = copy.deepcopy(refs[TINY.name])
    row = corrupt["seeds"]["0"]["compare"][0]
    row[3] = math.nextafter(row[3], 2.0)
    bad = run.benchmark(TINY, 0, 1.0, False, corrupt, label="selfcheck-corrupt")
    checks.append(("a corrupted reference is reported as a failure",
                   not bad["correct"] and bad["failed"] > 0))

    sink = run.benchmark(SINK, 0, 1.0, False, refs[SINK.name])
    report = json.loads((run.WORK / "results" / f"{SINK.name}-seed0-trace0.json").read_text())
    swallowed = [f for f in report["failures"]
                 if run.FAILED_WARNING in f and not f.startswith("exit code")]
    checks.append(("a swallowed sink_window failure counts in error_rate",
                   not sink["correct"] and sink["failed"] > 0 and len(swallowed) == sink["failed"]))

    print()
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
