"""Self-test of the benchmark, at a tiny size so that it takes seconds:

    python3 benchmarks/selftest.py

For every workload, untraced and traced, it checks that the result line has
exactly the keys correct, attempted, failed and metrics, that its metric
names and units are exactly those in BENCHMARK.json, that no op failed and
that the work repeated. After each traced
run no wrapper may be left in any tandemopt namespace, and the per-layer self
times of a round may not sum to more than the traced round time. Across the
workloads every wrapped layer must have been reached at least once. Finally,
run.py must exit non-zero without a result in a directory that holds only
BENCHMARK.json and the benchmark. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile

import run  # first: pins the BLAS threads before numpy loads
import tracing
import workloads

SECONDS = 0.2


def _check_result(result: dict, expected: list[dict], label: str, problems: list[str]) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result['attempted']!r}")
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        problems.append(
            f"{label}: metric names/units differ; missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"unit mismatches {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}"
        )
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not math.isfinite(m["value"]):
            problems.append(f"{label}: metric {name} = {m}")


def _check_bare_directory(problems: list[str]) -> None:
    """run.py in a directory with only BENCHMARK.json and the benchmark."""
    run.WORK_DIR.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK_DIR)
    try:
        shutil.copy(run.MANIFEST, bare)
        shutil.copytree(
            run.BENCH_DIR, f"{bare}/benchmarks", ignore=shutil.ignore_patterns("__pycache__")
        )
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "cli", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append(
                f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"
            )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    spec = json.loads(run.MANIFEST.read_text())
    reached: dict[str, float] = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            result, detail = run.measure(name, seed=3, seconds=SECONDS, trace=trace,
                                         size=workloads.TINY)
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            _check_result(result, expected, label, problems)
            if detail["work_problems"] or detail["failures"]:
                problems.append(f"{label}: {detail['work_problems'] + detail['failures']}")
            if not trace:
                continue
            if detail["leftover_wrappers"] or tracing.leftover_wrappers():
                problems.append(f"{label}: wrappers left: {detail['leftover_wrappers']}")
            if detail["layer_self_s_per_round"] > detail["traced_round_s"]:
                problems.append(
                    f"{label}: layer self times {detail['layer_self_s_per_round']:.6f} s "
                    f"exceed the traced round {detail['traced_round_s']:.6f} s"
                )
            for metric, m in result["metrics"].items():
                if metric.endswith(".calls"):
                    reached[metric] = reached.get(metric, 0.0) + m["value"]
            print(f"ok {label}")
    never = sorted(k for k, v in reached.items() if v == 0)
    if never:
        problems.append(f"layers never reached by any workload: {never}")
    _check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
