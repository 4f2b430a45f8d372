"""Benchmark of tandemopt: three workloads through the public API, timed from outside.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload comparison --seed 1 --seconds 10 --trace 0

Workloads are ``comparison``, ``scoring`` and ``cli`` (see workloads.py).
``--trace 0`` prints the end-to-end metrics: the workload is set up
SETUP_REPEATS times (the median is ``setup_s``), each set-up followed by a
share of the ops, until ``--seconds`` of op time and whole rounds have been
measured; after a single round one op runs again, untimed, for the repeat
checks. ``--trace 1`` prints the per-layer metrics instead: one set-up and
half the rounds run with spans around the layers listed in layers.json, the
other half without; the difference of their costs against the reference
computation (MachineSpeed), in seconds, is ``trace.overhead_s``.

Every op's output is checked outside the timed region; a failed check counts
as a failed op. The line before the last holds the details (environment,
sample counts, work per round, failures); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only for
a correct run, and 2 when the checkout has no tandemopt sources.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

try:
    import tracing
    import workloads
except ImportError as exc:  # no tandemopt sources in this checkout
    PROGRAM_MISSING: ImportError | None = exc
else:
    PROGRAM_MISSING = None

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
WORK_COUNTS = BENCH_DIR / "work_counts.json"

MANIFEST = ROOT / "BENCHMARK.json"
# Set-ups per untraced run; setup_s is their median. Set-up pretrains the
# default recipe's 70 verification epochs (about 10 s on a 2-core machine),
# so a third set-up would bring the 70 runs of a full three-workload
# measurement to about 3,350 s, where two keep them near 2,650 s.
SETUP_REPEATS = 2

# BENCHMARK.json names every metric a run prints, with its unit.
#
# The other tenants of a shared machine slow a whole run by up to 1.5x for
# tens of seconds at a time, so raw op times of ten runs read 15 to 35% apart.
# Each op is therefore also timed against a fixed reference computation run
# right before and right after it (MachineSpeed): op_cost is the op's time in
# units of that reference, and trials_per_ref the trials done per mean
# reference time, over all ops of the run. The reference itself swings by
# up to 2x within seconds, so a single op's cost is noisy; the median cost
# and the pooled ratio of op time to reference time are what stay steady.
# A faster program still moves both in proportion. The raw op_s.p50,
# op_s.p90 and trials_per_s are printed in the details line, ungated.


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads(MANIFEST.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class MachineSpeed:
    """Times a fixed computation shaped like per-example scoring: a 16x8
    matrix-vector product, tanh and Python bookkeeping, REFERENCE_STEPS times.
    A sample is the median of three timings, so one stall does not set it.

    It uses no tandemopt code, so changes to the program do not move it."""

    REFERENCE_STEPS = 4000

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((16, 8))
        self._x = rng.standard_normal((64, 8))

    def _once(self) -> float:
        w, x = self._w, self._x
        t0 = perf_counter()
        total = 0.0
        for i in range(self.REFERENCE_STEPS):
            total += float(np.tanh(w @ x[i % 64])[0])
        return perf_counter() - t0

    def sample(self) -> float:
        return statistics.median(self._once() for _ in range(3))


class Runner:
    """Runs a workload's ops in round order; times each op, then checks it.

    A round is the list ``wl.round(state)``; it is rebuilt for every op, so a
    round may continue on the state of a newer set-up.
    """

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.speed = MachineSpeed()
        self.op_times: list[float] = []
        self.ref_times: list[float] = []
        self.op_labels: list[str] = []
        self.round_times: list[float] = []
        self.round_work: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._next = 0
        self._round_time = 0.0
        self._work = Counter()

    def _time_and_check(self, op) -> tuple[float, float, dict]:
        """(op seconds, reference seconds around it, work) for one op."""
        gc.collect()
        self.attempted += 1
        error = None
        ref_before = self.speed.sample()
        t0 = perf_counter()
        try:
            if self.tracer is None:
                out = op.run()
            else:
                with self.tracer.span("op"):
                    out = op.run()
        except Exception as exc:  # a failing op is counted, not fatal
            error = f"{op.label}: {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        ref = (ref_before + self.speed.sample()) / 2.0
        if error is None:
            try:
                return elapsed, ref, op.check(out)
            except workloads.CheckFailed as exc:
                error = f"{op.label}: {exc}"
        self.failures.append(error)
        return elapsed, ref, {}

    def costs(self) -> list[float]:
        """Each op's time in units of the reference timed around it."""
        return [t / ref for t, ref in zip(self.op_times, self.ref_times)]

    def mean_cost(self) -> float:
        return statistics.fmean(self.costs())

    def run_until(self, state, seconds: float, whole_rounds: bool) -> None:
        """Ops until ``seconds`` of op time in all are measured (at least one
        more op), then on to the end of the round when ``whole_rounds``."""
        runs = 0
        while not runs or sum(self.op_times) < seconds or (whole_rounds and self._next):
            ops = self.wl.round(state)
            op = ops[self._next]
            elapsed, ref, counts = self._time_and_check(op)
            runs += 1
            self.op_times.append(elapsed)
            self.ref_times.append(ref)
            self.op_labels.append(op.label)
            self._round_time += elapsed
            self._work.update(counts)
            self._next = (self._next + 1) % len(ops)
            if not self._next:
                self.round_times.append(self._round_time)
                self.round_work.append({k: self._work[k] for k in workloads.WORK_KEYS})
                self._round_time, self._work = 0.0, Counter()

    def repeat_once(self, state) -> None:
        """After a single round, run one of its ops again, untimed, so that
        every run compares some op's output with a second run of it."""
        if len(self.round_times) < 2:
            ops = self.wl.round(state)
            self._time_and_check(ops[self.wl.seed % len(ops)])


def _round_work(runners, guard_name: str | None) -> tuple[dict, list[str]]:
    """The work of one round, and every way it fails to repeat. With a
    ``guard_name`` the round must also match the work recorded for it."""
    rounds = [w for r in runners for w in r.round_work]
    problems = []
    first = rounds[0]
    if any(w != first for w in rounds[1:]):
        problems.append(f"work differs between rounds: {rounds}")
    if guard_name is not None:
        expected = json.loads(WORK_COUNTS.read_text()).get(guard_name)
        got = {k: first[k] for k in workloads.GUARDED_WORK_KEYS}
        if got != expected:
            problems.append(f"work per round {got} != recorded {expected} in {WORK_COUNTS.name}")
    return first, problems


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure_untraced(wl, seconds: float) -> tuple[dict, dict, list]:
    """Set up SETUP_REPEATS times with an equal share of the ops after each set-up,
    so that set-up and op samples spread over the whole run rather than
    meeting the shared machine in one state."""
    runner = Runner(wl)
    setup_times = []
    state = None
    for k in range(SETUP_REPEATS):
        if state is not None:
            wl.discard(state)
            state = None
        gc.collect()
        t0 = perf_counter()
        state = wl.setup()
        setup_times.append(perf_counter() - t0)
        wl.prepare(state)
        last = k == SETUP_REPEATS - 1
        runner.run_until(state, seconds * (k + 1) / SETUP_REPEATS, whole_rounds=last)
    runner.repeat_once(state)
    ops = runner.op_times
    costs = runner.costs()
    trials = wl.trials(runner.round_work[0]) * len(runner.round_times)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_cost.p50": statistics.median(costs),
        "trials_per_ref": trials * statistics.fmean(runner.ref_times) / sum(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_s_samples": setup_times,
        "op_samples": len(ops),
        "op_s.p50": {"value": statistics.median(ops), "unit": "s"},
        "op_s.p90": {"value": _p90(ops), "unit": "s"},
        "trials_per_s": {"value": trials / sum(ops), "unit": "1/s"},
        "reference_s.p50": {"value": statistics.median(runner.ref_times), "unit": "s"},
        "op_s_ref_s_by_label": list(zip(runner.op_labels, ops, runner.ref_times)),
        "rounds": len(runner.round_times),
    }
    return values, detail, [runner]


def measure_traced(wl, seconds: float) -> tuple[dict, dict, list]:
    setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
    with setup_tracer.installed(), setup_tracer.span("setup"):
        state = wl.setup()
    setup_layers = setup_tracer.self_times()
    wl.prepare(state)

    plain, traced = Runner(wl), Runner(wl, tracer)
    plain.run_until(state, seconds / 2.0, whole_rounds=True)
    # Every traced op repeats an untraced one, so the checks compare them.
    with tracer.installed():
        traced.run_until(state, seconds / 2.0, whole_rounds=True)
    leftovers = tracing.leftover_wrappers()

    op_layers = tracer.self_times()
    n = len(traced.round_times)
    values = {}
    layer_self = 0.0
    for entry in tracing.LAYERS["spans"]:
        key = tracing.span_key(entry)
        for phase in entry["phases"]:
            if phase == "op":
                calls, own = op_layers[key]
                calls, own = calls / n, own / n
                layer_self += own
            else:
                calls, own = setup_layers[key]
            prefix = "" if phase == "op" else f"{phase}."
            values[f"{prefix}{key}.calls"] = calls
            values[f"{prefix}{key}.self_s"] = own
    # Useful-work counters over the whole traced run: the share of
    # policy_accept_probability results that came back clamped, and the share
    # of batches from iterate_batches that reached no reinforce_batch or
    # soft_tdcf_train_step before the next batch (only soft-cost training
    # skips any). Bytes are the sizes of the files the wrapped types readers
    # and writers touched, per round.
    accepts = setup_tracer.accepts + tracer.accepts
    clamped = setup_tracer.accepts_clamped + tracer.accepts_clamped
    batches = setup_tracer.batches + tracer.batches
    skipped = setup_tracer.batches_skipped + tracer.batches_skipped
    values["tandem_train.clamped_share"] = clamped / accepts if accepts else 0.0
    values["soft_tdcf.skipped_share"] = skipped / batches if batches else 0.0
    values["types.io.bytes_read"] = tracer.bytes_read / n
    values["types.io.bytes_written"] = tracer.bytes_written / n
    # The untraced ops run before the traced ones, so each side's op time is
    # taken in units of the reference timed around its own ops; the
    # difference of the mean costs is turned back into seconds at the run's
    # median reference time.
    values["trace.overhead_s"] = (traced.mean_cost() - plain.mean_cost()) * statistics.median(
        plain.ref_times + traced.ref_times
    )
    detail = {
        "rounds_untraced": len(plain.round_times),
        "rounds_traced": n,
        "traced_round_s": statistics.fmean(traced.round_times),
        "layer_self_s_per_round": layer_self,
        "spans_recorded": len(tracer.span_name),
        "policy_probabilities": accepts,
        "batches_yielded": batches,
        "leftover_wrappers": leftovers,
    }
    if leftovers:
        traced.failures.append(f"wrappers left installed: {leftovers}")
    return values, detail, [plain, traced]


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size=None) -> tuple[dict, dict]:
    """Run one workload; returns (result, details)."""
    size = workloads.DEFAULT if size is None else size
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        wl = workloads.WORKLOADS[workload](seed, size, workdir)
        if trace:
            values, detail, runners = measure_traced(wl, seconds)
        else:
            values, detail, runners = measure_untraced(wl, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    guard = workload if size is workloads.DEFAULT else None
    work, problems = _round_work(runners, guard)
    attempted = sum(r.attempted for r in runners)
    failures = [f for r in runners for f in r.failures]
    units = metric_units(trace)
    if set(values) != set(units):
        problems.append(
            f"measured metrics differ from {MANIFEST.name}: missing "
            f"{sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}"
        )
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    detail.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        env=environment(),
        error_rate=len(failures) / attempted,
        failures=failures,
        work_problems=problems,
        work_per_round=work,
    )
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("comparison", "scoring", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if PROGRAM_MISSING is not None:
        print(f"error: cannot load the program to benchmark: {PROGRAM_MISSING}", file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
