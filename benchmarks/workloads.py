"""The three benchmark workloads, driven through tandemopt's public API.

A workload turns the benchmark seed into its inputs, sets up, and hands out
rounds of ops. Every op has a ``run`` (the timed part) and a ``check`` that
runs outside the timed region, raises CheckFailed on a wrong output and
otherwise returns the work the op did. Work is counted from the workload
definition and the op's outputs, never from program call counts, so a
batched program does the same work by this count as a per-example one.

The program is imported from this checkout's ``src/`` directory only; an
installed copy elsewhere is refused.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(ImportError):
    """The checkout holds no tandemopt sources to benchmark."""


if not (SRC / "tandemopt" / "__init__.py").is_file():
    raise ProgramMissing(f"no tandemopt package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tandemopt  # noqa: E402
from tandemopt import cli, metrics, synthdata, tandem_train  # noqa: E402

if Path(tandemopt.__file__).resolve().parent != (SRC / "tandemopt").resolve():
    raise ProgramMissing(f"tandemopt resolves to {tandemopt.__file__}, not to {SRC}")

import reference  # noqa: E402

Method = tandem_train.Method
COSTS = tandemopt.ASVSPOOF19_COST_PARAMS
SPLITS = ("train", "dev", "eval")
CALIBRATED = (Method.REINFORCE_CALIB, Method.REINFORCE_CALIB_TDCF)

# Work counted per op. The guarded keys must repeat exactly between runs at
# the default size, whatever the seed; byte counts depend on how the seed's
# values print, so they are only required to repeat within a run.
WORK_KEYS = (
    "ops",
    "trials_trained",
    "trials_scored",
    "trials_written",
    "trials_read",
    "files_written",
    "files_read",
    "bytes_written",
    "bytes_read",
)
GUARDED_WORK_KEYS = WORK_KEYS[:-2]


class CheckFailed(Exception):
    """An op produced a wrong or incomplete output."""


# Pretraining normally stops at a plateau, after a number of epochs that
# depends on the data and so on the seed. Set-up must do the same work for
# every seed, so the plateau stop is off and the verification scorer trains a
# fixed 70 epochs: the median at which the default recipe stops on the
# default world (59 to 86 over seeds 0-7, 101 and 202). The ops start from
# the pair this leaves, so their clamped share matches the default recipe's.
FIXED_PRETRAIN = {"asv_max_epochs": 70, "plateau_tol": -math.inf}
# Tandem epochs of each train-tandem run in the cli set-up, whose runs only
# have to exist for ``report`` to read.
CLI_TANDEM_EPOCHS = 1


@dataclass(frozen=True)
class Size:
    """How large a workload is; DEFAULT is what the benchmark measures."""

    world: dict = field(default_factory=dict)  # WorldConfig overrides
    pretrain: dict = field(default_factory=lambda: dict(FIXED_PRETRAIN))  # PretrainConfig
    tandem_epochs: int = tandem_train.TrainConfig.epochs
    scoring_trials_per_class: int = 10000
    # The cli workload times I/O, so its checkpoint only has to exist: a short
    # pretraining keeps its set-up cheap.
    cli_pretrain: dict = field(default_factory=lambda: {"asv_max_epochs": 10})


DEFAULT = Size()
TINY = Size(
    world={
        "n_speakers_train": 8,
        "n_speakers_dev": 5,
        "n_speakers_eval": 8,
        "trials_per_class_train": 60,
        "trials_per_class_dev": 60,
        "trials_per_class_eval": 60,
    },
    pretrain={**FIXED_PRETRAIN, "asv_max_epochs": 12, "cm_max_epochs": 4},
    tandem_epochs=1,
    scoring_trials_per_class=120,
    cli_pretrain={"asv_max_epochs": 12, "cm_max_epochs": 4},
)

# Six more eval attacks for the scoring workload, so that its eval split has a
# dozen unseen and outlier attacks to break down and filter.
SCORING_EXTRA_ATTACKS = (
    synthdata.AttackSpec("A11", 0.84, 0.68, synthdata.AttackSplit.UNSEEN),
    synthdata.AttackSpec("A12", 0.78, 0.62, synthdata.AttackSplit.UNSEEN),
    synthdata.AttackSpec("A13", 0.92, 0.74, synthdata.AttackSplit.UNSEEN),
    synthdata.AttackSpec("A14", 0.87, 0.58, synthdata.AttackSplit.UNSEEN),
    synthdata.AttackSpec("A19", 0.30, 0.20, synthdata.AttackSplit.OUTLIER),
    synthdata.AttackSpec("A20", 0.15, 0.35, synthdata.AttackSplit.OUTLIER),
)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def world_config(seed: int, size: Size):
    return replace(synthdata.default_world_config(seed), **size.world)


def outlier_ids(world) -> set[str]:
    return {a.attack_id for a in world.attacks if a.split is synthdata.AttackSplit.OUTLIER}


def _work(**counts: int) -> dict:
    return {key: counts.get(key, 0) for key in WORK_KEYS}


def _record_digest(record) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(record.to_summary_json_dict(), sort_keys=True).encode())
    for row in record.rows:
        h.update(row.to_csv_line().encode())
    h.update(json.dumps(record.final_pair.to_json_dict(), sort_keys=True).encode())
    taus = record.soft_thresholds
    if taus is not None:
        h.update(repr((taus.tau_asv, taus.tau_cm)).encode())
    return h.hexdigest()


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (int, float)):
        yield float(value)


class _PretrainedWorld:
    """Set-up shared by comparison and scoring: a world and a pretrained pair."""

    def setup(self):
        splits = synthdata.generate_world(self.world)
        return splits, synthdata.pretrain_pair(splits.train, self.pretrain)

    def discard(self, state) -> None:
        pass


class Comparison(_PretrainedWorld):
    """The paper's table: every Method from one pretrained pair."""

    name = "comparison"

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed = seed
        self.world = world_config(seed, size)
        self.pretrain = synthdata.PretrainConfig(seed=seed, **size.pretrain)
        self.train = tandem_train.TrainConfig(
            seed=seed, lr=tandem_train.BENCHMARK_TANDEM_LR, epochs=size.tandem_epochs
        )
        self.outliers = outlier_ids(self.world)
        self.digests: dict[str, str] = {}

    def prepare(self, state) -> None:
        splits, _ = state
        self.split_sizes = {
            "dev": len(splits.dev),
            "eval": len(splits.eval),
            tandem_train.EVAL_FILTERED_SPLIT: sum(
                t.label.attack_id not in self.outliers for t in splits.eval
            ),
        }
        self.extra_scored = {m: 0 for m in Method}
        for m in CALIBRATED:
            self.extra_scored[m] = len(splits.train)  # calibrator fit
        self.extra_scored[Method.SOFT_TDCF] = len(splits.dev)  # initial thresholds

    def round(self, state) -> list[Op]:
        splits, pair = state
        return [
            Op(
                m.value,
                partial(
                    tandem_train.run_method, m, pair, splits, self.train, COSTS,
                    exclude_attacks=self.outliers,
                ),
                partial(self._check, m),
            )
            for m in Method
        ]

    def trials(self, work: dict) -> int:
        return work["trials_trained"] + work["trials_scored"]

    def _check(self, method, record) -> dict:
        digest = _record_digest(record)
        first = self.digests.setdefault(method.value, digest)
        if digest != first:
            raise CheckFailed(
                f"{method.value} with seed {self.seed} differs from its first run"
            )
        for split, by_epoch in record.reports.items():
            for epoch, rep in by_epoch.items():
                if not all(math.isfinite(v) for v in _numbers(rep.to_json_dict())):
                    raise CheckFailed(f"{method.value} {split} epoch {epoch}: non-finite metric")
                if not 0.0 <= rep.min_norm_tdcf <= 1.0:
                    raise CheckFailed(
                        f"{method.value} {split} epoch {epoch}: "
                        f"min_norm_tdcf {rep.min_norm_tdcf} outside [0, 1]"
                    )
        # One train row per step; the finetune baseline steps both systems on
        # separate batches per row.
        steps = sum(row.split == "train" for row in record.rows)
        systems = 2 if method is Method.FINETUNE else 1
        scored = sum(
            self.split_sizes[split] * len(by_epoch) for split, by_epoch in record.reports.items()
        )
        return _work(
            ops=1,
            trials_trained=steps * self.train.batch_size * systems,
            trials_scored=scored + self.extra_scored[method],
        )


class Scoring(_PretrainedWorld):
    """Evaluation only: score a large eval split and report on it, full and
    with the outlier attacks filtered out, as ``tandemopt evaluate`` does."""

    name = "scoring"

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed = seed
        base = world_config(seed, size)
        self.world = replace(
            base,
            trials_per_class_eval=size.scoring_trials_per_class,
            attacks=base.attacks + SCORING_EXTRA_ATTACKS,
        )
        self.pretrain = synthdata.PretrainConfig(seed=seed, **size.pretrain)
        self.outliers = outlier_ids(self.world)

    def prepare(self, state) -> None:
        splits, pair = state
        trials = splits.eval
        self.ids = tuple(t.id for t in trials)
        self.ref_asv = reference.forward(
            pair.asv.scorer.to_json_dict(), np.stack([t.x_asv for t in trials])
        )
        self.ref_cm = reference.forward(
            pair.cm.scorer.to_json_dict(), np.stack([t.x_cm for t in trials])
        )
        self.classes = np.asarray(
            [
                reference.TARGET if t.label.is_target_bonafide
                else reference.NONTARGET if t.label.is_nontarget_bonafide
                else reference.SPOOF
                for t in trials
            ]
        )
        self.attacks = np.asarray([t.label.attack_id or "" for t in trials], dtype=object)
        self.keep = ~np.isin(self.attacks, sorted(self.outliers))

    def round(self, state) -> list[Op]:
        splits, pair = state
        return [Op("score+report", partial(self._run, pair, splits.eval), self._check)]

    def trials(self, work: dict) -> int:
        return work["trials_scored"]

    def _run(self, pair, trials):
        scores = tandem_train.score_trials(pair, trials)
        full = metrics.compute_metric_report(scores, COSTS)
        filtered = metrics.filter_attacks(scores, self.outliers)
        return scores, full, filtered, metrics.compute_metric_report(filtered, COSTS)

    def _check(self, out) -> dict:
        scores, full, filtered, part = out
        if tuple(e.trial_id for e in scores) != self.ids:
            raise CheckFailed("scores are not one per eval trial in trial order")
        asv = np.asarray([e.asv_score for e in scores])
        cm = np.asarray([e.cm_score for e in scores])
        for name, got, want in (("asv", asv, self.ref_asv), ("cm", cm, self.ref_cm)):
            worst = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
            if not worst <= 1e-9:
                raise CheckFailed(f"{name} scores differ from the matrix forward by {worst:.3e}")
        kept = tuple(np.asarray(self.ids, dtype=object)[self.keep])
        if tuple(e.trial_id for e in filtered) != kept:
            raise CheckFailed("filter_attacks did not keep exactly the non-outlier trials")
        k = self.keep
        problems = reference.mismatches(
            full.to_json_dict(),
            reference.report(asv, cm, self.classes, self.attacks, COSTS),
            "full",
        ) + reference.mismatches(
            part.to_json_dict(),
            reference.report(asv[k], cm[k], self.classes[k], self.attacks[k], COSTS),
            "filtered",
        )
        if problems:
            raise CheckFailed("report differs from the reference sweep: " + "; ".join(problems[:5]))
        return _work(ops=1, trials_scored=len(self.ids))


class Cli:
    """``tandemopt.cli.main`` on a directory inside the checkout."""

    name = "cli"

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.config_text = "".join(
            f"{key} = {value}\n" for key, value in {"seed": seed, **size.world}.items()
        )
        self.outliers = ",".join(sorted(outlier_ids(world_config(seed, size))))
        self.setups = 0
        self.first_digest: str | None = None

    @staticmethod
    def _main(*argv) -> tuple[str, int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        return argv[0], rc, err.getvalue()

    @staticmethod
    def _require_ok(results) -> None:
        for command, rc, err in results:
            if rc != 0:
                raise CheckFailed(f"tandemopt {command} exited {rc}: {err.strip()}")

    def setup(self) -> Path:
        root = self.workdir / f"setup{self.setups}"
        self.setups += 1
        root.mkdir(parents=True)
        (root / "world.cfg").write_text(self.config_text)
        pretrain_flags = []
        for key, value in self.size.cli_pretrain.items():
            pretrain_flags += [f"--{key.replace('_', '-')}", value]
        results = [
            self._main("gen-data", "--config", root / "world.cfg", "--out", root / "data"),
            self._main(
                "pretrain", "--data", root / "data", "--out", root / "pretrained.json",
                "--seed", self.seed, *pretrain_flags,
            ),
        ]
        for m in Method:
            results.append(
                self._main(
                    "train-tandem", "--method", m.value, "--ckpt", root / "pretrained.json",
                    "--data", root / "data", "--seeds", 1, "--base-seed", self.seed,
                    "--epochs", CLI_TANDEM_EPOCHS, "--exclude-attacks", self.outliers,
                    "--out", root / "runs",
                )
            )
        self._require_ok(results)
        return root

    def discard(self, state: Path) -> None:
        shutil.rmtree(state)

    def prepare(self, state: Path) -> None:
        pass

    def round(self, state: Path) -> list[Op]:
        out = self.workdir / "op"
        return [Op("gen-data+evaluate+report", partial(self._run, state, out), partial(self._check, state, out))]

    def trials(self, work: dict) -> int:
        return work["trials_written"] + work["trials_read"]

    def _evaluations(self):
        for split in SPLITS:
            yield split, f"{split}.json", ()
            yield split, f"{split}_filtered.json", ("--exclude-attacks", self.outliers)

    def _run(self, setup: Path, out: Path):
        results = [self._main("gen-data", "--config", setup / "world.cfg", "--out", out / "data")]
        for split, name, extra in self._evaluations():
            results.append(
                self._main(
                    "evaluate", "--ckpt", setup / "pretrained.json", "--data", out / "data",
                    "--split", split, *extra, "--out", out / "eval" / name,
                )
            )
        results.append(self._main("report", "--runs", setup / "runs", "--out", out / "report"))
        return results

    def _check(self, setup: Path, out: Path, results) -> dict:
        try:
            self._require_ok(results)
            files = sorted(p for p in out.rglob("*") if p.is_file())
            h = hashlib.sha256()
            for path in files:
                h.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
            digest = h.hexdigest()
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                raise CheckFailed("outputs are not byte-identical to the first op's")

            def lines(path: Path) -> int:
                with open(path, "rb") as fh:
                    return sum(1 for _ in fh)

            trial_files = [
                p for p in files
                if p.name.endswith((".protocol.txt", ".features.txt", ".scores.txt"))
            ]
            # What a correct evaluate must read: the manifest, the evaluated
            # split's protocol and features, and the checkpoint; report reads
            # every run's CSV and summary.
            data = out / "data"
            read = []
            trials_read = 0
            for split, _, _ in self._evaluations():
                protocol = data / f"{split}.protocol.txt"
                read += [data / "manifest.json", protocol, data / f"{split}.features.txt",
                         setup / "pretrained.json"]
                trials_read += lines(protocol)
            read += sorted((setup / "runs").glob("*_seed*.csv"))
            read += sorted((setup / "runs").glob("*_seed*_summary.json"))
            return _work(
                ops=1,
                trials_written=sum(lines(p) for p in trial_files),
                trials_read=trials_read,
                files_written=len(files),
                files_read=len(read),
                bytes_written=sum(p.stat().st_size for p in files),
                bytes_read=sum(p.stat().st_size for p in read),
            )
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Comparison, Scoring, Cli)}
