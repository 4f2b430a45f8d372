"""Run telemetry: per-step rows, per-epoch metric reports, CSV emission, and
the cross-run aggregation behind the comparison table and learning curves."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .metrics import MetricReport
from .types import atomic_write


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _parse(value: str) -> float | None:
    return None if value == "" else float(value)


@dataclass
class TelemetryRow:
    step: int
    epoch: int
    method: str
    seed: int
    split: str
    asv_eer: float | None
    cm_eer: float | None
    min_norm_tdcf: float | None
    train_loss: float | None

    def to_csv_line(self) -> str:
        return ",".join(fmt(getattr(self, name)) for name, fmt, _ in _CSV_COLUMNS)

    @classmethod
    def from_csv_line(cls, line: str) -> "TelemetryRow":
        parts = line.rstrip("\n").split(",")
        if len(parts) != len(_CSV_COLUMNS):
            raise ValueError(f"expected {len(_CSV_COLUMNS)} CSV fields, got {len(parts)}")
        return cls(*(parse(part) for (_, _, parse), part in zip(_CSV_COLUMNS, parts)))


# (name, format, parse) of each CSV column, one per TelemetryRow field in
# field order, chosen by the field's annotation; an optional float is
# written exactly, or empty when missing.
_CODECS = {"int": (str, int), "str": (str, str), "float | None": (_fmt, _parse)}
_CSV_COLUMNS = tuple((f.name, *_CODECS[f.type]) for f in fields(TelemetryRow))
TELEMETRY_HEADER = ",".join(name for name, _, _ in _CSV_COLUMNS)


@dataclass
class RunRecord:
    """Everything one training run produced: config snapshot, ordered
    telemetry rows, and metric reports per split and epoch."""

    method: str
    seed: int
    config: dict = field(default_factory=dict)
    rows: list[TelemetryRow] = field(default_factory=list)
    reports: dict[str, dict[int, MetricReport]] = field(default_factory=dict)
    trained_trial_ids: set[str] = field(default_factory=set)
    final_pair: object | None = None
    soft_thresholds: object | None = None

    def add_report(self, split: str, epoch: int, report: MetricReport) -> None:
        self.reports.setdefault(split, {})[epoch] = report

    def initial_report(self, split: str) -> MetricReport:
        return self.reports[split][min(self.reports[split])]

    def final_report(self, split: str) -> MetricReport:
        return self.reports[split][max(self.reports[split])]

    def write_csv(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(TELEMETRY_HEADER + "\n")
            for row in self.rows:
                fh.write(row.to_csv_line() + "\n")

    def to_summary_json_dict(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "config": self.config,
            "reports": {
                split: {
                    str(epoch): report.to_json_dict()
                    for epoch, report in sorted(by_epoch.items())
                }
                for split, by_epoch in sorted(self.reports.items())
            },
        }

    @classmethod
    def from_summary_json_dict(cls, d: dict, rows: list[TelemetryRow] | None = None) -> "RunRecord":
        record = cls(method=d["method"], seed=d["seed"], config=dict(d["config"]))
        for split, by_epoch in d.get("reports", {}).items():
            for epoch, report in by_epoch.items():
                record.add_report(split, int(epoch), MetricReport.from_json_dict(report))
        if rows:
            record.rows = rows
        return record


def read_rows_csv(path) -> list[TelemetryRow]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != TELEMETRY_HEADER:
            raise ValueError(f"unexpected CSV header in {path}: {header!r}")
        for line in fh:
            if line.strip():
                rows.append(TelemetryRow.from_csv_line(line))
    return rows


METRIC_FIELDS = ("asv_eer", "cm_eer", "min_norm_tdcf")


def _check_consistent_configs(runs: Sequence[RunRecord]) -> None:
    """Runs may differ in method and seed only; anything else is a mistake
    and averaging over it would be meaningless."""
    reference: dict | None = None
    for run in runs:
        cfg = {k: v for k, v in run.config.items() if k != "seed"}
        if reference is None:
            reference = cfg
        elif cfg != reference:
            raise ValueError(
                "inconsistent run configs, refusing to average: "
                f"{cfg} != {reference}"
            )


def _eval_rows(run: RunRecord) -> list[TelemetryRow]:
    return [r for r in run.rows if r.split != "train"]


def comparison_table(runs: Sequence[RunRecord]) -> list[dict]:
    """Mean and standard deviation (over seeds) of the final metrics, one row
    per method and evaluation split."""
    _check_consistent_configs(runs)
    by_method: dict[str, list[RunRecord]] = {}
    for run in runs:
        by_method.setdefault(run.method, []).append(run)
    table = []
    for method in sorted(by_method):
        group = by_method[method]
        splits = sorted({r.split for run in group for r in _eval_rows(run)})
        for split in splits:
            values: dict[str, list[float]] = {m: [] for m in METRIC_FIELDS}
            for run in group:
                rows = [r for r in _eval_rows(run) if r.split == split]
                final = max(rows, key=lambda r: r.epoch)
                for m in METRIC_FIELDS:
                    values[m].append(getattr(final, m))
            entry = {"method": method, "split": split, "n_seeds": len(group)}
            for m in METRIC_FIELDS:
                entry[f"{m}_mean"] = float(np.mean(values[m]))
                entry[f"{m}_std"] = float(np.std(values[m]))
            table.append(entry)
    return table


def learning_curves(runs: Sequence[RunRecord]) -> list[dict]:
    """Per method/split/epoch: mean and std (over seeds) of each metric's
    change relative to epoch 0."""
    _check_consistent_configs(runs)
    by_method: dict[str, list[RunRecord]] = {}
    for run in runs:
        by_method.setdefault(run.method, []).append(run)
    curves = []
    for method in sorted(by_method):
        group = by_method[method]
        splits = sorted({r.split for run in group for r in _eval_rows(run)})
        for split in splits:
            epochs = sorted(
                {r.epoch for run in group for r in _eval_rows(run) if r.split == split}
            )
            for epoch in epochs:
                entry = {"method": method, "split": split, "epoch": epoch}
                for m in METRIC_FIELDS:
                    deltas = []
                    for run in group:
                        rows = {r.epoch: r for r in _eval_rows(run) if r.split == split}
                        deltas.append(getattr(rows[epoch], m) - getattr(rows[0], m))
                    entry[f"d_{m}_mean"] = float(np.mean(deltas))
                    entry[f"d_{m}_std"] = float(np.std(deltas))
                curves.append(entry)
    return curves


def write_table_csv(path, rows: Sequence[dict]) -> None:
    if not rows:
        raise ValueError("nothing to write")
    headers = list(rows[0].keys())
    with atomic_write(path) as fh:
        fh.write(",".join(headers) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    repr(v) if isinstance(v, float) else str(v) for v in (row[h] for h in headers)
                )
                + "\n"
            )
