"""Trials, labels, cost parameters, score containers, and their text formats.

Everything here is immutable after construction and safe to share across
threads. The text formats (protocol, score, and feature files) are the
interchange surface used by the data generator, the trainers, and the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

# Score-space decision thresholds are plain floats.
Threshold = float

# Number of significant digits used when printing scores/features to text
# files; 17 guarantees exact float64 round-trips.
FLOAT_FORMAT = "{:.17g}"


class AsvLabel(Enum):
    TARGET = "target"
    NONTARGET = "nontarget"


class CmLabel(Enum):
    BONAFIDE = "bonafide"
    SPOOF = "spoof"


class Decision(Enum):
    ACCEPT = "accept"
    REJECT = "reject"


class MissingClassError(ValueError):
    """A metric precondition failed: one of the trial classes is absent."""


@dataclass(frozen=True)
class TrialLabel:
    """Ground-truth labels of one trial.

    A spoof trial always claims the target identity (the attacker mimics the
    enrolled speaker), so (NONTARGET, SPOOF) is rejected. The attack tag is
    present exactly for spoof trials.
    """

    asv_label: AsvLabel
    cm_label: CmLabel
    attack_id: str | None = None

    def __post_init__(self) -> None:
        if self.cm_label is CmLabel.SPOOF:
            if self.attack_id is None:
                raise ValueError("spoof trial requires an attack_id")
            if self.asv_label is not AsvLabel.TARGET:
                raise ValueError("spoof trials must claim the target speaker")
        elif self.attack_id is not None:
            raise ValueError("bonafide trial cannot carry an attack_id")

    @property
    def is_target_bonafide(self) -> bool:
        return self.asv_label is AsvLabel.TARGET and self.cm_label is CmLabel.BONAFIDE

    @property
    def is_nontarget_bonafide(self) -> bool:
        return self.asv_label is AsvLabel.NONTARGET and self.cm_label is CmLabel.BONAFIDE

    @property
    def is_spoof(self) -> bool:
        return self.cm_label is CmLabel.SPOOF


def tandem_ground_truth(label: TrialLabel) -> Decision:
    """The correct tandem decision: accept iff target speaker and bonafide."""
    if label.asv_label is AsvLabel.TARGET and label.cm_label is CmLabel.BONAFIDE:
        return Decision.ACCEPT
    return Decision.REJECT


@dataclass(frozen=True)
class Trial:
    """One evaluation unit: detector inputs plus ground-truth labels."""

    id: str
    x_asv: np.ndarray
    x_cm: np.ndarray
    label: TrialLabel

    def __post_init__(self) -> None:
        for name in ("x_asv", "x_cm"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{name} of trial {self.id!r} must be a 1-D vector")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} of trial {self.id!r} has non-finite entries")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def validate_cost_params(p: "TandemCostParams") -> None:
    """Raise ValueError naming the violated invariant, if any."""
    for name in ("c_miss", "c_fa", "c_fa_spoof"):
        value = getattr(p, name)
        if not math.isfinite(value):
            raise ValueError(f"non-finite cost {name}")
        if value < 0:
            raise ValueError(f"negative cost {name}={value}")
    for name in ("rho_tar", "rho_non", "rho_spoof"):
        value = getattr(p, name)
        if not math.isfinite(value) or not 0.0 <= value <= 1.0:
            raise ValueError(f"prior {name}={value} out of range [0, 1]")
    total = p.rho_tar + p.rho_non + p.rho_spoof
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"priors sum to {total}, expected 1")


@dataclass(frozen=True)
class TandemCostParams:
    """Costs and priors of the three-class tandem detection cost."""

    c_miss: float
    c_fa: float
    c_fa_spoof: float
    rho_tar: float
    rho_non: float
    rho_spoof: float

    def __post_init__(self) -> None:
        validate_cost_params(self)


# The ASVspoof19 challenge convention. This is an external configuration
# default, not something any formula here depends on; every metric takes
# explicit parameters.
ASVSPOOF19_COST_PARAMS = TandemCostParams(
    c_miss=1.0,
    c_fa=10.0,
    c_fa_spoof=10.0,
    rho_tar=0.9405,
    rho_non=0.0095,
    rho_spoof=0.05,
)


@dataclass(frozen=True)
class ErrorRates:
    """The four tandem error rates: miss-by-asv, bonafide false accept,
    spoof false accept, and miss-by-cm."""

    p_a: float
    p_b: float
    p_c: float
    p_d: float

    def __post_init__(self) -> None:
        for name in ("p_a", "p_b", "p_c", "p_d"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"rate {name}={value} outside [0, 1]")


@dataclass(frozen=True)
class ScoreEntry:
    trial_id: str
    label: TrialLabel
    asv_score: float
    cm_score: float


def _frozen_array(values: list[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


class ClassScores:
    """Per-class numpy views of a ScoreSet (target-bonafide, nontarget-bonafide,
    spoof), plus the spoof attack tags aligned with the spoof arrays."""

    def __init__(self, entries: Sequence[ScoreEntry]):
        tb_asv, tb_cm, nb_asv, nb_cm, sp_asv, sp_cm, sp_attacks = [], [], [], [], [], [], []
        for e in entries:
            # A spoof always claims the target (TrialLabel enforces it), so
            # the CM label and then the ASV label decide the class.
            label = e.label
            if label.cm_label is CmLabel.SPOOF:
                sp_asv.append(e.asv_score)
                sp_cm.append(e.cm_score)
                sp_attacks.append(label.attack_id)
            elif label.asv_label is AsvLabel.TARGET:
                tb_asv.append(e.asv_score)
                tb_cm.append(e.cm_score)
            else:
                nb_asv.append(e.asv_score)
                nb_cm.append(e.cm_score)
        # Read-only: a ScoreSet hands the same ClassScores to every caller.
        self.tb_asv = _frozen_array(tb_asv)
        self.tb_cm = _frozen_array(tb_cm)
        self.nb_asv = _frozen_array(nb_asv)
        self.nb_cm = _frozen_array(nb_cm)
        self.sp_asv = _frozen_array(sp_asv)
        self.sp_cm = _frozen_array(sp_cm)
        self.sp_attacks = tuple(sp_attacks)

    def require_all_classes(self) -> None:
        if self.tb_asv.size == 0:
            raise MissingClassError("missing target-bonafide class")
        if self.nb_asv.size == 0:
            raise MissingClassError("missing nontarget-bonafide class")
        if self.sp_asv.size == 0:
            raise MissingClassError("missing spoof class")


@dataclass(frozen=True)
class ScoreSet:
    """Aligned per-trial detector scores and labels; the unit metrics consume."""

    entries: tuple[ScoreEntry, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for e in self.entries:
            if e.trial_id in seen:
                raise ValueError(f"duplicate trial_id {e.trial_id!r}")
            seen.add(e.trial_id)
            if not (math.isfinite(e.asv_score) and math.isfinite(e.cm_score)):
                raise ValueError(f"non-finite score for trial {e.trial_id!r}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ScoreEntry]:
        return iter(self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, TrialLabel, float, float]]) -> "ScoreSet":
        return cls(tuple(ScoreEntry(i, l, float(a), float(c)) for i, l, a, c in rows))

    def class_split(self) -> ClassScores:
        """The per-class arrays, built on first use and shared afterwards."""
        return self._class_split

    @cached_property
    def _class_split(self) -> ClassScores:
        return ClassScores(self.entries)


# ---------------------------------------------------------------------------
# Text formats.
#
# Protocol file:  trial_id asv_label cm_label attack_id   ('-' when absent)
# Score file:     trial_id asv_score cm_score
# Features file:  trial_id x_asv... x_cm...               (d_asv + d_cm reals)
# ---------------------------------------------------------------------------


def write_protocol(path, labels: Iterable[tuple[str, TrialLabel]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for trial_id, label in labels:
            attack = label.attack_id if label.attack_id is not None else "-"
            fh.write(f"{trial_id} {label.asv_label.value} {label.cm_label.value} {attack}\n")


def read_protocol(path) -> dict[str, TrialLabel]:
    labels: dict[str, TrialLabel] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            trial_id, asv, cm, attack = parts
            if trial_id in labels:
                raise ValueError(f"{path}:{lineno}: duplicate trial_id {trial_id!r}")
            labels[trial_id] = TrialLabel(
                asv_label=AsvLabel(asv),
                cm_label=CmLabel(cm),
                attack_id=None if attack == "-" else attack,
            )
    return labels


def write_scores(path, scores: ScoreSet) -> None:
    fmt = FLOAT_FORMAT
    with open(path, "w", encoding="utf-8") as fh:
        for e in scores:
            fh.write(f"{e.trial_id} {fmt.format(e.asv_score)} {fmt.format(e.cm_score)}\n")


def read_scores(path, labels: dict[str, TrialLabel]) -> ScoreSet:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            trial_id, asv, cm = parts
            if trial_id not in labels:
                raise ValueError(f"{path}:{lineno}: trial {trial_id!r} not in protocol")
            rows.append((trial_id, labels[trial_id], float(asv), float(cm)))
    return ScoreSet.from_rows(rows)


def write_features(path, trials: Iterable[Trial]) -> None:
    fmt = FLOAT_FORMAT
    with open(path, "w", encoding="utf-8") as fh:
        for t in trials:
            values = " ".join(fmt.format(v) for v in np.concatenate([t.x_asv, t.x_cm]))
            fh.write(f"{t.id} {values}\n")


def read_features(path, labels: dict[str, TrialLabel], d_asv: int, d_cm: int) -> list[Trial]:
    """One trial per protocol entry, in file order; a protocol trial without
    a feature line, or a repeated line, is an error."""
    trials: dict[str, Trial] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 1 + d_asv + d_cm:
                raise ValueError(
                    f"{path}:{lineno}: expected {1 + d_asv + d_cm} fields, got {len(parts)}"
                )
            trial_id = parts[0]
            if trial_id not in labels:
                raise ValueError(f"{path}:{lineno}: trial {trial_id!r} not in protocol")
            if trial_id in trials:
                raise ValueError(f"{path}:{lineno}: duplicate trial {trial_id!r}")
            values = np.asarray([float(v) for v in parts[1:]], dtype=np.float64)
            trials[trial_id] = Trial(trial_id, values[:d_asv], values[d_asv:], labels[trial_id])
    missing = [trial_id for trial_id in labels if trial_id not in trials]
    if missing:
        raise ValueError(
            f"{path}: no features for {len(missing)} protocol trial(s), first {missing[0]!r}"
        )
    return list(trials.values())
