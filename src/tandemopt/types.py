"""Trials, labels, cost parameters, score containers, and their text formats.

A trial's class is decided once, by TrialLabel.tandem_class, and the cost
weight of an error on each class once, by TandemCostParams.class_weights;
everything else indexes the weights by the class code. A ScoreSet is held as
columns; ScoreEntry objects exist only while it is iterated.

Everything here is immutable after construction and safe to share across
threads. The text formats (protocol, score, and feature files) are the
interchange surface used by the data generator, the trainers, and the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator

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


class TrialClass(IntEnum):
    """The three trial classes of the tandem cost; the value is the class code."""

    TARGET_BONAFIDE = 0
    NONTARGET_BONAFIDE = 1
    SPOOF = 2


class MissingClassError(ValueError):
    """A metric precondition failed: one of the trial classes is absent."""


@dataclass(frozen=True)
class TrialLabel:
    """Ground-truth labels of one trial.

    A spoof trial always claims the target identity (the attacker mimics the
    enrolled speaker), so (NONTARGET, SPOOF) is rejected. The attack tag is
    present exactly for spoof trials. tandem_class is the trial's class,
    decided here once from the labels: the CM label, then the ASV label.
    """

    asv_label: AsvLabel
    cm_label: CmLabel
    attack_id: str | None = None
    tandem_class: TrialClass = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cm_label is CmLabel.SPOOF:
            if self.attack_id is None:
                raise ValueError("spoof trial requires an attack_id")
            if self.asv_label is not AsvLabel.TARGET:
                raise ValueError("spoof trials must claim the target speaker")
            tandem_class = TrialClass.SPOOF
        elif self.attack_id is not None:
            raise ValueError("bonafide trial cannot carry an attack_id")
        elif self.asv_label is AsvLabel.TARGET:
            tandem_class = TrialClass.TARGET_BONAFIDE
        else:
            tandem_class = TrialClass.NONTARGET_BONAFIDE
        object.__setattr__(self, "tandem_class", tandem_class)

    @property
    def is_target_bonafide(self) -> bool:
        return self.tandem_class is TrialClass.TARGET_BONAFIDE

    @property
    def is_nontarget_bonafide(self) -> bool:
        return self.tandem_class is TrialClass.NONTARGET_BONAFIDE

    @property
    def is_spoof(self) -> bool:
        return self.tandem_class is TrialClass.SPOOF


def tandem_ground_truth(label: TrialLabel) -> Decision:
    """The correct tandem decision: accept iff target speaker and bonafide."""
    return Decision.ACCEPT if label.is_target_bonafide else Decision.REJECT


def class_codes(labels: Iterable[TrialLabel]) -> np.ndarray:
    """The TrialClass code of each label, in order."""
    return np.fromiter((label.tandem_class for label in labels), dtype=np.intp)


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

    @cached_property
    def class_weights(self) -> np.ndarray:
        """Cost weight c*rho of one error on each TrialClass, by class code: a
        missed target-bonafide, an accepted nontarget or spoof."""
        return _frozen_array(
            [self.c_miss * self.rho_tar, self.c_fa * self.rho_non, self.c_fa_spoof * self.rho_spoof]
        )


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


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    """A read-only copy of values."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class ClassScores:
    """Per-class score arrays of a ScoreSet (target-bonafide, nontarget-bonafide,
    spoof) in trial order, plus the spoof attack tags aligned with the spoof
    arrays. Read-only: a ScoreSet hands the same ClassScores to every caller."""

    def __init__(self, scores: "ScoreSet"):
        tb, nb, sp = (scores.classes == c for c in TrialClass)
        self.tb_asv, self.tb_cm, self.nb_asv, self.nb_cm, self.sp_asv, self.sp_cm = (
            _frozen_array(column[mask]) for mask in (tb, nb, sp) for column in (scores.asv, scores.cm)
        )
        self.sp_attacks = tuple(label.attack_id for label in compress(scores.labels, sp.tolist()))

    def require_all_classes(self) -> None:
        for c, asv in zip(TrialClass, (self.tb_asv, self.nb_asv, self.sp_asv)):
            if asv.size == 0:
                raise MissingClassError(f"missing {c.name.lower().replace('_', '-')} class")


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Aligned per-trial detector scores and labels; the unit metrics consume.

    Columns, in trial order: trial_ids and labels (tuples), asv and cm
    (read-only float64 arrays) and classes (the labels' TrialClass codes).
    """

    trial_ids: tuple[str, ...]
    labels: tuple[TrialLabel, ...]
    asv: np.ndarray
    cm: np.ndarray

    def __post_init__(self) -> None:
        self._set_columns(self.trial_ids, self.labels, self.asv, self.cm)
        ids = self.trial_ids
        if len(self.labels) != len(ids) or not self.asv.shape == self.cm.shape == (len(ids),):
            raise ValueError("score set columns must be 1-D and of one length")
        # The first trial with a repeated id or a non-finite score is reported.
        finite = np.isfinite(self.asv) & np.isfinite(self.cm)
        first_bad = len(ids) if finite.all() else int(np.argmin(finite))
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            for trial_id in ids[: first_bad + 1]:
                if trial_id in seen:
                    raise ValueError(f"duplicate trial_id {trial_id!r}")
                seen.add(trial_id)
        if first_bad < len(ids):
            raise ValueError(f"non-finite score for trial {ids[first_bad]!r}")

    def __len__(self) -> int:
        return len(self.trial_ids)

    def __iter__(self) -> Iterator[ScoreEntry]:
        return map(ScoreEntry, self.trial_ids, self.labels, self.asv.tolist(), self.cm.tolist())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ScoreSet)
            and (self.trial_ids, self.labels) == (other.trial_ids, other.labels)
            and np.array_equal(self.asv, other.asv)
            and np.array_equal(self.cm, other.cm)
        )

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, TrialLabel, float, float]]) -> "ScoreSet":
        return cls(*(tuple(zip(*rows)) or ((), (), (), ())))

    @cached_property
    def classes(self) -> np.ndarray:
        return _frozen_array(class_codes(self.labels), dtype=np.intp)

    def _set_columns(self, trial_ids, labels, asv, cm) -> "ScoreSet":
        """Store ids and labels as tuples and scores as read-only float64 copies."""
        columns = (tuple(trial_ids), tuple(labels), _frozen_array(asv), _frozen_array(cm))
        for name, value in zip(("trial_ids", "labels", "asv", "cm"), columns):
            object.__setattr__(self, name, value)
        return self

    def select(self, mask: np.ndarray) -> "ScoreSet":
        """The trials where mask is true, in trial order; part of a checked
        set is not checked again."""
        keep = mask.tolist()
        return object.__new__(ScoreSet)._set_columns(
            compress(self.trial_ids, keep), compress(self.labels, keep), self.asv[mask], self.cm[mask]
        )

    def class_split(self) -> ClassScores:
        """The per-class arrays, built on first use and shared afterwards."""
        return self._class_split

    @cached_property
    def _class_split(self) -> ClassScores:
        return ClassScores(self)


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
        for trial_id, asv, cm in zip(scores.trial_ids, scores.asv.tolist(), scores.cm.tolist()):
            fh.write(f"{trial_id} {fmt.format(asv)} {fmt.format(cm)}\n")


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
