"""Trials, labels, cost parameters, score containers, and their text formats.

A trial's class is decided once, by TrialLabel.tandem_class, and the cost
weight of an error on each class once, by TandemCostParams.class_weights;
everything else indexes the weights by the class code. A TrialSet (a split)
and a ScoreSet (a score pass) are held as columns and checked once; Trial and
ScoreEntry records exist only while a set is iterated.

Everything here is immutable after construction and safe to share across
threads. The text formats (protocol, score, and feature files) are the
interchange surface used by the data generator, the trainers, and the CLI.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property
from typing import Iterable, Iterator, Sequence, TextIO

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
    """One unchecked trial record: what iterating a TrialSet yields."""

    id: str
    x_asv: np.ndarray
    x_cm: np.ndarray
    label: TrialLabel


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
    """A read-only C-contiguous copy of values."""
    return _read_only(np.array(values, dtype=dtype, order="C"))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only in place."""
    arr.setflags(write=False)
    return arr


class RowError(ValueError):
    """A bad row of a trial set or score set; row is its index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def check_rows(ids: Sequence[str], finite: np.ndarray, what: str) -> None:
    """Raise RowError for the first row whose trial id repeats an earlier one
    or whose values (what) are not all finite (finite: one bool per row)."""
    first = len(ids) if finite.all() else int(np.argmin(finite))
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for i, trial_id in enumerate(ids[: first + 1]):
            if trial_id in seen:
                raise RowError(f"duplicate trial_id {trial_id!r}", i)
            seen.add(trial_id)
    check_finite(ids, finite, what)


def check_finite(ids: Sequence[str], finite: np.ndarray, what: str) -> None:
    """Raise RowError for the first row whose values (what) are not all
    finite (finite: one bool per row)."""
    if not finite.all():
        first = int(np.argmin(finite))
        raise RowError(f"non-finite {what} for trial {ids[first]!r}", first)


class _RowSet:
    """What TrialSet and ScoreSet share: columns with one row per trial, in
    trial order (an id tuple, the labels tuple, two read-only C-contiguous
    float64 value arrays and the labels' TrialClass codes), checked once when
    built. A subclass names its id column (ID), its value columns (VALUES),
    their number of dimensions (NDIM) and what the values are (WHAT)."""

    def __post_init__(self) -> None:
        ids, labels = tuple(getattr(self, self.ID)), tuple(self.labels)
        values = [_frozen_array(getattr(self, name)) for name in self.VALUES]
        classes = _frozen_array(class_codes(labels), dtype=np.intp)
        names = (self.ID, "labels", *self.VALUES, "classes")
        for name, column in zip(names, (ids, labels, *values, classes)):
            object.__setattr__(self, name, column)
        if len(labels) != len(ids) or any(v.ndim != self.NDIM or len(v) != len(ids) for v in values):
            raise ValueError(f"{type(self).__name__} columns must be {self.NDIM}-D and of one length")
        finite = [np.isfinite(v).all(axis=tuple(range(1, self.NDIM))) for v in values]
        check_rows(ids, finite[0] & finite[1], self.WHAT)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and (getattr(self, self.ID), self.labels) == (getattr(other, self.ID), other.labels)
            and all(np.array_equal(getattr(self, v), getattr(other, v)) for v in self.VALUES)
        )

    def take(self, index: np.ndarray):
        """The trials at index (row numbers, repeats allowed, or a bool mask),
        in index order; part of a checked set is not checked again."""
        if index.dtype == bool:
            index = np.flatnonzero(index)
        rows = index.tolist()
        columns = {}
        for name in (self.ID, "labels", *self.VALUES, "classes"):
            column = getattr(self, name)
            if isinstance(column, tuple):
                column = tuple(map(column.__getitem__, rows))
            else:
                column = column[index]
                column.setflags(write=False)
            columns[name] = column
        return self._unchecked(**columns)

    @classmethod
    def _unchecked(cls, **columns):
        """A set of these (already checked) columns, as they are."""
        part = object.__new__(cls)
        for name, column in columns.items():
            object.__setattr__(part, name, column)
        return part


@dataclass(frozen=True, eq=False)
class TrialSet(_RowSet):
    """A split of trials; the unit trainers and scoring consume. Columns: ids,
    labels, the feature matrices x_asv (N, d_asv) and x_cm (N, d_cm), one row
    per trial, and classes. Iterating yields Trial records."""

    ID, VALUES, NDIM, WHAT = "ids", ("x_asv", "x_cm"), 2, "features"

    ids: tuple[str, ...]
    labels: tuple[TrialLabel, ...]
    x_asv: np.ndarray
    x_cm: np.ndarray
    classes: np.ndarray = field(init=False, repr=False)

    @classmethod
    def from_trials(cls, trials: Iterable[Trial]) -> "TrialSet":
        """The set of the given trials, in order; the first trial whose x_asv
        or x_cm is not a vector as wide as the first trial's is reported."""
        trials = list(trials)
        columns = {}
        for name in cls.VALUES:
            rows = [getattr(t, name) for t in trials]
            for t, row in zip(trials, rows):
                if np.ndim(row) != 1 or np.shape(row) != np.shape(rows[0]):
                    raise ValueError(f"{name} of trial {t.id!r} is not a 1-D vector as wide as the first")
            width = len(rows[0]) if rows else 0
            columns[name] = np.array(rows, dtype=np.float64).reshape(len(rows), width)
        return cls([t.id for t in trials], [t.label for t in trials], **columns)

    def __iter__(self) -> Iterator[Trial]:
        return map(Trial, self.ids, self.x_asv, self.x_cm, self.labels)


class ClassScores:
    """Per-class score arrays of a ScoreSet, each sorted once. Read-only: a
    ScoreSet hands the same ClassScores to every caller.

    tb_cm, nb_cm and sp_cm hold each class's CM scores in ascending order, and
    tb_asv, nb_asv and sp_asv the ASV scores of the same trials in the same
    order, so every (asv, cm) pair stays aligned and a mask on one score
    selects pairs. tb_asv_sorted, nb_asv_sorted and sp_asv_sorted hold each
    class's ASV scores in ascending order, and bona_cm and bona_asv the scores
    of both bonafide classes merged, ascending.

    The spoofs are grouped by attack: attacks holds the attack tags in sorted
    order, and group i spans attack_bounds[i]:attack_bounds[i + 1] of
    attack_rows (the ScoreSet rows of its spoofs), attack_cm and attack_asv
    (their CM and ASV scores, each ascending within the group).
    """

    def __init__(self, scores: "ScoreSet"):
        def pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # Ties in CM score keep no particular order; no count depends on it.
            by_cm = rows[np.argsort(scores.cm[rows])]
            return _read_only(scores.asv[by_cm]), _read_only(scores.cm[by_cm])

        tb, nb, sp = (np.flatnonzero(scores.classes == c) for c in TrialClass)
        (self.tb_asv, self.tb_cm), (self.nb_asv, self.nb_cm), (self.sp_asv, self.sp_cm) = (
            map(pairs, (tb, nb, sp))
        )
        self.tb_asv_sorted, self.nb_asv_sorted, self.sp_asv_sorted = (
            _read_only(np.sort(asv)) for asv in (self.tb_asv, self.nb_asv, self.sp_asv)
        )
        self.bona_cm = _read_only(np.sort(np.concatenate([self.tb_cm, self.nb_cm])))
        self.bona_asv = _read_only(
            np.sort(np.concatenate([self.tb_asv_sorted, self.nb_asv_sorted]))
        )

        tags = [scores.labels[row].attack_id for row in sp.tolist()]
        self.attacks = tuple(sorted(set(tags)))
        code = {attack: i for i, attack in enumerate(self.attacks)}
        # The smallest code type, which numpy's stable sort orders by radix.
        codes = np.fromiter(
            map(code.__getitem__, tags), dtype=np.min_scalar_type(len(code)), count=len(tags)
        )
        bounds = np.concatenate(([0], np.cumsum(np.bincount(codes, minlength=len(code)))))
        self.attack_bounds = _read_only(bounds)
        self.attack_rows = _read_only(sp[np.argsort(codes, kind="stable")])
        self.attack_cm, self.attack_asv = scores.cm[self.attack_rows], scores.asv[self.attack_rows]
        for start, stop in zip(bounds.tolist(), bounds[1:].tolist()):
            self.attack_cm[start:stop].sort()
            self.attack_asv[start:stop].sort()
        _read_only(self.attack_cm)
        _read_only(self.attack_asv)

    def require_all_classes(self) -> None:
        for c, asv in zip(TrialClass, (self.tb_asv, self.nb_asv, self.sp_asv)):
            if asv.size == 0:
                raise MissingClassError(f"missing {c.name.lower().replace('_', '-')} class")

    def by_attack(self) -> Iterator[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
        """(attack, its spoofs' ScoreSet rows, their CM scores, their ASV
        scores) for each attack in sorted order; the scores ascending."""
        bounds = self.attack_bounds.tolist()
        for attack, start, stop in zip(self.attacks, bounds, bounds[1:]):
            part = slice(start, stop)
            yield attack, self.attack_rows[part], self.attack_cm[part], self.attack_asv[part]


@dataclass(frozen=True, eq=False)
class ScoreSet(_RowSet):
    """Aligned per-trial detector scores and labels; the unit metrics consume.
    Columns: trial_ids, labels, asv and cm (one score each per trial) and
    classes. Iterating yields ScoreEntry records."""

    ID, VALUES, NDIM, WHAT = "trial_ids", ("asv", "cm"), 1, "score"

    trial_ids: tuple[str, ...]
    labels: tuple[TrialLabel, ...]
    asv: np.ndarray
    cm: np.ndarray
    classes: np.ndarray = field(init=False, repr=False)

    def __iter__(self) -> Iterator[ScoreEntry]:
        return map(ScoreEntry, self.trial_ids, self.labels, self.asv.tolist(), self.cm.tolist())

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, TrialLabel, float, float]]) -> "ScoreSet":
        return cls(*(tuple(zip(*rows)) or ((), (), (), ())))

    @classmethod
    def of_trials(cls, trials: TrialSet, asv: np.ndarray, cm: np.ndarray) -> "ScoreSet":
        """The scores of a trial set's trials, in its order. The set's id,
        label and class columns are shared, not re-checked; only the two
        score columns are (one finite score each per trial)."""
        asv, cm = _frozen_array(asv), _frozen_array(cm)
        if asv.shape != (len(trials),) or cm.shape != (len(trials),):
            raise ValueError("ScoreSet columns must be 1-D and of one length")
        check_finite(trials.ids, np.isfinite(asv) & np.isfinite(cm), cls.WHAT)
        return cls._unchecked(
            trial_ids=trials.ids, labels=trials.labels, asv=asv, cm=cm, classes=trials.classes
        )

    select = _RowSet.take  # the name filter_attacks uses, with a bool mask

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


@contextlib.contextmanager
def atomic_write(path) -> Iterator[TextIO]:
    """A text file open for writing that takes path's place only once the
    block completes: it is a temporary file in path's directory, renamed over
    path by os.replace, or removed if the block raises. So a write that
    fails inside the process leaves path as it was and no partial file
    behind. The file is not fsynced, so a machine crash is not covered."""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_protocol(path, labels: Iterable[tuple[str, TrialLabel]]) -> None:
    with atomic_write(path) as fh:
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
            try:
                labels[trial_id] = TrialLabel(
                    asv_label=AsvLabel(asv),
                    cm_label=CmLabel(cm),
                    attack_id=None if attack == "-" else attack,
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return labels


def _write_rows(path, ids: Sequence[str], values: np.ndarray) -> None:
    """One 'trial_id value...' line per row, values printed exactly."""
    with atomic_write(path) as fh:
        for trial_id, row in zip(ids, values.tolist()):
            fh.write(f"{trial_id} {' '.join(map(FLOAT_FORMAT.format, row))}\n")


def _read_rows(path, labels: dict[str, TrialLabel], width: int, build):
    """build(ids, labels, values) over the 'trial_id value...' lines of a
    file, in file order, with values an (N, width) matrix. A line that does
    not parse, and a row the built set rejects, is an error naming the file
    and line."""
    ids, linenos, values = [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 1 + width:
                raise ValueError(f"{path}:{lineno}: expected {1 + width} fields, got {len(parts)}")
            if parts[0] not in labels:
                raise ValueError(f"{path}:{lineno}: trial {parts[0]!r} not in protocol")
            try:
                values.extend(map(float, parts[1:]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            ids.append(parts[0])
            linenos.append(lineno)
    matrix = np.array(values, dtype=np.float64).reshape(len(ids), width)
    try:
        return build(ids, [labels[i] for i in ids], matrix)
    except RowError as exc:
        raise ValueError(f"{path}:{linenos[exc.row]}: {exc}") from None


def write_scores(path, scores: ScoreSet) -> None:
    _write_rows(path, scores.trial_ids, np.column_stack([scores.asv, scores.cm]))


def read_scores(path, labels: dict[str, TrialLabel]) -> ScoreSet:
    return _read_rows(path, labels, 2, lambda ids, labs, v: ScoreSet(ids, labs, *v.T))


def write_features(path, trials: TrialSet) -> None:
    _write_rows(path, trials.ids, np.hstack([trials.x_asv, trials.x_cm]))


def read_features(path, labels: dict[str, TrialLabel], d_asv: int, d_cm: int) -> TrialSet:
    """One trial per protocol entry, in file order; a protocol trial without
    a feature line, or a repeated line, is an error."""
    def trial_set(ids, labs, x):
        return TrialSet(ids, labs, *np.hsplit(x, [d_asv]))

    trials = _read_rows(path, labels, d_asv + d_cm, trial_set)
    missing = labels.keys() - set(trials.ids)
    if missing:
        first = next(trial_id for trial_id in labels if trial_id in missing)
        raise ValueError(
            f"{path}: no features for {len(missing)} protocol trial(s), first {first!r}"
        )
    return trials
