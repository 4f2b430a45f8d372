"""Hard-count evaluation: EER, DCF, tandem error rates and t-DCF.

Conventions used throughout:
  * a detector accepts iff score > tau; a score exactly equal to the
    threshold counts as a rejection (miss for a positive trial);
  * candidate thresholds are the midpoints between consecutive distinct
    scores plus one sentinel below the minimum and one above the maximum,
    which covers every achievable operating point exactly;
  * ties between equally good thresholds resolve to the smallest one.

An EER is found by search, not by a sweep over every candidate: p_miss -
p_fa never falls as the threshold rises, so on ascending score arrays only
the few candidates around its sign change are evaluated, with the sweep's
own arithmetic, and the result is the sweep's bit for bit. The metrics of a
ScoreSet read its ClassScores, which sorts each class's scores once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from math import isqrt
from typing import Sequence

import numpy as np

from .types import (
    ErrorRates,
    MissingClassError,
    ScoreSet,
    TandemCostParams,
    Threshold,
)

ScorePairs = Sequence[tuple[float, bool]]


def _split_pairs(scores: ScorePairs) -> tuple[np.ndarray, np.ndarray]:
    pos = np.asarray([s for s, is_pos in scores if is_pos], dtype=np.float64)
    neg = np.asarray([s for s, is_pos in scores if not is_pos], dtype=np.float64)
    if pos.size == 0:
        raise MissingClassError("no positive scores")
    if neg.size == 0:
        raise MissingClassError("no negative scores")
    return pos, neg


def hard_rates(scores: ScorePairs, tau: Threshold) -> tuple[float, float]:
    """Empirical miss and false-accept rates at a fixed threshold.

    p_miss is the fraction of positives with score <= tau, p_fa the fraction
    of negatives with score > tau.
    """
    pos, neg = _split_pairs(scores)
    p_miss = float(np.count_nonzero(pos <= tau)) / pos.size
    p_fa = float(np.count_nonzero(neg > tau)) / neg.size
    return p_miss, p_fa


def _thresholds(distinct: np.ndarray) -> np.ndarray:
    """The candidate thresholds of ascending distinct scores: the midpoints of
    consecutive ones between a sentinel 1 below the first and 1 above the last."""
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate(([distinct[0] - 1.0], mids, [distinct[-1] + 1.0]))


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array."""
    return ascending[np.concatenate(([True], ascending[1:] != ascending[:-1]))]


def _at_or_below(values: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """How many values lie at or below each threshold that _thresholds made:
    values.searchsorted(taus, side="right"), found by placing each value
    among the midpoints (which never decrease: one that overflows is -inf
    at the start or +inf at the end) rather than each of the many
    thresholds among the values. The two sentinels are searched directly."""
    mids = taus[1:-1]
    counts = np.empty(taus.size, dtype=np.intp)
    counts[1:-1] = np.cumsum(np.bincount(mids.searchsorted(values), minlength=mids.size + 1))[:-1]
    counts[[0, -1]] = values.searchsorted(taus[[0, -1]], side="right")
    return counts


def _rates(pos: np.ndarray, neg: np.ndarray, taus) -> tuple[np.ndarray, np.ndarray]:
    """(p_miss, p_fa) at each threshold, from ascending pos and neg: the share
    of pos at or below it and the share of neg above it."""
    p_miss = pos.searchsorted(taus, side="right") / pos.size
    p_fa = (neg.size - neg.searchsorted(taus, side="right")) / neg.size
    return p_miss, p_fa


def _crossing(pos: np.ndarray, neg: np.ndarray) -> float:
    """The lowest score t of ascending pos and neg with p_miss(t) >= p_fa(t).

    p_miss - p_fa never falls as t rises and is >= 0 at the top score of
    either class. It is found at every k-th score of the smaller class
    (k about the square root of its size), then at every score of the
    bracketing block. Between the two scores of the smaller class that
    bracket the sign change only the larger class's count moves, so that
    slice of the larger class is resolved from counts alone.
    """
    small_is_pos = pos.size <= neg.size
    small, large = (pos, neg) if small_is_pos else (neg, pos)
    lo, hi = 0, small.size - 1  # the first index of small with d >= 0 is in [lo, hi]
    for step in (max(1, isqrt(small.size)), 1):
        probes = np.append(np.arange(lo + step - 1, hi, step), hi)
        c = int(np.subtract(*_rates(pos, neg, small[probes])).searchsorted(0.0))
        lo, hi = (probes[c - 1] + 1 if c else lo), probes[c]
    j = int(hi)
    start = int(large.searchsorted(small[j - 1], side="right")) if j else 0
    stop = int(large.searchsorted(small[j]))
    counts = np.arange(start + 1, stop + 1)  # of large up to each of large[start:stop]
    if small_is_pos:
        d = j / pos.size - (neg.size - counts) / neg.size
    else:
        d = counts / pos.size - (neg.size - j) / neg.size
    q = int(d.searchsorted(0.0))
    return large[start + q] if q < stop - start else small[j]


def _neighbour(pos: np.ndarray, neg: np.ndarray, t, above: bool):
    """The nearest score of ascending pos or neg above (or below) t, or None."""
    found = []
    for x in (pos, neg):
        k = int(x.searchsorted(t, side="right" if above else "left"))
        if above and k < x.size:
            found.append(x[k])
        elif not above and k:
            found.append(x[k - 1])
    return (min if above else max)(found) if found else None


def _sweep_part(pos: np.ndarray, neg: np.ndarray, part: np.ndarray) -> tuple[bool, tuple]:
    """The sweep over some of the candidate thresholds of ascending pos and
    neg: the lower sentinel, the midpoints between the scores in part (a run
    of consecutive distinct scores of pos and neg) and, if part reaches the
    top score, the upper sentinel. Returns whether the first lowest
    |p_miss - p_fa| among them is the whole sweep's, and (eer, tau, p_miss,
    p_fa) there.

    d = p_miss - p_fa never falls from one candidate to the next, except
    that a midpoint which overflows to -inf (or +inf) reads -1 (or +1), and
    so never beats the lower sentinel, which comes first. So the candidates
    left out below the part cannot win or tie when the part's first one has
    d < 0 and is farther from zero than the best (or the best is the lower
    sentinel), and those left out above it cannot win when its last one has
    d >= 0.
    """
    lowest, highest = min(pos[0], neg[0]), max(pos[-1], neg[-1])
    taus = _thresholds(part)
    taus[0] = lowest - 1.0
    reaches_top = part[-1] == highest
    if not reaches_top:
        taus = taus[:-1]
    p_miss, p_fa = _rates(pos, neg, taus)
    d = p_miss - p_fa
    gap = np.abs(d)
    k = int(np.argmin(gap))  # first occurrence = smallest tau
    exact = (part[0] == lowest or (d[1] < 0.0 and (k == 0 or gap[1] > gap[k]))) and (
        reaches_top or d[-1] >= 0.0
    )
    return exact, (
        float((p_miss[k] + p_fa[k]) / 2.0),
        float(taus[k]),
        float(p_miss[k]),
        float(p_fa[k]),
    )


def _eer_sorted(pos: np.ndarray, neg: np.ndarray) -> tuple[float, float, float, float]:
    """eer_arrays of ascending pos and neg. Only the candidates around the
    crossing are evaluated: those between the two distinct scores below it
    and the one above it. Where that part cannot show the sweep's answer (a
    midpoint at its edge that rounds onto a score or overflows), every
    candidate is."""
    t = _crossing(pos, neg)
    below = _neighbour(pos, neg, t, above=False)
    below2 = None if below is None else _neighbour(pos, neg, below, above=False)
    above = _neighbour(pos, neg, t, above=True)
    part = np.array([s for s in (below2, below, t, above) if s is not None])
    exact, result = _sweep_part(pos, neg, part)
    return result if exact else _sweep_part(pos, neg, np.union1d(pos, neg))[1]


def eer_arrays(pos: np.ndarray, neg: np.ndarray) -> tuple[float, float, float, float]:
    """EER over raw arrays; returns (eer, tau, p_miss, p_fa) at the chosen point:
    the candidate threshold with the lowest |p_miss - p_fa|, the smallest one
    on ties. The arrays are sorted and searched, not swept."""
    pos, neg = (np.sort(np.asarray(x, dtype=np.float64)) for x in (pos, neg))
    if pos.size == 0:
        raise MissingClassError("no positive scores")
    if neg.size == 0:
        raise MissingClassError("no negative scores")
    return _eer_sorted(pos, neg)


def eer(scores: ScorePairs) -> tuple[float, Threshold]:
    """Equal error rate and its threshold.

    Sweeps every candidate threshold, picks the point where |p_miss - p_fa|
    is smallest (smallest threshold on ties) and reports the mean of the two
    rates there. No ROC interpolation is performed.
    """
    pos, neg = _split_pairs(scores)
    value, tau, _, _ = eer_arrays(pos, neg)
    return value, tau


def dcf(
    p_miss: float, p_fa: float, c_miss: float, c_fa: float, rho_tar: float
) -> float:
    """Prior- and cost-weighted detection cost of a single detector."""
    if not 0.0 <= p_miss <= 1.0 or not 0.0 <= p_fa <= 1.0:
        raise ValueError("rates must lie in [0, 1]")
    if not 0.0 <= rho_tar <= 1.0:
        raise ValueError("rho_tar must lie in [0, 1]")
    return rho_tar * c_miss * p_miss + (1.0 - rho_tar) * c_fa * p_fa


def tandem_error_rates(
    scores: ScoreSet, tau_asv: Threshold, tau_cm: Threshold
) -> ErrorRates:
    """Per-trial counts of the four tandem error events at fixed thresholds.

    With accept = score > tau per subsystem:
      p_a: target-bonafide passed by the CM but rejected by the ASV;
      p_b: nontarget-bonafide accepted by both;
      p_c: spoof accepted by both;
      p_d: target-bonafide rejected by the CM.
    """
    cs = scores.class_split()
    cs.require_all_classes()
    tb_cm_acc = cs.tb_cm > tau_cm
    p_d = float(np.count_nonzero(~tb_cm_acc)) / cs.tb_cm.size
    p_a = float(np.count_nonzero(tb_cm_acc & (cs.tb_asv <= tau_asv))) / cs.tb_cm.size
    p_b = float(np.count_nonzero((cs.nb_cm > tau_cm) & (cs.nb_asv > tau_asv))) / cs.nb_cm.size
    p_c = float(np.count_nonzero((cs.sp_cm > tau_cm) & (cs.sp_asv > tau_asv))) / cs.sp_cm.size
    return ErrorRates(p_a=p_a, p_b=p_b, p_c=p_c, p_d=p_d)


def tdcf(rates: ErrorRates, p: TandemCostParams) -> float:
    """Tandem detection cost of the four error rates under the given params."""
    w_tar, w_non, w_spoof = p.class_weights
    return float(w_tar * (rates.p_a + rates.p_d) + w_non * rates.p_b + w_spoof * rates.p_c)


def min_norm_tdcf(
    scores: ScoreSet, p: TandemCostParams, normalizer: float | None = None
) -> tuple[float, Threshold, Threshold]:
    """ASV-constrained minimum normalized tandem cost.

    The ASV threshold is fixed at its EER point on target vs nontarget
    bonafide trials (spoof trials excluded from that search); the CM threshold
    then sweeps every candidate. That ASV threshold is the midpoint of the
    gap at the ASV EER crossing, and a spoof ASV score inside that gap sides
    with it by value, not by rank: so the minimum is unchanged by an affine
    increasing map of the ASV scores (and by any increasing map of the CM
    scores), but not by every increasing map of the ASV scores. By
    convention the normalizer is the cost of
    the best trivial CM gate (accept-all or reject-all) at that ASV operating
    point, so a value of 1.0 means no swept threshold beats a trivial gate;
    pass an explicit normalizer to override the convention. If the normalizer
    is zero (a trivial gate is already perfect) the unnormalized minimum is
    returned.

    Returns (value, tau_cm_star, tau_asv_used).
    """
    cs = scores.class_split()
    cs.require_all_classes()
    _, tau_asv, _, _ = _eer_sorted(cs.tb_asv_sorted, cs.nb_asv_sorted)

    n_tb, n_nb, n_sp = cs.tb_cm.size, cs.nb_cm.size, cs.sp_cm.size
    taus = _thresholds(_distinct(np.sort(np.concatenate([cs.bona_cm, cs.sp_cm]))))

    # All four rates are counts of cm > tau within fixed subsets. Each class's
    # pairs are in CM order, so the subsets are too.
    tb_rej = cs.tb_cm[cs.tb_asv <= tau_asv]
    nb_acc = cs.nb_cm[cs.nb_asv > tau_asv]
    sp_acc = cs.sp_cm[cs.sp_asv > tau_asv]
    p_d = _at_or_below(cs.tb_cm, taus) / n_tb
    p_a = (tb_rej.size - _at_or_below(tb_rej, taus)) / n_tb
    p_b = (nb_acc.size - _at_or_below(nb_acc, taus)) / n_nb
    p_c = (sp_acc.size - _at_or_below(sp_acc, taus)) / n_sp

    w_tar, w_non, w_spoof = p.class_weights
    costs = w_tar * (p_a + p_d) + w_non * p_b + w_spoof * p_c

    if normalizer is None:
        # The sentinels are the trivial gates: accept-all first, reject-all last.
        normalizer = min(costs[0], costs[-1])

    normalized = costs / normalizer if normalizer > 0.0 else costs
    idx = int(np.argmin(normalized))
    return float(normalized[idx]), float(taus[idx]), float(tau_asv)


def per_attack_breakdown(
    scores: ScoreSet,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-attack EERs.

    For each attack: CM EER of all bonafide vs that attack's spoofs on the
    CM score, and ASV EER of target-bonafide vs that attack's spoofs on the
    ASV score (a high ASV EER means the attack bypasses the ASV).
    """
    cs = scores.class_split()
    if cs.tb_cm.size == 0:
        raise MissingClassError("missing target-bonafide class")
    cm_eers: dict[str, float] = {}
    asv_eers: dict[str, float] = {}
    for attack, _, sp_cm, sp_asv in cs.by_attack():
        cm_eers[attack] = _eer_sorted(cs.bona_cm, sp_cm)[0]
        asv_eers[attack] = _eer_sorted(cs.tb_asv_sorted, sp_asv)[0]
    return cm_eers, asv_eers


def cross_task_eer(scores: ScoreSet) -> float:
    """EER of the ASV score on the CM task (bonafide vs spoof labels)."""
    cs = scores.class_split()
    if cs.bona_asv.size == 0:
        raise MissingClassError("missing bonafide class")
    if cs.sp_asv.size == 0:
        raise MissingClassError("missing spoof class")
    return _eer_sorted(cs.bona_asv, cs.sp_asv_sorted)[0]


def filter_attacks(scores: ScoreSet, excluded: set[str]) -> ScoreSet:
    """Drop all trials whose attack tag is excluded; bonafide trials pass
    through, and the rest keep their order."""
    keep = np.ones(len(scores), dtype=bool)
    for attack, rows, _, _ in scores.class_split().by_attack():
        if attack in excluded:
            keep[rows] = False
    return scores.select(keep)


@dataclass(frozen=True)
class MetricReport:
    """All evaluation numbers for one score set."""

    asv_eer: float
    cm_eer: float
    min_norm_tdcf: float
    tau_cm_star: float
    tau_asv: float
    cross_task_eer: float
    per_attack_cm_eer: dict[str, float] = field(default_factory=dict)
    per_attack_asv_eer: dict[str, float] = field(default_factory=dict)
    tdcf_at: dict[str, dict] | None = None

    def to_json_dict(self) -> dict:
        out = asdict(self)
        if self.tdcf_at is None:
            del out["tdcf_at"]
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "MetricReport":
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def compute_metric_report(scores: ScoreSet, p: TandemCostParams) -> MetricReport:
    """Full evaluation of a score set: EERs, min normalized t-DCF, per-attack
    and cross-task breakdowns, and the t-DCF decomposition at the chosen
    operating point."""
    cs = scores.class_split()
    cs.require_all_classes()
    asv_eer_value = _eer_sorted(cs.tb_asv_sorted, cs.nb_asv_sorted)[0]
    cm_eer_value = _eer_sorted(cs.bona_cm, cs.sp_cm)[0]
    value, tau_cm_star, tau_asv = min_norm_tdcf(scores, p)
    rates = tandem_error_rates(scores, tau_asv, tau_cm_star)
    cm_eers, asv_eers = per_attack_breakdown(scores)
    return MetricReport(
        asv_eer=asv_eer_value,
        cm_eer=cm_eer_value,
        min_norm_tdcf=value,
        tau_cm_star=tau_cm_star,
        tau_asv=tau_asv,
        cross_task_eer=cross_task_eer(scores),
        per_attack_cm_eer=cm_eers,
        per_attack_asv_eer=asv_eers,
        tdcf_at={
            "tau_asv": tau_asv,
            "tau_cm": tau_cm_star,
            "rates": {"p_a": rates.p_a, "p_b": rates.p_b, "p_c": rates.p_c, "p_d": rates.p_d},
            "tdcf": tdcf(rates, p),
        },
    )
