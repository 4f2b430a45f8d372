"""Hard-count evaluation: EER, DCF, tandem error rates and t-DCF.

Conventions used throughout:
  * a detector accepts iff score > tau; a score exactly equal to the
    threshold counts as a rejection (miss for a positive trial);
  * candidate thresholds are the midpoints between consecutive distinct
    scores plus one sentinel below the minimum and one above the maximum,
    which covers every achievable operating point exactly;
  * ties between equally good thresholds resolve to the smallest one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
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


def candidate_thresholds(values: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct scores plus two sentinels."""
    distinct = np.unique(np.asarray(values, dtype=np.float64))
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate(([distinct[0] - 1.0], mids, [distinct[-1] + 1.0]))


def hard_rates(scores: ScorePairs, tau: Threshold) -> tuple[float, float]:
    """Empirical miss and false-accept rates at a fixed threshold.

    p_miss is the fraction of positives with score <= tau, p_fa the fraction
    of negatives with score > tau.
    """
    pos, neg = _split_pairs(scores)
    p_miss = float(np.count_nonzero(pos <= tau)) / pos.size
    p_fa = float(np.count_nonzero(neg > tau)) / neg.size
    return p_miss, p_fa


def _sweep_rates(
    pos: np.ndarray, neg: np.ndarray, taus: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (p_miss, p_fa) at each threshold via sorted cumulative counts."""
    pos_sorted = np.sort(pos)
    neg_sorted = np.sort(neg)
    n_rejected_pos = np.searchsorted(pos_sorted, taus, side="right")
    n_rejected_neg = np.searchsorted(neg_sorted, taus, side="right")
    p_miss = n_rejected_pos / pos.size
    p_fa = (neg.size - n_rejected_neg) / neg.size
    return p_miss, p_fa


def eer_arrays(pos: np.ndarray, neg: np.ndarray) -> tuple[float, float, float, float]:
    """EER over raw arrays; returns (eer, tau, p_miss, p_fa) at the chosen point."""
    taus = candidate_thresholds(np.concatenate([pos, neg]))
    p_miss, p_fa = _sweep_rates(pos, neg, taus)
    idx = int(np.argmin(np.abs(p_miss - p_fa)))  # first occurrence = smallest tau
    return (
        float((p_miss[idx] + p_fa[idx]) / 2.0),
        float(taus[idx]),
        float(p_miss[idx]),
        float(p_fa[idx]),
    )


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
    bonafide trials (spoof trials excluded from that sweep); the CM threshold
    then sweeps every candidate. By convention the normalizer is the cost of
    the best trivial CM gate (accept-all or reject-all) at that ASV operating
    point, so a value of 1.0 means no swept threshold beats a trivial gate;
    pass an explicit normalizer to override the convention. If the normalizer
    is zero (a trivial gate is already perfect) the unnormalized minimum is
    returned.

    Returns (value, tau_cm_star, tau_asv_used).
    """
    cs = scores.class_split()
    cs.require_all_classes()
    _, tau_asv, _, _ = eer_arrays(cs.tb_asv, cs.nb_asv)

    n_tb, n_nb, n_sp = cs.tb_cm.size, cs.nb_cm.size, cs.sp_cm.size
    tb_asv_rej = cs.tb_asv <= tau_asv
    nb_asv_acc = cs.nb_asv > tau_asv
    sp_asv_acc = cs.sp_asv > tau_asv

    taus = candidate_thresholds(np.concatenate([cs.tb_cm, cs.nb_cm, cs.sp_cm]))

    # All four rates are counts of cm > tau within fixed subsets.
    tb_all_sorted = np.sort(cs.tb_cm)
    tb_rej_sorted = np.sort(cs.tb_cm[tb_asv_rej])
    nb_acc_sorted = np.sort(cs.nb_cm[nb_asv_acc])
    sp_acc_sorted = np.sort(cs.sp_cm[sp_asv_acc])
    p_d = np.searchsorted(tb_all_sorted, taus, side="right") / n_tb
    p_a = (tb_rej_sorted.size - np.searchsorted(tb_rej_sorted, taus, side="right")) / n_tb
    p_b = (nb_acc_sorted.size - np.searchsorted(nb_acc_sorted, taus, side="right")) / n_nb
    p_c = (sp_acc_sorted.size - np.searchsorted(sp_acc_sorted, taus, side="right")) / n_sp

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
    bona_cm = np.concatenate([cs.tb_cm, cs.nb_cm])
    attacks = sorted(set(cs.sp_attacks))
    sp_attacks = np.asarray(cs.sp_attacks, dtype=object)
    cm_eers: dict[str, float] = {}
    asv_eers: dict[str, float] = {}
    for attack in attacks:
        mask = sp_attacks == attack
        cm_eers[attack] = eer_arrays(bona_cm, cs.sp_cm[mask])[0]
        asv_eers[attack] = eer_arrays(cs.tb_asv, cs.sp_asv[mask])[0]
    return cm_eers, asv_eers


def cross_task_eer(scores: ScoreSet) -> float:
    """EER of the ASV score on the CM task (bonafide vs spoof labels)."""
    cs = scores.class_split()
    bona_asv = np.concatenate([cs.tb_asv, cs.nb_asv])
    if bona_asv.size == 0:
        raise MissingClassError("missing bonafide class")
    if cs.sp_asv.size == 0:
        raise MissingClassError("missing spoof class")
    return eer_arrays(bona_asv, cs.sp_asv)[0]


def filter_attacks(scores: ScoreSet, excluded: set[str]) -> ScoreSet:
    """Drop all trials whose attack tag is excluded; bonafide trials pass through."""
    keep = [label.attack_id not in excluded for label in scores.labels]
    return scores.select(np.asarray(keep, dtype=bool))


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
    asv_eer_value = eer_arrays(cs.tb_asv, cs.nb_asv)[0]
    cm_eer_value = eer_arrays(
        np.concatenate([cs.tb_cm, cs.nb_cm]), cs.sp_cm
    )[0]
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
