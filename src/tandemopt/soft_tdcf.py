"""Differentiable tandem cost: sigmoid-softened error rates, the soft t-DCF
loss over a batch, and a joint descent step on both scorers and both
(trainable) thresholds.

Each hard indicator 1(score > tau) is replaced by sigmoid(score - tau); the
joint tandem events (CM pass AND ASV decision) soften to the product of the
two per-subsystem sigmoids. A trial's term weighs its class's cost weight
over the number of trials of its class, both indexed by its class code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibration import sigmoid
from .nn import Direction, Scorer
from .types import MissingClassError, ScoreSet, TandemCostParams, TrialClass, TrialSet


@dataclass
class SoftThresholds:
    """Trainable decision thresholds for the two subsystems."""

    tau_asv: float
    tau_cm: float


@dataclass(frozen=True)
class SoftTdcfGradients:
    """d(loss)/d(score) per batch element (input order) and d/d(tau)."""

    d_asv_scores: np.ndarray
    d_cm_scores: np.ndarray
    d_tau_asv: float
    d_tau_cm: float


def _sigmoid_prime(z: np.ndarray) -> np.ndarray:
    s = sigmoid(z)
    return s * (1.0 - s)


def soft_rates(
    scores: Sequence[tuple[float, bool]], tau: float, temperature: float = 1.0
) -> tuple[float, float]:
    """Sigmoid-softened miss and false-accept rates at a threshold.

    p_miss_soft = mean over positives of sigmoid((tau - s)/T);
    p_fa_soft   = mean over negatives of sigmoid((s - tau)/T).
    """
    pos = np.asarray([s for s, is_pos in scores if is_pos], dtype=np.float64)
    neg = np.asarray([s for s, is_pos in scores if not is_pos], dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise MissingClassError("soft rates need scores from both classes")
    p_miss = float(np.mean(sigmoid((tau - pos) / temperature)))
    p_fa = float(np.mean(sigmoid((neg - tau) / temperature)))
    return p_miss, p_fa


def soft_tdcf_from_arrays(
    asv: np.ndarray,
    cm: np.ndarray,
    classes: np.ndarray,
    taus: SoftThresholds,
    p: TandemCostParams,
    temperature: float = 1.0,
) -> tuple[float, SoftTdcfGradients]:
    """Soft tandem cost over aligned score arrays and TrialClass codes
    (duplicates allowed, so a batch sampled with replacement works as-is).

    The four error rates are softened as
      p_d: mean over target-bonafide of sig(tau_cm - cm)
      p_a: mean over target-bonafide of sig(cm - tau_cm) * sig(tau_asv - asv)
      p_b: mean over nontarget-bonafide of sig(cm - tau_cm) * sig(asv - tau_asv)
      p_c: mean over spoof of sig(cm - tau_cm) * sig(asv - tau_asv)
    and combined with the usual cost weights: trial n of class c weighs
    class_weights[c] / (number of class-c trials). Gradients cover every
    score and both thresholds.
    """
    counts = np.bincount(classes, minlength=len(TrialClass))
    if not counts.all():
        raise MissingClassError("soft t-DCF needs all three trial classes")
    tb = classes == TrialClass.TARGET_BONAFIDE

    t = temperature
    u = (cm - taus.tau_cm) / t  # CM pass margin
    v = (asv - taus.tau_asv) / t  # ASV accept margin
    sig_u, sig_v = sigmoid(u), sigmoid(v)
    dsig_u, dsig_v = _sigmoid_prime(u), _sigmoid_prime(v)

    k = p.class_weights[classes] / counts[classes]

    contrib = np.where(
        tb,
        k * (sig_u * (1.0 - sig_v) + (1.0 - sig_u)),  # p_a + p_d terms
        k * sig_u * sig_v,  # p_b / p_c terms
    )
    loss = float(np.sum(contrib))

    d_cm = np.where(tb, -k * dsig_u * sig_v / t, k * dsig_u * sig_v / t)
    d_asv = np.where(tb, -k * sig_u * dsig_v / t, k * sig_u * dsig_v / t)
    grads = SoftTdcfGradients(
        d_asv_scores=d_asv,
        d_cm_scores=d_cm,
        d_tau_asv=float(-np.sum(d_asv)),
        d_tau_cm=float(-np.sum(d_cm)),
    )
    return loss, grads


def soft_tdcf_loss(
    scores: ScoreSet,
    taus: SoftThresholds,
    p: TandemCostParams,
    temperature: float = 1.0,
) -> tuple[float, SoftTdcfGradients]:
    """Soft tandem cost of a score set and its exact gradients, with the
    per-score gradients in trial order."""
    return soft_tdcf_from_arrays(
        scores.asv, scores.cm, scores.classes, taus, p, temperature=temperature
    )


def soft_tdcf_train_step(
    asv: Scorer,
    cm: Scorer,
    taus: SoftThresholds,
    batch: TrialSet,
    p: TandemCostParams,
    lr: float,
    temperature: float = 1.0,
) -> float:
    """One descent step on both scorers and both thresholds.

    Returns the loss before the step.
    """
    asv_scores, asv_cache = asv.forward_batch(batch.x_asv)
    cm_scores, cm_cache = cm.forward_batch(batch.x_cm)
    loss, grads = soft_tdcf_from_arrays(
        asv_scores, cm_scores, batch.classes, taus, p, temperature=temperature
    )

    asv_tape = asv.new_tape()
    cm_tape = cm.new_tape()
    asv.backward_batch(asv_cache, grads.d_asv_scores, asv_tape)
    cm.backward_batch(cm_cache, grads.d_cm_scores, cm_tape)
    asv.sgd_step(asv_tape, lr, Direction.DESCENT)
    cm.sgd_step(cm_tape, lr, Direction.DESCENT)
    taus.tau_asv -= lr * grads.d_tau_asv
    taus.tau_cm -= lr * grads.d_tau_cm
    return loss
