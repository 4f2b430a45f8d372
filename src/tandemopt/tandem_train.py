"""Tandem optimization: REINFORCE with plain and cost-weighted rewards (with
optional calibrated accept probabilities), the separate-finetuning baseline,
and the soft-cost trainer.

Every method runs through one batch loop (train_epoch) inside one epoch loop
(run_method). A method supplies only its batch source and its step, which
updates the systems from one batch and returns that batch's loss. A batch is
an index array taken from a TrialSet: one matrix forward per system, with
targets and rewards looked up by batch.classes.

One training run owns its RNG streams and is strictly sequential, so a fixed
seed reproduces the run bit for bit. The class pools are built from the
class codes once per epoch. A balanced batch of B items reads 2*B words of the
generator's 32-bit stream in one bulk draw: the words per-item
rng.integers(len(pools)) and rng.integers(len(pool)) calls would read. It
falls back to those scalar calls in three cases: a single pool, any pool of
one row, and a word that numpy's bounded draw would reject.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Iterator

import numpy as np

from .calibration import Calibrator, sigmoid, train_calibrator
from .metrics import MetricReport, compute_metric_report, eer_arrays, filter_attacks
from .nn import Direction, ForwardCache, GradientTape, Scorer
from .records import METRIC_FIELDS, RunRecord, TelemetryRow
from .soft_tdcf import SoftThresholds, soft_tdcf_train_step
from .types import (
    ClassScores,
    Decision,
    ScoreSet,
    TandemCostParams,
    TrialClass,
    TrialLabel,
    TrialSet,
)

logger = logging.getLogger(__name__)

# Accept probabilities are clamped away from {0, 1} before logs are taken;
# inside the clamped region the policy gradient is exactly zero (the clamp is
# flat), which keeps the surrogate value and its gradient consistent.
PROB_FLOOR = 1e-6

# Step size used by the benchmark comparison. The reference training recipe
# (batch 64, five epochs, plain SGD, balanced sampling) was designed for
# detectors with millions of parameters; per-step score movement scales with
# the squared gradient norm of the score, so the desk-scale 16-unit scorers
# need a proportionally larger step to show the same dynamics within five
# epochs. TrainConfig itself defaults to the reference 1e-4.
BENCHMARK_TANDEM_LR = 0.05


class TrainingDivergedError(RuntimeError):
    pass


class Method(Enum):
    FINETUNE = "FINETUNE"
    REINFORCE = "REINFORCE"
    REINFORCE_CALIB = "REINFORCE_CALIB"
    REINFORCE_TDCF = "REINFORCE_TDCF"
    REINFORCE_CALIB_TDCF = "REINFORCE_CALIB_TDCF"
    SOFT_TDCF = "SOFT_TDCF"


class RewardKind(Enum):
    PLUS_MINUS_ONE = "plus_minus_one"
    TDCF_SINGLE = "tdcf_single"


@dataclass(frozen=True)
class RewardSpec:
    kind: RewardKind
    cost_params: TandemCostParams | None = None

    def __post_init__(self) -> None:
        if self.kind is RewardKind.TDCF_SINGLE and self.cost_params is None:
            raise ValueError("TDCF_SINGLE reward requires cost_params")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 64
    epochs: int = 5
    balanced: bool = True
    seed: int = 0
    # Off-by-default extras; the defaults match the vanilla training recipe.
    use_reward_baseline: bool = False
    train_calibration: bool = False
    soft_temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for name in ("lr", "soft_temperature"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class Policy:
    """A scorer plus an optional frozen calibration head.

    Without calibration the accept probability is sigmoid(score); with it,
    sigmoid(a*score + b + prior_log_odds). Gradients always flow through the
    head into the scorer; the head's own (a, b) move only when explicitly
    requested.
    """

    scorer: Scorer
    calibrator: Calibrator | None = None

    def clone(self) -> "Policy":
        return Policy(scorer=self.scorer.clone(), calibrator=self.calibrator)

    def to_json_dict(self) -> dict:
        d = self.scorer.to_json_dict()
        if self.calibrator is not None:
            d["calibration"] = self.calibrator.to_json_dict()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Policy":
        cal = d.get("calibration")
        return cls(
            scorer=Scorer.from_json_dict(d),
            calibrator=Calibrator.from_json_dict(cal) if cal is not None else None,
        )


@dataclass
class PolicyPair:
    asv: Policy
    cm: Policy

    def clone(self) -> "PolicyPair":
        return PolicyPair(asv=self.asv.clone(), cm=self.cm.clone())

    def to_json_dict(self) -> dict:
        return {"asv": self.asv.to_json_dict(), "cm": self.cm.to_json_dict()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PolicyPair":
        return cls(
            asv=Policy.from_json_dict(d["asv"]), cm=Policy.from_json_dict(d["cm"])
        )


@dataclass
class PolicyCache:
    """Forward state needed to backpropagate through accept probabilities,
    one entry per scored row."""

    forward_cache: ForwardCache
    score: np.ndarray
    p: np.ndarray
    clamped: np.ndarray


def policy_accept_probabilities(
    policy: Policy, x: np.ndarray
) -> tuple[np.ndarray, PolicyCache]:
    """Clamped accept probabilities of the rows of an (N, d) matrix."""
    score, cache = policy.scorer.forward_batch(x)
    if policy.calibrator is None:
        z = score
    else:
        c = policy.calibrator
        z = c.a * score + c.b + c.prior_log_odds
    p_raw = sigmoid(z)
    p = np.clip(p_raw, PROB_FLOOR, 1.0 - PROB_FLOOR)
    clamped = p != p_raw
    if clamped.any():
        logger.debug("%d accept probabilities clamped", int(clamped.sum()))
    return p, PolicyCache(forward_cache=cache, score=score, p=p, clamped=clamped)


def policy_accept_probability(policy: Policy, x: np.ndarray) -> tuple[float, PolicyCache]:
    """Clamped accept probability of one input vector."""
    p, cache = policy_accept_probabilities(policy, np.asarray(x, dtype=np.float64)[None, :])
    return float(p[0]), cache


def policy_backward(
    policy: Policy,
    pcache: PolicyCache,
    d_p: float | np.ndarray,
    tape: GradientTape,
    calib_grad: np.ndarray | None = None,
) -> None:
    """Chain d(loss)/d(p) per row through the sigmoid (and calibration head)
    into the scorer's tape; optionally accumulate [d/da, d/db] for the head
    itself. Clamped rows contribute nothing (the clamp is flat there)."""
    dz = np.where(pcache.clamped, 0.0, d_p * pcache.p * (1.0 - pcache.p))
    scale = 1.0 if policy.calibrator is None else policy.calibrator.a
    policy.scorer.backward_batch(pcache.forward_cache, dz * scale, tape)
    if calib_grad is not None and policy.calibrator is not None:
        calib_grad[0] += float(np.sum(dz * pcache.score))
        calib_grad[1] += float(np.sum(dz))


def sample_action(p_accept: float, rng: np.random.Generator) -> tuple[Decision, float]:
    """Stochastic accept/reject: accept iff u <= p_accept for u ~ U[0, 1].

    Returns the action and the probability the policy assigned to it.
    """
    p = min(max(p_accept, PROB_FLOOR), 1.0 - PROB_FLOOR)
    if p != p_accept:
        logger.debug("sample_action clamped probability %.3e", p_accept)
    if rng.uniform() <= p:
        return Decision.ACCEPT, p
    return Decision.REJECT, 1.0 - p


def tandem_action_probability(
    a_asv: Decision, a_cm: Decision, p_asv: float, p_cm: float
) -> tuple[Decision, float]:
    """Combine subsystem actions: tandem accepts iff both accept, with
    probability p_asv*p_cm for accept and its complement for reject."""
    joint = p_asv * p_cm
    if a_asv is Decision.ACCEPT and a_cm is Decision.ACCEPT:
        return Decision.ACCEPT, joint
    return Decision.REJECT, 1.0 - joint


def rewards(spec: RewardSpec, accept: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Per-trial rewards of tandem decisions (accept: one bool per trial) on
    trials of the given TrialClass codes: +/-1, or the negated single-trial
    tandem cost (minus the class's cost weight if wrong, zero if correct)."""
    correct = accept == (classes == TrialClass.TARGET_BONAFIDE)
    if spec.kind is RewardKind.PLUS_MINUS_ONE:
        return np.where(correct, 1.0, -1.0)
    return np.where(correct, 0.0, -spec.cost_params.class_weights[classes])


def reward(spec: RewardSpec, a_tandem: Decision, label: TrialLabel) -> float:
    """The reward of one trial's tandem decision (see rewards)."""
    accept = np.array([a_tandem is Decision.ACCEPT])
    return float(rewards(spec, accept, np.array([label.tandem_class]))[0])


# ---------------------------------------------------------------------------
# Minibatch sampling and the batch loop
# ---------------------------------------------------------------------------

def class_pools(classes: np.ndarray, system: str | None = None) -> list[np.ndarray]:
    """The rows of a set with these TrialClass codes, grouped for balanced
    sampling: by class in code order or, given a system ("asv" or "cm"), by
    its cross-entropy target, the target (ASV) or bonafide (CM) pool first.
    Rows ascend within a pool; empty pools are dropped."""
    if system is None:
        keys, groups = classes, range(len(TrialClass))
    else:
        keys, groups = BCE_TARGETS[system][classes], (1.0, 0.0)
    pools = (np.flatnonzero(keys == group) for group in groups)
    return [pool for pool in pools if pool.size]


def lemire_rejects(words: np.ndarray, bounds: np.ndarray | int) -> bool:
    """Whether numpy's bounded integers(bound) would reject any of these
    32-bit words and draw again: Lemire's method rejects a word when the low
    half of word * bound is below (2**32 - bound) % bound."""
    bounds = np.asarray(bounds, dtype=np.uint64)
    return bool((((words * bounds) & 0xFFFFFFFF) < (2**32 - bounds) % bounds).any())


def _balanced_batch(pools: list[np.ndarray], size: int, rng: np.random.Generator) -> np.ndarray:
    """Sample row indices with replacement, picking the class uniformly per
    item: per item, rng.integers(len(pools)) picks the pool, then
    rng.integers(len(pool)) the row.

    numpy draws each of those from one word of the generator's 32-bit stream
    (Lemire's bounded method), so one bulk draw of 2 * size words gives the
    same rows and leaves the same generator state. The per-item loop remains
    for what the bulk draw does not reproduce: a single pool or a pool of one
    row (integers(1) reads no word), and a rejected word (read again)."""
    sizes = np.array([len(pool) for pool in pools], dtype=np.uint64)
    if len(pools) > 1 and sizes.min() > 1:
        state = rng.bit_generator.state
        words = rng.integers(0, 2**32, size=(size, 2), dtype=np.uint64)
        picked = (words[:, 0] * len(pools)) >> 32
        bounds = sizes[picked]
        if not (lemire_rejects(words[:, 0], len(pools)) or lemire_rejects(words[:, 1], bounds)):
            starts = np.cumsum(sizes) - sizes
            return np.concatenate(pools)[starts[picked] + ((words[:, 1] * bounds) >> 32)]
        rng.bit_generator.state = state
    batch = np.empty(size, dtype=np.intp)
    for k in range(size):
        pool = pools[int(rng.integers(len(pools)))]
        batch[k] = pool[int(rng.integers(len(pool)))]
    return batch


def _minibatches(
    n: int, pools: list[np.ndarray], cfg: TrainConfig, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """One epoch worth of minibatches of n trials, as row-index arrays:
    ceil(n/B) batches of size B when balanced over the given class pools
    (with replacement), or a shuffled partition of the rows otherwise."""
    n_batches = math.ceil(n / cfg.batch_size)
    if cfg.balanced:
        for _ in range(n_batches):
            yield _balanced_batch(pools, cfg.batch_size, rng)
    else:
        order = rng.permutation(n)
        for i in range(n_batches):
            yield order[i * cfg.batch_size : (i + 1) * cfg.batch_size]


def iterate_batches(data: TrialSet, cfg: TrainConfig, rng: np.random.Generator):
    """One epoch of the tandem methods' minibatches; balanced sampling picks
    target-bonafide, nontarget-bonafide and spoof trials equally often."""
    return map(data.take, _minibatches(len(data), class_pools(data.classes), cfg, rng))


def train_epoch(
    batches: Iterable[tuple], step: Callable[..., float | None], seen_ids: set[str] | None = None
) -> list[float]:
    """The batch loop of every method. A batch holds one trial set per
    sampling stream; step(*batch) updates the systems from it and returns
    the batch loss, or None when it skips the batch. Returns the losses of
    the batches trained on and adds their trial ids to seen_ids."""
    losses = []
    for batch in batches:
        loss = step(*batch)
        if loss is None:
            continue
        if seen_ids is not None:
            seen_ids.update(*(trials.ids for trials in batch))
        losses.append(loss)
    return losses


# ---------------------------------------------------------------------------
# REINFORCE
# ---------------------------------------------------------------------------


def reinforce_batch(
    pair: PolicyPair,
    batch: TrialSet,
    spec: RewardSpec,
    rng: np.random.Generator,
    use_baseline: bool = False,
    asv_calib_grad: np.ndarray | None = None,
    cm_calib_grad: np.ndarray | None = None,
) -> tuple[float, GradientTape, GradientTape]:
    """Sample actions for one minibatch and accumulate the policy-gradient
    surrogate (1/B) * sum log(p_tandem) * r and its parameter gradients.

    Returns (surrogate value, asv tape, cm tape) without touching parameters.
    """
    n = len(batch)
    p_asv, cache_asv = policy_accept_probabilities(pair.asv, batch.x_asv)
    p_cm, cache_cm = policy_accept_probabilities(pair.cm, batch.x_cm)
    # Row i holds trial i's ASV draw then its CM draw: the same stream, in the
    # same order, as one sample_action per subsystem per trial.
    u = rng.uniform(size=(n, 2))
    accept = (u[:, 0] <= p_asv) & (u[:, 1] <= p_cm)
    joint = p_asv * p_cm
    p_tandem = np.where(accept, joint, 1.0 - joint)
    r = rewards(spec, accept, batch.classes)
    if use_baseline:
        r = r - float(np.mean(r))
    surrogate = float(np.sum(np.log(p_tandem) * r / n))
    if not math.isfinite(surrogate):
        raise TrainingDivergedError(f"non-finite surrogate loss {surrogate}")
    d_p_asv = np.where(accept, r / (n * p_asv), -r * p_cm / (n * p_tandem))
    d_p_cm = np.where(accept, r / (n * p_cm), -r * p_asv / (n * p_tandem))
    tape_asv = pair.asv.scorer.new_tape()
    tape_cm = pair.cm.scorer.new_tape()
    policy_backward(pair.asv, cache_asv, d_p_asv, tape_asv, asv_calib_grad)
    policy_backward(pair.cm, cache_cm, d_p_cm, tape_cm, cm_calib_grad)
    return surrogate, tape_asv, tape_cm


def reinforce_epoch(
    pair: PolicyPair,
    data: TrialSet,
    spec: RewardSpec,
    cfg: TrainConfig,
    rng: np.random.Generator,
    seen_ids: set[str] | None = None,
) -> list[float]:
    """One epoch of REINFORCE: per minibatch, one gradient-ascent step of
    size cfg.lr on both policies (and on the calibration heads when
    cfg.train_calibration). Returns per-batch surrogate values."""

    def step(batch: TrialSet) -> float:
        asv_cal = np.zeros(2) if cfg.train_calibration else None
        cm_cal = np.zeros(2) if cfg.train_calibration else None
        surrogate, tape_asv, tape_cm = reinforce_batch(
            pair, batch, spec, rng, cfg.use_reward_baseline, asv_cal, cm_cal
        )
        pair.asv.scorer.sgd_step(tape_asv, cfg.lr, Direction.ASCENT)
        pair.cm.scorer.sgd_step(tape_cm, cfg.lr, Direction.ASCENT)
        if cfg.train_calibration:
            for policy, grad in ((pair.asv, asv_cal), (pair.cm, cm_cal)):
                if policy.calibrator is not None:
                    c = policy.calibrator
                    policy.calibrator = replace(
                        c, a=c.a + cfg.lr * float(grad[0]), b=c.b + cfg.lr * float(grad[1])
                    )
        return surrogate

    return train_epoch(zip(iterate_batches(data, cfg, rng)), step, seen_ids)


# ---------------------------------------------------------------------------
# Cross-entropy training (pretraining and the finetune baseline)
# ---------------------------------------------------------------------------


# Cross-entropy target of each system by TrialClass code: the ASV target is
# the claimed speaker (target-bonafide or spoof), the CM target bonafide.
BCE_TARGETS = {"asv": np.array([1.0, 0.0, 1.0]), "cm": np.array([1.0, 1.0, 0.0])}


def bce_batch(scorer: Scorer, x: np.ndarray, y: np.ndarray) -> tuple[float, GradientTape]:
    """Mean binary cross-entropy (on sigmoid(score)) of the rows of x against
    the 0/1 targets y, and its gradient."""
    n = len(y)
    scores, cache = scorer.forward_batch(x)
    # log(1 + e^z) - y*z, numerically stable; d/dz = sigmoid(z) - y.
    loss = float(np.sum((np.logaddexp(0.0, scores) - y * scores) / n))
    tape = scorer.new_tape()
    scorer.backward_batch(cache, (sigmoid(scores) - y) / n, tape)
    return loss, tape


def bce_inputs(trials: TrialSet, system: str) -> tuple[np.ndarray, np.ndarray]:
    """One system's ("asv" or "cm") input rows and cross-entropy targets."""
    return getattr(trials, f"x_{system}"), BCE_TARGETS[system][trials.classes]


def bce_step(scorer: Scorer, batch: TrialSet, system: str, lr: float) -> float:
    """One descent step on one system's cross-entropy over the batch; returns
    the loss before the step."""
    loss, tape = bce_batch(scorer, *bce_inputs(batch, system))
    scorer.sgd_step(tape, lr, Direction.DESCENT)
    return loss


def bce_epoch(
    scorer: Scorer,
    x: np.ndarray,
    y: np.ndarray,
    pools: list[np.ndarray],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> list[float]:
    """One epoch of descent on the cross-entropy of the rows of x against
    the targets y (see bce_inputs), balanced over the class pools of those
    rows when cfg.balanced."""

    def step(rows: np.ndarray) -> float:
        loss, tape = bce_batch(scorer, x[rows], y[rows])
        scorer.sgd_step(tape, cfg.lr, Direction.DESCENT)
        return loss

    return train_epoch(zip(_minibatches(len(y), pools, cfg, rng)), step)


def finetune_epoch(
    pair: PolicyPair,
    data: TrialSet,
    cfg: TrainConfig,
    rng_asv: np.random.Generator,
    rng_cm: np.random.Generator,
    seen_ids: set[str] | None = None,
) -> list[float]:
    """One epoch of the no-tandem baseline: each scorer descends its own
    binary cross-entropy against its own label. Each system samples from
    pools keyed by its own label with its own RNG stream, so neither system
    is influenced by the other's labels, and taking their steps in turn
    gives the same result as one whole pass per system.

    Returns per-batch means of the two task losses.
    """

    def step(asv_batch: TrialSet, cm_batch: TrialSet) -> float:
        asv_loss = bce_step(pair.asv.scorer, asv_batch, "asv", cfg.lr)
        cm_loss = bce_step(pair.cm.scorer, cm_batch, "cm", cfg.lr)
        return (asv_loss + cm_loss) / 2.0

    batches = zip(
        map(data.take, _minibatches(len(data), class_pools(data.classes, "asv"), cfg, rng_asv)),
        map(data.take, _minibatches(len(data), class_pools(data.classes, "cm"), cfg, rng_cm)),
    )
    return train_epoch(batches, step, seen_ids)


# ---------------------------------------------------------------------------
# Evaluation and the epoch loop
# ---------------------------------------------------------------------------


def score_trials(pair: PolicyPair, trials: TrialSet) -> ScoreSet:
    """Raw scorer outputs for every trial (calibration is monotone and does
    not change threshold-swept metrics, so metrics always use raw scores)."""
    return ScoreSet.of_trials(
        trials, pair.asv.scorer.score_rows(trials.x_asv), pair.cm.scorer.score_rows(trials.x_cm)
    )


@dataclass(frozen=True)
class Splits:
    """The three trial sets: train feeds pretraining and calibration only,
    dev is the tandem-training set, eval is never trained on."""

    train: TrialSet
    dev: TrialSet
    eval: TrialSet


def fit_calibrators(
    pair: PolicyPair, train_trials: TrialSet, p: TandemCostParams
) -> PolicyPair:
    """Attach affine calibration heads fitted on pretraining-side scores.

    The ASV head is fitted on target vs nontarget bonafide trials with priors
    renormalized from (rho_tar, rho_non); the CM head on bonafide vs spoof
    with priors (rho_tar + rho_non, rho_spoof).
    """
    scores = score_trials(pair, train_trials)
    is_bona = scores.classes != TrialClass.SPOOF
    is_target = scores.classes[is_bona] == TrialClass.TARGET_BONAFIDE
    asv_rows = list(zip(scores.asv[is_bona].tolist(), is_target.tolist()))
    bona = p.rho_tar + p.rho_non
    asv_cal = train_calibrator(asv_rows, (p.rho_tar / bona, p.rho_non / bona))
    cm_rows = list(zip(scores.cm.tolist(), is_bona.tolist()))
    cm_cal = train_calibrator(cm_rows, (bona, p.rho_spoof))
    return PolicyPair(
        asv=Policy(pair.asv.scorer, asv_cal), cm=Policy(pair.cm.scorer, cm_cal)
    )


EVAL_FILTERED_SPLIT = "eval_filtered"

_REWARD_BY_METHOD = {
    Method.REINFORCE: RewardKind.PLUS_MINUS_ONE,
    Method.REINFORCE_CALIB: RewardKind.PLUS_MINUS_ONE,
    Method.REINFORCE_TDCF: RewardKind.TDCF_SINGLE,
    Method.REINFORCE_CALIB_TDCF: RewardKind.TDCF_SINGLE,
}


def run_method(
    method: Method,
    pretrained: PolicyPair,
    splits: Splits,
    cfg: TrainConfig,
    p: TandemCostParams,
    exclude_attacks: set[str] | None = None,
) -> RunRecord:
    """Run one tandem-optimization method from a pretrained pair.

    Training uses the dev split; dev and eval metric reports are recorded
    before training and after every epoch (plus the attack-filtered eval when
    exclude_attacks is given). The pretrained pair is never mutated.
    """
    if not isinstance(method, Method):
        raise ValueError(
            f"unknown method {method!r}; valid: {[m.value for m in Method]}"
        )
    pair = pretrained.clone()
    if method in (Method.REINFORCE_CALIB, Method.REINFORCE_CALIB_TDCF):
        pair = fit_calibrators(pair, splits.train, p)

    record = RunRecord(method=method.value, seed=cfg.seed, config=cfg.to_json_dict())
    step = 0

    def add_row(epoch: int, split: str, report: MetricReport | None, loss: float | None) -> None:
        metrics = {m: None if report is None else getattr(report, m) for m in METRIC_FIELDS}
        record.rows.append(
            TelemetryRow(step, epoch, method.value, cfg.seed, split, **metrics, train_loss=loss)
        )

    def add_report(split: str, epoch: int, scores: ScoreSet) -> ClassScores:
        report = compute_metric_report(scores, p)
        record.add_report(split, epoch, report)
        add_row(epoch, split, report, None)
        return scores.class_split()

    def evaluate(epoch: int) -> ClassScores:
        # Keep only the dev class split (SOFT_TDCF's start), so the dev
        # ScoreSet is freed before eval is scored.
        dev_classes = add_report("dev", epoch, score_trials(pair, splits.dev))
        eval_scores = score_trials(pair, splits.eval)
        add_report("eval", epoch, eval_scores)
        if exclude_attacks is not None:
            add_report(EVAL_FILTERED_SPLIT, epoch, filter_attacks(eval_scores, exclude_attacks))
        return dev_classes

    dev_classes = evaluate(epoch=0)
    rng = np.random.default_rng(cfg.seed)
    taus: SoftThresholds | None = None
    if method is Method.FINETUNE:
        rng_asv, rng_cm = map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(2))

        def train(seen_ids: set[str]) -> list[float]:
            return finetune_epoch(pair, splits.dev, cfg, rng_asv, rng_cm, seen_ids)

    elif method is Method.SOFT_TDCF:
        # Start the surrogate at the evaluation operating point: the hard EER
        # thresholds of the pretrained systems on the tandem-training data
        # (epoch 0's dev scores, whose report already required every class).
        taus = SoftThresholds(
            tau_asv=eer_arrays(dev_classes.tb_asv_sorted, dev_classes.nb_asv_sorted)[1],
            tau_cm=eer_arrays(dev_classes.bona_cm, dev_classes.sp_cm)[1],
        )

        def soft_step(batch: TrialSet) -> float | None:
            # Soft rates are per-class means, so a batch must contain all
            # three classes. A balanced batch of the default size misses a
            # class with negligible probability; tiny batches may not.
            if not np.bincount(batch.classes, minlength=len(TrialClass)).all():
                logger.debug("skipping soft-cost batch missing a class")
                return None
            return soft_tdcf_train_step(
                pair.asv.scorer, pair.cm.scorer, taus, batch, p, cfg.lr, cfg.soft_temperature
            )

        def train(seen_ids: set[str]) -> list[float]:
            return train_epoch(zip(iterate_batches(splits.dev, cfg, rng)), soft_step, seen_ids)

    else:
        kind = _REWARD_BY_METHOD[method]
        spec = RewardSpec(kind, p if kind is RewardKind.TDCF_SINGLE else None)

        def train(seen_ids: set[str]) -> list[float]:
            return reinforce_epoch(pair, splits.dev, spec, cfg, rng, seen_ids)

    for epoch in range(1, cfg.epochs + 1):
        for loss in train(record.trained_trial_ids):
            step += 1
            add_row(epoch, "train", None, loss)
        evaluate(epoch=epoch)

    record.final_pair = pair
    record.soft_thresholds = taus
    return record
