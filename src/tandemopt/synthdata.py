"""Reproducible synthetic tandem problems.

Speakers are Gaussian embeddings; verification inputs are element-wise
absolute differences between a noisy enrollment embedding and a noisy test
utterance. Countermeasure inputs are Gaussian, with spoofs shifted along a
per-attack direction. All class-conditional densities are known in closed
form, so likelihood-ratio references are available for every downstream
check. Everything is a pure function of the config seed.

Attack knobs:
  * asv_effectiveness in [0, 1]: how closely the spoof utterance mimics the
    target embedding (1 = indistinguishable from a genuine target trial);
  * cm_detectability in [0, 1]: how far spoofs sit from the bonafide cloud
    in countermeasure feature space (0 = identical distribution).

"Outlier" attacks combine low cm_detectability with low asv_effectiveness:
hard for the countermeasure, but largely harmless against verification.

Each split is a TrialSet whose feature rows are written in place, in a
fixed RNG draw order; trials of one class share one label object.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from enum import Enum
import numpy as np

from .nn import Activation, Scorer
from .tandem_train import (
    PolicyPair,
    Policy,
    Splits,
    TrainConfig,
    bce_epoch,
    bce_inputs,
    class_pools,
)
from .types import AsvLabel, CmLabel, TrialLabel, TrialSet

SPLIT_NAMES = ("train", "dev", "eval")


class AttackSplit(Enum):
    SEEN = "seen"
    UNSEEN = "unseen"
    OUTLIER = "outlier"


# Above these knob values an attack no longer qualifies as an outlier.
OUTLIER_MAX_EFFECTIVENESS = 0.4
OUTLIER_MAX_DETECTABILITY = 0.4


@dataclass(frozen=True)
class AttackSpec:
    attack_id: str
    asv_effectiveness: float
    cm_detectability: float
    split: AttackSplit

    def __post_init__(self) -> None:
        for name in ("asv_effectiveness", "cm_detectability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1] for {self.attack_id}")
        if self.split is AttackSplit.OUTLIER:
            if (
                self.asv_effectiveness > OUTLIER_MAX_EFFECTIVENESS
                or self.cm_detectability > OUTLIER_MAX_DETECTABILITY
            ):
                raise ValueError(
                    f"outlier attack {self.attack_id} must have low "
                    "asv_effectiveness and low cm_detectability"
                )


@dataclass(frozen=True)
class WorldConfig:
    n_speakers_train: int = 20
    n_speakers_dev: int = 10
    n_speakers_eval: int = 20
    trials_per_class_train: int = 666
    trials_per_class_dev: int = 666
    trials_per_class_eval: int = 666
    d_asv: int = 8
    d_cm: int = 8
    speaker_scale: float = 1.0
    utterance_noise: float = 0.4
    spoof_offset_scale: float = 5.0
    cm_noise: float = 2.5
    cm_shift_scale: float = 14.0
    attack_dir_jitter: float = 0.15
    attacks: tuple[AttackSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Every count (an int field other than the seed) must be positive and
        # every scale (a float field) non-negative.
        for f in fields(self):
            if f.type == "int" and f.name != "seed" and getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")
        if self.n_speakers_train < 2 or self.n_speakers_dev < 2 or self.n_speakers_eval < 2:
            raise ValueError("each split needs at least 2 speakers for nontarget trials")
        for f in fields(self):
            if f.type == "float" and getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0")
        ids = [a.attack_id for a in self.attacks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate attack ids")
        if not self.split_attacks("train"):
            raise ValueError("no SEEN attacks configured for train/dev spoofs")
        if not self.split_attacks("eval"):
            raise ValueError("no UNSEEN/OUTLIER attacks configured for eval spoofs")

    def split_attacks(self, split: str) -> tuple[AttackSpec, ...]:
        """SEEN attacks belong to train/dev; UNSEEN and OUTLIER to eval only."""
        if split in ("train", "dev"):
            return tuple(a for a in self.attacks if a.split is AttackSplit.SEEN)
        return tuple(a for a in self.attacks if a.split is not AttackSplit.SEEN)

    def n_speakers(self, split: str) -> int:
        return getattr(self, f"n_speakers_{split}")

    def trials_per_class(self, split: str) -> int:
        return getattr(self, f"trials_per_class_{split}")

    def to_json_dict(self) -> dict:
        return asdict(self, dict_factory=_json_values)

    @classmethod
    def from_json_dict(cls, d: dict) -> "WorldConfig":
        names = {f.name for f in fields(cls)}
        if set(d) != names:
            raise ValueError(
                f"unknown keys {sorted(set(d) - names)}, missing keys {sorted(names - set(d))}"
            )
        attacks = tuple(
            AttackSpec(**{**a, "split": AttackSplit(a["split"])}) for a in d["attacks"]
        )
        return cls(**{**d, "attacks": attacks})


def _json_values(items: list[tuple[str, object]]) -> dict:
    """asdict's dict factory for JSON: enums are written as their values."""
    return {k: v.value if isinstance(v, Enum) else v for k, v in items}


DEFAULT_ATTACKS = (
    AttackSpec("A01", 0.90, 0.80, AttackSplit.SEEN),
    AttackSpec("A02", 0.85, 0.70, AttackSplit.SEEN),
    AttackSpec("A03", 0.80, 0.75, AttackSplit.SEEN),
    AttackSpec("A07", 0.88, 0.72, AttackSplit.UNSEEN),
    AttackSpec("A08", 0.82, 0.65, AttackSplit.UNSEEN),
    AttackSpec("A09", 0.86, 0.78, AttackSplit.UNSEEN),
    AttackSpec("A10", 0.80, 0.60, AttackSplit.UNSEEN),
    AttackSpec("A17", 0.20, 0.10, AttackSplit.OUTLIER),
    AttackSpec("A18", 0.25, 0.15, AttackSplit.OUTLIER),
)


def default_world_config(seed: int = 7) -> WorldConfig:
    """The benchmark world: 3 seen, 4 unseen, and 2 outlier attacks, roughly
    2,000 trials per split."""
    return WorldConfig(attacks=DEFAULT_ATTACKS, seed=seed)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def attack_directions(cfg: WorldConfig) -> dict[str, np.ndarray]:
    """Unit shift directions in countermeasure space, one per attack: a
    shared global direction plus per-attack jitter. Deterministic in the
    config seed and the attack list order."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[0])
    global_dir = _unit(rng.standard_normal(cfg.d_cm))
    dirs = {}
    for attack in cfg.attacks:
        jitter = rng.standard_normal(cfg.d_cm)
        dirs[attack.attack_id] = _unit(global_dir + cfg.attack_dir_jitter * jitter)
    return dirs


def cm_spoof_mean(cfg: WorldConfig, attack: AttackSpec, direction: np.ndarray) -> np.ndarray:
    return cfg.cm_shift_scale * attack.cm_detectability * direction


def cm_bayes_llr(cfg: WorldConfig, attack: AttackSpec, direction: np.ndarray, x_cm: np.ndarray) -> float:
    """Exact log-likelihood ratio of the bonafide hypothesis against this
    attack's spoof density (both Gaussians with covariance cm_noise^2 * I);
    positive means more bonafide-like."""
    mu = cm_spoof_mean(cfg, attack, direction)
    var = cfg.cm_noise**2
    return float(-(x_cm @ mu - 0.5 * mu @ mu) / var)


def _speaker_table(rng: np.random.Generator, n: int, cfg: WorldConfig) -> np.ndarray:
    return cfg.speaker_scale * rng.standard_normal((n, cfg.d_asv))


def _utterance(rng: np.random.Generator, emb: np.ndarray, cfg: WorldConfig) -> np.ndarray:
    return emb + cfg.utterance_noise * rng.standard_normal(emb.shape)


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _unit(rng.standard_normal(dim))


def _generate_split(
    split: str, cfg: WorldConfig, rng: np.random.Generator, dirs: dict[str, np.ndarray]
) -> TrialSet:
    speakers = _speaker_table(rng, cfg.n_speakers(split), cfg)
    n_spk = speakers.shape[0]
    n = cfg.trials_per_class(split)
    attacks = cfg.split_attacks(split)
    # Rows 0..n-1 are target trials, n..2n-1 nontarget, 2n..3n-1 spoof.
    x_asv = np.empty((3 * n, cfg.d_asv))
    x_cm = np.empty((3 * n, cfg.d_cm))

    def bona_cm() -> np.ndarray:
        return cfg.cm_noise * rng.standard_normal(cfg.d_cm)

    for i in range(n):
        spk = int(rng.integers(n_spk))
        enroll = _utterance(rng, speakers[spk], cfg)
        test = _utterance(rng, speakers[spk], cfg)
        x_asv[i] = np.abs(enroll - test)
        x_cm[i] = bona_cm()

    for i in range(n):
        spk = int(rng.integers(n_spk))
        other = int(rng.integers(n_spk - 1))
        if other >= spk:
            other += 1
        enroll = _utterance(rng, speakers[spk], cfg)
        test = _utterance(rng, speakers[other], cfg)
        x_asv[n + i] = np.abs(enroll - test)
        x_cm[n + i] = bona_cm()

    spoof_attacks = [attacks[i % len(attacks)] for i in range(n)]  # round-robin keeps counts even
    for i, attack in enumerate(spoof_attacks):
        spk = int(rng.integers(n_spk))
        enroll = _utterance(rng, speakers[spk], cfg)
        # The spoof utterance sits at a controlled distance from the target
        # embedding: effectiveness 1 reproduces the genuine-utterance
        # distribution exactly.
        offset = (
            (1.0 - attack.asv_effectiveness)
            * cfg.spoof_offset_scale
            * _random_unit(rng, cfg.d_asv)
        )
        test = _utterance(rng, speakers[spk] + offset, cfg)
        x_asv[2 * n + i] = np.abs(enroll - test)
        x_cm[2 * n + i] = cm_spoof_mean(cfg, attack, dirs[attack.attack_id]) + bona_cm()

    ids = [f"{split}_{kind}_{i:05d}" for kind in ("tar", "non", "spf") for i in range(n)]
    tar, non = (TrialLabel(asv, CmLabel.BONAFIDE) for asv in (AsvLabel.TARGET, AsvLabel.NONTARGET))
    spoof = {a.attack_id: TrialLabel(AsvLabel.TARGET, CmLabel.SPOOF, a.attack_id) for a in attacks}
    labels = [tar] * n + [non] * n + [spoof[a.attack_id] for a in spoof_attacks]
    return TrialSet(ids, labels, x_asv, x_cm)


def generate_world(cfg: WorldConfig) -> Splits:
    """Generate the train/dev/eval trial sets, fully determined by cfg.seed.

    Speaker pools are disjoint across splits; SEEN attacks appear in
    train/dev only, UNSEEN and OUTLIER attacks in eval only.
    """
    children = np.random.SeedSequence(cfg.seed).spawn(4)
    dirs = attack_directions(cfg)
    sets = {}
    for split, child in zip(SPLIT_NAMES, children[1:]):
        sets[split] = _generate_split(split, cfg, np.random.default_rng(child), dirs)
    return Splits(train=sets["train"], dev=sets["dev"], eval=sets["eval"])


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------


@dataclass
class PretrainConfig:
    """Per-system pretraining settings.

    The two systems are separate detectors with separate recipes: the
    verification scorer trains to convergence (plateau), while the
    countermeasure stops early, which keeps its scores in the responsive
    range of the sigmoid where both stochastic action sampling and the soft
    surrogate still have signal.
    """

    asv_lr: float = 0.1
    asv_max_epochs: int = 150
    cm_lr: float = 0.04
    cm_max_epochs: int = 8
    batch_size: int = 64
    hidden: int = 16
    plateau_tol: float = 1e-4
    seed: int = 0

    def to_json_dict(self) -> dict:
        return asdict(self)


# Consecutive non-improving epochs tolerated before the plateau stop fires.
PLATEAU_PATIENCE = 5


def _dataset_bce(scorer: Scorer, x: np.ndarray, y: np.ndarray) -> float:
    scores = scorer.score_rows(x)
    return float(np.mean(np.logaddexp(0.0, scores) - y * scores))


def _pretrain_scorer(
    trials: TrialSet,
    pools: list[np.ndarray],
    system: str,
    lr: float,
    max_epochs: int,
    pre: PretrainConfig,
    rng: np.random.Generator,
    init_seed: int,
) -> Scorer:
    """Train one system's ("asv" or "cm") scorer with BCE until the epoch loss
    plateaus (relative improvement below plateau_tol) or max_epochs is
    reached."""
    x, y = bce_inputs(trials, system)
    scorer = Scorer.create([x.shape[1], pre.hidden, 1], Activation.TANH, seed=init_seed)
    cfg = TrainConfig(
        lr=lr, batch_size=pre.batch_size, epochs=1, balanced=True, seed=pre.seed
    )
    best = _dataset_bce(scorer, x, y)
    if not math.isfinite(best):
        raise RuntimeError("pretraining diverged before the first epoch")
    stalled = 0
    for _ in range(max_epochs):
        bce_epoch(scorer, x, y, pools, cfg, rng)
        cur = _dataset_bce(scorer, x, y)
        if not math.isfinite(cur):
            raise RuntimeError("pretraining diverged (non-finite loss)")
        if best - cur < pre.plateau_tol * max(best, 1e-12):
            # epoch losses fluctuate under sampled minibatches, so the
            # plateau needs a few confirming epochs before stopping
            stalled += 1
            if stalled >= PLATEAU_PATIENCE:
                break
        else:
            stalled = 0
        best = min(best, cur)
    return scorer


def pretrain_pair(train: TrialSet, pre: PretrainConfig) -> PolicyPair:
    """Pre-train the two systems separately on their own tasks.

    The verification scorer sees bonafide trials only (target vs nontarget);
    the countermeasure sees all trials (bonafide vs spoof). The two trainers
    use independent derived RNG streams, so neither is affected by the other
    task's labels.
    """
    children = np.random.SeedSequence(pre.seed).spawn(2)
    rng_asv = np.random.default_rng(children[0])
    rng_cm = np.random.default_rng(children[1])

    cm_pools = class_pools(train.classes, "cm")
    bona = train.take(cm_pools[0] if len(cm_pools) == 2 else np.empty(0, dtype=np.intp))
    asv_pools = class_pools(bona.classes, "asv")
    if len(asv_pools) < 2:
        raise ValueError("pretraining needs every class present in the train split")

    asv = _pretrain_scorer(
        bona, asv_pools, "asv", pre.asv_lr, pre.asv_max_epochs, pre, rng_asv,
        init_seed=pre.seed * 2 + 1,
    )
    cm = _pretrain_scorer(
        train, cm_pools, "cm", pre.cm_lr, pre.cm_max_epochs, pre, rng_cm,
        init_seed=pre.seed * 2 + 2,
    )
    return PolicyPair(asv=Policy(asv), cm=Policy(cm))
