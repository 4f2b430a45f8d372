import dataclasses
import json

import numpy as np
import pytest

from tandemopt.metrics import eer
from tandemopt.synthdata import (
    AttackSpec,
    AttackSplit,
    PretrainConfig,
    WorldConfig,
    attack_directions,
    cm_bayes_llr,
    default_world_config,
    generate_world,
    pretrain_pair,
)
from tandemopt.types import AsvLabel, CmLabel


def small_config(seed=0, **overrides):
    cfg = default_world_config(seed=seed)
    small = dict(
        n_speakers_train=8,
        n_speakers_dev=5,
        n_speakers_eval=8,
        trials_per_class_train=120,
        trials_per_class_dev=120,
        trials_per_class_eval=120,
    )
    small.update(overrides)
    return dataclasses.replace(cfg, **small)


class TestAttackSpec:
    def test_knobs_must_be_in_range(self):
        with pytest.raises(ValueError):
            AttackSpec("X", 1.2, 0.5, AttackSplit.SEEN)

    def test_outlier_must_be_weak_on_both_axes(self):
        with pytest.raises(ValueError, match="outlier"):
            AttackSpec("X", 0.9, 0.1, AttackSplit.OUTLIER)
        AttackSpec("X", 0.2, 0.1, AttackSplit.OUTLIER)  # fine


class TestWorldConfig:
    def test_default_benchmark_shape(self):
        cfg = default_world_config()
        by_split = {}
        for a in cfg.attacks:
            by_split.setdefault(a.split, []).append(a)
        assert len(by_split[AttackSplit.SEEN]) == 3
        assert len(by_split[AttackSplit.UNSEEN]) == 4
        assert len(by_split[AttackSplit.OUTLIER]) == 2
        assert 3 * cfg.trials_per_class_eval == 1998

    def test_requires_seen_and_eval_attacks(self):
        seen_only = tuple(
            a for a in default_world_config().attacks if a.split is AttackSplit.SEEN
        )
        with pytest.raises(ValueError, match="UNSEEN"):
            dataclasses.replace(default_world_config(), attacks=seen_only)

    def test_json_round_trip(self):
        cfg = default_world_config(seed=5)
        assert WorldConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_json_writes_attack_splits_as_values(self):
        d = json.loads(json.dumps(default_world_config().to_json_dict()))
        assert d["attacks"][0] == {
            "attack_id": "A01", "asv_effectiveness": 0.9, "cm_detectability": 0.8, "split": "seen"
        }
        assert d["seed"] == 7 and d["cm_noise"] == 2.5

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"d_cm": 0}, "d_cm must be positive"),
            ({"trials_per_class_eval": -1}, "trials_per_class_eval must be positive"),
            ({"n_speakers_dev": 1}, "at least 2 speakers"),
            ({"attack_dir_jitter": -0.1}, "attack_dir_jitter must be >= 0"),
            ({"seed": 0, "speaker_scale": 0.0}, None),
        ],
    )
    def test_counts_positive_and_scales_non_negative(self, override, message):
        if message is None:
            dataclasses.replace(default_world_config(), **override)
        else:
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(default_world_config(), **override)


class TestGenerateWorld:
    def test_split_sizes_and_composition(self):
        cfg = small_config()
        splits = generate_world(cfg)
        for split_name in ("train", "dev", "eval"):
            trials = getattr(splits, split_name)
            assert len(trials) == 3 * 120
            assert sum(t.label.is_spoof for t in trials) == 120
            # every spoof claims the target speaker; nontargets are bonafide
            for t in trials:
                if t.label.is_spoof:
                    assert t.label.asv_label is AsvLabel.TARGET
                if t.label.asv_label is AsvLabel.NONTARGET:
                    assert t.label.cm_label is CmLabel.BONAFIDE

    def test_attack_split_hygiene(self):
        cfg = small_config()
        splits = generate_world(cfg)
        seen = {a.attack_id for a in cfg.attacks if a.split is AttackSplit.SEEN}
        train_dev_attacks = {
            t.label.attack_id
            for t in [*splits.train, *splits.dev]
            if t.label.attack_id
        }
        eval_attacks = {t.label.attack_id for t in splits.eval if t.label.attack_id}
        assert train_dev_attacks == seen
        assert not (eval_attacks & seen)

    def test_deterministic(self):
        cfg = small_config(seed=11)
        a = generate_world(cfg)
        b = generate_world(cfg)
        for split_name in ("train", "dev", "eval"):
            for t1, t2 in zip(getattr(a, split_name), getattr(b, split_name)):
                assert t1.id == t2.id
                assert np.array_equal(t1.x_asv, t2.x_asv)
                assert np.array_equal(t1.x_cm, t2.x_cm)

    def test_undetectable_attack_is_indistinguishable_to_bayes_cm(self):
        attacks = (
            AttackSpec("S1", 0.9, 0.0, AttackSplit.SEEN),
            AttackSpec("U1", 0.9, 0.0, AttackSplit.UNSEEN),
        )
        cfg = small_config(trials_per_class_dev=400, attacks=attacks)
        splits = generate_world(cfg)
        dirs = attack_directions(cfg)
        spec = {a.attack_id: a for a in cfg.attacks}
        rows = []
        for t in splits.dev:
            if t.label.is_spoof or t.label.is_target_bonafide:
                llr = cm_bayes_llr(cfg, spec.get(t.label.attack_id, spec["S1"]),
                                   dirs[t.label.attack_id or "S1"], t.x_cm)
                rows.append((llr, not t.label.is_spoof))
        value, _ = eer(rows)
        # detectability 0 makes the spoof distribution equal the bonafide one
        assert abs(value - 0.5) < 0.08

    def test_fully_effective_attack_matches_target_distribution(self):
        attacks = (
            AttackSpec("S1", 1.0, 0.8, AttackSplit.SEEN),
            AttackSpec("U1", 1.0, 0.8, AttackSplit.UNSEEN),
        )
        cfg = small_config(trials_per_class_dev=500, attacks=attacks)
        splits = generate_world(cfg)
        # ASV features of spoofs and of genuine target trials should be
        # statistically indistinguishable: compare per-coordinate means
        tb = np.array([t.x_asv for t in splits.dev if t.label.is_target_bonafide])
        sp = np.array([t.x_asv for t in splits.dev if t.label.is_spoof])
        rows = [(float(np.sum(x)), True) for x in tb] + [
            (float(np.sum(x)), False) for x in sp
        ]
        value, _ = eer(rows)
        assert abs(value - 0.5) < 0.08

    def test_bayes_cm_error_monotone_in_detectability(self):
        eers = []
        for det in (0.2, 0.5, 0.8):
            attacks = (
                AttackSpec("S1", 0.9, det, AttackSplit.SEEN),
                AttackSpec("U1", 0.9, 0.5, AttackSplit.UNSEEN),
            )
            cfg = small_config(seed=3, trials_per_class_dev=400, attacks=attacks)
            splits = generate_world(cfg)
            dirs = attack_directions(cfg)
            spec = {a.attack_id: a for a in cfg.attacks}
            rows = []
            for t in splits.dev:
                if t.label.is_spoof or t.label.is_target_bonafide:
                    attack = spec[t.label.attack_id or "S1"]
                    llr = cm_bayes_llr(cfg, attack, dirs[attack.attack_id], t.x_cm)
                    rows.append((llr, not t.label.is_spoof))
            eers.append(eer(rows)[0])
        assert eers[0] >= eers[1] >= eers[2]

    def test_speaker_pools_disjoint_by_construction(self):
        # speaker identities are derived per split from disjoint RNG streams;
        # the trial ids carry the split prefix, so no id can collide
        cfg = small_config()
        splits = generate_world(cfg)
        ids = [*splits.train.ids, *splits.dev.ids, *splits.eval.ids]
        assert len(ids) == len(set(ids))


class TestPretrainPair:
    def test_reaches_linearly_separable_loss(self):
        # easy world: strongly detectable attacks, low noise
        cfg = small_config(
            utterance_noise=0.1,
            cm_shift_scale=40.0,
            attacks=(
                AttackSpec("S1", 0.9, 1.0, AttackSplit.SEEN),
                AttackSpec("U1", 0.9, 1.0, AttackSplit.UNSEEN),
            ),
        )
        splits = generate_world(cfg)
        pre = PretrainConfig(seed=0, cm_lr=0.3, cm_max_epochs=300)
        pair = pretrain_pair(splits.train, pre)
        from tandemopt.tandem_train import bce_batch

        targets = np.array([float(not t.label.is_spoof) for t in splits.train])
        loss, _ = bce_batch(pair.cm.scorer, splits.train.x_cm, targets)
        assert loss < 0.01

    def test_deterministic_checkpoints(self):
        cfg = small_config()
        splits = generate_world(cfg)
        pre = PretrainConfig(seed=4, asv_max_epochs=5, cm_max_epochs=5)
        a = pretrain_pair(splits.train, pre)
        b = pretrain_pair(splits.train, pre)
        for s1, s2 in ((a.asv.scorer, b.asv.scorer), (a.cm.scorer, b.cm.scorer)):
            assert all(np.array_equal(x, y) for x, y in zip(s1.weights, s2.weights))

    def test_cm_blind_to_asv_labels(self):
        from tandemopt.types import Trial, TrialLabel, TrialSet

        cfg = small_config()
        splits = generate_world(cfg)
        flipped = []
        for t in splits.train:
            if t.label.is_target_bonafide:
                flipped.append(
                    Trial(t.id, t.x_asv, t.x_cm, TrialLabel(AsvLabel.NONTARGET, CmLabel.BONAFIDE))
                )
            elif t.label.is_nontarget_bonafide:
                flipped.append(
                    Trial(t.id, t.x_asv, t.x_cm, TrialLabel(AsvLabel.TARGET, CmLabel.BONAFIDE))
                )
            else:
                flipped.append(t)
        pre = PretrainConfig(seed=1, asv_max_epochs=3, cm_max_epochs=3)
        a = pretrain_pair(splits.train, pre)
        b = pretrain_pair(TrialSet.from_trials(flipped), pre)
        assert all(
            np.array_equal(x, y)
            for x, y in zip(a.cm.scorer.weights, b.cm.scorer.weights)
        )
        assert all(
            np.array_equal(x, y)
            for x, y in zip(a.cm.scorer.biases, b.cm.scorer.biases)
        )
