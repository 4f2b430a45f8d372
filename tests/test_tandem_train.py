import math
from dataclasses import replace

import numpy as np
import pytest

from tandemopt import tandem_train
from tandemopt.calibration import Calibrator, sigmoid
from tandemopt.nn import SCORE_BLOCK_ROWS, Activation, Direction, Scorer, finite_diff_check
from tandemopt.synthdata import default_world_config, generate_world
from tandemopt.tandem_train import (
    Method,
    Policy,
    PolicyPair,
    RewardKind,
    RewardSpec,
    Splits,
    TrainConfig,
    TrainingDivergedError,
    _balanced_batch,
    _minibatches,
    bce_batch,
    class_pools,
    finetune_epoch,
    iterate_batches,
    lemire_rejects,
    policy_accept_probability,
    policy_backward,
    reinforce_batch,
    reinforce_epoch,
    reward,
    rewards,
    run_method,
    sample_action,
    score_trials,
    tandem_action_probability,
)
from tandemopt.types import (
    ASVSPOOF19_COST_PARAMS,
    AsvLabel,
    CmLabel,
    Decision,
    TandemCostParams,
    Trial,
    TrialClass,
    TrialLabel,
    TrialSet,
    class_codes,
)

TB = TrialLabel(AsvLabel.TARGET, CmLabel.BONAFIDE)
NB = TrialLabel(AsvLabel.NONTARGET, CmLabel.BONAFIDE)
SP = TrialLabel(AsvLabel.TARGET, CmLabel.SPOOF, "A01")
PM1 = RewardSpec(RewardKind.PLUS_MINUS_ONE)
TDCF1 = RewardSpec(RewardKind.TDCF_SINGLE, ASVSPOOF19_COST_PARAMS)


def linear_pair(w_asv, b_asv, w_cm, b_cm):
    asv = Scorer([len(w_asv), 1], Activation.TANH, [np.array([w_asv])], [np.array([b_asv])])
    cm = Scorer([len(w_cm), 1], Activation.TANH, [np.array([w_cm])], [np.array([b_cm])])
    return PolicyPair(asv=Policy(asv), cm=Policy(cm))


def toy_trials(rng, n_per_class=6, d=2):
    trials = []
    for i in range(n_per_class):
        trials.append(Trial(f"tb{i}", rng.normal(0.8, 1, d), rng.normal(0.8, 1, d), TB))
        trials.append(Trial(f"nb{i}", rng.normal(-0.8, 1, d), rng.normal(0.8, 1, d), NB))
        trials.append(Trial(f"sp{i}", rng.normal(0.8, 1, d), rng.normal(-0.8, 1, d), SP))
    return trials


def toy_set(rng, n_per_class=6, d=2):
    return TrialSet.from_trials(toy_trials(rng, n_per_class, d))


class TestSampleAction:
    def test_high_probability_almost_always_accepts(self):
        rng = np.random.default_rng(0)
        n = 1_000_000
        accepts = sum(
            sample_action(1.0 - 1e-6, rng)[0] is Decision.ACCEPT for _ in range(n)
        )
        assert accepts / n >= 0.9999

    def test_fair_coin(self):
        rng = np.random.default_rng(1)
        n = 1_000_000
        accepts = sum(sample_action(0.5, rng)[0] is Decision.ACCEPT for _ in range(n))
        assert abs(accepts / n - 0.5) <= 0.005

    def test_deterministic_given_seed(self):
        seq1 = [sample_action(0.4, np.random.default_rng(7))[0] for _ in range(1)]
        a = [sample_action(0.4, np.random.default_rng(9))[0] for _ in range(100)]
        b = [sample_action(0.4, np.random.default_rng(9))[0] for _ in range(100)]
        assert a == b

    def test_prob_of_action(self):
        rng = np.random.default_rng(2)
        action, p = sample_action(0.3, rng)
        assert p == pytest.approx(0.3 if action is Decision.ACCEPT else 0.7)

    def test_out_of_range_clamped(self):
        rng = np.random.default_rng(3)
        action, p = sample_action(1.5, rng)
        assert action is Decision.ACCEPT
        assert p == pytest.approx(1.0 - 1e-6)


class TestTandemActionProbability:
    def test_both_accept(self):
        a, p = tandem_action_probability(Decision.ACCEPT, Decision.ACCEPT, 0.5, 0.5)
        assert a is Decision.ACCEPT and p == 0.25

    def test_one_reject(self):
        a, p = tandem_action_probability(Decision.REJECT, Decision.ACCEPT, 0.5, 0.5)
        assert a is Decision.REJECT and p == 0.75

    def test_branches_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p1, p2 = rng.uniform(0.01, 0.99, 2)
            _, pa = tandem_action_probability(Decision.ACCEPT, Decision.ACCEPT, p1, p2)
            _, pr = tandem_action_probability(Decision.REJECT, Decision.ACCEPT, p1, p2)
            assert pa + pr == pytest.approx(1.0)


class TestReward:
    def test_tdcf_single_reproduces_all_branches(self):
        p = ASVSPOOF19_COST_PARAMS
        cases = [
            # (label, action) -> expected cost-weighted reward
            (TB, Decision.ACCEPT, 0.0),
            (TB, Decision.REJECT, -p.c_miss * p.rho_tar),  # miss
            (NB, Decision.ACCEPT, -p.c_fa * p.rho_non),  # bonafide false accept
            (NB, Decision.REJECT, 0.0),
            (SP, Decision.ACCEPT, -p.c_fa_spoof * p.rho_spoof),  # spoof false accept
            (SP, Decision.REJECT, 0.0),
        ]
        for label, action, expected in cases:
            assert reward(TDCF1, action, label) == pytest.approx(expected)
        assert reward(TDCF1, Decision.REJECT, TB) == pytest.approx(-0.9405)

    def test_plus_minus_one_all_cases(self):
        cases = [
            (TB, Decision.ACCEPT, 1.0),
            (TB, Decision.REJECT, -1.0),
            (NB, Decision.ACCEPT, -1.0),
            (NB, Decision.REJECT, 1.0),
            (SP, Decision.ACCEPT, -1.0),
            (SP, Decision.REJECT, 1.0),
        ]
        for label, action, expected in cases:
            assert reward(PM1, action, label) == expected

    def test_tdcf_rewards_bounded(self):
        p = ASVSPOOF19_COST_PARAMS
        worst = -max(p.c_miss * p.rho_tar, p.c_fa * p.rho_non, p.c_fa_spoof * p.rho_spoof)
        for label in (TB, NB, SP):
            for action in Decision:
                assert worst <= reward(TDCF1, action, label) <= 0.0

    def test_batch_rewards_index_the_class_weights(self):
        p = ASVSPOOF19_COST_PARAMS
        classes = class_codes([TB, NB, SP, TB, NB, SP])
        accept = np.array([True, True, True, False, False, False])
        miss, fa, fa_spoof = -p.c_miss * p.rho_tar, -p.c_fa * p.rho_non, -p.c_fa_spoof * p.rho_spoof
        assert rewards(TDCF1, accept, classes).tolist() == [0.0, fa, fa_spoof, miss, 0.0, 0.0]
        assert rewards(PM1, accept, classes).tolist() == [1.0, -1.0, -1.0, -1.0, 1.0, 1.0]
        assert rewards(PM1, accept[:0], classes[:0]).shape == (0,)

    def test_tdcf_requires_params(self):
        with pytest.raises(ValueError):
            RewardSpec(RewardKind.TDCF_SINGLE)


class TestPolicyAcceptProbability:
    def test_uncalibrated_is_sigmoid_of_score(self):
        pair = linear_pair([1.0, 0.0], 0.0, [1.0], 0.0)
        x = np.array([0.7, 0.0])
        p, cache = policy_accept_probability(pair.asv, x)
        assert p == pytest.approx(float(sigmoid(0.7)))
        assert cache.score == pytest.approx(0.7)

    def test_calibrated_probability(self):
        scorer = Scorer([1, 1], Activation.TANH, [np.array([[1.0]])], [np.array([0.0])])
        policy = Policy(scorer, Calibrator(a=2.0, b=-1.0, prior_log_odds=math.log(9.0)))
        p, _ = policy_accept_probability(policy, np.array([0.5]))
        assert p == pytest.approx(0.9, abs=1e-9)

    def test_clamped_probability_has_zero_gradient(self):
        scorer = Scorer([1, 1], Activation.TANH, [np.array([[30.0]])], [np.array([0.0])])
        policy = Policy(scorer)
        p, cache = policy_accept_probability(policy, np.array([1.0]))
        assert p == 1.0 - 1e-6
        tape = scorer.new_tape()
        policy_backward(policy, cache, 1.0, tape)
        assert all(np.all(g == 0) for g in tape.d_weights + tape.d_biases)


class TestReinforce:
    def test_zero_reward_means_zero_gradient(self):
        # all-zero costs make every reward exactly 0, so the surrogate
        # gradient vanishes and parameters stay bit-identical
        zero_costs = RewardSpec(
            RewardKind.TDCF_SINGLE,
            TandemCostParams(0.0, 0.0, 0.0, 0.9405, 0.0095, 0.05),
        )
        pair = linear_pair([0.4, 0.1], 0.0, [0.3, -0.1], 0.0)
        rng = np.random.default_rng(5)
        trials = toy_set(rng, n_per_class=4)
        before = [w.copy() for w in pair.asv.scorer.weights + pair.cm.scorer.weights]
        cfg = TrainConfig(lr=0.5, batch_size=6, epochs=1, seed=5)
        reinforce_epoch(pair, trials, zero_costs, cfg, rng)
        after = pair.asv.scorer.weights + pair.cm.scorer.weights
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_bernoulli_policy_gradient_is_unbiased(self):
        # constant-input policy: p = sigmoid(b), reward +1 for ACCEPT and 0
        # for REJECT, so E[r] = p and dE[r]/dp = 1 exactly. The mean of the
        # probability-level REINFORCE estimates d(log pi)/dp * r must land
        # within 2% of 1.
        b0 = 0.3
        scorer = Scorer([1, 1], Activation.TANH, [np.array([[0.0]])], [np.array([b0])])
        rng = np.random.default_rng(6)
        x = np.array([0.0])
        n = 100_000
        total = 0.0
        for _ in range(n):
            prob, _ = policy_accept_probability(Policy(scorer), x)
            action, _ = sample_action(prob, rng)
            if action is Decision.ACCEPT:
                total += (1.0 / prob) * 1.0  # d log p / dp, reward 1
            else:
                total += (-1.0 / (1.0 - prob)) * 0.0  # reward 0
        assert total / n == pytest.approx(1.0, rel=0.02)

    def test_surrogate_gradient_matches_finite_diff_with_frozen_actions(self):
        rng = np.random.default_rng(7)
        trials = toy_trials(rng, n_per_class=3)
        pair = linear_pair([0.4, -0.2], 0.1, [0.3, 0.2], -0.1)
        # freeze one action sample per trial
        frozen = []
        for t in trials:
            p_asv, _ = policy_accept_probability(pair.asv, t.x_asv)
            p_cm, _ = policy_accept_probability(pair.cm, t.x_cm)
            a_asv, _ = sample_action(p_asv, rng)
            a_cm, _ = sample_action(p_cm, rng)
            frozen.append((t, a_asv, a_cm))

        def surrogate(asv_scorer, tape):
            test_pair = PolicyPair(Policy(asv_scorer), pair.cm)
            total = 0.0
            n = len(frozen)
            for t, a_asv, a_cm in frozen:
                p_asv, cache_asv = policy_accept_probability(test_pair.asv, t.x_asv)
                p_cm, _ = policy_accept_probability(test_pair.cm, t.x_cm)
                a_t, p_t = tandem_action_probability(a_asv, a_cm, p_asv, p_cm)
                r = reward(PM1, a_t, t.label)
                total += math.log(p_t) * r / n
                if tape is not None:
                    if a_t is Decision.ACCEPT:
                        d_p = r / (n * p_asv)
                    else:
                        d_p = -r * p_cm / (n * p_t)
                    policy_backward(test_pair.asv, cache_asv, d_p, tape)
            return total

        assert finite_diff_check(pair.asv.scorer, surrogate) <= 1e-4

    def test_non_finite_surrogate_aborts(self):
        pair = linear_pair([1.0], 0.0, [1.0], 0.0)
        pair.asv.scorer.biases[0][0] = np.nan  # corrupt after construction
        t = Trial("tb0", np.array([1.0]), np.array([1.0]), TB)
        with pytest.raises(TrainingDivergedError):
            reinforce_batch(pair, TrialSet.from_trials([t]), PM1, np.random.default_rng(0))


def per_trial_reinforce(pair, batch, spec, rng, asv_calib_grad=None, cm_calib_grad=None):
    """Per-trial REINFORCE reference: for each trial one ASV draw, then one
    CM draw, through sample_action. Returns (surrogate, asv tape, cm tape,
    tandem actions)."""
    n = len(batch)
    tape_asv, tape_cm = pair.asv.scorer.new_tape(), pair.cm.scorer.new_tape()
    surrogate = 0.0
    actions = []
    for t in batch:
        p_asv, cache_asv = policy_accept_probability(pair.asv, t.x_asv)
        p_cm, cache_cm = policy_accept_probability(pair.cm, t.x_cm)
        a_asv, _ = sample_action(p_asv, rng)
        a_cm, _ = sample_action(p_cm, rng)
        a_t, p_t = tandem_action_probability(a_asv, a_cm, p_asv, p_cm)
        r = reward(spec, a_t, t.label)
        surrogate += math.log(p_t) * r / n
        if a_t is Decision.ACCEPT:
            d_p_asv, d_p_cm = r / (n * p_asv), r / (n * p_cm)
        else:
            d_p_asv, d_p_cm = -r * p_cm / (n * p_t), -r * p_asv / (n * p_t)
        policy_backward(pair.asv, cache_asv, d_p_asv, tape_asv)
        policy_backward(pair.cm, cache_cm, d_p_cm, tape_cm)
        for p, cache, d_p, grad in (
            (p_asv, cache_asv, d_p_asv, asv_calib_grad),
            (p_cm, cache_cm, d_p_cm, cm_calib_grad),
        ):
            if grad is not None and not cache.clamped[0]:
                # d(p)/d(a) = p(1 - p) * score and d(p)/d(b) = p(1 - p)
                grad += d_p * p * (1.0 - p) * np.array([cache.score[0], 1.0])
        actions.append(a_t)
    return surrogate, tape_asv, tape_cm, actions


class TestBatchedReinforceMatchesPerTrial:
    def test_rng_stream_left_where_per_trial_reference_leaves_it(self):
        trials = toy_trials(np.random.default_rng(30), n_per_class=7)
        pair = linear_pair([0.4, -0.2], 0.1, [0.3, 0.2], -0.1)
        for spec in (PM1, TDCF1):
            batched_rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
            for batch in (trials, trials[:5]):
                reinforce_batch(pair, TrialSet.from_trials(batch), spec, batched_rng)
                per_trial_reinforce(pair, batch, spec, ref_rng)
                assert batched_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_same_actions_as_per_trial_reference(self):
        # One-hot inputs put each trial's gradient in its own weight column,
        # so equal columns mean each trial took the reference's action.
        n = 12
        eye = np.eye(n)
        labels = [TB, NB, SP] * (n // 3)
        trials = [Trial(f"t{i}", eye[i], eye[i], labels[i]) for i in range(n)]
        rng = np.random.default_rng(32)
        plain = linear_pair(list(rng.normal(0, 1.5, n)), 0.0, list(rng.normal(0, 1.5, n)), 0.0)
        calibrated = PolicyPair(
            Policy(plain.asv.scorer, Calibrator(a=1.3, b=-0.2, prior_log_odds=0.5)),
            Policy(plain.cm.scorer, Calibrator(a=0.8, b=0.1, prior_log_odds=-0.3)),
        )
        seen = set()
        for pair in (plain, calibrated):
            for seed in range(6):
                calib = [np.zeros(2) for _ in range(4)]
                surrogate, tape_asv, tape_cm = reinforce_batch(
                    pair, TrialSet.from_trials(trials), PM1, np.random.default_rng(seed), False,
                    calib[0], calib[1],
                )
                ref_calib = (calib[2], calib[3]) if pair is calibrated else (None, None)
                ref, ref_asv, ref_cm, actions = per_trial_reinforce(
                    pair, trials, PM1, np.random.default_rng(seed), *ref_calib
                )
                seen.update(actions)
                np.testing.assert_allclose(tape_asv.d_weights[0], ref_asv.d_weights[0], rtol=1e-12)
                np.testing.assert_allclose(tape_cm.d_weights[0], ref_cm.d_weights[0], rtol=1e-12)
                np.testing.assert_allclose(calib[0], calib[2], rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(calib[1], calib[3], rtol=1e-12, atol=1e-15)
                assert surrogate == pytest.approx(ref, rel=1e-12)
        assert seen == {Decision.ACCEPT, Decision.REJECT}


class TestScoreTrials:
    def test_block_boundary_matches_per_trial_forward(self):
        rng = np.random.default_rng(33)
        pair = PolicyPair(
            Policy(Scorer.create([3, 4, 1], seed=1)), Policy(Scorer.create([2, 4, 1], seed=2))
        )
        trials = [
            Trial(f"t{i}", rng.standard_normal(3), rng.standard_normal(2), TB)
            for i in range(SCORE_BLOCK_ROWS + 1)
        ]
        trial_set = TrialSet.from_trials(trials)
        scores = score_trials(pair, trial_set)
        assert [e.trial_id for e in scores] == [t.id for t in trials]
        assert scores.classes is trial_set.classes
        for e, t in zip(scores, trials):
            assert e.asv_score == pytest.approx(pair.asv.scorer.forward(t.x_asv)[0], rel=1e-12)
            assert e.cm_score == pytest.approx(pair.cm.scorer.forward(t.x_cm)[0], rel=1e-12)


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["lr", "soft_temperature"])
    @pytest.mark.parametrize("value", [0.0, -0.05, math.nan, math.inf])
    def test_step_sizes_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_json_dict_lists_every_field_in_order(self):
        cfg = TrainConfig(lr=0.05, seed=3, train_calibration=True)
        assert list(cfg.to_json_dict().items()) == [
            ("lr", 0.05),
            ("batch_size", 64),
            ("epochs", 5),
            ("balanced", True),
            ("seed", 3),
            ("use_reward_baseline", False),
            ("train_calibration", True),
            ("soft_temperature", 1.0),
        ]


def label_pools(data, attribute):
    """The pools as built from label objects: the rows grouped by one enum
    TrialLabel attribute, in the enum's declaration order (the reference
    for class_pools)."""
    pools = {}
    for i, label in enumerate(data.labels):
        pools.setdefault(getattr(label, attribute), []).append(i)
    order = sorted(pools, key=lambda m: list(type(m)).index(m))
    return [np.array(pools[m], dtype=np.intp) for m in order]


def loop_balanced_batch(pools, size, rng):
    """The balanced batch as per-item scalar draws: the class, then the row
    (the reference for _balanced_batch, in indices and generator state)."""
    batch = np.empty(size, dtype=np.intp)
    for k in range(size):
        pool = pools[int(rng.integers(len(pools)))]
        batch[k] = pool[int(rng.integers(len(pool)))]
    return batch


class TestLabelPools:
    def test_tandem_classes_in_fixed_order_whatever_the_data_order(self):
        trials = TrialSet.from_trials(
            Trial(name, np.zeros(1), np.zeros(1), label)
            for name, label in [("sp0", SP), ("nb0", NB), ("sp1", SP), ("tb0", TB), ("nb1", NB)]
        )
        pools = class_pools(trials.classes)
        assert [pool.tolist() for pool in pools] == [[3], [1, 4], [0, 2]]
        assert [trials.take(pool).ids for pool in pools] == [("tb0",), ("nb0", "nb1"), ("sp0", "sp1")]

    def test_one_field_and_missing_values(self):
        trials = [Trial(f"t{i}", np.zeros(1), np.zeros(1), lab) for i, lab in enumerate([SP, NB, TB])]
        by_asv = class_pools(TrialSet.from_trials(trials).classes, "asv")
        assert [pool.tolist() for pool in by_asv] == [[0, 2], [1]]
        by_cm = class_pools(TrialSet.from_trials(trials[1:]).classes, "cm")
        assert [pool.tolist() for pool in by_cm] == [[0, 1]]
        assert class_pools(TrialSet.from_trials([]).classes, "cm") == []

    def test_equal_to_label_pools_on_a_generated_world(self):
        splits = generate_world(default_world_config(seed=5))
        bona = splits.train.take(splits.train.classes != TrialClass.SPOOF)
        for data in (splits.train, splits.dev, splits.eval, bona):
            for system, attribute in ((None, "tandem_class"), ("asv", "asv_label"), ("cm", "cm_label")):
                got, want = class_pools(data.classes, system), label_pools(data, attribute)
                assert len(got) == len(want) > 0
                assert all(g.dtype == np.intp and np.array_equal(g, w) for g, w in zip(got, want))


class TestBalancedBatchDrawExact:
    @pytest.mark.parametrize("sizes", [[1], [2], [700], [1, 2], [2, 2], [2, 700], [1, 700, 3],
                                       [3, 700, 5], [500, 200, 800], [2, 1, 2]])
    @pytest.mark.parametrize("half_used", [False, True])
    def test_equal_to_scalar_loop_in_rows_and_state(self, sizes, half_used):
        offsets = np.cumsum([0] + sizes)
        pools = [np.arange(a, b, dtype=np.intp) * 3 + 1 for a, b in zip(offsets, offsets[1:])]
        for seed in range(25):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            if half_used:  # leaves the second half of a 64-bit output buffered
                rng.integers(5), ref.integers(5)
            for size in (1, 7, 64):
                got = _balanced_batch(pools, size, rng)
                want = loop_balanced_batch(pools, size, ref)
                assert got.dtype == np.intp and np.array_equal(got, want)
                assert rng.bit_generator.state == ref.bit_generator.state

    def test_rejection_check(self):
        # integers(3) rejects a word whose low half of word * 3 is below
        # 2**32 % 3 == 1: only word 0. A power of two never rejects.
        assert lemire_rejects(np.array([5, 0], dtype=np.uint64), 3)
        assert not lemire_rejects(np.array([5, 1, 2**32 - 1], dtype=np.uint64), 3)
        assert not lemire_rejects(np.array([0, 0], dtype=np.uint64), 4)
        # integers(700) rejects below 2**32 % 700 == 396; the word after
        # 2**32 // 700 wraps to a low half of 304.
        wrapped = 2**32 // 700 + 1
        assert 2**32 % 700 == 396 and wrapped * 700 % 2**32 == 304
        assert lemire_rejects(np.array([1, wrapped], dtype=np.uint64), np.array([3, 700]))
        assert not lemire_rejects(np.array([1, 1], dtype=np.uint64), np.array([3, 700]))
        assert not lemire_rejects(np.array([wrapped, 1], dtype=np.uint64), np.array([3, 700]))

    @pytest.mark.parametrize("n_pools", [2, 3])
    def test_rejected_word_falls_back_to_the_loop(self, n_pools):
        # A buffered word of 0 is the next word drawn: the first class draw
        # reads it, and integers(3) rejects it, so the bulk draw must be undone.
        pools = [np.arange(10 * c, 10 * c + 4, dtype=np.intp) for c in range(n_pools)]
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        state = rng.bit_generator.state
        state.update(has_uint32=1, uinteger=0)
        rng.bit_generator.state = ref.bit_generator.state = state
        assert lemire_rejects(rng.integers(0, 2**32, size=1, dtype=np.uint64), n_pools) is (n_pools == 3)
        rng.bit_generator.state = state
        got = _balanced_batch(pools, 64, rng)
        assert np.array_equal(got, loop_balanced_batch(pools, 64, ref))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("rejected", [1, 2])
    def test_forced_rejection_restores_the_state(self, monkeypatch, rejected):
        # The check rejects the class words (call 1) or the row words (call 2).
        pools = [np.arange(0, 5, dtype=np.intp), np.arange(5, 12, dtype=np.intp), np.arange(12, 15, dtype=np.intp)]
        calls = []

        def rejects(words, bounds):
            calls.append(np.broadcast_to(bounds, words.shape).tolist())
            return len(calls) == rejected

        monkeypatch.setattr(tandem_train, "lemire_rejects", rejects)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        got = _balanced_batch(pools, 16, rng)
        want = loop_balanced_batch(pools, 16, ref)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state
        # Each word is checked against its own draw's bound: a class word
        # against the number of pools, a row word against its pool's size.
        assert len(calls) == rejected
        assert calls[0] == [3] * 16
        if rejected == 2:
            assert calls[1] == [len(next(p for p in pools if row in p)) for row in want]


class TestBalancedSampling:
    def test_class_frequencies_near_uniform(self):
        rng = np.random.default_rng(8)
        trials = []
        for i in range(300):
            trials.append(Trial(f"tb{i}", np.zeros(1), np.zeros(1), TB))
        for i in range(50):
            trials.append(Trial(f"nb{i}", np.zeros(1), np.zeros(1), NB))
        for i in range(650):
            trials.append(Trial(f"sp{i}", np.zeros(1), np.zeros(1), SP))
        cfg = TrainConfig(batch_size=64, seed=0)
        counts = {"tb": 0, "nb": 0, "sp": 0}
        total = 0
        trials = TrialSet.from_trials(trials)
        for _ in range(4):  # several epochs to tighten the estimate
            for batch in iterate_batches(trials, cfg, rng):
                for t in batch:
                    counts[t.id[:2]] += 1
                    total += 1
        for key in counts:
            assert abs(counts[key] / total - 1 / 3) <= 0.02

    def test_unbalanced_partitions_data(self):
        rng = np.random.default_rng(9)
        trials = toy_set(rng, n_per_class=10)
        cfg = TrainConfig(batch_size=8, balanced=False, seed=0)
        seen = []
        for batch in iterate_batches(trials, cfg, rng):
            seen.extend(t.id for t in batch)
        assert sorted(seen) == sorted(t.id for t in trials)


class TestFinetune:
    def test_well_fit_scorers_barely_move(self):
        rng = np.random.default_rng(10)
        pair = linear_pair([10.0, 0.0], 0.0, [10.0, 0.0], 0.0)
        trials = toy_trials(rng, n_per_class=8)
        # make the toy set separable along the first coordinate
        trials = [
            Trial(
                t.id,
                np.array([3.0 if t.label.asv_label is AsvLabel.TARGET else -3.0, 0.0]),
                np.array([3.0 if t.label.cm_label is CmLabel.BONAFIDE else -3.0, 0.0]),
                t.label,
            )
            for t in trials
        ]
        before = [w.copy() for w in pair.asv.scorer.weights + pair.cm.scorer.weights]
        cfg = TrainConfig(lr=0.01, batch_size=8, seed=0)
        losses = finetune_epoch(
            pair, TrialSet.from_trials(trials), cfg, np.random.default_rng(0), np.random.default_rng(1)
        )
        after = pair.asv.scorer.weights + pair.cm.scorer.weights
        assert max(losses) < 1e-10
        assert all(np.allclose(a, b, atol=1e-9) for a, b in zip(before, after))

    def test_seen_ids_cover_both_systems_batches(self):
        data = toy_set(np.random.default_rng(20), n_per_class=5)
        cfg = TrainConfig(lr=0.01, batch_size=4, seed=0)
        seen = set()
        pair = linear_pair([0.5, 0.1], 0.0, [0.4, -0.1], 0.0)
        finetune_epoch(pair, data, cfg, np.random.default_rng(1), np.random.default_rng(2), seen)
        per_system = []
        for field, seed in (("asv_label", 1), ("cm_label", 2)):
            pools = label_pools(data, field)
            batches = _minibatches(len(data), pools, cfg, np.random.default_rng(seed))
            per_system.append({i for batch in batches for i in data.take(batch).ids})
        assert per_system[0] != per_system[1]
        assert seen == per_system[0] | per_system[1]

    def test_bce_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        examples = [(rng.normal(0, 1, 4), float(rng.integers(2))) for _ in range(12)]
        x = np.stack([e[0] for e in examples])
        y = np.array([e[1] for e in examples])

        def loss(scorer, tape):
            if tape is not None:
                value, grads = bce_batch(scorer, x, y)
                grads_copy = grads
                tape.add(grads_copy)
                return value
            return bce_batch(scorer, x, y)[0]

        scorer = Scorer.create([4, 5, 1], seed=13)
        assert finite_diff_check(scorer, loss) <= 1e-4

    def test_asv_untouched_by_cm_label_permutation(self):
        rng = np.random.default_rng(12)
        trials = toy_trials(rng, n_per_class=6)
        # permute spoof/bonafide among TARGET trials (keeps labels legal)
        permuted = []
        for t in trials:
            if t.label is TB:
                permuted.append(Trial(t.id, t.x_asv, t.x_cm, SP))
            elif t.label is SP:
                permuted.append(Trial(t.id, t.x_asv, t.x_cm, TB))
            else:
                permuted.append(t)
        cfg = TrainConfig(lr=0.05, batch_size=8, seed=0)

        def run(data):
            pair = linear_pair([0.1, 0.1], 0.0, [0.1, 0.1], 0.0)
            finetune_epoch(
                pair, TrialSet.from_trials(data), cfg, np.random.default_rng(3), np.random.default_rng(4)
            )
            return pair

        a = run(trials)
        b = run(permuted)
        assert all(
            np.array_equal(x, y)
            for x, y in zip(a.asv.scorer.weights, b.asv.scorer.weights)
        )
        # and the CM *is* affected (its pools changed)
        assert any(
            not np.array_equal(x, y)
            for x, y in zip(a.cm.scorer.weights, b.cm.scorer.weights)
        )

    def test_cm_untouched_by_asv_label_permutation(self):
        rng = np.random.default_rng(13)
        trials = toy_trials(rng, n_per_class=6)
        permuted = []
        for t in trials:
            if t.label is TB:
                permuted.append(Trial(t.id, t.x_asv, t.x_cm, NB))
            elif t.label is NB:
                permuted.append(Trial(t.id, t.x_asv, t.x_cm, TB))
            else:
                permuted.append(t)
        cfg = TrainConfig(lr=0.05, batch_size=8, seed=0)

        def run(data):
            pair = linear_pair([0.1, 0.1], 0.0, [0.1, 0.1], 0.0)
            finetune_epoch(
                pair, TrialSet.from_trials(data), cfg, np.random.default_rng(5), np.random.default_rng(6)
            )
            return pair

        a = run(trials)
        b = run(permuted)
        assert all(
            np.array_equal(x, y)
            for x, y in zip(a.cm.scorer.weights, b.cm.scorer.weights)
        )


def two_pass_finetune_epoch(pair, data, cfg, rng_asv, rng_cm):
    """The finetune epoch as one whole ASV pass, then one whole CM pass, each
    through _balanced_batch and bce_batch (balanced sampling only)."""
    n_batches = math.ceil(len(data) / cfg.batch_size)
    losses = {}
    for system, feature, target, field, rng in (
        (pair.asv, lambda t: t.x_asv, lambda t: t.label.asv_label is AsvLabel.TARGET, "asv_label", rng_asv),
        (pair.cm, lambda t: t.x_cm, lambda t: t.label.cm_label is CmLabel.BONAFIDE, "cm_label", rng_cm),
    ):
        labels = list(AsvLabel) if field == "asv_label" else list(CmLabel)
        pools = [np.flatnonzero([getattr(t.label, field) is v for t in data]) for v in labels]
        pools = [pool for pool in pools if pool.size]
        losses[field] = []
        for _ in range(n_batches):
            batch = data.take(_balanced_batch(pools, cfg.batch_size, rng))
            x = np.stack([feature(t) for t in batch])
            y = np.array([float(target(t)) for t in batch])
            loss, tape = bce_batch(system.scorer, x, y)
            system.scorer.sgd_step(tape, cfg.lr, Direction.DESCENT)
            losses[field].append(loss)
    return [(a + c) / 2.0 for a, c in zip(losses["asv_label"], losses["cm_label"])]


def reference_reinforce_epoch(pair, data, spec, cfg, rng):
    """The REINFORCE epoch written out: iterate_batches, reinforce_batch, one
    ascent step per system and, with cfg.train_calibration, per head."""
    losses = []
    for batch in iterate_batches(data, cfg, rng):
        grads = [np.zeros(2), np.zeros(2)] if cfg.train_calibration else [None, None]
        surrogate, tape_asv, tape_cm = reinforce_batch(
            pair, batch, spec, rng, cfg.use_reward_baseline, *grads
        )
        pair.asv.scorer.sgd_step(tape_asv, cfg.lr, Direction.ASCENT)
        pair.cm.scorer.sgd_step(tape_cm, cfg.lr, Direction.ASCENT)
        if cfg.train_calibration:
            for policy, grad in zip((pair.asv, pair.cm), grads):
                c = policy.calibrator
                policy.calibrator = replace(c, a=c.a + cfg.lr * grad[0], b=c.b + cfg.lr * grad[1])
        losses.append(surrogate)
    return losses


def assert_same_weights(a, b):
    def params(pair):
        return [p for s in (pair.asv.scorer, pair.cm.scorer) for p in s.weights + s.biases]

    assert all(np.array_equal(x, y) for x, y in zip(params(a), params(b)))


def hidden_pair(d=2):
    return PolicyPair(
        Policy(Scorer.create([d, 4, 1], seed=21)), Policy(Scorer.create([d, 4, 1], seed=22))
    )


class TestEpochsMatchReference:
    def test_finetune_matches_two_pass_reference_bit_for_bit(self):
        data = toy_set(np.random.default_rng(40), n_per_class=9)
        cfg = TrainConfig(lr=0.3, batch_size=5, seed=0)
        pair, ref = hidden_pair(), hidden_pair()
        for epoch in range(3):
            rngs = [np.random.default_rng(100 + epoch), np.random.default_rng(200 + epoch)]
            ref_rngs = [np.random.default_rng(100 + epoch), np.random.default_rng(200 + epoch)]
            seen = set()
            losses = finetune_epoch(pair, data, cfg, *rngs, seen)
            assert losses == two_pass_finetune_epoch(ref, data, cfg, *ref_rngs)
            assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]
            assert seen and seen <= {t.id for t in data}
            assert_same_weights(pair, ref)
        assert not np.array_equal(pair.asv.scorer.weights[0], hidden_pair().asv.scorer.weights[0])

    @pytest.mark.parametrize(
        "flags",
        [
            {"train_calibration": True},
            {"use_reward_baseline": True},
            {"train_calibration": True, "use_reward_baseline": True},
        ],
    )
    def test_reinforce_extras_match_reference(self, flags):
        data = toy_set(np.random.default_rng(41), n_per_class=8)
        cfg = TrainConfig(lr=0.2, batch_size=6, seed=0, **flags)

        def calibrated():
            pair = hidden_pair()
            pair.asv.calibrator = Calibrator(a=1.2, b=-0.1, prior_log_odds=0.4)
            pair.cm.calibrator = Calibrator(a=0.9, b=0.2, prior_log_odds=-0.6)
            return pair

        pair, ref, plain = calibrated(), calibrated(), calibrated()
        losses = reinforce_epoch(pair, data, TDCF1, cfg, np.random.default_rng(42))
        assert losses == reference_reinforce_epoch(ref, data, TDCF1, cfg, np.random.default_rng(42))
        assert_same_weights(pair, ref)
        assert (pair.asv.calibrator, pair.cm.calibrator) == (ref.asv.calibrator, ref.cm.calibrator)
        # Each extra changes the outcome against a run without it.
        without = replace(cfg, **dict.fromkeys(flags, False))
        reinforce_epoch(plain, data, TDCF1, without, np.random.default_rng(42))
        if cfg.train_calibration:
            assert pair.asv.calibrator != plain.asv.calibrator
            assert pair.cm.calibrator != plain.cm.calibrator
        else:
            assert pair.asv.calibrator == plain.asv.calibrator
        assert not np.array_equal(pair.asv.scorer.weights[0], plain.asv.scorer.weights[0])


def tiny_splits(rng):
    return Splits(
        train=toy_set(rng, n_per_class=10),
        dev=TrialSet.from_trials(
            Trial(f"d_{t.id}", t.x_asv, t.x_cm, t.label)
            for t in toy_trials(rng, n_per_class=10)
        ),
        eval=TrialSet.from_trials(
            Trial(f"e_{t.id}", t.x_asv, t.x_cm, t.label)
            for t in toy_trials(rng, n_per_class=10)
        ),
    )


class TestRunMethod:
    def test_zero_epochs_equals_direct_evaluation(self):
        from tandemopt.metrics import compute_metric_report

        rng = np.random.default_rng(14)
        splits = tiny_splits(rng)
        pair = linear_pair([0.5, 0.1], 0.0, [0.4, -0.1], 0.0)
        cfg = TrainConfig(epochs=0, seed=0)
        record = run_method(Method.FINETUNE, pair, splits, cfg, ASVSPOOF19_COST_PARAMS)
        assert [r.split for r in record.rows] == ["dev", "eval"]
        direct = compute_metric_report(
            score_trials(pair, splits.dev), ASVSPOOF19_COST_PARAMS
        )
        assert record.reports["dev"][0] == direct

    def test_same_seed_same_record(self):
        rng = np.random.default_rng(15)
        splits = tiny_splits(rng)
        pair = linear_pair([0.5, 0.1], 0.0, [0.4, -0.1], 0.0)
        cfg = TrainConfig(epochs=2, batch_size=8, lr=0.01, seed=3)
        a = run_method(Method.REINFORCE, pair, splits, cfg, ASVSPOOF19_COST_PARAMS)
        b = run_method(Method.REINFORCE, pair, splits, cfg, ASVSPOOF19_COST_PARAMS)
        assert [r.to_csv_line() for r in a.rows] == [r.to_csv_line() for r in b.rows]

    def test_pretrained_pair_not_mutated(self):
        rng = np.random.default_rng(16)
        splits = tiny_splits(rng)
        pair = linear_pair([0.5, 0.1], 0.0, [0.4, -0.1], 0.0)
        before = [w.copy() for w in pair.asv.scorer.weights + pair.cm.scorer.weights]
        cfg = TrainConfig(epochs=1, batch_size=8, lr=0.1, seed=0)
        run_method(Method.SOFT_TDCF, pair, splits, cfg, ASVSPOOF19_COST_PARAMS)
        after = pair.asv.scorer.weights + pair.cm.scorer.weights
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_unknown_method_rejected(self):
        rng = np.random.default_rng(17)
        splits = tiny_splits(rng)
        pair = linear_pair([0.5], 0.0, [0.4], 0.0)
        with pytest.raises(ValueError, match="unknown method"):
            run_method("PPO", pair, splits, TrainConfig(), ASVSPOOF19_COST_PARAMS)

    def test_eval_never_trained_on(self):
        rng = np.random.default_rng(18)
        splits = tiny_splits(rng)
        pair = linear_pair([0.5, 0.1], 0.0, [0.4, -0.1], 0.0)
        cfg = TrainConfig(epochs=2, batch_size=8, lr=0.01, seed=1)
        for method in (Method.FINETUNE, Method.REINFORCE, Method.SOFT_TDCF):
            record = run_method(method, pair, splits, cfg, ASVSPOOF19_COST_PARAMS)
            eval_ids = {t.id for t in splits.eval}
            assert record.trained_trial_ids
            assert not (record.trained_trial_ids & eval_ids)

    def test_calibration_method_attaches_heads(self):
        rng = np.random.default_rng(19)
        splits = tiny_splits(rng)
        pair = linear_pair([1.5, 0.3], 0.0, [1.2, -0.3], 0.0)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=0.01, seed=0)
        record = run_method(
            Method.REINFORCE_CALIB, pair, splits, cfg, ASVSPOOF19_COST_PARAMS
        )
        assert record.final_pair.asv.calibrator is not None
        assert record.final_pair.cm.calibrator is not None
        assert record.final_pair.asv.calibrator.a > 0


class TestPolicyPairSerialization:
    def test_round_trip_with_calibrator(self):
        import json

        pair = linear_pair([0.5, 0.1], 0.2, [0.4], -0.2)
        pair.cm.calibrator = Calibrator(a=1.5, b=0.25, prior_log_odds=2.9444389791664403)
        payload = json.loads(json.dumps(pair.to_json_dict()))
        restored = PolicyPair.from_json_dict(payload)
        assert restored.cm.calibrator == pair.cm.calibrator
        assert restored.asv.calibrator is None
        x = np.array([0.3, -0.7])
        assert restored.asv.scorer.forward(x)[0] == pair.asv.scorer.forward(x)[0]
