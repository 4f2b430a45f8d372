"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margin. Tolerances are fixed here and nowhere else.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from tandemopt.calibration import (
    accept_probability,
    calibration_loss_and_grad,
    sigmoid,
    train_calibrator,
)
from tandemopt.cli import main as cli_main
from tandemopt.metrics import (
    compute_metric_report,
    dcf,
    eer,
    filter_attacks,
    min_norm_tdcf,
    tandem_error_rates,
    tdcf,
)
from tandemopt.nn import Activation, Scorer, finite_diff_check
from tandemopt.soft_tdcf import SoftThresholds, soft_tdcf_from_arrays, soft_tdcf_loss
from tandemopt.synthdata import (
    AttackSplit,
    PretrainConfig,
    default_world_config,
    generate_world,
    pretrain_pair,
)
from tandemopt.tandem_train import (
    BENCHMARK_TANDEM_LR,
    Method,
    Policy,
    PolicyPair,
    RewardKind,
    RewardSpec,
    TrainConfig,
    bce_batch,
    policy_accept_probability,
    policy_backward,
    reinforce_batch,
    reward,
    run_method,
    sample_action,
    tandem_action_probability,
)
from tandemopt.types import (
    ASVSPOOF19_COST_PARAMS,
    AsvLabel,
    CmLabel,
    Decision,
    ErrorRates,
    ScoreSet,
    TandemCostParams,
    Trial,
    TrialLabel,
    TrialSet,
    class_codes,
)

TB = TrialLabel(AsvLabel.TARGET, CmLabel.BONAFIDE)
NB = TrialLabel(AsvLabel.NONTARGET, CmLabel.BONAFIDE)
SP = TrialLabel(AsvLabel.TARGET, CmLabel.SPOOF, "A01")
PARAMS = ASVSPOOF19_COST_PARAMS


def _passed(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS{suffix}")


def random_scoreset(rng, n_max=200):
    n_tb = int(rng.integers(2, n_max // 3))
    n_nb = int(rng.integers(2, n_max // 3))
    n_sp = int(rng.integers(2, n_max // 3))
    rows = []
    for i in range(n_tb):
        rows.append((f"tb{i}", TB, float(rng.normal(1, 1)), float(rng.normal(1, 1))))
    for i in range(n_nb):
        rows.append((f"nb{i}", NB, float(rng.normal(-1, 1)), float(rng.normal(1, 1))))
    for i in range(n_sp):
        rows.append((f"sp{i}", SP, float(rng.normal(0.5, 1)), float(rng.normal(-1, 1))))
    return ScoreSet.from_rows(rows)


def oracle_candidates(values: np.ndarray) -> np.ndarray:
    distinct = np.unique(values)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate(([distinct[0] - 1.0], mids, [distinct[-1] + 1.0]))


def oracle_eer(pos: np.ndarray, neg: np.ndarray):
    """Exhaustive sweep with direct boolean counting per candidate."""
    taus = oracle_candidates(np.concatenate([pos, neg]))
    p_miss = np.mean(pos[None, :] <= taus[:, None], axis=1)
    p_fa = np.mean(neg[None, :] > taus[:, None], axis=1)
    idx = int(np.argmin(np.abs(p_miss - p_fa)))
    value = (p_miss[idx] + p_fa[idx]) / 2.0
    return float(value), float(taus[idx]), float(p_miss[idx]), float(p_fa[idx])


def oracle_min_norm_tdcf(scores: ScoreSet, p: TandemCostParams):
    """Per-candidate recount of the four tandem rates, then the cost formula,
    normalized by the best trivial gate."""
    tb_asv = np.array([e.asv_score for e in scores if e.label.is_target_bonafide])
    tb_cm = np.array([e.cm_score for e in scores if e.label.is_target_bonafide])
    nb_asv = np.array([e.asv_score for e in scores if e.label.is_nontarget_bonafide])
    nb_cm = np.array([e.cm_score for e in scores if e.label.is_nontarget_bonafide])
    sp_asv = np.array([e.asv_score for e in scores if e.label.is_spoof])
    sp_cm = np.array([e.cm_score for e in scores if e.label.is_spoof])
    tau_asv = oracle_eer(tb_asv, nb_asv)[1]

    def cost_at(tau_cm):
        p_d = np.mean(tb_cm <= tau_cm)
        p_a = np.mean((tb_cm > tau_cm) & (tb_asv <= tau_asv))
        p_b = np.mean((nb_cm > tau_cm) & (nb_asv > tau_asv))
        p_c = np.mean((sp_cm > tau_cm) & (sp_asv > tau_asv))
        return (
            p.c_miss * p.rho_tar * (p_a + p_d)
            + p.c_fa * p.rho_non * p_b
            + p.c_fa_spoof * p.rho_spoof * p_c
        )

    all_cm = np.concatenate([tb_cm, nb_cm, sp_cm])
    accept_all = cost_at(float(all_cm.min()) - 1.0)
    normalizer = min(accept_all, p.c_miss * p.rho_tar)
    best_value, best_tau = None, None
    for tau_cm in oracle_candidates(all_cm):
        value = cost_at(tau_cm)
        if normalizer > 0:
            value = value / normalizer
        if best_value is None or value < best_value:
            best_value, best_tau = value, float(tau_cm)
    return best_value, best_tau, tau_asv


# ---------------------------------------------------------------------------


def test_criterion_01_min_tdcf_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        s = random_scoreset(rng)
        value, tau_cm, tau_asv = min_norm_tdcf(s, PARAMS)
        o_value, o_tau_cm, o_tau_asv = oracle_min_norm_tdcf(s, PARAMS)
        worst = max(worst, abs(value - o_value))
        assert abs(value - o_value) <= 1e-12
        assert tau_cm == o_tau_cm
        assert tau_asv == o_tau_asv
    elapsed = time.time() - start
    assert elapsed < 30.0
    _passed(1, "min t-DCF oracle equivalence", f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_eer_oracle_equivalence():
    rng = np.random.default_rng(102)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        n_pos = int(rng.integers(2, 120))
        n_neg = int(rng.integers(2, 120))
        pos = rng.normal(0.4, 1.1, n_pos)
        neg = rng.normal(-0.4, 0.9, n_neg)
        scores = [(float(v), True) for v in pos] + [(float(v), False) for v in neg]
        value, tau = eer(scores)
        o_value, o_tau, o_miss, o_fa = oracle_eer(pos, neg)
        worst = max(worst, abs(value - o_value))
        assert abs(value - o_value) <= 1e-12
        assert tau == o_tau
        assert abs(o_miss - o_fa) <= 1.0 / min(n_pos, n_neg) + 1e-12
    elapsed = time.time() - start
    _passed(2, "EER oracle equivalence", f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_gradient_checks():
    rng = np.random.default_rng(103)
    start = time.time()
    worst = {"soft_tdcf": 0.0, "cross_entropy": 0.0, "calibration": 0.0, "pg_surrogate": 0.0}

    def make_trials(n_per_class, d):
        trials = []
        for i in range(n_per_class):
            trials.append(Trial(f"tb{i}", rng.normal(0.5, 1, d), rng.normal(0.5, 1, d), TB))
            trials.append(Trial(f"nb{i}", rng.normal(-0.5, 1, d), rng.normal(0.5, 1, d), NB))
            trials.append(Trial(f"sp{i}", rng.normal(0.5, 1, d), rng.normal(-0.5, 1, d), SP))
        return trials

    for _ in range(20):
        d = int(rng.integers(2, 5))
        trials = make_trials(int(rng.integers(2, 5)), d)
        seed_a, seed_b = int(rng.integers(10_000)), int(rng.integers(10_000))

        # soft tandem cost through a scorer
        other = Scorer.create([d, 4, 1], seed=seed_b)
        taus = SoftThresholds(float(rng.normal()), float(rng.normal()))
        cm_scores = np.array([other.forward(t.x_cm)[0] for t in trials])
        classes = class_codes(t.label for t in trials)

        def soft_loss(scorer, tape):
            caches, scores = [], []
            for t in trials:
                score, cache = scorer.forward(t.x_asv)
                scores.append(score)
                caches.append(cache)
            value, grads = soft_tdcf_from_arrays(
                np.array(scores), cm_scores, classes, taus, PARAMS
            )
            if tape is not None:
                for c, g in zip(caches, grads.d_asv_scores):
                    scorer.backward(c, float(g), tape)
            return value

        err = finite_diff_check(Scorer.create([d, 4, 1], seed=seed_a), soft_loss)
        worst["soft_tdcf"] = max(worst["soft_tdcf"], err)
        assert err <= 1e-4

        # binary cross-entropy
        x = np.stack([t.x_cm for t in trials])
        y = np.array([1.0 if not t.label.is_spoof else 0.0 for t in trials])

        def ce_loss(scorer, tape):
            value, grads = bce_batch(scorer, x, y)
            if tape is not None:
                tape.add(grads)
            return value

        err = finite_diff_check(Scorer.create([d, 4, 1], seed=seed_b), ce_loss)
        worst["cross_entropy"] = max(worst["cross_entropy"], err)
        assert err <= 1e-4

        # calibration loss in (a, b)
        pos = rng.normal(1, 1, 20)
        neg = rng.normal(-1, 1, 25)
        a, b = float(rng.uniform(0.3, 2.0)), float(rng.normal())
        plo = float(rng.normal())
        w_pos, w_neg = 0.7 / pos.size, 0.3 / neg.size
        _, d_a, d_b = calibration_loss_and_grad(a, b, pos, neg, w_pos, w_neg, plo)
        eps = 1e-5
        for delta, analytic in (((eps, 0.0), d_a), ((0.0, eps), d_b)):
            lp = calibration_loss_and_grad(a + delta[0], b + delta[1], pos, neg, w_pos, w_neg, plo)[0]
            lm = calibration_loss_and_grad(a - delta[0], b - delta[1], pos, neg, w_pos, w_neg, plo)[0]
            numeric = (lp - lm) / (2 * eps)
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            worst["calibration"] = max(worst["calibration"], err)
            assert err <= 1e-4

        # policy-gradient surrogate with frozen sampled actions
        pair = PolicyPair(
            Policy(Scorer.create([d, 4, 1], seed=seed_a + 1)),
            Policy(Scorer.create([d, 4, 1], seed=seed_b + 1)),
        )
        spec = RewardSpec(RewardKind.PLUS_MINUS_ONE)
        frozen = []
        for t in trials:
            p_asv, _ = policy_accept_probability(pair.asv, t.x_asv)
            p_cm, _ = policy_accept_probability(pair.cm, t.x_cm)
            frozen.append(
                (t, sample_action(p_asv, rng)[0], sample_action(p_cm, rng)[0])
            )

        def pg_surrogate(asv_scorer, tape):
            probe = PolicyPair(Policy(asv_scorer), pair.cm)
            total = 0.0
            n = len(frozen)
            for t, a_asv, a_cm in frozen:
                p_asv, cache = policy_accept_probability(probe.asv, t.x_asv)
                p_cm, _ = policy_accept_probability(probe.cm, t.x_cm)
                a_t, p_t = tandem_action_probability(a_asv, a_cm, p_asv, p_cm)
                r = reward(spec, a_t, t.label)
                total += math.log(p_t) * r / n
                if tape is not None:
                    if a_t is Decision.ACCEPT:
                        d_p = r / (n * p_asv)
                    else:
                        d_p = -r * p_cm / (n * p_t)
                    policy_backward(probe.asv, cache, d_p, tape)
            return total

        err = finite_diff_check(pair.asv.scorer, pg_surrogate)
        worst["pg_surrogate"] = max(worst["pg_surrogate"], err)
        assert err <= 1e-4

    elapsed = time.time() - start
    assert elapsed < 60.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _passed(3, "gradient checks", f"worst rel errs: {detail}; {elapsed:.1f}s")


def test_criterion_04_soft_hard_consistency():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        rows = []
        for i in range(int(rng.integers(2, 8))):
            rows.append((f"tb{i}", TB, float(rng.choice([-1, 1]) * rng.uniform(30, 60)),
                         float(rng.choice([-1, 1]) * rng.uniform(30, 60))))
        for i in range(int(rng.integers(2, 8))):
            rows.append((f"nb{i}", NB, float(rng.choice([-1, 1]) * rng.uniform(30, 60)),
                         float(rng.choice([-1, 1]) * rng.uniform(30, 60))))
        for i in range(int(rng.integers(2, 8))):
            rows.append((f"sp{i}", SP, float(rng.choice([-1, 1]) * rng.uniform(30, 60)),
                         float(rng.choice([-1, 1]) * rng.uniform(30, 60))))
        s = ScoreSet.from_rows(rows)
        soft, _ = soft_tdcf_loss(s, SoftThresholds(0.0, 0.0), PARAMS)
        hard = tdcf(tandem_error_rates(s, 0.0, 0.0), PARAMS)
        worst = max(worst, abs(soft - hard))
        assert abs(soft - hard) <= 1e-6
    _passed(4, "soft-to-hard consistency", f"worst gap {worst:.2e}")


def test_criterion_05_pg_unbiasedness():
    start = time.time()
    w_asv, b_asv = np.array([0.2, 0.1]), 0.05
    w_cm, b_cm = np.array([0.15, -0.1]), -0.05
    trials = [
        Trial("t1", np.array([1.0, 0.8]), np.array([0.9, -0.7]), TB),
        Trial("t2", np.array([0.7, 1.2]), np.array([1.1, -0.9]), TB),
        Trial("t3", np.array([1.1, 0.6]), np.array([0.8, -1.0]), TB),
        Trial("t4", np.array([-0.6, -1.1]), np.array([-1.0, 0.6]), SP),
    ]
    spec = RewardSpec(RewardKind.PLUS_MINUS_ONE)
    n_trials = len(trials)

    # exact gradient of the expected mean reward by enumerating the four
    # joint actions per trial; for a linear scorer, d(score)/d(params) is
    # (x, 1) in closed form
    g_asv, g_cm = np.zeros(3), np.zeros(3)
    for t in trials:
        s1 = float(w_asv @ t.x_asv + b_asv)
        s2 = float(w_cm @ t.x_cm + b_cm)
        p1, p2 = float(sigmoid(s1)), float(sigmoid(s2))
        d1 = p1 * (1 - p1) * np.array([t.x_asv[0], t.x_asv[1], 1.0])
        d2 = p2 * (1 - p2) * np.array([t.x_cm[0], t.x_cm[1], 1.0])
        for a1 in (1, 0):
            for a2 in (1, 0):
                pi1 = p1 if a1 else 1.0 - p1
                pi2 = p2 if a2 else 1.0 - p2
                dpi1 = d1 if a1 else -d1
                dpi2 = d2 if a2 else -d2
                action = Decision.ACCEPT if (a1 and a2) else Decision.REJECT
                r = reward(spec, action, t.label)
                g_asv += r * pi2 * dpi1 / n_trials
                g_cm += r * pi1 * dpi2 / n_trials

    pair = PolicyPair(
        Policy(Scorer([2, 1], Activation.TANH, [w_asv[None, :].copy()], [np.array([b_asv])])),
        Policy(Scorer([2, 1], Activation.TANH, [w_cm[None, :].copy()], [np.array([b_cm])])),
    )
    rng = np.random.default_rng(1234)
    n = 100_000
    acc_asv, acc_cm = np.zeros(3), np.zeros(3)
    batch = TrialSet.from_trials(trials)
    for _ in range(n):
        _, tape_asv, tape_cm = reinforce_batch(pair, batch, spec, rng)
        acc_asv += np.concatenate([tape_asv.d_weights[0].ravel(), tape_asv.d_biases[0]])
        acc_cm += np.concatenate([tape_cm.d_weights[0].ravel(), tape_cm.d_biases[0]])
    rel_asv = np.abs(acc_asv / n - g_asv) / np.abs(g_asv)
    rel_cm = np.abs(acc_cm / n - g_cm) / np.abs(g_cm)
    worst = float(max(rel_asv.max(), rel_cm.max()))
    elapsed = time.time() - start
    assert worst <= 0.01
    assert elapsed < 120.0
    _passed(5, "policy-gradient unbiasedness", f"worst coordinate {worst:.2%}, {elapsed:.0f}s")


def test_criterion_06_reward_table():
    p = PARAMS
    expected = {
        (RewardKind.TDCF_SINGLE, "tb", Decision.ACCEPT): 0.0,
        (RewardKind.TDCF_SINGLE, "tb", Decision.REJECT): -p.c_miss * p.rho_tar,
        (RewardKind.TDCF_SINGLE, "nb", Decision.ACCEPT): -p.c_fa * p.rho_non,
        (RewardKind.TDCF_SINGLE, "nb", Decision.REJECT): 0.0,
        (RewardKind.TDCF_SINGLE, "sp", Decision.ACCEPT): -p.c_fa_spoof * p.rho_spoof,
        (RewardKind.TDCF_SINGLE, "sp", Decision.REJECT): 0.0,
        (RewardKind.PLUS_MINUS_ONE, "tb", Decision.ACCEPT): 1.0,
        (RewardKind.PLUS_MINUS_ONE, "tb", Decision.REJECT): -1.0,
        (RewardKind.PLUS_MINUS_ONE, "nb", Decision.ACCEPT): -1.0,
        (RewardKind.PLUS_MINUS_ONE, "nb", Decision.REJECT): 1.0,
        (RewardKind.PLUS_MINUS_ONE, "sp", Decision.ACCEPT): -1.0,
        (RewardKind.PLUS_MINUS_ONE, "sp", Decision.REJECT): 1.0,
    }
    labels = {"tb": TB, "nb": NB, "sp": SP}
    assert len(expected) == 12
    for (kind, label_key, action), value in expected.items():
        spec = RewardSpec(kind, p if kind is RewardKind.TDCF_SINGLE else None)
        assert reward(spec, action, labels[label_key]) == value
    assert expected[(RewardKind.TDCF_SINGLE, "tb", Decision.REJECT)] == pytest.approx(-0.9405)
    _passed(6, "single-trial reward table", "12/12 cases exact")


def test_criterion_07_calibration_recovery():
    rng = np.random.default_rng(107)
    # scores are the true LLR of N(+1,1) vs N(-1,1): LLR(x) = 2x
    pos = 2.0 * rng.normal(1.0, 1.0, 5000)
    neg = 2.0 * rng.normal(-1.0, 1.0, 5000)
    rows = [(float(s), True) for s in pos] + [(float(s), False) for s in neg]
    cal = train_calibrator(rows, (0.5, 0.5))
    assert 0.9 <= cal.a <= 1.1
    assert -0.1 <= cal.b <= 0.1

    rows10 = [(10.0 * s, y) for s, y in rows]
    cal10 = train_calibrator(rows10, (0.5, 0.5))
    assert cal10.a == pytest.approx(cal.a / 10.0, rel=0.05)

    # decisions are invariant: same accept/reject on every trial
    for s, _ in rows[:500]:
        assert (accept_probability(cal, s) > 0.5) == (accept_probability(cal10, 10.0 * s) > 0.5)
    _passed(
        7,
        "calibration recovery",
        f"a {cal.a:.4f}, b {cal.b:+.4f}, scaled a ratio {cal10.a / cal.a:.4f}",
    )


@pytest.fixture(scope="module")
def benchmark_runs():
    """The six-method comparison on the default benchmark, three seeds."""
    start = time.time()
    cfg = default_world_config(seed=7)
    splits = generate_world(cfg)
    pair = pretrain_pair(splits.train, PretrainConfig(seed=0))
    outliers = {a.attack_id for a in cfg.attacks if a.split is AttackSplit.OUTLIER}
    results = {}
    for method in Method:
        for seed in (0, 1, 2):
            run_cfg = TrainConfig(seed=seed, lr=BENCHMARK_TANDEM_LR)
            record = run_method(method, pair, splits, run_cfg, PARAMS, exclude_attacks=outliers)
            results[(method, seed)] = record
    return results, time.time() - start


def test_criterion_08_benchmark_reproduction(benchmark_runs):
    results, elapsed = benchmark_runs

    def rel_improvement(record, split):
        initial = record.initial_report(split).min_norm_tdcf
        final = record.final_report(split).min_norm_tdcf
        return (initial - final) / initial

    # (a) cost-weighted REINFORCE improves eval-without-outliers by >= 10%
    # relative in at least 2 of 3 seeds
    gains = [rel_improvement(results[(Method.REINFORCE_TDCF, s)], "eval_filtered") for s in (0, 1, 2)]
    assert sum(g >= 0.10 for g in gains) >= 2

    # (b) every method improves the (seed-averaged) dev cost
    for method in Method:
        initial = np.mean(
            [results[(method, s)].initial_report("dev").min_norm_tdcf for s in (0, 1, 2)]
        )
        final = np.mean(
            [results[(method, s)].final_report("dev").min_norm_tdcf for s in (0, 1, 2)]
        )
        assert final < initial, f"{method.value} did not improve dev"

    # (c) the finetune baseline overfits: its dev-vs-eval improvement margin
    # exceeds the plain REINFORCE margin on every seed
    for s in (0, 1, 2):
        ft = results[(Method.FINETUNE, s)]
        rf = results[(Method.REINFORCE, s)]
        margin_ft = rel_improvement(ft, "dev") - rel_improvement(ft, "eval_filtered")
        margin_rf = rel_improvement(rf, "dev") - rel_improvement(rf, "eval_filtered")
        assert margin_ft > margin_rf

    assert elapsed < 600.0
    _passed(
        8,
        "benchmark qualitative reproduction",
        f"REINFORCE_TDCF eval-no-outlier gains {[f'{g:+.1%}' for g in gains]}, {elapsed:.0f}s",
    )


def test_benchmark_pretraining_regression(benchmark_runs):
    """Frozen fixture for the default benchmark: the pretrained systems must
    clear the dev quality bar (CM EER < 5%, ASV EER < 15%)."""
    results, _ = benchmark_runs
    initial = results[(Method.FINETUNE, 0)].initial_report("dev")
    assert initial.cm_eer < 0.05
    assert initial.asv_eer < 0.15
    # recorded values for the shipped seed; loose tolerance guards drift
    assert initial.cm_eer == pytest.approx(0.036, abs=0.01)
    assert initial.asv_eer == pytest.approx(0.075, abs=0.02)


def test_benchmark_tdcf_methods_improve(benchmark_runs):
    """The cost-weighted variants improve over the initial systems in at
    least 2 of 3 seeds: dev for the plain variant, filtered eval for the
    calibrated one."""
    results, _ = benchmark_runs
    dev_gains = [
        results[(Method.REINFORCE_TDCF, s)].initial_report("dev").min_norm_tdcf
        - results[(Method.REINFORCE_TDCF, s)].final_report("dev").min_norm_tdcf
        for s in (0, 1, 2)
    ]
    assert sum(g > 0 for g in dev_gains) >= 2
    eval_gains = [
        results[(Method.REINFORCE_CALIB_TDCF, s)].initial_report("eval_filtered").min_norm_tdcf
        - results[(Method.REINFORCE_CALIB_TDCF, s)].final_report("eval_filtered").min_norm_tdcf
        for s in (0, 1, 2)
    ]
    assert sum(g > 0 for g in eval_gains) >= 2


def test_criterion_09_degeneracy_identity():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(1000):
        p_d = float(rng.uniform())
        p_a = float(rng.uniform(0, 1.0 - p_d))
        rates = ErrorRates(p_a, float(rng.uniform()), float(rng.uniform()), p_d)
        priors = rng.dirichlet([1.0, 1.0, 1.0])
        c_miss = float(rng.uniform(0.1, 5.0))
        c_fa = float(rng.uniform(0.1, 20.0))
        p = TandemCostParams(c_miss, c_fa, c_fa, *(float(x) for x in priors))
        rho_neg = p.rho_non + p.rho_spoof
        merged_fa = (p.rho_non * rates.p_b + p.rho_spoof * rates.p_c) / rho_neg
        merged_fa = min(max(merged_fa, 0.0), 1.0)
        expected = dcf(rates.p_a + rates.p_d, merged_fa, c_miss, c_fa, p.rho_tar)
        gap = abs(tdcf(rates, p) - expected)
        worst = max(worst, gap)
        assert gap <= 1e-12
    _passed(9, "t-DCF/DCF degeneracy identity", f"worst gap {worst:.2e}")


def test_criterion_10_cli_pipeline_reproducibility(tmp_path):
    config = tmp_path / "world.cfg"
    config.write_text(
        "seed = 5\n"
        "n_speakers_train = 8\n"
        "n_speakers_dev = 5\n"
        "n_speakers_eval = 8\n"
        "trials_per_class_train = 60\n"
        "trials_per_class_dev = 60\n"
        "trials_per_class_eval = 60\n"
        "attacks = A01:seen:0.9:0.8, A02:seen:0.85:0.7, "
        "A07:unseen:0.88:0.72, A17:outlier:0.2:0.1\n"
    )

    def pipeline(root: Path) -> dict[str, bytes]:
        data = root / "data"
        ckpt = root / "pretrained.json"
        runs = root / "runs"
        report = root / "report"
        assert cli_main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
        assert cli_main(
            ["pretrain", "--data", str(data), "--out", str(ckpt),
             "--asv-max-epochs", "10", "--cm-max-epochs", "4"]
        ) == 0
        assert cli_main(
            ["train-tandem", "--method", "REINFORCE_TDCF", "--ckpt", str(ckpt),
             "--data", str(data), "--seeds", "2", "--epochs", "2",
             "--exclude-attacks", "A17", "--out", str(runs)]
        ) == 0
        assert cli_main(
            ["evaluate", "--ckpt", str(runs / "REINFORCE_TDCF_seed0_checkpoint.json"),
             "--data", str(data), "--out", str(root / "eval.json")]
        ) == 0
        assert cli_main(["report", "--runs", str(runs), "--out", str(report)]) == 0
        out = {}
        for path in sorted(root.rglob("*")):
            if path.is_file() and path != config:
                out[str(path.relative_to(root))] = path.read_bytes()
        return out

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    _passed(10, "CLI pipeline reproducibility", f"{len(first)} files byte-identical")
