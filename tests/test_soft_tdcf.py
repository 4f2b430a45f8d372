import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tandemopt.calibration import sigmoid
from tandemopt.metrics import tandem_error_rates, tdcf
from tandemopt.nn import Scorer, finite_diff_check
from tandemopt.soft_tdcf import (
    SoftThresholds,
    soft_rates,
    soft_tdcf_from_arrays,
    soft_tdcf_loss,
    soft_tdcf_train_step,
)
from tandemopt.types import (
    ASVSPOOF19_COST_PARAMS,
    AsvLabel,
    CmLabel,
    MissingClassError,
    ScoreSet,
    TandemCostParams,
    Trial,
    TrialLabel,
    TrialClass,
    TrialSet,
    class_codes,
)

TB = TrialLabel(AsvLabel.TARGET, CmLabel.BONAFIDE)
NB = TrialLabel(AsvLabel.NONTARGET, CmLabel.BONAFIDE)
SP = TrialLabel(AsvLabel.TARGET, CmLabel.SPOOF, "A01")


SCORE = st.floats(-100.0, 100.0, allow_nan=False)


@st.composite
def cost_params(draw):
    costs = [float(draw(st.integers(0, 10))) for _ in range(3)]
    weights = [draw(st.integers(1, 100)) for _ in range(3)]
    total = sum(weights)
    rho_tar, rho_non = weights[0] / total, weights[1] / total
    return TandemCostParams(*costs, rho_tar, rho_non, 1.0 - rho_tar - rho_non)


COST_PARAMS = cost_params()


def random_batch(rng, n_per_class=4, spread=1.0):
    rows = []
    for i in range(n_per_class):
        rows.append((f"tb{i}", TB, float(rng.normal(1, spread)), float(rng.normal(1, spread))))
        rows.append((f"nb{i}", NB, float(rng.normal(-1, spread)), float(rng.normal(1, spread))))
        rows.append((f"sp{i}", SP, float(rng.normal(1, spread)), float(rng.normal(-1, spread))))
    return ScoreSet.from_rows(rows)


class TestSoftRates:
    def test_scores_at_threshold_give_half(self):
        scores = [(1.0, True), (1.0, True), (1.0, False)]
        assert soft_rates(scores, 1.0) == (0.5, 0.5)

    def test_saturated_matches_hard(self):
        scores = [(31.0, True), (40.0, True), (-31.0, False), (-35.0, False)]
        p_miss, p_fa = soft_rates(scores, 0.0)
        assert p_miss == pytest.approx(0.0, abs=1e-12)
        assert p_fa == pytest.approx(0.0, abs=1e-12)

    def test_sigmoid_symmetry_pair(self):
        p_miss, _ = soft_rates([(0.0, True), (2.0, True), (5.0, False)], 1.0)
        assert p_miss == pytest.approx(0.5)  # (sig(1) + sig(-1)) / 2

    def test_missing_class(self):
        with pytest.raises(MissingClassError):
            soft_rates([(1.0, True)], 0.0)


class TestSoftTdcfLoss:
    def test_zero_costs_zero_loss_and_gradients(self):
        rng = np.random.default_rng(0)
        batch = random_batch(rng)
        p = TandemCostParams(0.0, 0.0, 0.0, 0.9405, 0.0095, 0.05)
        loss, grads = soft_tdcf_loss(batch, SoftThresholds(0.0, 0.0), p)
        assert loss == 0.0
        assert np.all(grads.d_asv_scores == 0.0)
        assert np.all(grads.d_cm_scores == 0.0)
        assert grads.d_tau_asv == 0.0 and grads.d_tau_cm == 0.0

    def test_saturated_batch_matches_hard_tdcf(self):
        rows = [
            ("tb0", TB, 30.0, 30.0),
            ("tb1", TB, 32.0, 31.0),
            ("nb0", NB, -30.0, 30.0),
            ("sp0", SP, 30.0, -30.0),
        ]
        s = ScoreSet.from_rows(rows)
        taus = SoftThresholds(0.0, 0.0)
        loss, _ = soft_tdcf_loss(s, taus, ASVSPOOF19_COST_PARAMS)
        hard = tdcf(tandem_error_rates(s, 0.0, 0.0), ASVSPOOF19_COST_PARAMS)
        assert loss < 1e-9
        assert loss == pytest.approx(hard, abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        p = ASVSPOOF19_COST_PARAMS
        for _ in range(10):
            batch = random_batch(rng)
            taus = SoftThresholds(float(rng.normal()), float(rng.normal()))
            asv = np.array([e.asv_score for e in batch])
            cm = np.array([e.cm_score for e in batch])
            classes = batch.classes
            loss, grads = soft_tdcf_from_arrays(asv, cm, classes, taus, p)
            eps = 1e-6
            for i in range(len(classes)):
                for arr, g in ((asv, grads.d_asv_scores), (cm, grads.d_cm_scores)):
                    arr[i] += eps
                    lp = soft_tdcf_from_arrays(asv, cm, classes, taus, p)[0]
                    arr[i] -= 2 * eps
                    lm = soft_tdcf_from_arrays(asv, cm, classes, taus, p)[0]
                    arr[i] += eps
                    fd = (lp - lm) / (2 * eps)
                    assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-9)
            for attr, g in (("tau_asv", grads.d_tau_asv), ("tau_cm", grads.d_tau_cm)):
                setattr(taus, attr, getattr(taus, attr) + eps)
                lp = soft_tdcf_from_arrays(asv, cm, classes, taus, p)[0]
                setattr(taus, attr, getattr(taus, attr) - 2 * eps)
                lm = soft_tdcf_from_arrays(asv, cm, classes, taus, p)[0]
                setattr(taus, attr, getattr(taus, attr) + eps)
                assert g == pytest.approx((lp - lm) / (2 * eps), rel=1e-4, abs=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        p = ASVSPOOF19_COST_PARAMS
        cap = p.c_miss * p.rho_tar + p.c_fa * p.rho_non + p.c_fa_spoof * p.rho_spoof
        for _ in range(50):
            batch = random_batch(rng, spread=3.0)
            loss, _ = soft_tdcf_loss(batch, SoftThresholds(0.0, 0.0), p)
            assert 0.0 < loss < cap

    def test_sharpness_limit_matches_hard(self):
        # scaling scores and thresholds by k sharpens the sigmoids toward the
        # hard indicators
        rng = np.random.default_rng(3)
        batch = random_batch(rng, n_per_class=8)
        # enforce a minimum gap from the thresholds so saturation is complete
        rows = [
            (e.trial_id, e.label,
             float(np.sign(e.asv_score) * (abs(e.asv_score) + 0.5)),
             float(np.sign(e.cm_score) * (abs(e.cm_score) + 0.5)))
            for e in batch
        ]
        batch = ScoreSet.from_rows(rows)
        hard = tdcf(tandem_error_rates(batch, 0.0, 0.0), ASVSPOOF19_COST_PARAMS)
        k = 100.0
        scaled = ScoreSet.from_rows(
            [(e.trial_id, e.label, k * e.asv_score, k * e.cm_score) for e in batch]
        )
        soft, _ = soft_tdcf_loss(scaled, SoftThresholds(0.0, 0.0), ASVSPOOF19_COST_PARAMS)
        assert soft == pytest.approx(hard, abs=1e-6)

    def test_temperature_rescales_margins(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng)
        loss_sharp, _ = soft_tdcf_loss(
            batch, SoftThresholds(0.0, 0.0), ASVSPOOF19_COST_PARAMS, temperature=0.1
        )
        scaled = ScoreSet.from_rows(
            [(e.trial_id, e.label, e.asv_score / 0.1, e.cm_score / 0.1) for e in batch]
        )
        loss_scaled, _ = soft_tdcf_loss(
            scaled, SoftThresholds(0.0, 0.0), ASVSPOOF19_COST_PARAMS, temperature=1.0
        )
        assert loss_sharp == pytest.approx(loss_scaled, rel=1e-12)

    def test_missing_class(self):
        rows = [("tb0", TB, 1.0, 1.0), ("nb0", NB, -1.0, 1.0)]
        with pytest.raises(MissingClassError):
            soft_tdcf_loss(ScoreSet.from_rows(rows), SoftThresholds(0, 0), ASVSPOOF19_COST_PARAMS)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(TrialClass), SCORE, SCORE),
            min_size=3, max_size=30,
        ),
        tau_asv=SCORE,
        tau_cm=SCORE,
        p=COST_PARAMS,
    )
    def test_matches_hard_tdcf_at_a_fortieth_of_the_least_margin(self, rows, tau_asv, tau_cm, p):
        # With every score at least delta from its threshold, T = delta / 40
        # puts every sigmoid within sigmoid(-40) of its hard indicator; a
        # trial's term is off by at most two of those, weighted so that each
        # class's terms sum to its cost weight.
        classes = np.array([c for c, _, _ in rows])
        assume(np.bincount(classes, minlength=len(TrialClass)).all())
        asv, cm = np.array([a for _, a, _ in rows]), np.array([c for _, _, c in rows])
        delta = min(np.abs(asv - tau_asv).min(), np.abs(cm - tau_cm).min())
        assume(delta > 1e-9)
        taus = SoftThresholds(tau_asv, tau_cm)
        soft, _ = soft_tdcf_from_arrays(asv, cm, classes, taus, p, temperature=delta / 40.0)
        labels = dict(zip(TrialClass, (TB, NB, SP)))
        s = ScoreSet.from_rows((f"t{i}", labels[c], a, m) for i, (c, a, m) in enumerate(rows))
        hard = tdcf(tandem_error_rates(s, tau_asv, tau_cm), p)
        weight = float(p.class_weights.sum())
        rounding = 8 * len(rows) * np.finfo(np.float64).eps * weight
        assert abs(soft - hard) <= 2.0 * weight * sigmoid(-40.0) + rounding


def make_trials(rng, n_per_class=8, d=3):
    trials = []
    for i in range(n_per_class):
        trials.append(Trial(f"tb{i}", rng.normal(1, 1, d), rng.normal(1, 1, d), TB))
        trials.append(Trial(f"nb{i}", rng.normal(-1, 1, d), rng.normal(1, 1, d), NB))
        trials.append(Trial(f"sp{i}", rng.normal(1, 1, d), rng.normal(-1, 1, d), SP))
    return TrialSet.from_trials(trials)


class TestTrainStep:
    def test_zero_lr_keeps_parameters(self):
        rng = np.random.default_rng(5)
        trials = make_trials(rng)
        asv = Scorer.create([3, 4, 1], seed=0)
        cm = Scorer.create([3, 4, 1], seed=1)
        w_before = [w.copy() for w in asv.weights + cm.weights]
        taus = SoftThresholds(0.0, 0.0)
        loss = soft_tdcf_train_step(asv, cm, taus, trials, ASVSPOOF19_COST_PARAMS, lr=0.0)
        assert loss > 0
        assert all(np.array_equal(a, b) for a, b in zip(w_before, asv.weights + cm.weights))
        assert taus.tau_asv == 0.0 and taus.tau_cm == 0.0

    def test_fixed_batch_loss_decreases_monotonically(self):
        rng = np.random.default_rng(6)
        trials = make_trials(rng, n_per_class=12)
        asv = Scorer.create([3, 4, 1], seed=2)
        cm = Scorer.create([3, 4, 1], seed=3)
        taus = SoftThresholds(0.0, 0.0)
        losses = [
            soft_tdcf_train_step(asv, cm, taus, trials, ASVSPOOF19_COST_PARAMS, lr=0.05)
            for _ in range(51)
        ]
        assert all(b < a for a, b in zip(losses[:-1], losses[1:]))

    def test_both_scorers_receive_gradient(self):
        rng = np.random.default_rng(7)
        trials = make_trials(rng)
        asv = Scorer.create([3, 4, 1], seed=4)
        cm = Scorer.create([3, 4, 1], seed=5)
        asv_before = [w.copy() for w in asv.weights]
        cm_before = [w.copy() for w in cm.weights]
        soft_tdcf_train_step(asv, cm, SoftThresholds(0, 0), trials, ASVSPOOF19_COST_PARAMS, lr=0.1)
        assert any(not np.array_equal(a, b) for a, b in zip(asv_before, asv.weights))
        assert any(not np.array_equal(a, b) for a, b in zip(cm_before, cm.weights))

    def test_scorer_loss_gradient_passes_finite_diff_check(self):
        # gradient through the scorer parameters (scores are scorer outputs)
        rng = np.random.default_rng(8)
        trials = make_trials(rng, n_per_class=4)
        cm_fixed = Scorer.create([3, 4, 1], seed=6)
        taus = SoftThresholds(0.2, -0.1)
        p = ASVSPOOF19_COST_PARAMS
        cm_scores = np.array([cm_fixed.forward(t.x_cm)[0] for t in trials])
        classes = class_codes(t.label for t in trials)

        def loss(asv_scorer, tape):
            caches = []
            asv_scores = []
            for t in trials:
                score, cache = asv_scorer.forward(t.x_asv)
                asv_scores.append(score)
                caches.append(cache)
            value, grads = soft_tdcf_from_arrays(
                np.array(asv_scores), cm_scores, classes, taus, p
            )
            if tape is not None:
                for c, g in zip(caches, grads.d_asv_scores):
                    asv_scorer.backward(c, float(g), tape)
            return value

        scorer = Scorer.create([3, 4, 1], seed=7)
        assert finite_diff_check(scorer, loss) <= 1e-4
