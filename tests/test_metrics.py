import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemopt.metrics import (
    MetricReport,
    candidate_thresholds,
    compute_metric_report,
    cross_task_eer,
    dcf,
    eer,
    filter_attacks,
    hard_rates,
    min_norm_tdcf,
    per_attack_breakdown,
    tandem_error_rates,
    tdcf,
)
from tandemopt.types import (
    ASVSPOOF19_COST_PARAMS,
    AsvLabel,
    CmLabel,
    ErrorRates,
    MissingClassError,
    ScoreSet,
    TandemCostParams,
    TrialLabel,
)

TB = TrialLabel(AsvLabel.TARGET, CmLabel.BONAFIDE)
NB = TrialLabel(AsvLabel.NONTARGET, CmLabel.BONAFIDE)


def SP(attack="A01"):
    return TrialLabel(AsvLabel.TARGET, CmLabel.SPOOF, attack)


def make_scoreset(tb, nb, sp, sp_attacks=None):
    """tb/nb/sp: lists of (asv_score, cm_score)."""
    rows = []
    for i, (a, c) in enumerate(tb):
        rows.append((f"tb{i}", TB, a, c))
    for i, (a, c) in enumerate(nb):
        rows.append((f"nb{i}", NB, a, c))
    for i, (a, c) in enumerate(sp):
        attack = sp_attacks[i] if sp_attacks else "A01"
        rows.append((f"sp{i}", SP(attack), a, c))
    return ScoreSet.from_rows(rows)


def random_scoreset(rng, n_max=200):
    n_tb = int(rng.integers(2, max(3, n_max // 3)))
    n_nb = int(rng.integers(2, max(3, n_max // 3)))
    n_sp = int(rng.integers(2, max(3, n_max // 3)))
    tb = [(float(rng.normal(1, 1)), float(rng.normal(1, 1))) for _ in range(n_tb)]
    nb = [(float(rng.normal(-1, 1)), float(rng.normal(1, 1))) for _ in range(n_nb)]
    attacks = ["A01", "A02", "A03"]
    names = [attacks[int(rng.integers(3))] for _ in range(n_sp)]
    sp = [(float(rng.normal(0.5, 1)), float(rng.normal(-1, 1))) for _ in range(n_sp)]
    return make_scoreset(tb, nb, sp, names)


# ---------------------------------------------------------------------------
# Independent oracles (plain loops, no shared code with the implementation)
# ---------------------------------------------------------------------------


def oracle_rates(pos, neg, tau):
    p_miss = sum(1 for s in pos if s <= tau) / len(pos)
    p_fa = sum(1 for s in neg if s > tau) / len(neg)
    return p_miss, p_fa


def oracle_candidates(values):
    distinct = sorted(set(values))
    taus = [distinct[0] - 1.0]
    for a, b in zip(distinct[:-1], distinct[1:]):
        taus.append((a + b) / 2.0)
    taus.append(distinct[-1] + 1.0)
    return taus


def oracle_eer(pos, neg):
    best = None
    for tau in oracle_candidates(list(pos) + list(neg)):
        p_miss, p_fa = oracle_rates(pos, neg, tau)
        key = abs(p_miss - p_fa)
        if best is None or key < best[0]:
            best = (key, tau, (p_miss + p_fa) / 2.0, p_miss, p_fa)
    return best[2], best[1], best[3], best[4]


def oracle_tandem_rates(scores, tau_asv, tau_cm):
    tb = [(e.asv_score, e.cm_score) for e in scores if e.label.is_target_bonafide]
    nb = [(e.asv_score, e.cm_score) for e in scores if e.label.is_nontarget_bonafide]
    sp = [(e.asv_score, e.cm_score) for e in scores if e.label.is_spoof]
    p_d = sum(1 for _, c in tb if c <= tau_cm) / len(tb)
    p_a = sum(1 for a, c in tb if c > tau_cm and a <= tau_asv) / len(tb)
    p_b = sum(1 for a, c in nb if c > tau_cm and a > tau_asv) / len(nb)
    p_c = sum(1 for a, c in sp if c > tau_cm and a > tau_asv) / len(sp)
    return p_a, p_b, p_c, p_d


def oracle_tdcf(pa, pb, pc, pd, p):
    return (
        p.c_miss * p.rho_tar * (pa + pd)
        + p.c_fa * p.rho_non * pb
        + p.c_fa_spoof * p.rho_spoof * pc
    )


def oracle_min_norm_tdcf(scores, p):
    """Exhaustive re-computation: per candidate threshold, recount the four
    rates from scratch and normalize by the best trivial gate."""
    tb_asv = [e.asv_score for e in scores if e.label.is_target_bonafide]
    nb_asv = [e.asv_score for e in scores if e.label.is_nontarget_bonafide]
    tau_asv = oracle_eer(tb_asv, nb_asv)[1]
    all_cm = [e.cm_score for e in scores]
    accept_all = oracle_tdcf(
        *oracle_tandem_rates(scores, tau_asv, min(all_cm) - 1.0), p
    )
    reject_all = p.c_miss * p.rho_tar
    normalizer = min(accept_all, reject_all)
    best = None
    for tau in oracle_candidates(all_cm):
        value = oracle_tdcf(*oracle_tandem_rates(scores, tau_asv, tau), p)
        if normalizer > 0:
            value = value / normalizer
        if best is None or value < best[0]:
            best = (value, tau)
    return best[0], best[1], tau_asv


# ---------------------------------------------------------------------------


class TestHardRates:
    def test_perfectly_separated(self):
        scores = [(2, True), (3, True), (-2, False), (-3, False)]
        assert hard_rates(scores, 0.0) == (0.0, 0.0)

    def test_tie_counts_as_reject(self):
        assert hard_rates([(1, True), (1, False)], 1.0) == (1.0, 0.0)

    def test_hand_counted(self):
        scores = [(0.1, True), (0.9, True), (0.5, True), (0.2, False), (0.6, False)]
        p_miss, p_fa = hard_rates(scores, 0.55)
        assert p_miss == pytest.approx(2 / 3)
        assert p_fa == pytest.approx(1 / 2)

    def test_empty_class_raises(self):
        with pytest.raises(MissingClassError):
            hard_rates([(1.0, True)], 0.0)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(3)
        scores = [(float(rng.normal()), bool(rng.integers(2))) for _ in range(50)]
        if not any(s for _, s in scores):
            scores[0] = (scores[0][0], True)
        taus = np.linspace(-3, 3, 61)
        rates = [hard_rates(scores, t) for t in taus]
        p_miss = [r[0] for r in rates]
        p_fa = [r[1] for r in rates]
        assert all(a <= b + 1e-15 for a, b in zip(p_miss[:-1], p_miss[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(p_fa[:-1], p_fa[1:]))


class TestEer:
    def test_separable(self):
        scores = [(1, True), (2, True), (3, True), (-1, False), (-2, False), (-3, False)]
        value, _ = eer(scores)
        assert value == 0.0

    def test_indistinguishable(self):
        scores = [(0, True), (1, True), (0, False), (1, False)]
        value, _ = eer(scores)
        assert value == 0.5

    def test_hand_case_against_oracle(self):
        pos, neg = [0.8, 0.4, 0.6], [0.5, 0.2, 0.1]
        scores = [(s, True) for s in pos] + [(s, False) for s in neg]
        value, tau = eer(scores)
        o_value, o_tau, _, _ = oracle_eer(pos, neg)
        assert value == pytest.approx(1 / 3)
        assert value == o_value
        assert tau == o_tau

    def test_random_against_oracle_and_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_pos = int(rng.integers(2, 40))
            n_neg = int(rng.integers(2, 40))
            pos = [float(v) for v in rng.normal(0.5, 1, n_pos)]
            neg = [float(v) for v in rng.normal(-0.5, 1, n_neg)]
            scores = [(s, True) for s in pos] + [(s, False) for s in neg]
            value, tau = eer(scores)
            o_value, o_tau, o_miss, o_fa = oracle_eer(pos, neg)
            assert abs(value - o_value) <= 1e-12
            assert tau == o_tau
            assert abs(o_miss - o_fa) <= 1.0 / min(n_pos, n_neg) + 1e-12


class TestDcf:
    def test_zero_rates(self):
        assert dcf(0, 0, 1, 10, 0.9) == 0.0

    def test_only_miss_term(self):
        assert dcf(1, 0, 1, 10, 0.9) == pytest.approx(0.9)

    def test_arithmetic(self):
        assert dcf(0.5, 0.5, 1, 10, 0.5) == pytest.approx(2.75)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            dcf(1.5, 0, 1, 1, 0.5)


class TestTandemErrorRates:
    def test_accept_everything(self):
        s = make_scoreset([(10, 10)], [(10, 10)], [(10, 10)])
        r = tandem_error_rates(s, tau_asv=0.0, tau_cm=0.0)
        assert (r.p_a, r.p_d) == (0.0, 0.0)
        assert (r.p_b, r.p_c) == (1.0, 1.0)

    def test_cm_gate_closed(self):
        s = make_scoreset([(10, -10)], [(10, -10)], [(10, -10)])
        r = tandem_error_rates(s, tau_asv=0.0, tau_cm=0.0)
        assert r.p_d == 1.0
        assert (r.p_a, r.p_b, r.p_c) == (0.0, 0.0, 0.0)

    def test_six_trial_hand_case_matches_oracle(self):
        s = make_scoreset(
            tb=[(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)],
            nb=[(1.0, 1.0), (-1.0, 1.0)],
            sp=[(1.0, 1.0)],
        )
        r = tandem_error_rates(s, tau_asv=0.0, tau_cm=0.0)
        pa, pb, pc, pd = oracle_tandem_rates(s, 0.0, 0.0)
        assert (r.p_a, r.p_b, r.p_c, r.p_d) == (pa, pb, pc, pd)
        assert (r.p_a, r.p_b, r.p_c, r.p_d) == (1 / 3, 1 / 2, 1.0, 1 / 3)

    def test_missing_class(self):
        s = make_scoreset([(1, 1)], [(1, 1)], [])
        with pytest.raises(MissingClassError, match="spoof"):
            tandem_error_rates(s, 0.0, 0.0)


class TestTdcf:
    def test_zero_rates(self):
        assert tdcf(ErrorRates(0, 0, 0, 0), ASVSPOOF19_COST_PARAMS) == 0.0

    def test_reject_all_cost(self):
        value = tdcf(ErrorRates(0, 0, 0, 1), ASVSPOOF19_COST_PARAMS)
        assert value == pytest.approx(0.9405)

    def test_degenerates_to_dcf_with_merged_negatives(self):
        # with equal false-accept costs, the tandem cost equals the plain
        # detection cost on the prior-merged negative class
        rng = np.random.default_rng(9)
        for _ in range(100):
            p_d = float(rng.uniform(0, 1))
            p_a = float(rng.uniform(0, 1.0 - p_d))  # disjoint events, p_a + p_d <= 1
            rates = ErrorRates(p_a, float(rng.uniform()), float(rng.uniform()), p_d)
            priors = rng.dirichlet([1, 1, 1])
            c_miss, c_fa = float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 20))
            p = TandemCostParams(c_miss, c_fa, c_fa, *(float(x) for x in priors))
            rho_neg = p.rho_non + p.rho_spoof
            merged_fa = (p.rho_non * rates.p_b + p.rho_spoof * rates.p_c) / rho_neg
            # the convex combination can land a few ulps above 1
            merged_fa = min(max(merged_fa, 0.0), 1.0)
            expected = dcf(rates.p_a + rates.p_d, merged_fa, c_miss, c_fa, p.rho_tar)
            assert tdcf(rates, p) == pytest.approx(expected, abs=1e-12)


class TestMinNormTdcf:
    def test_perfect_systems(self):
        # separable CM and ASV, with spoofs mimicking the target in ASV space
        s = make_scoreset(
            tb=[(2.0, 2.0), (3.0, 3.0)],
            nb=[(-2.0, 2.5), (-3.0, 2.2)],
            sp=[(2.5, -2.0), (2.2, -3.0)],
        )
        value, _, _ = min_norm_tdcf(s, ASVSPOOF19_COST_PARAMS)
        assert value == 0.0

    def test_uninformative_cm_gives_one(self):
        rng = np.random.default_rng(5)
        tb = [(float(rng.normal(1, 1)), 0.5) for _ in range(20)]
        nb = [(float(rng.normal(-1, 1)), 0.5) for _ in range(20)]
        sp = [(float(rng.normal(1, 1)), 0.5) for _ in range(20)]
        value, _, _ = min_norm_tdcf(make_scoreset(tb, nb, sp), ASVSPOOF19_COST_PARAMS)
        assert value == pytest.approx(1.0)

    def test_random_sets_match_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_scoreset(rng, n_max=60)
            value, tau_cm, tau_asv = min_norm_tdcf(s, ASVSPOOF19_COST_PARAMS)
            o_value, o_tau_cm, o_tau_asv = oracle_min_norm_tdcf(s, ASVSPOOF19_COST_PARAMS)
            assert abs(value - o_value) <= 1e-12
            assert tau_cm == o_tau_cm
            assert tau_asv == o_tau_asv

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(17)
        s = random_scoreset(rng, n_max=90)
        base, _, _ = min_norm_tdcf(s, ASVSPOOF19_COST_PARAMS)
        warp = lambda x: x**3 + 2.0 * x + 1.0  # strictly increasing
        warped_cm = ScoreSet.from_rows(
            [(e.trial_id, e.label, e.asv_score, warp(e.cm_score)) for e in s]
        )
        warped_asv = ScoreSet.from_rows(
            [(e.trial_id, e.label, warp(e.asv_score), e.cm_score) for e in s]
        )
        assert min_norm_tdcf(warped_cm, ASVSPOOF19_COST_PARAMS)[0] == base
        assert min_norm_tdcf(warped_asv, ASVSPOOF19_COST_PARAMS)[0] == base


class TestPerAttackBreakdown:
    def test_separated_attack_has_zero_cm_eer(self):
        s = make_scoreset(
            tb=[(1, 5), (1, 6)],
            nb=[(-1, 5.5)],
            sp=[(1, -5), (1, -6)],
            sp_attacks=["A01", "A01"],
        )
        cm_eers, _ = per_attack_breakdown(s)
        assert cm_eers["A01"] == 0.0

    def test_attack_mimicking_targets_has_half_asv_eer(self):
        rng = np.random.default_rng(23)
        tb = [(float(rng.normal()), 1.0) for _ in range(100)]
        sp = [(float(rng.normal()), -1.0) for _ in range(100)]
        s = make_scoreset(tb, [(-5, 1.0)], sp, ["A09"] * 100)
        _, asv_eers = per_attack_breakdown(s)
        assert abs(asv_eers["A09"] - 0.5) < 0.1

    def test_matches_filtered_eer_composition(self):
        rng = np.random.default_rng(29)
        s = random_scoreset(rng, n_max=120)
        cm_eers, asv_eers = per_attack_breakdown(s)
        bona_cm = [e.cm_score for e in s if not e.label.is_spoof]
        tb_asv = [e.asv_score for e in s if e.label.is_target_bonafide]
        for attack in cm_eers:
            sp_cm = [e.cm_score for e in s if e.label.attack_id == attack]
            sp_asv = [e.asv_score for e in s if e.label.attack_id == attack]
            assert cm_eers[attack] == oracle_eer(bona_cm, sp_cm)[0]
            assert asv_eers[attack] == oracle_eer(tb_asv, sp_asv)[0]


class TestCrossTaskEer:
    def test_asv_blind_to_spoofing(self):
        rng = np.random.default_rng(31)
        tb = [(float(rng.normal()), 0.0) for _ in range(150)]
        sp = [(float(rng.normal()), 0.0) for _ in range(150)]
        s = make_scoreset(tb, [(float(rng.normal()), 0.0) for _ in range(150)], sp)
        assert abs(cross_task_eer(s) - 0.5) < 0.1

    def test_perfectly_discriminating_asv(self):
        s = make_scoreset([(1, 0)] * 3, [(1, 0)] * 2, [(-1, 0)] * 3)
        assert cross_task_eer(s) == 0.0

    def test_matches_relabeled_eer(self):
        rng = np.random.default_rng(37)
        s = random_scoreset(rng)
        bona = [e.asv_score for e in s if not e.label.is_spoof]
        spoof = [e.asv_score for e in s if e.label.is_spoof]
        assert cross_task_eer(s) == oracle_eer(bona, spoof)[0]


class TestFilterAttacks:
    def test_empty_exclusion_is_identity(self):
        rng = np.random.default_rng(41)
        s = random_scoreset(rng)
        assert filter_attacks(s, set()) == s

    def test_exclude_all_attacks_keeps_bonafide(self):
        rng = np.random.default_rng(43)
        s = random_scoreset(rng)
        attacks = {e.label.attack_id for e in s if e.label.is_spoof}
        filtered = filter_attacks(s, attacks)
        assert all(not e.label.is_spoof for e in filtered)
        n_bona = sum(1 for e in s if not e.label.is_spoof)
        assert len(filtered) == n_bona

    def test_exclude_one_attack_counts(self):
        s = make_scoreset(
            [(1, 1)], [(0, 1)],
            [(1, -1), (1, -2), (1, -3)],
            sp_attacks=["A16", "A17", "A16"],
        )
        filtered = filter_attacks(s, {"A17"})
        remaining = [e.label.attack_id for e in filtered if e.label.is_spoof]
        assert remaining == ["A16", "A16"]


class TestMetricReport:
    def test_json_round_trip(self):
        rng = np.random.default_rng(47)
        s = random_scoreset(rng)
        report = compute_metric_report(s, ASVSPOOF19_COST_PARAMS)
        d = report.to_json_dict()
        for key in (
            "asv_eer",
            "cm_eer",
            "min_norm_tdcf",
            "per_attack_cm_eer",
            "per_attack_asv_eer",
            "tau_cm_star",
            "tau_asv",
        ):
            assert key in d
        assert MetricReport.from_json_dict(d) == report

    def test_candidate_thresholds_cover_single_value(self):
        taus = candidate_thresholds(np.array([1.0, 1.0, 1.0]))
        assert taus.tolist() == [0.0, 2.0]


# Integer-valued scores keep ties possible and make every strictly increasing
# map below exact, so invariance can be asserted bit for bit.
SCORE = st.integers(-20, 20)
CLASS_SCORES = st.lists(st.tuples(SCORE, SCORE), min_size=1, max_size=12)
INCREASING_MAPS = [
    lambda x: x**3 + 2.0 * x + 1.0,
    lambda x: np.exp(x / 8.0),
    lambda x: 0.25 * x - 7.0,
]


@st.composite
def cost_params(draw):
    costs = [float(draw(st.integers(0, 10))) for _ in range(3)]
    weights = [draw(st.integers(1, 100)) for _ in range(3)]
    total = sum(weights)
    rho_tar, rho_non = weights[0] / total, weights[1] / total
    return TandemCostParams(*costs, rho_tar, rho_non, 1.0 - rho_tar - rho_non)


def headline(rows, p):
    report = compute_metric_report(ScoreSet.from_rows(rows), p)
    return report.asv_eer, report.cm_eer, report.cross_task_eer, report.min_norm_tdcf


class TestMetricProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        tb=CLASS_SCORES,
        nb=CLASS_SCORES,
        sp=CLASS_SCORES,
        order=st.randoms(use_true_random=False),
        warp=st.sampled_from(INCREASING_MAPS),
        p=cost_params(),
    )
    def test_eer_and_min_tdcf_ignore_trial_order_and_increasing_maps(
        self, tb, nb, sp, order, warp, p
    ):
        s = make_scoreset(tb, nb, sp, ["A01", "A02"] * len(sp))
        rows = [(e.trial_id, e.label, e.asv_score, e.cm_score) for e in s]
        expected = headline(rows, p)
        order.shuffle(rows)
        assert headline(rows, p) == expected
        # min t-DCF fixes the ASV threshold at the midpoint of the ASV EER
        # gap, so only ASV maps that keep midpoints (affine ones) keep it; a
        # spoof ASV score inside the gap can change sides under any other.
        warped = [(i, l, 2.0 * a - 3.0, float(warp(c))) for i, l, a, c in rows]
        assert headline(warped, p) == expected
        warped = [(i, l, float(warp(a)), float(warp(c))) for i, l, a, c in rows]
        assert headline(warped, p)[:3] == expected[:3]

    @settings(max_examples=60, deadline=None, database=None)
    @given(tb=CLASS_SCORES, nb=CLASS_SCORES, sp=CLASS_SCORES, p=cost_params())
    def test_normalized_min_tdcf_at_most_one(self, tb, nb, sp, p):
        s = make_scoreset(tb, nb, sp)
        value, _, tau_asv = min_norm_tdcf(s, p)
        # The trivial gates: the CM accepting everything, or nothing.
        accept_all = tdcf(tandem_error_rates(s, tau_asv, -np.inf), p)
        reject_all = tdcf(tandem_error_rates(s, tau_asv, np.inf), p)
        if min(accept_all, reject_all) > 0.0:
            assert 0.0 <= value <= 1.0
        else:
            assert value == 0.0
