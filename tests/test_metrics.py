import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemopt.metrics import (
    MetricReport,
    compute_metric_report,
    cross_task_eer,
    dcf,
    eer,
    eer_arrays,
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
# The sweep metrics ran before it searched: every candidate threshold
# evaluated, each class re-sorted on every call. The search must equal it bit
# for bit, so it is kept here as the oracle, arithmetic and all.
# ---------------------------------------------------------------------------


def sweep_candidates(values):
    """Midpoints between consecutive distinct scores plus two sentinels."""
    distinct = np.unique(np.asarray(values, dtype=np.float64))
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate(([distinct[0] - 1.0], mids, [distinct[-1] + 1.0]))


def sweep_rates(pos, neg, taus):
    """Vectorized (p_miss, p_fa) at each threshold via sorted cumulative counts."""
    n_rejected_pos = np.searchsorted(np.sort(pos), taus, side="right")
    n_rejected_neg = np.searchsorted(np.sort(neg), taus, side="right")
    return n_rejected_pos / pos.size, (neg.size - n_rejected_neg) / neg.size


def sweep_eer(pos, neg):
    pos, neg = np.asarray(pos, dtype=np.float64), np.asarray(neg, dtype=np.float64)
    taus = sweep_candidates(np.concatenate([pos, neg]))
    p_miss, p_fa = sweep_rates(pos, neg, taus)
    idx = int(np.argmin(np.abs(p_miss - p_fa)))  # first occurrence = smallest tau
    return (
        float((p_miss[idx] + p_fa[idx]) / 2.0),
        float(taus[idx]),
        float(p_miss[idx]),
        float(p_fa[idx]),
    )


def class_columns(scores):
    """(asv, cm) arrays of each class, in trial order."""
    def columns(is_class):
        entries = [e for e in scores if is_class(e.label)]
        return np.array([e.asv_score for e in entries]), np.array([e.cm_score for e in entries])

    return (
        columns(lambda label: label.is_target_bonafide),
        columns(lambda label: label.is_nontarget_bonafide),
        columns(lambda label: label.is_spoof),
    )


def sweep_min_norm_tdcf(scores, p):
    (tb_asv, tb_cm), (nb_asv, nb_cm), (sp_asv, sp_cm) = class_columns(scores)
    tau_asv = sweep_eer(tb_asv, nb_asv)[1]
    taus = sweep_candidates(np.concatenate([tb_cm, nb_cm, sp_cm]))
    tb_rej = np.sort(tb_cm[tb_asv <= tau_asv])
    nb_acc = np.sort(nb_cm[nb_asv > tau_asv])
    sp_acc = np.sort(sp_cm[sp_asv > tau_asv])
    p_d = np.searchsorted(np.sort(tb_cm), taus, side="right") / tb_cm.size
    p_a = (tb_rej.size - np.searchsorted(tb_rej, taus, side="right")) / tb_cm.size
    p_b = (nb_acc.size - np.searchsorted(nb_acc, taus, side="right")) / nb_cm.size
    p_c = (sp_acc.size - np.searchsorted(sp_acc, taus, side="right")) / sp_cm.size
    w_tar, w_non, w_spoof = p.class_weights
    costs = w_tar * (p_a + p_d) + w_non * p_b + w_spoof * p_c
    normalizer = min(costs[0], costs[-1])
    normalized = costs / normalizer if normalizer > 0.0 else costs
    idx = int(np.argmin(normalized))
    return float(normalized[idx]), float(taus[idx]), float(tau_asv)


def sweep_per_attack(scores):
    (tb_asv, tb_cm), (_, nb_cm), (sp_asv, sp_cm) = class_columns(scores)
    bona_cm = np.concatenate([tb_cm, nb_cm])
    sp_attacks = np.array([e.label.attack_id for e in scores if e.label.is_spoof], dtype=object)
    cm_eers, asv_eers = {}, {}
    for attack in sorted(set(sp_attacks)):
        mask = sp_attacks == attack
        cm_eers[attack] = sweep_eer(bona_cm, sp_cm[mask])[0]
        asv_eers[attack] = sweep_eer(tb_asv, sp_asv[mask])[0]
    return cm_eers, asv_eers


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

    def test_keeps_the_rows_of_the_label_mask_in_order(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            s = random_scoreset(rng)
            size = int(rng.integers(0, 4))
            excluded = set(rng.choice(["A01", "A02", "A03", "A99"], size=size, replace=False))
            keep = np.array([e.label.attack_id not in excluded for e in s])
            assert filter_attacks(s, excluded) == s.select(keep)


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


def _adjacent(start, n):
    """n consecutive floats from start."""
    values = [start]
    for _ in range(n - 1):
        values.append(float(np.nextafter(values[-1], np.inf)))
    return values


BIG = float(np.finfo(np.float64).max)
# Score pools where a search could part from the sweep: integers (heavy
# ties), runs of adjacent floats (a midpoint rounds onto an endpoint, and
# near 1e17 a sentinel onto the extreme score), finite scores near the float
# limit (a midpoint overflows to +-inf), and plain floats.
SCORE_POOLS = [
    st.integers(-4, 4).map(float),
    st.sampled_from(_adjacent(0.1, 4) + _adjacent(0.7, 4) + _adjacent(1e17, 4)),
    st.sampled_from(
        [v for m in (BIG, float(np.nextafter(BIG, 0.0)), 1.7e308, 1.6e308, 9e307, 1e308, 1.0)
         for v in (m, -m)] + [0.0]
    ),
    st.floats(-1e3, 1e3, allow_nan=False),
]
POOL = st.sampled_from(SCORE_POOLS + [st.one_of(*SCORE_POOLS)])


@st.composite
def pos_neg(draw):
    """Two score arrays drawn from one pool, mixed, separable in either
    direction, or with one class single-valued."""
    pool = draw(POOL)
    pos = draw(st.lists(pool, min_size=1, max_size=40))
    neg = draw(st.lists(pool, min_size=1, max_size=40))
    layout = draw(st.sampled_from(["mixed", "pos above", "neg above", "pos single", "neg single"]))
    if layout == "pos above":
        ranked = sorted(pos + neg)
        neg, pos = ranked[: len(neg)], ranked[len(neg):]
    elif layout == "neg above":
        ranked = sorted(pos + neg)
        pos, neg = ranked[: len(pos)], ranked[len(pos):]
    elif layout == "pos single":
        pos = pos[:1] * len(pos)
    elif layout == "neg single":
        neg = neg[:1] * len(neg)
    return np.array(pos), np.array(neg)


@st.composite
def pooled_score_sets(draw):
    pool = draw(POOL)
    pairs = st.lists(st.tuples(pool, pool), min_size=1, max_size=15)
    tb, nb, sp = draw(pairs), draw(pairs), draw(pairs)
    attack = st.sampled_from(["A01", "A02", "A03"])
    attacks = draw(st.lists(attack, min_size=len(sp), max_size=len(sp)))
    return make_scoreset(tb, nb, sp, attacks)


class TestSearchMatchesSweep:
    @settings(max_examples=500, deadline=None, database=None)
    @given(pn=pos_neg())
    def test_eer_arrays(self, pn):
        pos, neg = pn
        with np.errstate(over="ignore"):
            assert eer_arrays(pos, neg) == sweep_eer(pos, neg)

    @settings(max_examples=200, deadline=None, database=None)
    @given(s=pooled_score_sets(), p=cost_params())
    def test_min_norm_tdcf_and_per_attack_breakdown(self, s, p):
        with np.errstate(over="ignore"):
            assert min_norm_tdcf(s, p) == sweep_min_norm_tdcf(s, p)
            got, want = per_attack_breakdown(s), sweep_per_attack(s)
        assert [list(d.items()) for d in got] == [list(d.items()) for d in want]

    def test_eer_arrays_at_evaluation_shapes(self):
        # The shapes an evaluation meets: a few large classes against many
        # small per-attack ones, with and without ties.
        rng = np.random.default_rng(59)
        for n_pos, n_neg in [(1332, 111), (111, 1332), (2000, 833), (600, 600), (3000, 7)]:
            for decimals in (None, 1):
                pos, neg = rng.normal(1.0, 1.0, n_pos), rng.normal(-1.0, 1.0, n_neg)
                if decimals is not None:
                    pos, neg = pos.round(decimals), neg.round(decimals)
                assert eer_arrays(pos, neg) == sweep_eer(pos, neg)

    def test_sentinels(self):
        # One distinct score leaves only the two sentinels, both at
        # |p_miss - p_fa| = 1, so the lower one.
        assert eer_arrays(np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0])) == (0.5, 0.0, 0.0, 1.0)
        # Near 1e17, 1 below the lowest score rounds onto it, so the lower
        # sentinel rejects it, and wins as the sweep's first candidate.
        assert eer_arrays(np.array([1e17]), np.array([1e17 + 64.0])) == (1.0, 1e17, 1.0, 1.0)

    def test_edges_of_the_searched_part(self):
        # Only the candidates around the crossing are evaluated; these are
        # cases where the sweep's answer lies just outside them.
        low, high = _adjacent(0.1, 3), _adjacent(0.7, 3)
        # The midpoints of low[0:2] and of low[1:3] both count low[1], a
        # tie the sweep breaks toward low[1] itself.
        pos, neg = np.array(high[2:]), np.array([low[1], low[2], high[1], high[2], high[2]])
        assert eer_arrays(pos, neg) == sweep_eer(pos, neg) == (0.3, low[2], 0.0, 0.6)
        # Midpoints of the lowest scores overflow to -inf, and the best
        # candidate is a midpoint between them and the rest.
        pos, neg = np.array([-9e307, -9e307]), np.array([-BIG, -1.7e308, -1.6e308, 3.0, 9e307])
        with np.errstate(over="ignore"):
            assert eer_arrays(pos, neg) == sweep_eer(pos, neg) == (0.7, -4.5e307, 1.0, 0.4)

    def test_empty_class_raises(self):
        with pytest.raises(MissingClassError, match="positive"):
            eer_arrays(np.array([]), np.array([1.0]))
        with pytest.raises(MissingClassError, match="negative"):
            eer_arrays(np.array([1.0]), np.array([]))

    def test_candidate_thresholds_cover_single_value(self):
        taus = sweep_candidates(np.array([1.0, 1.0, 1.0]))
        assert taus.tolist() == [0.0, 2.0]
