import numpy as np
import pytest

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
    read_features,
    read_protocol,
    read_scores,
    tandem_ground_truth,
    validate_cost_params,
    write_features,
    write_protocol,
    write_scores,
)


def label(asv, cm, attack=None):
    return TrialLabel(asv_label=asv, cm_label=cm, attack_id=attack)


class TestTrialLabel:
    def test_spoof_requires_attack_id(self):
        with pytest.raises(ValueError, match="attack_id"):
            TrialLabel(AsvLabel.TARGET, CmLabel.SPOOF)

    def test_bonafide_rejects_attack_id(self):
        with pytest.raises(ValueError, match="attack_id"):
            TrialLabel(AsvLabel.TARGET, CmLabel.BONAFIDE, attack_id="A01")

    def test_nontarget_spoof_forbidden(self):
        with pytest.raises(ValueError, match="target"):
            TrialLabel(AsvLabel.NONTARGET, CmLabel.SPOOF, attack_id="A01")

    def test_legal_combinations(self):
        assert label(AsvLabel.TARGET, CmLabel.BONAFIDE).is_target_bonafide
        assert label(AsvLabel.NONTARGET, CmLabel.BONAFIDE).is_nontarget_bonafide
        assert label(AsvLabel.TARGET, CmLabel.SPOOF, "A01").is_spoof


class TestTandemGroundTruth:
    def test_target_bonafide_accept(self):
        assert tandem_ground_truth(label(AsvLabel.TARGET, CmLabel.BONAFIDE)) is Decision.ACCEPT

    def test_nontarget_bonafide_reject(self):
        assert tandem_ground_truth(label(AsvLabel.NONTARGET, CmLabel.BONAFIDE)) is Decision.REJECT

    def test_spoof_reject(self):
        assert (
            tandem_ground_truth(label(AsvLabel.TARGET, CmLabel.SPOOF, "A01"))
            is Decision.REJECT
        )

    def test_matches_logical_and_over_all_legal_labels(self):
        legal = [
            label(AsvLabel.TARGET, CmLabel.BONAFIDE),
            label(AsvLabel.NONTARGET, CmLabel.BONAFIDE),
            label(AsvLabel.TARGET, CmLabel.SPOOF, "A01"),
        ]
        for l in legal:
            expected = (
                Decision.ACCEPT
                if (l.asv_label is AsvLabel.TARGET and l.cm_label is CmLabel.BONAFIDE)
                else Decision.REJECT
            )
            assert tandem_ground_truth(l) is expected


class TestCostParams:
    def test_asvspoof19_convention_is_valid(self):
        validate_cost_params(ASVSPOOF19_COST_PARAMS)  # must not raise
        assert ASVSPOOF19_COST_PARAMS.c_fa_spoof == 10.0

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            TandemCostParams(1, 1, 1, 0.5, 0.5, 0.5)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="negative cost"):
            TandemCostParams(-1, 1, 1, 0.5, 0.3, 0.2)

    def test_prior_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            TandemCostParams(1, 1, 1, 1.5, -0.3, -0.2)

    def test_zero_costs_allowed(self):
        # costs are nonnegative; an all-zero cost vector is a legal (trivial)
        # evaluation setup
        TandemCostParams(0.0, 0.0, 0.0, 0.5, 0.3, 0.2)


class TestTrial:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Trial("t1", np.array([1.0, np.nan]), np.array([0.0]), label(AsvLabel.TARGET, CmLabel.BONAFIDE))

    def test_non_vector_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            Trial("t1", np.zeros((2, 2)), np.zeros(2), label(AsvLabel.TARGET, CmLabel.BONAFIDE))

    def test_arrays_frozen(self):
        t = Trial("t1", np.zeros(2), np.zeros(2), label(AsvLabel.TARGET, CmLabel.BONAFIDE))
        with pytest.raises(ValueError):
            t.x_asv[0] = 1.0


class TestErrorRates:
    def test_rates_in_unit_interval(self):
        ErrorRates(0.0, 0.5, 1.0, 0.25)
        with pytest.raises(ValueError):
            ErrorRates(-0.1, 0, 0, 0)
        with pytest.raises(ValueError):
            ErrorRates(0, 1.1, 0, 0)


class TestScoreSet:
    def test_duplicate_ids_rejected(self):
        l = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
        with pytest.raises(ValueError, match="duplicate"):
            ScoreSet.from_rows([("a", l, 0.0, 0.0), ("a", l, 1.0, 1.0)])

    def test_non_finite_scores_rejected(self):
        l = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
        with pytest.raises(ValueError, match="non-finite"):
            ScoreSet.from_rows([("a", l, float("inf"), 0.0)])

    def test_class_split(self):
        rows = [
            ("a", label(AsvLabel.TARGET, CmLabel.BONAFIDE), 1.0, 2.0),
            ("b", label(AsvLabel.NONTARGET, CmLabel.BONAFIDE), -1.0, 2.5),
            ("c", label(AsvLabel.TARGET, CmLabel.SPOOF, "A01"), 0.5, -2.0),
        ]
        cs = ScoreSet.from_rows(rows).class_split()
        assert cs.tb_asv.tolist() == [1.0]
        assert cs.nb_cm.tolist() == [2.5]
        assert cs.sp_attacks == ("A01",)


class TestTextFormats:
    def test_protocol_round_trip(self, tmp_path):
        labels = [
            ("t1", label(AsvLabel.TARGET, CmLabel.BONAFIDE)),
            ("t2", label(AsvLabel.NONTARGET, CmLabel.BONAFIDE)),
            ("t3", label(AsvLabel.TARGET, CmLabel.SPOOF, "A17")),
        ]
        path = tmp_path / "p.txt"
        write_protocol(path, labels)
        loaded = read_protocol(path)
        assert list(loaded.items()) == labels
        text = path.read_text()
        assert "t3 target spoof A17" in text
        assert "t1 target bonafide -" in text

    def test_scores_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = {}
        rows = []
        for i in range(50):
            l = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
            labels[f"t{i}"] = l
            rows.append((f"t{i}", l, float(rng.standard_normal()), float(rng.standard_normal())))
        scores = ScoreSet.from_rows(rows)
        path = tmp_path / "s.txt"
        write_scores(path, scores)
        loaded = read_scores(path, labels)
        for a, b in zip(scores, loaded):
            assert a.asv_score == b.asv_score  # bit-exact round trip
            assert a.cm_score == b.cm_score

    def test_features_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        l = label(AsvLabel.TARGET, CmLabel.SPOOF, "A01")
        trials = [
            Trial(f"t{i}", rng.standard_normal(3), rng.standard_normal(2), l)
            for i in range(10)
        ]
        labels = {t.id: t.label for t in trials}
        path = tmp_path / "f.txt"
        write_features(path, trials)
        loaded = read_features(path, labels, d_asv=3, d_cm=2)
        for a, b in zip(trials, loaded):
            assert np.array_equal(a.x_asv, b.x_asv)
            assert np.array_equal(a.x_cm, b.x_cm)

    @pytest.mark.parametrize("lines, message", [([0, 2], "first 't1'"), ([0, 1, 1, 2], "duplicate")])
    def test_features_must_cover_protocol_once(self, tmp_path, lines, message):
        l = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
        trials = [Trial(f"t{i}", np.zeros(3), np.zeros(2), l) for i in range(3)]
        path = tmp_path / "f.txt"
        write_features(path, [trials[i] for i in lines])
        with pytest.raises(ValueError, match=message) as err:
            read_features(path, {t.id: l for t in trials}, d_asv=3, d_cm=2)
        assert str(path) in str(err.value)

    def test_features_dimension_mismatch(self, tmp_path):
        l = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
        t = Trial("t0", np.zeros(3), np.zeros(2), l)
        path = tmp_path / "f.txt"
        write_features(path, [t])
        with pytest.raises(ValueError, match="expected"):
            read_features(path, {"t0": l}, d_asv=4, d_cm=2)
