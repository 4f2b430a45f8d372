import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemopt.metrics import filter_attacks
from tandemopt.types import (
    ASVSPOOF19_COST_PARAMS,
    AsvLabel,
    CmLabel,
    Decision,
    ErrorRates,
    RowError,
    ScoreEntry,
    ScoreSet,
    TandemCostParams,
    Trial,
    TrialClass,
    TrialLabel,
    TrialSet,
    atomic_write,
    class_codes,
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

    def test_tandem_class_of_every_legal_label(self):
        legal = {
            label(AsvLabel.TARGET, CmLabel.BONAFIDE): TrialClass.TARGET_BONAFIDE,
            label(AsvLabel.NONTARGET, CmLabel.BONAFIDE): TrialClass.NONTARGET_BONAFIDE,
            label(AsvLabel.TARGET, CmLabel.SPOOF, "A01"): TrialClass.SPOOF,
        }
        for l, expected in legal.items():
            assert l.tandem_class is expected
            flags = (l.is_target_bonafide, l.is_nontarget_bonafide, l.is_spoof)
            assert flags == tuple(c is expected for c in TrialClass)
        assert [int(c) for c in TrialClass] == [0, 1, 2]
        assert class_codes(legal).tolist() == [0, 1, 2]
        assert class_codes([]).tolist() == []


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

    def test_class_weights_are_cost_times_prior(self):
        p = TandemCostParams(2.0, 3.0, 5.0, 0.5, 0.3, 0.2)
        assert p.class_weights.tolist() == [2.0 * 0.5, 3.0 * 0.3, 5.0 * 0.2]
        assert p.class_weights[TrialClass.SPOOF] == 5.0 * 0.2
        with pytest.raises(ValueError):
            p.class_weights[0] = 0.0

    def test_zero_costs_allowed(self):
        # costs are nonnegative; an all-zero cost vector is a legal (trivial)
        # evaluation setup
        TandemCostParams(0.0, 0.0, 0.0, 0.5, 0.3, 0.2)


TB = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
NB = label(AsvLabel.NONTARGET, CmLabel.BONAFIDE)
SP = label(AsvLabel.TARGET, CmLabel.SPOOF, "A01")


def trial(trial_id, x_asv=(0.0, 0.0), x_cm=(0.0,), l=TB):
    return Trial(trial_id, np.array(x_asv, dtype=float), np.array(x_cm, dtype=float), l)


class TestTrial:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            TrialSet.from_trials([trial("t1", x_asv=[1.0, np.nan])])

    def test_non_vector_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            TrialSet.from_trials([Trial("t1", np.zeros((2, 2)), np.zeros(2), TB)])

    def test_arrays_frozen(self):
        t = next(iter(TrialSet.from_trials([trial("t1")])))
        with pytest.raises(ValueError):
            t.x_asv[0] = 1.0


class TestTrialSet:
    def test_first_bad_trial_is_reported(self):
        nan = np.nan
        with pytest.raises(ValueError, match="non-finite features for trial 'b'"):
            TrialSet.from_trials([trial("a"), trial("b", x_cm=[nan]), trial("a"), trial("c", [nan, 0])])
        with pytest.raises(ValueError, match="duplicate trial_id 'a'"):
            TrialSet.from_trials([trial("a"), trial("a", x_asv=[0, nan]), trial("b", x_cm=[nan])])
        with pytest.raises(ValueError, match="duplicate trial_id 'b'"):
            TrialSet.from_trials([trial("a"), trial("b"), trial("b"), trial("a")])
        with pytest.raises(ValueError, match="x_asv of trial 'b' is not a 1-D vector as wide as the first"):
            TrialSet.from_trials([trial("a"), trial("b", x_asv=[0, 0, 0]), trial("c", x_asv=[0])])
        with pytest.raises(ValueError, match="x_cm of trial 'c' is not a 1-D vector"):
            TrialSet.from_trials([trial("a"), trial("b"), trial("c", x_cm=[0, 0]), trial("d", x_cm=[])])

    def test_columns_must_match(self):
        with pytest.raises(ValueError, match="one length"):
            TrialSet(("a", "b"), (TB, TB), np.zeros((2, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="one length"):
            TrialSet(("a",), (TB, TB), np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="one length"):
            TrialSet(("a", "b"), (TB, TB), np.zeros(2), np.zeros((2, 1)))

    def test_columns(self):
        given = [trial("a", [1, 2], [3], NB), trial("b", [4, 5], [6], SP), trial("c", [7, 8], [9], TB)]
        ts = TrialSet.from_trials(given)
        assert ts.ids == ("a", "b", "c") and ts.labels == (NB, SP, TB)
        assert ts.x_asv.tolist() == [[1, 2], [4, 5], [7, 8]] and ts.x_cm.tolist() == [[3], [6], [9]]
        assert ts.classes.tolist() == [1, 2, 0]
        for column in (ts.x_asv, ts.x_cm, ts.classes):
            assert column.flags.c_contiguous and not column.flags.writeable
        assert ts.x_asv.dtype == ts.x_cm.dtype == np.float64
        assert len(ts) == 3 and len(TrialSet.from_trials([])) == 0

    def test_iteration_yields_the_trials_given(self):
        rng = np.random.default_rng(0)
        given = [
            Trial(f"t{i}", rng.standard_normal(3), rng.standard_normal(2), l)
            for i, l in enumerate([TB, NB, SP, SP, TB])
        ]
        ts = TrialSet.from_trials(given)
        got = list(ts)
        assert [(t.id, t.label) for t in got] == [(t.id, t.label) for t in given]
        for a, b in zip(got, given):
            assert a.x_asv.tobytes() == b.x_asv.tobytes() and a.x_cm.tobytes() == b.x_cm.tobytes()

    def test_take_keeps_order_and_values(self):
        given = [trial(f"t{i}", [i, -i], [10 * i], [TB, NB, SP][i % 3]) for i in range(6)]
        ts = TrialSet.from_trials(given)
        index = np.array([4, 0, 4, 5])  # any order, repeats allowed
        part = ts.take(index)
        assert part.ids == ("t4", "t0", "t4", "t5")
        assert part.labels == tuple(given[i].label for i in index)
        assert part.x_asv.tolist() == [[4, -4], [0, 0], [4, -4], [5, -5]]
        assert part.x_cm.tolist() == [[40], [0], [40], [50]]
        assert part.classes.tolist() == [1, 0, 1, 2]
        assert not part.x_asv.flags.writeable and not part.classes.flags.writeable
        assert ts.take(np.array([0, 2, 3])) == TrialSet.from_trials([given[0], given[2], given[3]])
        assert len(ts.take(np.array([], dtype=np.intp))) == 0

    def test_value_equality(self):
        ts = TrialSet.from_trials([trial("a", [1, 2], [3])])
        assert ts == TrialSet(["a"], [TB], [[1.0, 2.0]], [[3.0]])
        assert ts != TrialSet.from_trials([trial("a", [1, 2], [4])])
        assert ts != TrialSet.from_trials([trial("a", [1, 2], [3], NB)])
        assert ts != "a"


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

    def test_first_bad_trial_is_reported(self):
        l = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
        nan = float("nan")
        with pytest.raises(ValueError, match="non-finite score for trial 'b'"):
            ScoreSet.from_rows([("a", l, 0.0, 0.0), ("b", l, nan, 0.0), ("a", l, 0.0, 0.0)])
        with pytest.raises(ValueError, match="duplicate trial_id 'a'"):
            ScoreSet.from_rows([("a", l, 0.0, 0.0), ("a", l, 0.0, nan), ("b", l, nan, 0.0)])
        with pytest.raises(ValueError, match="duplicate trial_id 'b'"):
            ScoreSet.from_rows([("a", l, 0.0, 0.0), ("b", l, 0.0, 0.0), ("b", l, 0.0, 0.0)])

    def test_columns_must_match(self):
        l = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
        with pytest.raises(ValueError, match="one length"):
            ScoreSet(("a", "b"), (l, l), [0.0, 1.0], [0.0])
        with pytest.raises(ValueError, match="one length"):
            ScoreSet(("a",), (l, l), [0.0], [0.0])

    def test_columns(self):
        rows = [
            ("a", label(AsvLabel.NONTARGET, CmLabel.BONAFIDE), 1, 2.0),
            ("b", label(AsvLabel.TARGET, CmLabel.SPOOF, "A01"), 0.5, -2.0),
            ("c", label(AsvLabel.TARGET, CmLabel.BONAFIDE), -1.0, 2.5),
        ]
        s = ScoreSet.from_rows(rows)
        assert s.trial_ids == ("a", "b", "c")
        assert s.labels == tuple(r[1] for r in rows)
        assert s.asv.dtype == np.float64 and s.asv.tolist() == [1.0, 0.5, -1.0]
        assert s.classes.tolist() == [1, 2, 0]
        for column in (s.asv, s.cm, s.classes):
            with pytest.raises(ValueError):
                column[0] = 0
        assert list(s) == [ScoreEntry(i, l, float(a), float(c)) for i, l, a, c in rows]
        assert isinstance(next(iter(s)).asv_score, float)
        assert len(ScoreSet.from_rows([])) == 0

    def test_select_keeps_order_and_values(self):
        l = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
        s = ScoreSet.from_rows([(f"t{i}", l, float(i), -float(i)) for i in range(5)])
        part = s.select(np.array([True, False, True, True, False]))
        assert part == ScoreSet.from_rows([(f"t{i}", l, float(i), -float(i)) for i in (0, 2, 3)])
        assert part.classes.tolist() == [0, 0, 0]
        assert len(s.select(np.zeros(5, dtype=bool))) == 0

    def test_value_equality(self):
        l = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
        s = ScoreSet.from_rows([("a", l, 1.0, 2.0)])
        assert s == ScoreSet(["a"], [l], np.array([1.0]), [2.0])
        assert s != ScoreSet.from_rows([("a", l, 1.0, 2.5)])
        assert s != ScoreSet.from_rows([("b", l, 1.0, 2.0)])
        assert s != "a"

    def test_of_trials_shares_the_trial_columns(self):
        labels = [TB, NB, label(AsvLabel.TARGET, CmLabel.SPOOF, "A01"), NB]
        trials = TrialSet.from_trials(trial(f"t{i}", l=l) for i, l in enumerate(labels))
        s = ScoreSet.of_trials(trials, np.arange(4.0), -np.arange(4.0))
        assert s.trial_ids is trials.ids and s.labels is trials.labels
        assert s.classes.tolist() == class_codes(labels).tolist() == [0, 1, 2, 1]
        assert s == ScoreSet.from_rows(zip(trials.ids, labels, range(4), (-x for x in range(4))))
        with pytest.raises(ValueError):
            s.asv[0] = 1.0
        with pytest.raises(ValueError, match="one length"):
            ScoreSet.of_trials(trials, np.zeros(4), np.zeros(3))

    def test_of_trials_names_the_first_non_finite_score(self):
        trials = TrialSet.from_trials(trial(f"t{i}") for i in range(4))
        cm = np.array([0.0, 0.0, np.inf, 0.0])
        with pytest.raises(RowError, match="non-finite score for trial 't1'") as err:
            ScoreSet.of_trials(trials, np.array([0.0, np.nan, 0.0, np.nan]), cm)
        assert err.value.row == 1
        with pytest.raises(RowError, match="non-finite score for trial 't2'"):
            ScoreSet.of_trials(trials, np.zeros(4), cm)

    def test_class_split(self):
        tb = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
        nb = label(AsvLabel.NONTARGET, CmLabel.BONAFIDE)
        rows = [
            ("a", tb, 1.0, 2.0),
            ("b", nb, -1.0, 2.5),
            ("c", label(AsvLabel.TARGET, CmLabel.SPOOF, "A02"), 0.5, -2.0),
            ("d", tb, 3.0, 1.0),
            ("e", label(AsvLabel.TARGET, CmLabel.SPOOF, "A01"), 0.7, -3.0),
            ("f", label(AsvLabel.TARGET, CmLabel.SPOOF, "A02"), 0.2, -1.0),
        ]
        cs = ScoreSet.from_rows(rows).class_split()
        # Each class's (asv, cm) pairs, in CM order.
        assert (cs.tb_asv.tolist(), cs.tb_cm.tolist()) == ([3.0, 1.0], [1.0, 2.0])
        assert (cs.nb_asv.tolist(), cs.nb_cm.tolist()) == ([-1.0], [2.5])
        assert (cs.sp_asv.tolist(), cs.sp_cm.tolist()) == ([0.7, 0.5, 0.2], [-3.0, -2.0, -1.0])
        assert cs.tb_asv_sorted.tolist() == [1.0, 3.0]
        assert cs.sp_asv_sorted.tolist() == [0.2, 0.5, 0.7]
        assert cs.bona_cm.tolist() == [1.0, 2.0, 2.5]
        assert cs.bona_asv.tolist() == [-1.0, 1.0, 3.0]
        assert cs.attacks == ("A01", "A02")
        assert cs.attack_bounds.tolist() == [0, 1, 3]
        groups = [(a, sorted(r.tolist()), c.tolist(), v.tolist()) for a, r, c, v in cs.by_attack()]
        assert groups == [
            ("A01", [4], [-3.0], [0.7]),
            ("A02", [2, 5], [-2.0, -1.0], [0.2, 0.5]),
        ]
        assert not cs.bona_cm.flags.writeable and not cs.attack_asv.flags.writeable


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
        write_features(path, TrialSet.from_trials(trials))
        loaded = read_features(path, labels, d_asv=3, d_cm=2)
        for a, b in zip(trials, loaded):
            assert np.array_equal(a.x_asv, b.x_asv)
            assert np.array_equal(a.x_cm, b.x_cm)

    @pytest.mark.parametrize("lines, message", [([0, 2], "first 't1'"), ([0, 1, 1, 2], "duplicate")])
    def test_features_must_cover_protocol_once(self, tmp_path, lines, message):
        l = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
        path = tmp_path / "f.txt"
        # A trial set holds each trial once, so the repeated line is written by hand.
        path.write_text("".join(f"t{i} 0 0 0 0 0\n" for i in lines))
        with pytest.raises(ValueError, match=message) as err:
            read_features(path, {f"t{i}": l for i in range(3)}, d_asv=3, d_cm=2)
        assert str(path) in str(err.value)

    def test_features_dimension_mismatch(self, tmp_path):
        l = label(AsvLabel.TARGET, CmLabel.BONAFIDE)
        t = Trial("t0", np.zeros(3), np.zeros(2), l)
        path = tmp_path / "f.txt"
        write_features(path, TrialSet.from_trials([t]))
        with pytest.raises(ValueError, match="expected"):
            read_features(path, {"t0": l}, d_asv=4, d_cm=2)


    @pytest.mark.parametrize(
        "kind, bad_line, message",
        [
            ("protocol", "t1 tgt bonafide -", "'tgt' is not a valid AsvLabel"),
            ("protocol", "t1 target bonafid -", "'bonafid' is not a valid CmLabel"),
            ("protocol", "t1 nontarget spoof A01", "spoof trials must claim the target speaker"),
            ("protocol", "t1 target bonafide A01", "bonafide trial cannot carry an attack_id"),
            ("features", "t1 0 abc 0 0 0", "could not convert string to float: 'abc'"),
            ("features", "t1 0 0 0 0 nan", "non-finite features for trial 't1'"),
            ("features", "t1 0 0 -inf 0 0", "non-finite features for trial 't1'"),
            ("features", "t0 0 0 0 0 0", "duplicate trial_id 't0'"),
            ("scores", "t1 abc 0", "could not convert string to float: 'abc'"),
            ("scores", "t1 0 inf", "non-finite score for trial 't1'"),
            ("scores", "t0 0 0", "duplicate trial_id 't0'"),
        ],
    )
    def test_malformed_line_is_named(self, tmp_path, kind, bad_line, message):
        labels = {"t0": TB, "t1": TB, "t2": NB}
        good = {
            "protocol": "{} target bonafide -",
            "features": "{} 0 0 0 0 0",
            "scores": "{} 0 0",
        }[kind]
        path = tmp_path / f"{kind}.txt"
        # The bad line is line 3, after a blank line; the lines around it are good.
        path.write_text("\n".join([good.format("t0"), "", bad_line, good.format("t2")]) + "\n")
        read = {
            "protocol": lambda: read_protocol(path),
            "features": lambda: read_features(path, labels, d_asv=3, d_cm=2),
            "scores": lambda: read_scores(path, labels),
        }[kind]
        with pytest.raises(ValueError) as err:
            read()
        assert str(err.value) == f"{path}:3: {message}"


class TestAtomicWrite:
    def test_replaces_the_file_only_on_success(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
            assert path.read_text() == "old\n"
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_write_leaves_no_trace(self, tmp_path, existing):
        path = tmp_path / "protocol.txt"
        if existing:
            path.write_text("old\n")

        def labels():
            yield "t0", TB
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_protocol(path, labels())
        assert [p.name for p in tmp_path.iterdir()] == (["protocol.txt"] if existing else [])
        if existing:
            assert path.read_text() == "old\n"


LABELS = st.sampled_from(
    [
        label(AsvLabel.TARGET, CmLabel.BONAFIDE),
        label(AsvLabel.NONTARGET, CmLabel.BONAFIDE),
        label(AsvLabel.TARGET, CmLabel.SPOOF, "A01"),
        label(AsvLabel.TARGET, CmLabel.SPOOF, "A17"),
    ]
)
SCORES = st.floats(allow_nan=False, allow_infinity=False)
ROWS = st.lists(
    st.tuples(st.text("abcxyz019_", min_size=1, max_size=6), LABELS, SCORES, SCORES),
    max_size=30,
    unique_by=lambda row: row[0],
)


class TestScoreSetProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(rows=ROWS)
    def test_order_and_values_survive_the_round_trip(self, tmp_path_factory, rows):
        s = ScoreSet.from_rows(rows)
        assert [(e.trial_id, e.label, e.asv_score, e.cm_score) for e in s] == rows
        assert ScoreSet.from_rows((e.trial_id, e.label, e.asv_score, e.cm_score) for e in s) == s
        assert filter_attacks(s, set()) == s
        path = tmp_path_factory.mktemp("scores") / "s.txt"
        write_scores(path, s)
        assert read_scores(path, {trial_id: l for trial_id, l, _, _ in rows}) == s
        assert s.classes.tolist() == [l.tandem_class for _, l, _, _ in rows]


TRIAL_IDS = st.text("abcxyz019_", min_size=1, max_size=6)
FEATURES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trial_sets(draw):
    """A trial set built from its columns, so that an empty one has widths too."""
    ids = draw(st.lists(TRIAL_IDS, max_size=20, unique=True))
    d_asv, d_cm = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def matrix(width):
        values = draw(st.lists(FEATURES, min_size=len(ids) * width, max_size=len(ids) * width))
        return np.array(values, dtype=np.float64).reshape(len(ids), width)

    labels = [draw(LABELS) for _ in ids]
    return d_asv, d_cm, TrialSet(ids, labels, matrix(d_asv), matrix(d_cm))


class TestTrialSetProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(drawn=trial_sets())
    def test_protocol_and_features_round_trip(self, tmp_path_factory, drawn):
        d_asv, d_cm, ts = drawn
        if len(ts):  # an empty list of trials has no widths to rebuild
            assert TrialSet.from_trials(ts) == ts
        folder = tmp_path_factory.mktemp("trials")
        write_protocol(folder / "p.txt", zip(ts.ids, ts.labels))
        write_features(folder / "f.txt", ts)
        loaded = read_features(folder / "f.txt", read_protocol(folder / "p.txt"), d_asv, d_cm)
        assert loaded == ts
        assert (loaded.ids, loaded.labels) == (ts.ids, ts.labels)
        assert loaded.classes.tolist() == ts.classes.tolist()
        for name in ("x_asv", "x_cm"):
            got, want = getattr(loaded, name), getattr(ts, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
