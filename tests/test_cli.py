import json
import shutil
from pathlib import Path

import pytest

from tandemopt.cli import main
from tandemopt.metrics import compute_metric_report
from tandemopt.records import read_rows_csv
from tandemopt.types import ASVSPOOF19_COST_PARAMS, read_protocol, read_scores

SMALL_CONFIG = """
# small world for fast CLI tests
seed = 3
n_speakers_train = 8
n_speakers_dev = 5
n_speakers_eval = 8
trials_per_class_train = 60
trials_per_class_dev = 60
trials_per_class_eval = 60
attacks = A01:seen:0.9:0.8, A02:seen:0.85:0.7, A07:unseen:0.88:0.72, A17:outlier:0.2:0.1
"""

PRETRAIN_ARGS = ["--asv-max-epochs", "12", "--cm-max-epochs", "4"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "world.cfg"
    config.write_text(SMALL_CONFIG)
    data = root / "data"
    assert main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
    ckpt = root / "pretrained.json"
    assert main(["pretrain", "--data", str(data), "--out", str(ckpt)] + PRETRAIN_ARGS) == 0
    return root, config, data, ckpt


class TestGenData:
    def test_writes_protocols_with_expected_counts(self, workspace):
        _, _, data, _ = workspace
        for split in ("train", "dev", "eval"):
            labels = read_protocol(data / f"{split}.protocol.txt")
            assert len(labels) == 180
        manifest = json.loads((data / "manifest.json").read_text())
        assert sorted(manifest["files"]) == manifest["files"]
        assert manifest["config"]["seed"] == 3
        # Outputs are written through temporary files; none is left behind.
        assert sorted(p.name for p in data.iterdir()) == sorted(manifest["files"] + ["manifest.json"])

    def test_same_seed_byte_identical(self, workspace, tmp_path):
        root, config, data, _ = workspace
        again = tmp_path / "data2"
        assert main(["gen-data", "--config", str(config), "--out", str(again)]) == 0
        for name in sorted(p.name for p in data.iterdir()):
            assert (again / name).read_bytes() == (data / name).read_bytes()

    def test_zero_trials_rejected_before_writing(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("trials_per_class_dev = 0\n")
        out = tmp_path / "never"
        assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 2
        assert "must be positive" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("n_speekers_dev = 5\n")
        assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "unknown config key" in capsys.readouterr().err


class TestPretrain:
    def test_missing_data_dir(self, tmp_path, capsys):
        rc = main(["pretrain", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "c.json")])
        assert rc == 2
        assert "gen-data" in capsys.readouterr().err

    def test_deterministic_checkpoint(self, workspace, tmp_path):
        _, _, data, ckpt = workspace
        again = tmp_path / "ckpt2.json"
        assert main(["pretrain", "--data", str(data), "--out", str(again)] + PRETRAIN_ARGS) == 0
        assert again.read_bytes() == Path(ckpt).read_bytes()

    def test_prints_initial_reports(self, workspace, capsys, tmp_path):
        _, _, data, _ = workspace
        out = tmp_path / "c.json"
        main(["pretrain", "--data", str(data), "--out", str(out)] + PRETRAIN_ARGS)
        printed = capsys.readouterr().out
        assert "dev:" in printed and "eval:" in printed and "min_norm_tdcf" in printed


class TestTrainTandem:
    def test_unknown_method_lists_valid_names(self, workspace, capsys, tmp_path):
        _, _, data, ckpt = workspace
        rc = main(
            ["train-tandem", "--method", "PPO", "--ckpt", str(ckpt), "--data", str(data),
             "--out", str(tmp_path / "runs")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown method" in err and "REINFORCE_TDCF" in err

    def test_run_outputs(self, workspace, tmp_path):
        _, _, data, ckpt = workspace
        runs = tmp_path / "runs"
        rc = main(
            ["train-tandem", "--method", "FINETUNE", "--ckpt", str(ckpt), "--data", str(data),
             "--seeds", "2", "--epochs", "1", "--out", str(runs),
             "--exclude-attacks", "A17"]
        )
        assert rc == 0
        for seed in (0, 1):
            rows = read_rows_csv(runs / f"FINETUNE_seed{seed}.csv")
            splits = {r.split for r in rows}
            assert splits == {"train", "dev", "eval", "eval_filtered"}
            assert [r.step for r in rows] == sorted(r.step for r in rows)
            summary = json.loads((runs / f"FINETUNE_seed{seed}_summary.json").read_text())
            assert summary["method"] == "FINETUNE"
        manifest = json.loads((runs / "manifest.json").read_text())
        assert len(manifest["files"]) == 2 * 5

    def test_zero_epochs_matches_evaluate(self, workspace, tmp_path):
        _, _, data, ckpt = workspace
        runs = tmp_path / "runs0"
        assert main(
            ["train-tandem", "--method", "FINETUNE", "--ckpt", str(ckpt), "--data", str(data),
             "--seeds", "1", "--epochs", "0", "--out", str(runs)]
        ) == 0
        report_path = tmp_path / "eval.json"
        assert main(
            ["evaluate", "--ckpt", str(ckpt), "--data", str(data), "--split", "eval",
             "--out", str(report_path)]
        ) == 0
        direct = json.loads(report_path.read_text())
        summary = json.loads((runs / "FINETUNE_seed0_summary.json").read_text())
        run_eval = summary["reports"]["eval"]["0"]
        for key in ("asv_eer", "cm_eer", "min_norm_tdcf"):
            assert run_eval[key] == direct[key]


class TestEvaluate:
    def test_round_trip_matches_library(self, workspace, tmp_path):
        _, _, data, ckpt = workspace
        out = tmp_path / "report.json"
        assert main(
            ["evaluate", "--ckpt", str(ckpt), "--data", str(data), "--split", "dev",
             "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        labels = read_protocol(data / "dev.protocol.txt")
        scores = read_scores(tmp_path / "report.scores.txt", labels)
        direct = compute_metric_report(scores, ASVSPOOF19_COST_PARAMS)
        assert direct.to_json_dict()["min_norm_tdcf"] == payload["min_norm_tdcf"]
        assert direct.to_json_dict()["asv_eer"] == payload["asv_eer"]
        assert direct.to_json_dict()["per_attack_cm_eer"] == payload["per_attack_cm_eer"]

    def test_identical_outputs_across_runs(self, workspace, tmp_path):
        _, _, data, ckpt = workspace
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["evaluate", "--ckpt", str(ckpt), "--data", str(data), "--out", str(a)])
        main(["evaluate", "--ckpt", str(ckpt), "--data", str(data), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_excluding_all_attacks_fails_cleanly(self, workspace, tmp_path, capsys):
        _, _, data, ckpt = workspace
        rc = main(
            ["evaluate", "--ckpt", str(ckpt), "--data", str(data), "--split", "eval",
             "--exclude-attacks", "A07,A17", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert "missing spoof class" in capsys.readouterr().err

    def test_costs_flag_changes_metric(self, workspace, tmp_path):
        _, _, data, ckpt = workspace
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["evaluate", "--ckpt", str(ckpt), "--data", str(data), "--out", str(a)])
        main(["evaluate", "--ckpt", str(ckpt), "--data", str(data), "--out", str(b),
              "--costs", "1,1,1,0.5,0.25,0.25"])
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ja["min_norm_tdcf"] != jb["min_norm_tdcf"]
        assert ja["asv_eer"] == jb["asv_eer"]  # EER ignores costs

    def test_bad_costs_rejected(self, workspace, tmp_path, capsys):
        _, _, data, ckpt = workspace
        rc = main(["evaluate", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(tmp_path / "x.json"), "--costs", "1,1,1,0.5,0.5,0.5"])
        assert rc == 2
        assert "invalid --costs" in capsys.readouterr().err

    def test_dim_mismatch_detected(self, workspace, tmp_path, capsys):
        root, config, data, ckpt = workspace
        other_cfg = tmp_path / "wide.cfg"
        other_cfg.write_text(SMALL_CONFIG + "\nd_asv = 12\n")
        wide_data = tmp_path / "wide"
        assert main(["gen-data", "--config", str(other_cfg), "--out", str(wide_data)]) == 0
        rc = main(
            ["evaluate", "--ckpt", str(ckpt), "--data", str(wide_data), "--out",
             str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert "dims mismatch" in capsys.readouterr().err


class TestInputChecks:
    def evaluate(self, ckpt, data, tmp_path):
        return main(["evaluate", "--ckpt", str(ckpt), "--data", str(data), "--out",
                     str(tmp_path / "r.json")])

    @pytest.mark.parametrize(
        "change, message",
        [({"format": "tandemopt-checkpoint-v0"}, "format 'tandemopt-checkpoint-v0'"),
         ({"format": None}, "format None"),
         ({"pair": None}, "no 'pair' entry")],
    )
    def test_checkpoint_checked(self, workspace, tmp_path, capsys, change, message):
        _, _, data, ckpt = workspace
        payload = json.loads(Path(ckpt).read_text())
        for key, value in change.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        bad = tmp_path / "bad_ckpt.json"
        bad.write_text(json.dumps(payload))
        assert self.evaluate(bad, data, tmp_path) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    @pytest.mark.parametrize(
        "system, key, value, message",
        [("asv", None, None, "KeyError: 'asv'"),
         ("cm", None, None, "KeyError: 'cm'"),
         ("cm", None, [], "AttributeError"),
         ("asv", "weights", None, "KeyError: 'weights'"),
         ("asv", "biases", [], "expected 2 weight and bias arrays"),
         ("cm", "activation", "relu6", "'relu6' is not a valid Activation")],
    )
    def test_checkpoint_pair_checked(self, workspace, tmp_path, capsys, system, key, value, message):
        _, _, data, ckpt = workspace
        payload = json.loads(Path(ckpt).read_text())
        owner, name = (payload["pair"], system) if key is None else (payload["pair"][system], key)
        if value is None:
            del owner[name]
        else:
            owner[name] = value
        bad = tmp_path / "bad_ckpt.json"
        bad.write_text(json.dumps(payload))
        assert self.evaluate(bad, data, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {bad} has a malformed 'pair'" in err and message in err

    def test_checkpoint_not_an_object(self, workspace, tmp_path, capsys):
        _, _, data, _ = workspace
        bad = tmp_path / "list_ckpt.json"
        bad.write_text("[]")
        assert self.evaluate(bad, data, tmp_path) == 2
        assert f"checkpoint {bad} has format None" in capsys.readouterr().err

    def test_manifest_without_config(self, workspace, tmp_path, capsys):
        _, _, data, ckpt = workspace
        copy = shutil.copytree(data, tmp_path / "data")
        manifest = json.loads((copy / "manifest.json").read_text())
        del manifest["config"]
        (copy / "manifest.json").write_text(json.dumps(manifest))
        assert self.evaluate(ckpt, copy, tmp_path) == 2
        err = capsys.readouterr().err
        assert str(copy / "manifest.json") in err and "no 'config' entry" in err

    @pytest.mark.parametrize("name", ["checkpoint", "manifest"])
    def test_file_that_is_not_json(self, workspace, tmp_path, capsys, name):
        _, _, data, ckpt = workspace
        copy = shutil.copytree(data, tmp_path / "data")
        ckpt_copy = Path(shutil.copy(ckpt, tmp_path / "ckpt.json"))
        bad = ckpt_copy if name == "checkpoint" else copy / "manifest.json"
        bad.write_text(bad.read_text()[:40])  # truncated
        assert self.evaluate(ckpt_copy, copy, tmp_path) == 2
        assert f"{name} {bad} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("change, key", [("add", "n_speekers"), ("drop", "d_asv")])
    def test_manifest_config_keys_checked(self, workspace, tmp_path, capsys, change, key):
        _, _, data, ckpt = workspace
        copy = shutil.copytree(data, tmp_path / "data")
        manifest = json.loads((copy / "manifest.json").read_text())
        if change == "add":
            manifest["config"][key] = 20
        else:
            del manifest["config"][key]
        (copy / "manifest.json").write_text(json.dumps(manifest))
        assert self.evaluate(ckpt, copy, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"manifest {copy / 'manifest.json'} has an invalid 'config'" in err and key in err

    def test_run_summary_checked(self, runs_dir, tmp_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        for name in ("FINETUNE_seed0.csv", "FINETUNE_seed0_summary.json"):
            shutil.copy(runs_dir / name, runs / name)
        summary_path = runs / "FINETUNE_seed0_summary.json"
        text = summary_path.read_text()
        summary_path.write_text(text[:-10])
        assert main(["report", "--runs", str(runs), "--out", str(tmp_path / "rep")]) == 2
        assert f"run summary {summary_path} is not valid JSON" in capsys.readouterr().err
        summary = json.loads(text)
        del summary["reports"]["dev"]["1"]["tau_asv"]
        summary_path.write_text(json.dumps(summary))
        assert main(["report", "--runs", str(runs), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert f"run summary {summary_path} is malformed" in err and "tau_asv" in err

    def test_missing_feature_line(self, workspace, tmp_path, capsys):
        _, _, data, ckpt = workspace
        copy = shutil.copytree(data, tmp_path / "data")
        features = copy / "eval.features.txt"
        lines = features.read_text().splitlines(keepends=True)
        dropped = lines.pop(7).split()[0]
        features.write_text("".join(lines))
        assert self.evaluate(ckpt, copy, tmp_path) == 2
        err = capsys.readouterr().err
        assert str(features) in err and repr(dropped) in err

    @pytest.mark.parametrize("flag", [["--lr", "-0.05"], ["--lr", "nan"], ["--lr", "0"]])
    def test_bad_learning_rate(self, workspace, tmp_path, capsys, flag):
        _, _, data, ckpt = workspace
        out = tmp_path / "runs"
        rc = main(["train-tandem", "--method", "REINFORCE", "--ckpt", str(ckpt), "--data",
                   str(data), "--seeds", "1", "--epochs", "1", "--out", str(out)] + flag)
        assert rc == 2
        assert "lr must be finite and positive" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["evaluate", "train-tandem"])
    def test_unknown_excluded_attacks_rejected(self, workspace, tmp_path, capsys, command):
        _, _, data, ckpt = workspace
        out = tmp_path / "out"
        args = {
            "evaluate": ["evaluate", "--out", str(out / "r.json")],
            "train-tandem": ["train-tandem", "--method", "REINFORCE", "--seeds", "1",
                             "--epochs", "1", "--out", str(out)],
        }[command]
        rc = main(args + ["--ckpt", str(ckpt), "--data", str(data),
                          "--exclude-attacks", "A17,A99,A98"])
        assert rc == 2
        assert "--exclude-attacks names attacks the data does not define: A98, A99" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_excluded_attack_absent_from_split_accepted(self, workspace, tmp_path):
        # A17 is an eval-only attack of the config: excluding it on dev is a no-op.
        _, _, data, ckpt = workspace
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["evaluate", "--ckpt", str(ckpt), "--data", str(data), "--split", "dev",
                     "--out", str(a)]) == 0
        assert main(["evaluate", "--ckpt", str(ckpt), "--data", str(data), "--split", "dev",
                     "--exclude-attacks", "A17", "--out", str(b)]) == 0
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
        assert jb.pop("excluded_attacks") == ["A17"] and ja.pop("excluded_attacks") == []
        assert ja == jb

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_must_be_positive(self, workspace, tmp_path, capsys, seeds):
        _, _, data, ckpt = workspace
        out = tmp_path / "runs"
        rc = main(["train-tandem", "--method", "REINFORCE", "--ckpt", str(ckpt), "--data",
                   str(data), "--seeds", seeds, "--out", str(out)])
        assert rc == 2
        assert f"--seeds must be at least 1, got {seeds}" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def runs_dir(workspace, tmp_path_factory):
    _, _, data, ckpt = workspace
    runs = tmp_path_factory.mktemp("runs")
    for method in ("FINETUNE", "REINFORCE"):
        assert main(
            ["train-tandem", "--method", method, "--ckpt", str(ckpt), "--data", str(data),
             "--seeds", "2", "--epochs", "1", "--out", str(runs)]
        ) == 0
    return runs


class TestReport:
    def test_comparison_and_curves(self, runs_dir, tmp_path):
        out = tmp_path / "report"
        assert main(["report", "--runs", str(runs_dir), "--out", str(out)]) == 0
        comparison = (out / "comparison.csv").read_text().splitlines()
        assert comparison[0].startswith("method,split,n_seeds")
        assert any(line.startswith("FINETUNE,dev") for line in comparison)
        curves = (out / "learning_curves.csv").read_text().splitlines()
        header = curves[0].split(",")
        assert "d_min_norm_tdcf_mean" in header
        # epoch-0 rows are exactly zero change
        epoch_col = header.index("epoch")
        for line in curves[1:]:
            parts = line.split(",")
            if parts[epoch_col] == "0":
                assert float(parts[header.index("d_min_norm_tdcf_mean")]) == 0.0
                assert float(parts[header.index("d_min_norm_tdcf_std")]) == 0.0

    def test_single_run_table_equals_final_report(self, workspace, tmp_path):
        _, _, data, ckpt = workspace
        runs = tmp_path / "single"
        assert main(
            ["train-tandem", "--method", "REINFORCE", "--ckpt", str(ckpt), "--data", str(data),
             "--seeds", "1", "--epochs", "1", "--out", str(runs)]
        ) == 0
        out = tmp_path / "rep"
        assert main(["report", "--runs", str(runs), "--out", str(out)]) == 0
        summary = json.loads((runs / "REINFORCE_seed0_summary.json").read_text())
        final = summary["reports"]["dev"]["1"]
        lines = (out / "comparison.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = next(l.split(",") for l in lines[1:] if l.startswith("REINFORCE,dev"))
        assert float(row[header.index("min_norm_tdcf_mean")]) == final["min_norm_tdcf"]
        assert float(row[header.index("min_norm_tdcf_std")]) == 0.0

    def test_identical_runs_have_zero_std(self, workspace, tmp_path):
        _, _, data, ckpt = workspace
        runs = tmp_path / "same"
        runs.mkdir()
        # three copies of the same seed masquerading as different seeds
        src = tmp_path / "src"
        assert main(
            ["train-tandem", "--method", "FINETUNE", "--ckpt", str(ckpt), "--data", str(data),
             "--seeds", "1", "--epochs", "1", "--out", str(src)]
        ) == 0
        for k in range(3):
            csv_text = (src / "FINETUNE_seed0.csv").read_text()
            summary = json.loads((src / "FINETUNE_seed0_summary.json").read_text())
            summary["seed"] = k
            (runs / f"FINETUNE_seed{k}.csv").write_text(csv_text)
            (runs / f"FINETUNE_seed{k}_summary.json").write_text(json.dumps(summary))
        out = tmp_path / "rep"
        assert main(["report", "--runs", str(runs), "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[header.index("min_norm_tdcf_std")]) == 0.0
            assert parts[header.index("n_seeds")] == "3"

    def test_table_recomputable_from_emitted_scores(self, workspace, tmp_path):
        # every comparison number must be reproducible from the emitted score
        # files using the metrics module alone
        _, _, data, ckpt = workspace
        runs = tmp_path / "runs"
        assert main(
            ["train-tandem", "--method", "SOFT_TDCF", "--ckpt", str(ckpt), "--data", str(data),
             "--seeds", "1", "--epochs", "1", "--out", str(runs)]
        ) == 0
        out = tmp_path / "rep"
        assert main(["report", "--runs", str(runs), "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        header = lines[0].split(",")
        for split in ("dev", "eval"):
            labels = read_protocol(data / f"{split}.protocol.txt")
            scores = read_scores(runs / f"SOFT_TDCF_seed0_{split}.scores.txt", labels)
            direct = compute_metric_report(scores, ASVSPOOF19_COST_PARAMS)
            row = next(l.split(",") for l in lines[1:] if l.startswith(f"SOFT_TDCF,{split},"))
            assert float(row[header.index("min_norm_tdcf_mean")]) == direct.min_norm_tdcf
            assert float(row[header.index("asv_eer_mean")]) == direct.asv_eer
            assert float(row[header.index("cm_eer_mean")]) == direct.cm_eer

    def test_inconsistent_configs_refused(self, runs_dir, workspace, tmp_path, capsys):
        _, _, data, ckpt = workspace
        bad = tmp_path / "mixed"
        bad.mkdir()
        for name in ("FINETUNE_seed0.csv", "FINETUNE_seed0_summary.json"):
            (bad / name).write_bytes((runs_dir / name).read_bytes())
        summary = json.loads((bad / "FINETUNE_seed0_summary.json").read_text())
        summary["config"]["lr"] = 123.0
        summary["method"] = "REINFORCE"
        (bad / "REINFORCE_seed0_summary.json").write_text(json.dumps(summary))
        (bad / "REINFORCE_seed0.csv").write_bytes((runs_dir / "REINFORCE_seed0.csv").read_bytes())
        rc = main(["report", "--runs", str(bad), "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert "inconsistent" in capsys.readouterr().err

    def test_empty_runs_dir_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--runs", str(empty), "--out", str(tmp_path / "rep")]) == 2
        assert "no run CSVs" in capsys.readouterr().err
