"""Command-line front door: data generation, pretraining, the six-method
tandem comparison over repeated seeds, evaluation, and report emission.

Every command writes deterministic outputs (sorted JSON keys, exact float
round-trips, no timestamps), so a fixed seed reproduces files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .metrics import compute_metric_report, filter_attacks
from .records import (
    RunRecord,
    comparison_table,
    learning_curves,
    read_rows_csv,
    write_table_csv,
)
from .synthdata import (
    AttackSpec,
    AttackSplit,
    PretrainConfig,
    WorldConfig,
    default_world_config,
    generate_world,
    pretrain_pair,
)
from .tandem_train import (
    BENCHMARK_TANDEM_LR,
    Method,
    PolicyPair,
    Splits,
    TrainConfig,
    run_method,
    score_trials,
)
from .types import (
    ASVSPOOF19_COST_PARAMS,
    MissingClassError,
    TandemCostParams,
    TrialClass,
    TrialSet,
    atomic_write,
    read_features,
    read_protocol,
    write_features,
    write_protocol,
    write_scores,
)

DATA_MANIFEST = "manifest.json"
CHECKPOINT_FORMAT = "tandemopt-checkpoint-v1"
COSTS_HELP = (
    "six comma-separated values c_miss,c_fa,c_fa_spoof,rho_tar,rho_non,rho_spoof "
    "(default: ASVspoof19 convention)"
)


class CliError(Exception):
    pass


def _write_json(path: Path, payload: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: Path, what: str):
    """The payload of a JSON file the CLI reads; one that does not parse
    is an error naming the file."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CliError(f"{what} {path} is not valid JSON: {exc}") from exc


def _write_manifest(out_dir: Path, command: str, config: dict, files: list[str]) -> None:
    _write_json(
        out_dir / DATA_MANIFEST,
        {"command": command, "config": config, "files": sorted(files)},
    )


# ---------------------------------------------------------------------------
# Config file parsing: flat "key = value" lines, '#' comments. Attacks are
# comma-separated id:split:asv_effectiveness:cm_detectability tuples.
# ---------------------------------------------------------------------------

def parse_attacks(text: str) -> tuple[AttackSpec, ...]:
    attacks = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 4:
            raise CliError(
                f"bad attack {item!r}: expected id:split:asv_effectiveness:cm_detectability"
            )
        try:
            split = AttackSplit(parts[1])
        except ValueError:
            raise CliError(
                f"bad attack split {parts[1]!r}: expected seen, unseen, or outlier"
            ) from None
        attacks.append(
            AttackSpec(
                attack_id=parts[0],
                asv_effectiveness=float(parts[2]),
                cm_detectability=float(parts[3]),
                split=split,
            )
        )
    return tuple(attacks)


def load_world_config(path: str | None) -> WorldConfig:
    defaults = default_world_config()
    if path is None:
        return defaults
    # Each key is a WorldConfig field, parsed as the type of its default.
    parsers = {f.name: type(getattr(defaults, f.name)) for f in fields(WorldConfig)}
    parsers["attacks"] = parse_attacks
    values: dict = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in parsers:
            valid = sorted(parsers)
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}; valid: {valid}")
        values[key] = parsers[key](value)
    try:
        return replace(defaults, **values)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid config: {exc}") from exc


# ---------------------------------------------------------------------------
# Data directory IO
# ---------------------------------------------------------------------------


def _load_manifest(data_dir: Path) -> WorldConfig:
    manifest_path = data_dir / DATA_MANIFEST
    if not manifest_path.exists():
        raise CliError(f"missing {manifest_path}; run gen-data first")
    manifest = _read_json(manifest_path, "manifest")
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise CliError(f"manifest {manifest_path} has no 'config' entry")
    try:
        return WorldConfig.from_json_dict(manifest["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(
            f"manifest {manifest_path} has an invalid 'config': {type(exc).__name__}: {exc}"
        ) from exc


def _load_split(data_dir: Path, cfg: WorldConfig, split: str) -> TrialSet:
    protocol = data_dir / f"{split}.protocol.txt"
    features = data_dir / f"{split}.features.txt"
    if not protocol.exists() or not features.exists():
        raise CliError(f"missing data files for split {split!r} in {data_dir}")
    labels = read_protocol(protocol)
    return read_features(features, labels, cfg.d_asv, cfg.d_cm)


def _load_data_dir(data_dir: Path) -> tuple[WorldConfig, Splits]:
    cfg = _load_manifest(data_dir)
    loaded = {split: _load_split(data_dir, cfg, split) for split in ("train", "dev", "eval")}
    return cfg, Splits(**loaded)


def _load_checkpoint(path: Path) -> PolicyPair:
    if not path.exists():
        raise CliError(f"checkpoint {path} does not exist")
    payload = _read_json(path, "checkpoint")
    tag = payload.get("format") if isinstance(payload, dict) else None
    if tag != CHECKPOINT_FORMAT:
        raise CliError(f"checkpoint {path} has format {tag!r}, expected {CHECKPOINT_FORMAT!r}")
    if "pair" not in payload:
        raise CliError(f"checkpoint {path} has no 'pair' entry")
    try:
        return PolicyPair.from_json_dict(payload["pair"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(
            f"checkpoint {path} has a malformed 'pair': {type(exc).__name__}: {exc}"
        ) from exc


def _check_dims(pair: PolicyPair, cfg: WorldConfig) -> None:
    if pair.asv.scorer.input_dim != cfg.d_asv or pair.cm.scorer.input_dim != cfg.d_cm:
        raise CliError(
            f"checkpoint/data feature dims mismatch: checkpoint "
            f"({pair.asv.scorer.input_dim}, {pair.cm.scorer.input_dim}) vs data "
            f"({cfg.d_asv}, {cfg.d_cm})"
        )


def _cost_params(args) -> TandemCostParams:
    """Evaluation costs and priors; default is the ASVspoof19 convention."""
    raw = getattr(args, "costs", None)
    if raw is None:
        return ASVSPOOF19_COST_PARAMS
    parts = [float(v) for v in raw.split(",")]
    if len(parts) != 6:
        raise CliError(
            "expected --costs c_miss,c_fa,c_fa_spoof,rho_tar,rho_non,rho_spoof"
        )
    try:
        return TandemCostParams(*parts)
    except ValueError as exc:
        raise CliError(f"invalid --costs: {exc}") from exc


def _parse_excluded(arg: str | None, cfg: WorldConfig) -> set[str] | None:
    """The --exclude-attacks ids; each must be an attack the data's config
    defines, though not necessarily one of the evaluated split."""
    if arg is None:
        return None
    excluded = {a.strip() for a in arg.split(",") if a.strip()}
    unknown = sorted(excluded - {a.attack_id for a in cfg.attacks})
    if unknown:
        raise CliError(
            f"--exclude-attacks names attacks the data does not define: {', '.join(unknown)}"
        )
    return excluded


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = load_world_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = generate_world(cfg)
    files = []
    for split in ("train", "dev", "eval"):
        trials = getattr(splits, split)
        protocol = f"{split}.protocol.txt"
        features = f"{split}.features.txt"
        write_protocol(out_dir / protocol, zip(trials.ids, trials.labels))
        write_features(out_dir / features, trials)
        files += [protocol, features]
        n_tar, n_non, n_spf = (int((trials.classes == c).sum()) for c in TrialClass)
        attacks = sorted({label.attack_id for label in trials.labels if label.attack_id})
        print(
            f"{split}: {len(trials)} trials "
            f"(target {n_tar}, nontarget {n_non}, spoof {n_spf}; attacks {', '.join(attacks)})"
        )
    _write_manifest(out_dir, "gen-data", cfg.to_json_dict(), files)
    return 0


def cmd_pretrain(args) -> int:
    data_dir = Path(args.data)
    cfg, splits = _load_data_dir(data_dir)
    # Each pretrain flag sets the PretrainConfig field of the same name.
    pre = PretrainConfig(
        **{f.name: getattr(args, f.name) for f in fields(PretrainConfig) if hasattr(args, f.name)}
    )
    pair = pretrain_pair(splits.train, pre)
    params = _cost_params(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(
        out,
        {
            "format": CHECKPOINT_FORMAT,
            "pair": pair.to_json_dict(),
            "pretrain_config": pre.to_json_dict(),
            "d_asv": cfg.d_asv,
            "d_cm": cfg.d_cm,
        },
    )
    for split in ("dev", "eval"):
        report = compute_metric_report(score_trials(pair, getattr(splits, split)), params)
        print(f"{split}: {json.dumps(report.to_json_dict(), sort_keys=True)}")
    return 0


def cmd_train_tandem(args) -> int:
    try:
        method = Method(args.method.upper())
    except ValueError:
        raise CliError(
            f"unknown method {args.method!r}; valid: {[m.value for m in Method]}"
        ) from None
    if args.seeds < 1:
        raise CliError(f"--seeds must be at least 1, got {args.seeds}")
    data_dir = Path(args.data)
    cfg, splits = _load_data_dir(data_dir)
    pair = _load_checkpoint(Path(args.ckpt))
    _check_dims(pair, cfg)
    params = _cost_params(args)
    excluded = _parse_excluded(args.exclude_attacks, cfg)
    run_cfgs = [
        TrainConfig(
            lr=args.lr,
            batch_size=args.batch_size,
            epochs=args.epochs,
            balanced=True,
            seed=args.base_seed + k,
        )
        for k in range(args.seeds)
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    files = []
    train_cfg_snapshot = None
    for run_cfg in run_cfgs:
        train_cfg_snapshot = run_cfg.to_json_dict()
        record = run_method(method, pair, splits, run_cfg, params, exclude_attacks=excluded)
        stem = f"{method.value}_seed{run_cfg.seed}"
        record.write_csv(out_dir / f"{stem}.csv")
        _write_json(out_dir / f"{stem}_summary.json", record.to_summary_json_dict())
        _write_json(
            out_dir / f"{stem}_checkpoint.json",
            {
                "format": CHECKPOINT_FORMAT,
                "pair": record.final_pair.to_json_dict(),
                "d_asv": cfg.d_asv,
                "d_cm": cfg.d_cm,
            },
        )
        files += [f"{stem}.csv", f"{stem}_summary.json", f"{stem}_checkpoint.json"]
        for split in ("dev", "eval"):
            scores_name = f"{stem}_{split}.scores.txt"
            write_scores(
                out_dir / scores_name,
                score_trials(record.final_pair, getattr(splits, split)),
            )
            files.append(scores_name)
        final = record.final_report("dev")
        print(
            f"{stem}: dev min_norm_tdcf "
            f"{record.initial_report('dev').min_norm_tdcf:.6f} -> {final.min_norm_tdcf:.6f}"
        )
    snapshot = {
        "method": method.value,
        "seeds": args.seeds,
        "base_seed": args.base_seed,
        "train": train_cfg_snapshot,
        "exclude_attacks": sorted(excluded) if excluded else None,
    }
    _write_manifest(out_dir, "train-tandem", snapshot, files)
    return 0


def cmd_evaluate(args) -> int:
    data_dir = Path(args.data)
    cfg = _load_manifest(data_dir)
    trials = _load_split(data_dir, cfg, args.split)
    pair = _load_checkpoint(Path(args.ckpt))
    _check_dims(pair, cfg)
    params = _cost_params(args)
    excluded = _parse_excluded(args.exclude_attacks, cfg)
    scores = score_trials(pair, trials)
    if excluded:
        scores = filter_attacks(scores, excluded)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    scores_path = out.with_suffix("").as_posix() + ".scores.txt"
    write_scores(scores_path, scores)
    report = compute_metric_report(scores, params)
    payload = report.to_json_dict()
    payload["split"] = args.split
    payload["excluded_attacks"] = sorted(excluded) if excluded else []
    _write_json(out, payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    csvs = sorted(runs_dir.glob("*_seed*.csv"))
    if not csvs:
        raise CliError(f"no run CSVs found under {runs_dir}")
    runs = []
    for csv_path in csvs:
        summary_path = csv_path.with_name(csv_path.stem + "_summary.json")
        if not summary_path.exists():
            raise CliError(f"missing {summary_path} for {csv_path}")
        summary = _read_json(summary_path, "run summary")
        rows = read_rows_csv(csv_path)
        try:
            runs.append(RunRecord.from_summary_json_dict(summary, rows=rows))
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(
                f"run summary {summary_path} is malformed: {type(exc).__name__}: {exc}"
            ) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        table = comparison_table(runs)
        curves = learning_curves(runs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    write_table_csv(out_dir / "comparison.csv", table)
    write_table_csv(out_dir / "learning_curves.csv", curves)
    _write_manifest(
        out_dir,
        "report",
        {"runs": [p.name for p in csvs]},
        ["comparison.csv", "learning_curves.csv"],
    )
    for row in table:
        print(
            f"{row['method']:>20s} {row['split']:>13s} "
            f"min_norm_tdcf {row['min_norm_tdcf_mean']:.6f} +/- {row['min_norm_tdcf_std']:.6f}"
        )
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tandemopt",
        description="Tandem speaker-verification + anti-spoofing optimization benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic tandem dataset")
    p.add_argument("--config", help="flat key=value config file (defaults used if omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="pre-train the two systems separately")
    p.add_argument("--data", required=True, help="data directory from gen-data")
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--asv-lr", type=float, default=PretrainConfig.asv_lr)
    p.add_argument("--asv-max-epochs", type=int, default=PretrainConfig.asv_max_epochs)
    p.add_argument("--cm-lr", type=float, default=PretrainConfig.cm_lr)
    p.add_argument("--cm-max-epochs", type=int, default=PretrainConfig.cm_max_epochs)
    p.add_argument("--batch-size", type=int, default=PretrainConfig.batch_size)
    p.add_argument("--hidden", type=int, default=PretrainConfig.hidden)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-tandem", help="run one tandem-optimization method")
    p.add_argument("--method", required=True, help="|".join(m.value for m in Method))
    p.add_argument("--ckpt", required=True, help="pretrained checkpoint JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", type=int, default=3, help="number of repetitions")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--exclude-attacks", help="comma-separated attack ids for a filtered eval")
    p.add_argument("--lr", type=float, default=BENCHMARK_TANDEM_LR)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--costs", help=COSTS_HELP)
    p.set_defaults(func=cmd_train_tandem)

    p = sub.add_parser("evaluate", help="score a checkpoint and emit a metric report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "dev", "eval"), default="eval")
    p.add_argument("--exclude-attacks")
    p.add_argument("--costs", help=COSTS_HELP)
    p.add_argument("--out", required=True, help="metric report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="aggregate run CSVs into comparison tables")
    p.add_argument("--runs", required=True, help="directory of train-tandem outputs")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, MissingClassError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
