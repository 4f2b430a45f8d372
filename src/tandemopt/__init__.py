"""Tandem speaker-verification + anti-spoofing evaluation and optimization."""

from .types import (
    ASVSPOOF19_COST_PARAMS,
    AsvLabel,
    CmLabel,
    Decision,
    ErrorRates,
    MissingClassError,
    ScoreSet,
    TandemCostParams,
    Trial,
    TrialLabel,
    TrialSet,
    tandem_ground_truth,
    validate_cost_params,
)
from .metrics import (
    MetricReport,
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
from .nn import Activation, Direction, GradientTape, Scorer, finite_diff_check
from .calibration import Calibrator, accept_probability, sigmoid, train_calibrator
from .soft_tdcf import SoftThresholds, soft_rates, soft_tdcf_loss, soft_tdcf_train_step
from .tandem_train import (
    Method,
    Policy,
    PolicyPair,
    RewardKind,
    RewardSpec,
    Splits,
    TrainConfig,
    finetune_epoch,
    reinforce_epoch,
    reward,
    run_method,
    sample_action,
    score_trials,
    tandem_action_probability,
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
from .records import RunRecord, TelemetryRow, comparison_table, learning_curves

__version__ = "0.1.0"
