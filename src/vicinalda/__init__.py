"""Minimax mixup-ratio unsupervised domain adaptation on synthetic domain pairs.

A self-contained float64 autodiff core drives three cooperating training
signals: a learned worst-case mixing ratio per source/target pair, a
swapped top-2 consistency loss across the two views straddling that
ratio, and a label-consensus loss on source-perturbed target views.
Diagnostics sweep the mixing grid to show how the model's confusion peak
moves toward the domain midpoint as adaptation progresses.
"""

from .consensus import ConsensusViews, consensus_labels, consensus_loss, make_views
from .contrastive import (
    ContrastivePair,
    Top2,
    build_contrastive_pairs,
    confidence_mask,
    contrastive_loss,
    top2_of,
)
from .diagnostics import SweepRow, empirical_emp, equilibrium_report, lambda_sweep
from .diffcore import (
    SGD,
    ContractError,
    ShapeError,
    Tensor,
    backward,
    cross_entropy,
)
from .domains import (
    DomainBatch,
    DomainBatcher,
    DomainPairDataset,
    make_blobs_pair,
    make_two_moons_pair,
)
from .model import (
    RATIO_GRID,
    ModelParams,
    emp_forward,
    init_model,
    load_checkpoint,
    pseudo_labels,
    save_checkpoint,
)
from .trainer import MetricsRow, TrainConfig, covi_step, evaluate, train, warmup
from .vicinal import (
    RatioVector,
    brute_force_emp,
    emp_argmax,
    emp_learner_loss,
    emp_mixup_loss,
    mix,
    mix_labels,
)

__all__ = [
    "SGD", "ContractError", "ShapeError", "Tensor", "backward",
    "cross_entropy",
    "DomainBatch", "DomainBatcher", "DomainPairDataset",
    "make_blobs_pair", "make_two_moons_pair",
    "RATIO_GRID", "ModelParams", "emp_forward",
    "init_model", "load_checkpoint", "pseudo_labels", "save_checkpoint",
    "RatioVector", "brute_force_emp", "emp_argmax",
    "emp_learner_loss", "emp_mixup_loss", "mix", "mix_labels",
    "ContrastivePair", "Top2", "build_contrastive_pairs", "confidence_mask",
    "contrastive_loss", "top2_of",
    "ConsensusViews", "consensus_labels", "consensus_loss", "make_views",
    "SweepRow", "empirical_emp", "equilibrium_report", "lambda_sweep",
    "MetricsRow", "TrainConfig", "covi_step", "evaluate", "train", "warmup",
]
__version__ = "0.1.0"
