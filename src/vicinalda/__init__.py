"""Minimax mixup-ratio unsupervised domain adaptation on synthetic domain pairs.

A self-contained float64 autodiff core drives three cooperating training
signals: a learned worst-case mixing ratio per source/target pair, a
swapped top-2 consistency loss across the two views straddling that
ratio, and a label-consensus loss on source-perturbed target views.
Diagnostics sweep the mixing grid to show how the model's confusion peak
moves toward the domain midpoint as adaptation progresses.

The root exports the library entry point; the lower-level pieces are
imported from their modules (`vicinalda.trainer`, `vicinalda.model`,
`vicinalda.vicinal`, ...).
"""

from .trainer import TrainConfig, train

__all__ = ["TrainConfig", "train"]
__version__ = "0.1.0"
