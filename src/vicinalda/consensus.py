"""Target-label consensus on doubly source-perturbed target views.

Two views of every target row are built by mixing in a small fraction of
source rows, the second with the source rows shuffled. Both views must
agree on one aggregated one-hot label. lam_p here is the SOURCE fraction
(the perturbation strength), matching the view construction
x = lam_p * xs + (1 - lam_p) * xt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import ContractError, Tensor
from .contrastive import confidence_mask, target_top1_probs
from .domains import DomainBatch
from .model import ModelParams, logits_of, one_hot_argmax
from .vicinal import mix_np


@dataclass(frozen=True)
class ConsensusViews:
    """The two perturbed views plus what is needed to mask them."""

    x_v1: np.ndarray
    x_v2: np.ndarray
    xt: np.ndarray  # unmixed target rows; the confidence mask is computed on these


def make_views(batch: DomainBatch, lam_p: float, rng: np.random.Generator) -> ConsensusViews:
    """x_v1 = lam_p*xs + (1-lam_p)*xt, x_v2 the same with shuffled source rows."""
    if not 0.0 <= lam_p <= 0.5:
        raise ContractError(f"lam_p must lie in [0, 0.5], got {lam_p}")
    shuffle = rng.permutation(batch.m)
    xs, xt = batch.xs.data, batch.xt.data
    # lam_p is the source fraction, so the target rows go first
    return ConsensusViews(
        x_v1=mix_np(xt, xs, lam_p),
        x_v2=mix_np(xt, xs[shuffle], lam_p),
        xt=xt,
    )


def consensus_labels(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """One-hot argmax of the summed softmax probabilities; ties take the
    lower class index."""
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z1.shape != z2.shape:
        raise ContractError(f"consensus logits shapes disagree: {z1.shape} vs {z2.shape}")
    agg = dc.softmax_np(z1) + dc.softmax_np(z2)
    return one_hot_argmax(agg, z1.shape[1])


def consensus_keep_mask(p: ModelParams, views: ConsensusViews, beta: float) -> np.ndarray:
    """Confidence mask over the unmixed target rows at coefficient beta."""
    return confidence_mask(target_top1_probs(p, views.xt), beta)


def consensus_loss(p: ModelParams, views: ConsensusViews, keep: np.ndarray) -> Tensor:
    """Both views' cross entropy against their shared consensus label,
    averaged over the rows `keep` marks, the mask `consensus_keep_mask`
    gives at this theta. The label is a constant; an empty kept set
    contributes a constant zero."""
    z1 = logits_of(p, views.x_v1)
    z2 = logits_of(p, views.x_v2)
    y_hat = consensus_labels(z1.data, z2.data)
    kept = np.nonzero(keep)[0]
    if kept.size == 0:
        return Tensor(0.0)
    y_kept = y_hat[kept]
    return dc.cross_entropy(dc.take_rows(z1, kept), y_kept) + dc.cross_entropy(
        dc.take_rows(z2, kept), y_kept
    )
