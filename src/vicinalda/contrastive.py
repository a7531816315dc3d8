"""Contrastive views around the learned ratio boundary and the swapped
top-2 loss.

Each kept source/target pair is mixed twice, at lam* - omega (source
dominant) and lam* + omega (target dominant). Each view is supervised by
a convex label built at its own mixing weights from the trusted label of
its dominant component and the other view's top-1 prediction for the
swapped slot: the source-dominant view trusts the ground-truth source
label, the target-dominant view trusts the pure-target pseudo label.
Swapped one-hot labels are constants; no gradient flows through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import diffcore as dc
from .diffcore import ContractError, Tensor
from .domains import DomainBatch
from .model import ModelParams, forward_np, logits_of, one_hot_argmax
from .vicinal import RatioVector, mix_np


def confidence_mask(top1_probs: np.ndarray, alpha: float) -> np.ndarray:
    """Keep rows whose top-1 probability clears mean - alpha * std.

    std is the unbiased sample deviation (n-1). Fewer than two rows leave
    the deviation undefined; the documented fallback keeps everything.
    """
    probs = np.asarray(top1_probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ContractError(f"confidence_mask expects a 1-D prob vector, got {probs.shape}")
    if not ((probs >= 0.0) & (probs <= 1.0)).all():  # written so that nan fails it
        raise ContractError("top-1 probabilities must lie in [0, 1], without nan")
    if probs.size < 2:
        return np.ones(probs.size, dtype=bool)
    threshold = probs.mean() - alpha * probs.std(ddof=1)
    return probs >= threshold


def mask_oracle_mismatches(rng: np.random.Generator) -> int:
    """How many of 1000 random draws `confidence_mask` gets wrong against
    probs >= mean - alpha * std, the mean and sample std (n-1) written out
    as sums. A draw takes a size in [2, 50), that many probabilities in
    [0, 1), then alpha in [-1, 3)."""
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(2, 50))
        probs = rng.uniform(0.0, 1.0, m)
        alpha = float(rng.uniform(-1.0, 3.0))
        mean = probs.sum() / m
        std = np.sqrt(((probs - mean) ** 2).sum() / (m - 1))
        if not np.array_equal(confidence_mask(probs, alpha), probs >= mean - alpha * std):
            mismatches += 1
    return mismatches


def top1_probs(logits: np.ndarray) -> np.ndarray:
    """Top-1 softmax probability of each row of logits. Non-finite logits,
    which a model that overflowed gives, raise FloatingPointError."""
    probs = dc.softmax_np(logits).max(axis=1)
    if not np.isfinite(probs).all():
        raise FloatingPointError("non-finite top-1 probabilities: the model's logits overflowed")
    return probs


def target_top1_probs(p: ModelParams, xt: np.ndarray) -> np.ndarray:
    """Top-1 softmax probability of each unmixed target row."""
    return top1_probs(forward_np(p, xt))


@dataclass(frozen=True)
class ContrastivePair:
    """Both views of the kept pairs, built from the same (xs_i, xt_i)."""

    x_sd: np.ndarray
    x_td: np.ndarray
    lam_sd: RatioVector
    lam_td: RatioVector
    kept_indices: np.ndarray

    @property
    def n_kept(self) -> int:
        return len(self.kept_indices)


def build_contrastive_pairs(
    batch: DomainBatch,
    lam_star: RatioVector,
    omega: float,
    mask: np.ndarray,
) -> ContrastivePair:
    """Keep the pairs whose shifted ratios lam* - omega and lam* + omega
    stay within [0, 1] and whose confidence mask is true; mix both views
    for the survivors."""
    if not 0.0 < omega < 0.5:
        raise ContractError(f"omega must lie in (0, 0.5), got {omega}")
    lam = lam_star.values
    lam_sd_all = lam - omega
    lam_td_all = lam + omega
    keep = (lam_sd_all >= 0.0) & (lam_td_all <= 1.0) & np.asarray(mask, dtype=bool)
    idx = np.nonzero(keep)[0]

    xs = batch.xs.data[idx]
    xt = batch.xt.data[idx]
    lam_sd = RatioVector(lam_sd_all[idx])
    lam_td = RatioVector(lam_td_all[idx])
    return ContrastivePair(
        x_sd=mix_np(xs, xt, lam_sd.values[:, None]),
        x_td=mix_np(xs, xt, lam_td.values[:, None]),
        lam_sd=lam_sd,
        lam_td=lam_td,
        kept_indices=idx,
    )


class Top2(NamedTuple):
    """Per-row top-1 and top-2 class indices; k1 and k2 always differ."""

    k1: np.ndarray
    k2: np.ndarray


def top2_of(logits: np.ndarray) -> Top2:
    """Indices of the two largest entries per row; ties take lower indices
    first (stable sort on the negated row)."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ContractError(f"top2_of expects [m x n] with n >= 2, got {z.shape}")
    order = np.argsort(-z, axis=1, kind="stable")
    return Top2(k1=order[:, 0], k2=order[:, 1])


def contrastive_loss(
    p: ModelParams,
    pairs: ContrastivePair,
    ys: np.ndarray,
    yt_hat: np.ndarray,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Sum of the two swapped-label risks over the kept pairs.

    Per kept pair i (target fractions lam_sd < lam* < lam_td):
      target-dominant label = lam_td * yt_hat_i + (1 - lam_td) * top1(z_sd_i)
      source-dominant label = (1 - lam_sd) * ys_i + lam_sd * top1(z_td_i)
    Both cross entropies average over the kept pairs only. An empty kept
    set contributes a constant zero. Returns `(loss, z_sd, z_td)`, z_sd
    and z_td the view logits the loss tapes ([0 x n] when no pair is kept).
    """
    n = p.n_classes
    if pairs.n_kept == 0:
        return Tensor(0.0), np.empty((0, n)), np.empty((0, n))
    idx = pairs.kept_indices
    z_sd = logits_of(p, pairs.x_sd)
    z_td = logits_of(p, pairs.x_td)
    top1_sd = one_hot_argmax(z_sd.data, n)
    top1_td = one_hot_argmax(z_td.data, n)

    label_td = mix_np(top1_sd, yt_hat[idx], pairs.lam_td.values[:, None])
    label_sd = mix_np(ys[idx], top1_td, pairs.lam_sd.values[:, None])
    loss = dc.cross_entropy(z_td, label_td) + dc.cross_entropy(z_sd, label_sd)
    return loss, z_sd.data, z_td.data


def swap_agreement_of(z_sd: np.ndarray, z_td: np.ndarray) -> float:
    """Fraction of rows whose two view logits agree in the swapped sense:
    top1 of each view equals top2 of the other. No rows count 0."""
    if z_sd.shape[0] == 0:
        return 0.0
    k1_sd, k2_sd = top2_of(z_sd)
    k1_td, k2_td = top2_of(z_td)
    return float(np.mean((k1_sd == k2_td) & (k1_td == k2_sd)))


# kept for bench/tracer.py, which times it by name; covi_step calls
# swap_agreement_of on the logits its loss tapes
def swap_agreement(p: ModelParams, pairs: ContrastivePair) -> float:
    """`swap_agreement_of` the kept pairs' views at this theta."""
    return swap_agreement_of(forward_np(p, pairs.x_sd), forward_np(p, pairs.x_td))

