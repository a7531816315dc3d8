"""Inter-domain mixing and the minimax mixing-ratio machinery.

Ratio convention, fixed globally: lambda is the fraction of the TARGET
instance in a mix, so a mixed row is (1 - lam) * xs + lam * xt. The ratio
learner scores the 11-point grid per source/target pair; its hard argmax
drives the worst-case mixing loss for theta, while its training signal
(expected grid entropy) is differentiable into phi only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import ContractError, Tensor
from .domains import DomainBatch
from .model import (
    RATIO_GRID,
    ModelParams,
    emp_forward,
    emp_forward_np,
    encode_np,
    forward_np,
    logits_of,
)


@dataclass(frozen=True)
class RatioVector:
    """Per-pair mixing ratios in [0, 1]; each entry is the target fraction.
    `values` is held as a 1-D float64 array."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ContractError(f"ratio vector must be 1-D, got shape {v.shape}")
        # written so that nan fails it too
        if not ((v >= 0.0) & (v <= 1.0)).all():
            raise ContractError("ratio entries must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


def mix_np(xs: np.ndarray, xt: np.ndarray, lam) -> np.ndarray:
    """Plain-array mix (1 - lam) * xs + lam * xt with one ratio, a column
    of per-row ratios, or a stack of ratios that broadcasts against the
    rows. The two-product form keeps the lam = 0 and lam = 1 endpoints
    bit-exact."""
    return (1.0 - lam) * xs + lam * xt


def mix_identities_hold(xs: np.ndarray, xt: np.ndarray) -> bool:
    """`mix_np` gives xs at ratio 0 and xt at ratio 1 bit for bit, and the
    midpoint of (2, 0) and (0, 2) is exactly (1, 1)."""
    mid = mix_np(np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]]), 0.5)
    return (np.array_equal(mix_np(xs, xt, 0.0), xs)
            and np.array_equal(mix_np(xs, xt, 1.0), xt)
            and np.array_equal(mid, [[1.0, 1.0]]))


def grid_logits(p: ModelParams, xs: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Class logits of every source/target pair mixed at every grid ratio,
    shape [11m x n_classes], ratio-major: rows k*m to (k+1)*m - 1 hold
    ratio k. One stacked forward of `mix_np`'s mixes at all ratios. A row
    keeps the bits of its per-ratio forward where BLAS sums it alike in
    both: always when m is the forward block, since each ratio is then one
    block, and otherwise as measured (OpenBLAS, x86-64) at the default
    shape for every m that is a multiple of 4, as the default batch of 64
    is, and at the wide shape for every m tried, the wide batch of 512
    included.
    """
    mixes = mix_np(xs, xt, RATIO_GRID[:, None, None])
    return forward_np(p, mixes.reshape(-1, xs.shape[1]))


def grid_entropy_table(p: ModelParams, batch: DomainBatch) -> np.ndarray:
    """Per-pair prediction entropy at every grid ratio, shape [m x 11].

    Plain-array computation, no tape; this is the exhaustive view of the
    entropy landscape the ratio learner is trained to summarize, read from
    the stacked `grid_logits`. Logits that overflowed give non-finite
    entropies, which raise FloatingPointError: the table is where the
    adaptation step first reads the model's outputs.
    """
    entropies = dc.entropy_rows_np(grid_logits(p, batch.xs.data, batch.xt.data))
    if not np.isfinite(entropies).all():
        raise FloatingPointError("non-finite grid entropy table: the model's logits overflowed")
    # C order: numpy sums the rows of a transposed view in another order,
    # which would move the bits of the row statistics taken from the table
    return np.ascontiguousarray(entropies.reshape(-1, batch.m).T)


def brute_force_emp(p: ModelParams, batch: DomainBatch) -> RatioVector:
    """Exhaustive per-pair entropy-maximizing grid ratio; ties take the
    lower ratio. The oracle the learned ratio head is judged against."""
    table = grid_entropy_table(p, batch)
    return RatioVector(RATIO_GRID[np.argmax(table, axis=1)])


def maximality_violations(p: ModelParams, batch: DomainBatch) -> int:
    """Pairs whose `brute_force_emp` ratio some grid ratio beats strictly,
    on a table recomputed with one taped `logits_of` per grid ratio."""
    lam = brute_force_emp(p, batch)
    xs, xt = batch.xs.data, batch.xt.data
    table = np.stack(
        [dc.entropy_rows_np(logits_of(p, mix_np(xs, xt, g)).data) for g in RATIO_GRID],
        axis=1,
    )
    chosen = table[np.arange(batch.m), (lam.values * 10).round().astype(int)]
    return int(np.sum(np.any(chosen[:, None] < table, axis=1)))


def ratio_agreement(learned: np.ndarray, oracle: np.ndarray) -> tuple[float, float]:
    """Fractions of pairs whose learned grid ratio equals the oracle's
    (exact) and lies within one grid step of it (within_one)."""
    gap = np.abs(learned - oracle)
    return float((gap < 1e-9).mean()), float((gap < 0.1 + 1e-9).mean())


def emp_argmax_of(p: ModelParams, zs: np.ndarray, zt: np.ndarray) -> RatioVector:
    """Hard argmax over the learner's grid logits of source/target feature
    pairs; constant, no gradient. Ties take the lower grid index."""
    return RatioVector(RATIO_GRID[np.argmax(emp_forward_np(p, zs, zt), axis=1)])


def emp_argmax(p: ModelParams, batch: DomainBatch) -> RatioVector:
    """`emp_argmax_of` on the batch's encoder features at this theta."""
    return emp_argmax_of(p, encode_np(p, batch.xs.data), encode_np(p, batch.xt.data))


GRID_TEMPERATURE = 0.3  # sharpening of the per-pair entropy profile target


def grid_profile_target(table: np.ndarray) -> np.ndarray:
    """Row-softmax of the row-standardized entropy table at temperature
    tau = GRID_TEMPERATURE.

    Standardizing each pair's entropy profile equalizes gradient strength
    across pairs; a flat profile (zero deviation) maps to a uniform target,
    i.e. no preferred ratio. Row argmax is preserved exactly.
    """
    mu = table.mean(axis=1, keepdims=True)
    sd = table.std(axis=1, keepdims=True)
    standardized = (table - mu) / np.maximum(sd, 1e-8)
    return dc.softmax_np(standardized / GRID_TEMPERATURE)


def emp_learner_loss(p: ModelParams, batch: DomainBatch) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Ratio-learner objective, to be MAXIMIZED in phi with theta frozen.

    Gibbs variational form of per-pair entropy maximization over the grid:
    maximizing expected (standardized, temperature-scaled) mix entropy plus
    the entropy of the learner's own grid distribution has the closed-form
    optimum softmax(profile / tau), so this returns minus the cross entropy
    between the learner's grid logits and that target. Every row's optimum
    puts its argmax on the entropy-maximizing grid ratio, which is what the
    exhaustive-search oracle checks. The entropy table and the encoder
    features are constants, so the gradient reaches phi only.

    A plainer relaxation, entropy evaluated at the expected-grid ratio, was
    measured first and rejected: its logit updates are proportional to
    p_k * (grid_k - lam), an exponential-family tilt that parks the hard
    argmax at a grid endpoint while only the expectation tracks the peak.

    Returns `(loss, zs, zt)`, zs and zt the encoder features of batch.xs
    and batch.xt the learner read. A phi step leaves them valid, so they
    serve every later forward of these rows at this theta.
    """
    table = grid_entropy_table(p, batch)  # constants w.r.t. phi
    target = grid_profile_target(table)
    zs, zt = encode_np(p, batch.xs.data), encode_np(p, batch.xt.data)
    loss = dc.neg(dc.cross_entropy(emp_forward(p, zs, zt), target))
    return loss, zs, zt


def emp_mixup_loss(
    p: ModelParams,
    batch: DomainBatch,
    lam_star: RatioVector,
    yt_hat: np.ndarray,
) -> tuple[Tensor, np.ndarray]:
    """Worst-case vicinal risk for theta: cross entropy of the mix at the
    learned worst-case ratios against correspondingly mixed labels.

    lam_star is treated as a constant; `yt_hat`, the one-hot argmax
    predictions on batch.xt at this theta, carries no gradient, so the
    gradient reaches theta only. Returns `(loss, z)`, z the logits of the
    mix the loss tapes.
    """
    lam = lam_star.values[:, None]
    z = logits_of(p, mix_np(batch.xs.data, batch.xt.data, lam))
    loss = dc.cross_entropy(z, mix_np(batch.ys.data, yt_hat, lam))
    return loss, z.data
