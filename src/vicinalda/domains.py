"""Synthetic source/target domain pairs and mini-batch sampling.

Generators are bit-reproducible under a seed. Target labels exist on the
dataset for evaluation and diagnostics only; the batch type handed to the
trainer cannot express them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import ContractError, Tensor, one_hot


@dataclass(frozen=True)
class DomainPairDataset:
    """A labeled source domain paired with an unlabeled target domain.

    target_y_eval is the held-out ground truth for the target split. It is
    consumed only by evaluation and diagnostics code paths.
    """

    source_x: Tensor
    source_y: Tensor
    target_x: Tensor
    target_y_eval: Tensor
    n_classes: int
    input_dim: int

    @property
    def n_source(self) -> int:
        return self.source_x.shape[0]

    @property
    def n_target(self) -> int:
        return self.target_x.shape[0]

    def head(self, n: int) -> DomainBatch:
        """Source rows 0..n-1 with their labels beside target rows 0..n-1."""
        return DomainBatch(xs=Tensor(self.source_x.data[:n]), ys=Tensor(self.source_y.data[:n]),
                           xt=Tensor(self.target_x.data[:n]))


@dataclass(frozen=True)
class DomainBatch:
    """One training mini-batch: labeled source rows, unlabeled target rows."""

    xs: Tensor
    ys: Tensor
    xt: Tensor

    def __post_init__(self):
        if self.xs.shape != self.xt.shape:
            raise ContractError(
                f"source and target batch shapes disagree: {self.xs.shape} vs {self.xt.shape}"
            )

    @property
    def m(self) -> int:
        return self.xs.shape[0]


def _pair_dataset(source: np.ndarray, target: np.ndarray, labels: np.ndarray,
                  perm: np.ndarray, n_classes: int) -> DomainPairDataset:
    """Both domains' rows in the order `perm`; the target shares the source labels."""
    y = one_hot(labels, n_classes)
    return DomainPairDataset(
        source_x=Tensor(source[perm]),
        source_y=Tensor(y[perm]),
        target_x=Tensor(target[perm]),
        target_y_eval=Tensor(y[perm]),
        n_classes=n_classes,
        input_dim=source.shape[1],
    )


def _balanced_counts(n: int, k: int) -> list[int]:
    base, rem = divmod(n, k)
    return [base + (1 if c < rem else 0) for c in range(k)]


def _moons_curve(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless two-moons curve points and labels, class-balanced within 1."""
    n0, n1 = _balanced_counts(n, 2)
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    x = np.vstack([upper, lower])
    y = np.concatenate([np.zeros(n0, dtype=np.intp), np.ones(n1, dtype=np.intp)])
    return x, y


def _rotation(deg: float) -> np.ndarray:
    rad = np.deg2rad(deg)
    c, s = np.cos(rad), np.sin(rad)
    return np.array([[c, -s], [s, c]])


def make_two_moons_pair(
    n_per_domain: int, rotation_deg: float, noise_std: float, seed: int
) -> DomainPairDataset:
    """Two-moons source plus a rotated copy of the same generator as target.

    Both domains are centered by the source mean and scaled by a single
    source std, so the rotation is about the source centroid and class
    geometry is preserved exactly in final coordinates.
    """
    if n_per_domain < 4:
        raise ContractError(f"n_per_domain must be >= 4, got {n_per_domain}")
    if noise_std < 0.0:
        raise ContractError(f"noise_std must be >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    curve, labels = _moons_curve(n_per_domain)
    source_raw = curve + rng.normal(0.0, noise_std, curve.shape) if noise_std > 0 else curve.copy()
    target_raw = curve + rng.normal(0.0, noise_std, curve.shape) if noise_std > 0 else curve.copy()
    perm = rng.permutation(n_per_domain)

    mean = source_raw.mean(axis=0)
    source_c = source_raw - mean
    target_c = target_raw - mean
    target_c = target_c @ _rotation(rotation_deg).T
    scale = source_c.std()
    source_c /= scale
    target_c /= scale

    return _pair_dataset(source_c, target_c, labels, perm, 2)


def make_blobs_pair(
    n_classes: int,
    d: int,
    shift: float,
    seed: int,
    n_per_domain: int = 1000,
    blob_std: float = 0.5,
) -> DomainPairDataset:
    """Gaussian class blobs; target means are source means plus a constant
    shift vector and a per-class offset that scales with the shift."""
    if n_classes < 2:
        raise ContractError(f"n_classes must be >= 2, got {n_classes}")
    if d < 2:
        raise ContractError(f"d must be >= 2, got {d}")
    if blob_std < 0.0:
        raise ContractError(f"blob_std must be >= 0, got {blob_std}")
    rng = np.random.default_rng(seed)

    means = rng.normal(0.0, 1.0, (n_classes, d))
    dists = [
        np.linalg.norm(means[i] - means[j])
        for i in range(n_classes)
        for j in range(i + 1, n_classes)
    ]
    min_dist = min(dists)
    if min_dist < 6.0 * blob_std:  # keep classes separable for any seed
        means *= 6.0 * blob_std / max(min_dist, 1e-9)
    shift_vec = shift * np.ones(d) / np.sqrt(d)
    offsets = 0.1 * shift * rng.normal(0.0, 1.0, (n_classes, d))
    target_means = means + shift_vec + offsets

    counts = _balanced_counts(n_per_domain, n_classes)
    labels = np.concatenate([np.full(c, cls, dtype=np.intp) for cls, c in enumerate(counts)])
    source_raw = np.vstack(
        [means[cls] + blob_std * rng.normal(size=(c, d)) for cls, c in enumerate(counts)]
    )
    target_raw = np.vstack(
        [target_means[cls] + blob_std * rng.normal(size=(c, d)) for cls, c in enumerate(counts)]
    )
    perm = rng.permutation(n_per_domain)

    mean = source_raw.mean(axis=0)
    scale = (source_raw - mean).std()
    source_c = (source_raw - mean) / scale
    target_c = (target_raw - mean) / scale

    return _pair_dataset(source_c, target_c, labels, perm, n_classes)


class _IndexStream:
    """Without-replacement index stream; reshuffles at each epoch boundary.

    When fewer than m indices remain in the current permutation, the batch
    is topped up from the start of a fresh permutation, so every index
    appears exactly once per epoch and no index is dropped.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self.perm = rng.permutation(n)
        self.cursor = 0

    def take(self, m: int) -> np.ndarray:
        out = np.empty(m, dtype=np.intp)
        filled = 0
        while filled < m:
            avail = self.n - self.cursor
            grab = min(avail, m - filled)
            out[filled : filled + grab] = self.perm[self.cursor : self.cursor + grab]
            self.cursor += grab
            filled += grab
            if self.cursor == self.n:
                self.perm = self.rng.permutation(self.n)
                self.cursor = 0
        return out


class DomainBatcher:
    """Paired mini-batch sampler; source and target streams are independent."""

    def __init__(self, ds: DomainPairDataset, m: int, rng: np.random.Generator):
        if m > min(ds.n_source, ds.n_target):
            raise ContractError(
                f"batch size {m} exceeds dataset sizes ({ds.n_source}, {ds.n_target})"
            )
        if m < 1:
            raise ContractError(f"batch size must be >= 1, got {m}")
        self.ds = ds
        self.m = m
        self._src = _IndexStream(ds.n_source, rng)
        self._tgt = _IndexStream(ds.n_target, rng)

    def next_indices(self) -> tuple[np.ndarray, np.ndarray]:
        return self._src.take(self.m), self._tgt.take(self.m)

    def next_batch(self) -> DomainBatch:
        si, ti = self.next_indices()
        return DomainBatch(
            xs=Tensor(self.ds.source_x.data[si]),
            ys=Tensor(self.ds.source_y.data[si]),
            xt=Tensor(self.ds.target_x.data[ti]),
        )
