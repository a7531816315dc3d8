"""Analysis of the vicinal entropy landscape and label dominance.

Sweeps a fixed set of source/target pairs across the ratio grid, records
mean prediction entropy and how often each side's true label wins the
top-1 prediction, and estimates where the model's confusion peaks and
where dominance flips. Target eval labels are used here and only here.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import ContractError
from .domains import DomainPairDataset
from .model import RATIO_GRID, ModelParams, atomic_open, grid_logits

DEFAULT_SWEEP_SAMPLES = 256
SWEEP_HEADER = ["lambda", "mean_entropy", "source_dom", "target_dom"]


def sweep_samples(ds: DomainPairDataset) -> int:
    """Pairs the read verbs sweep: DEFAULT_SWEEP_SAMPLES, or every source
    row of a smaller dataset."""
    return min(DEFAULT_SWEEP_SAMPLES, ds.n_source)


def flip_text(lam_flip: float | None) -> str:
    """A dominance-flip ratio as the reports print it."""
    return "absent" if lam_flip is None else f"{lam_flip:.1f}"


@dataclass(frozen=True)
class SweepRow:
    """Statistics of the fixed pair set mixed at one grid ratio."""

    lam: float
    mean_entropy: float
    source_dom: float
    target_dom: float


def lambda_sweep(
    p: ModelParams,
    ds: DomainPairDataset,
    n_samples: int = DEFAULT_SWEEP_SAMPLES,
) -> list[SweepRow]:
    """Mix a fixed set of n_samples source/target pairs at every grid ratio.

    Source row i is paired with target row (i + 1) mod n: pairing a row
    with its own counterpart would give both sides the same label (the
    generators preserve labels), and dominance analysis needs pairs whose
    sides can disagree. The fixed subset keeps curves comparable across
    checkpoints. Dominance counts compare the mixed top-1 against each
    side's true label.

    All ratios go through one stacked `grid_logits` forward, and each row's
    statistics are read from row k of [11 x n] views. The rows have the
    bits of one forward per ratio by construction only when n is the
    forward block, not at the default 256 pairs, where the blocks straddle
    the ratios. Elsewhere a logit can differ in the last bit (at the
    default shape it does for sizes that are not a multiple of 4); the
    tests compare the rows with the per-ratio loop at 32 to 256 pairs on
    the default and wide shapes, where the means and counts came out the
    same, and pin the sweep files' sha256.
    """
    if n_samples > min(ds.n_source, ds.n_target):
        raise ContractError(
            f"n_samples {n_samples} exceeds dataset size {min(ds.n_source, ds.n_target)}"
        )
    tgt_idx = (np.arange(n_samples) + 1) % n_samples
    xs = ds.source_x.data[:n_samples]
    xt = ds.target_x.data[tgt_idx]
    src_label = ds.source_y.data[:n_samples].argmax(axis=1)
    tgt_label = ds.target_y_eval.data[tgt_idx].argmax(axis=1)

    logits = grid_logits(p, xs, xt)
    entropy = dc.entropy_rows_np(logits).reshape(-1, n_samples)
    top1 = logits.argmax(axis=1).reshape(-1, n_samples)
    return [
        SweepRow(lam=float(lam), mean_entropy=float(h), source_dom=float(s), target_dom=float(t))
        for lam, h, s, t in zip(
            RATIO_GRID,
            entropy.mean(axis=1),
            (top1 == src_label).mean(axis=1),
            (top1 == tgt_label).mean(axis=1),
        )
    ]


def empirical_emp(sweep: list[SweepRow]) -> tuple[float, float | None]:
    """Grid ratio of maximum mean entropy, and the smallest grid ratio
    where target dominance strictly exceeds source dominance (None when
    no flip occurs)."""
    if not sweep:
        raise ContractError("empirical_emp needs a nonempty sweep")
    entropies = np.array([r.mean_entropy for r in sweep])
    lam_at_max = sweep[int(np.argmax(entropies))].lam
    lam_at_flip = None
    for row in sweep:
        if row.target_dom > row.source_dom:
            lam_at_flip = row.lam
            break
    return lam_at_max, lam_at_flip


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    """One header line, then one line per row at 6 decimals; written
    atomically (`atomic_open`)."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_HEADER)
        for r in rows:
            writer.writerow(
                [f"{r.lam:.6f}", f"{r.mean_entropy:.6f}", f"{r.source_dom:.6f}", f"{r.target_dom:.6f}"]
            )


@dataclass(frozen=True)
class EquilibriumReport:
    """Entropy-peak and dominance-flip estimates before and after training."""

    before_rows: list[SweepRow]
    after_rows: list[SweepRow]
    before_emp: float
    after_emp: float
    before_flip: float | None
    after_flip: float | None
    csv_before: str
    csv_after: str
    summary_path: str

    def summary(self) -> str:
        """The text written to summary_path: one line per checkpoint."""
        return (
            "checkpoint,entropy_peak_lambda,dominance_flip_lambda\n"
            f"before,{self.before_emp:.1f},{flip_text(self.before_flip)}\n"
            f"after,{self.after_emp:.1f},{flip_text(self.after_flip)}\n"
        )


def equilibrium_report(
    before: ModelParams,
    after: ModelParams,
    ds: DomainPairDataset,
    out_dir: str,
    n_samples: int = DEFAULT_SWEEP_SAMPLES,
) -> EquilibriumReport:
    """Sweep both checkpoints on the same pairs; write CSVs and a text
    summary of the two estimates per checkpoint."""
    os.makedirs(out_dir, exist_ok=True)
    before_rows = lambda_sweep(before, ds, n_samples)
    after_rows = lambda_sweep(after, ds, n_samples)
    before_emp, before_flip = empirical_emp(before_rows)
    after_emp, after_flip = empirical_emp(after_rows)

    csv_before = os.path.join(out_dir, "sweep_before.csv")
    csv_after = os.path.join(out_dir, "sweep_after.csv")
    write_sweep_csv(before_rows, csv_before)
    write_sweep_csv(after_rows, csv_after)

    report = EquilibriumReport(
        before_rows=before_rows,
        after_rows=after_rows,
        before_emp=before_emp,
        after_emp=after_emp,
        before_flip=before_flip,
        after_flip=after_flip,
        csv_before=csv_before,
        csv_after=csv_after,
        summary_path=os.path.join(out_dir, "equilibrium_summary.txt"),
    )
    with atomic_open(report.summary_path) as fh:
        fh.write(report.summary())
    return report
