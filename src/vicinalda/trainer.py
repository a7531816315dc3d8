"""Training orchestration: source-only warmup and the four-phase
adaptation step (ratio-learner ascent, worst-case mixup descent,
contrastive descent, consensus descent), plus evaluation, metrics, and
checkpointing.

Every run is bit-deterministic under its config seed: the dataset, model
init, batch order, and shuffles all derive from it, and the metrics CSV
is byte-identical across reruns.
"""

from __future__ import annotations

import dataclasses
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .consensus import consensus_keep_mask, consensus_loss, make_views
from .contrastive import (
    build_contrastive_pairs,
    confidence_mask,
    contrastive_loss,
    swap_agreement_of,
    top1_probs,
)
from .diffcore import SGD, ContractError, Tensor, backward
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
    atomic_open,
    classify_np,
    forward_np,
    init_model,
    logits_of,
    one_hot_argmax,
    save_checkpoint,
)
from .vicinal import emp_argmax_of, emp_learner_loss, emp_mixup_loss, mix_np

METRICS_HEADER = (
    "step,r_emp,r_ct,r_cs,source_acc,target_acc,mean_lambda_star,ct_keep,cs_keep,agreement"
)


@dataclass
class TrainConfig:
    """Run configuration; field names double as config-file keys."""

    dataset: str = "two_moons"
    n_per_domain: int = 1000
    rotation_deg: float = 40.0
    noise_std: float = 0.05
    blob_classes: int = 3
    blob_dim: int = 4
    blob_shift: float = 4.0
    blob_std: float = 0.5
    batch_size: int = 64
    warmup_epochs: int = 40
    covi_epochs: int = 60
    lr: float = 0.01
    phi_lr: float = 0.05
    momentum: float = 0.9
    omega: float = 0.1
    alpha: float = 2.0
    beta: float = 2.0
    lam_p: float = 0.1
    lam_p_adaptive: bool = False
    w_emp: float = 1.0
    w_ct: float = 1.0
    w_cs: float = 1.0
    space_sd: float = 0.0
    space_td: float = 1.0
    feat_dim: int = 32
    hidden: int = 64
    hidden_g: int = 64
    checkpoint_every: int = 0
    summed_theta_update: bool = False
    seed: int = 0
    out_dir: str = "runs/default"

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ContractError(f"config key {f.name} must be finite, got {value}")
        if self.dataset not in ("two_moons", "blobs"):
            raise ContractError(f"unknown dataset {self.dataset!r}")
        if self.lr <= 0 or self.phi_lr <= 0:
            raise ContractError("learning rates must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ContractError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0.0 < self.omega < 0.5:
            raise ContractError(f"omega must lie in (0, 0.5), got {self.omega}")
        if min(self.w_emp, self.w_ct, self.w_cs) < 0:
            raise ContractError("loss weights must be >= 0")
        if not 0.0 <= self.lam_p <= 0.5:
            raise ContractError(f"lam_p must lie in [0, 0.5], got {self.lam_p}")
        sd, td = self.space_sd, self.space_td
        if not (0.0 <= sd <= 1.0 and 0.0 <= td <= 1.0):
            raise ContractError(f"space_sd and space_td must lie in [0, 1], got {sd} and {td}")
        # build_contrastive_pairs' comparisons; with no grid ratio inside, phase 3 would be off
        if not ((RATIO_GRID - self.omega >= sd) & (RATIO_GRID + self.omega <= td)).any():
            raise ContractError(
                f"no grid ratio r has r - omega >= space_sd and r + omega <= space_td "
                f"(omega {self.omega}, space_sd {sd}, space_td {td})"
            )
        # the bounds the generators and init_model enforce, checked here so
        # that a refused run writes nothing under out_dir
        for name, low in (("n_per_domain", 4), ("blob_classes", 2), ("blob_dim", 2),
                          ("feat_dim", 1), ("hidden", 1), ("hidden_g", 1)):
            if getattr(self, name) < low:
                raise ContractError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.noise_std < 0.0:
            raise ContractError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.warmup_epochs < 1:
            raise ContractError("warmup_epochs must be >= 1")
        if self.covi_epochs < 0:
            raise ContractError("covi_epochs must be >= 0")
        if self.batch_size < 1 or self.batch_size > self.n_per_domain:
            raise ContractError("batch_size must lie in [1, n_per_domain]")
        if self.checkpoint_every < 0:
            raise ContractError("checkpoint_every must be >= 0")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        # config_echo must reproduce the run, so out_dir has to survive its
        # `key = value` line (parse_config_text strips and splits lines)
        if self.out_dir != self.out_dir.strip() or len(self.out_dir.splitlines()) > 1:
            raise ContractError(f"out_dir {self.out_dir!r} does not fit one config line")


def _coerce(field: dataclasses.Field, raw: str, key: str):
    for kind, parse, noun in (("int", int, "an integer"), ("float", float, "a number")):
        if field.type in (kind, parse):
            try:
                return parse(raw)
            except ValueError:
                raise ContractError(f"config key {key}: expected {noun}, got {raw!r}") from None
    if field.type in ("bool", bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ContractError(f"config key {key}: expected a boolean, got {raw!r}")
    return raw


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; blank lines and # comments are skipped."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ContractError(f"config line {lineno} is not a key = value pair: {line!r}")
        key, value = stripped.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def build_config(
    config_path: str | None = None,
    overrides: list[str] | None = None,
    out_dir: str | None = None,
    seed: int | None = None,
) -> TrainConfig:
    """Defaults, then config file, then --set overrides, then flag values.
    Unknown keys fail loudly, naming the offending key."""
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    cfg = TrainConfig()

    def apply(pairs: dict[str, str], origin: str) -> None:
        for key, raw in pairs.items():
            if key not in fields:
                raise ContractError(f"unknown config key {key!r} ({origin})")
            setattr(cfg, key, _coerce(fields[key], raw, key))

    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            apply(parse_config_text(fh.read()), config_path)
    for item in overrides or []:
        if "=" not in item:
            raise ContractError(f"override {item!r} is not KEY=VALUE")
        key, value = item.split("=", 1)
        apply({key.strip(): value.strip()}, "--set")
    if out_dir is not None:
        cfg.out_dir = out_dir
    if seed is not None:
        cfg.seed = seed
    cfg.validate()
    return cfg


def config_echo(cfg: TrainConfig) -> str:
    """The fully resolved config as reproducible key = value lines."""
    return "\n".join(
        f"{f.name} = {getattr(cfg, f.name)}" for f in dataclasses.fields(TrainConfig)
    )


@dataclass
class MetricsRow:
    """One adaptation-step record."""

    step: int
    r_emp: float
    r_ct: float
    r_cs: float
    source_acc: float
    target_acc: float
    mean_lambda_star: float
    ct_keep: float
    cs_keep: float
    agreement: float

    def csv_line(self) -> str:
        vals = [
            self.r_emp, self.r_ct, self.r_cs, self.source_acc, self.target_acc,
            self.mean_lambda_star, self.ct_keep, self.cs_keep, self.agreement,
        ]
        return f"{self.step}," + ",".join(f"{v:.6f}" for v in vals)


@dataclass(frozen=True)
class DerivedSeeds:
    """Independent integer seeds for every random stream of a run."""

    data: int
    model: int
    warmup_batches: int
    covi_batches: int
    views: int


def derive_seeds(seed: int) -> DerivedSeeds:
    state = np.random.SeedSequence(seed).generate_state(5)
    return DerivedSeeds(*(int(s) for s in state))


def make_dataset(cfg: TrainConfig, data_seed: int) -> DomainPairDataset:
    if cfg.dataset == "two_moons":
        return make_two_moons_pair(cfg.n_per_domain, cfg.rotation_deg, cfg.noise_std, data_seed)
    return make_blobs_pair(
        cfg.blob_classes, cfg.blob_dim, cfg.blob_shift, data_seed,
        n_per_domain=cfg.n_per_domain, blob_std=cfg.blob_std,
    )


def model_dims(cfg: TrainConfig, ds: DomainPairDataset) -> dict[str, int]:
    """The model dimensions of a run: input and class counts from its
    dataset, layer widths from its config."""
    return dict(d=ds.input_dim, n_classes=ds.n_classes, feat_dim=cfg.feat_dim,
                hidden=cfg.hidden, hidden_g=cfg.hidden_g)


def start_run(cfg: TrainConfig) -> tuple[DerivedSeeds, DomainPairDataset, ModelParams]:
    """The derived seeds, the dataset and the initial model of a run."""
    seeds = derive_seeds(cfg.seed)
    ds = make_dataset(cfg, seeds.data)
    return seeds, ds, init_model(**model_dims(cfg, ds), seed=seeds.model)


def evaluate(p: ModelParams, ds: DomainPairDataset) -> tuple[float, float]:
    """Argmax accuracy on both splits; target uses the eval-only labels."""
    src_pred = forward_np(p, ds.source_x.data).argmax(axis=1)
    tgt_pred = forward_np(p, ds.target_x.data).argmax(axis=1)
    src_acc = float(np.mean(src_pred == ds.source_y.data.argmax(axis=1)))
    tgt_acc = float(np.mean(tgt_pred == ds.target_y_eval.data.argmax(axis=1)))
    return src_acc, tgt_acc


def _steps_per_epoch(ds: DomainPairDataset, m: int) -> int:
    return int(np.ceil(ds.n_source / m))


def adaptive_lam_p(lam_p: float, mean_lambda_star: float, omega: float) -> float:
    """Clamp the source perturbation so the perturbed views stay outside the
    contrastive band: their target fraction 1 - lam_p must not fall below
    mean lambda* + omega."""
    return min(lam_p, max(0.0, 1.0 - (mean_lambda_star + omega)))


def warmup(
    p: ModelParams, ds: DomainPairDataset, cfg: TrainConfig, rng: np.random.Generator
) -> ModelParams:
    """Source-only cross-entropy training of theta; phi is untouched."""
    if cfg.warmup_epochs < 1:
        raise ContractError("warmup requires warmup_epochs >= 1")
    opt = SGD(p.theta_params(), lr=cfg.lr, momentum=cfg.momentum)
    batcher = DomainBatcher(ds, cfg.batch_size, rng)
    for _ in range(cfg.warmup_epochs):
        for _ in range(_steps_per_epoch(ds, cfg.batch_size)):
            batch = batcher.next_batch()
            backward(dc.cross_entropy(logits_of(p, batch.xs), batch.ys))
            opt.step()
    return p


class TrainingDiverged(RuntimeError):
    """The run went non-finite; aborted after a diagnostic dump."""


def _abort_diverged(reason: str, step: int, cfg: TrainConfig, p: ModelParams):
    lines = [f"aborted at step {step}: {reason}"]
    for name, t in p.named_params():
        lines.append(f"param {name}: |max|={np.max(np.abs(t.data)):.6e}")
    dump = "\n".join(lines) + "\n"
    if os.path.isdir(cfg.out_dir):
        with atomic_open(os.path.join(cfg.out_dir, f"diverged_step_{step}.txt")) as fh:
            fh.write(dump)
    raise TrainingDiverged(dump)


def _check_finite(value: float, phase: str, step: int, cfg: TrainConfig, p: ModelParams):
    if not np.isfinite(value):
        _abort_diverged(f"non-finite loss in phase {phase!r} (value {value!r})", step, cfg, p)


def _check_params_finite(step: int, cfg: TrainConfig, p: ModelParams, after: str = ""):
    # losses can fail confusingly once parameters go non-finite (relu maps
    # nan to 0, softmax of inf logits yields nan targets), so catch the
    # blowup at the parameters before any phase runs; `after` names the
    # phase that produced them when it is not the adaptation step
    for name, t in p.named_params():
        # the .all() method, not np.all, which costs a Python-level dispatch
        if not np.isfinite(t.data).all():
            where = f" after {after}" if after else ""
            _abort_diverged(f"non-finite values in parameter {name}{where}", step, cfg, p)


@contextmanager
def _overflow_diverges(phase: str, step: int, cfg: TrainConfig, p: ModelParams):
    # the grid entropy table and the top-1 probabilities behind the masks
    # are where the step first reads the model's outputs; each raises
    # FloatingPointError on a non-finite value, that is, on a model whose
    # finite but huge parameters overflowed
    try:
        yield
    except FloatingPointError as exc:
        _abort_diverged(f"{exc} in phase {phase!r}", step, cfg, p)


def covi_step(
    p: ModelParams,
    batch: DomainBatch,
    cfg: TrainConfig,
    opt_theta: SGD,
    opt_phi: SGD,
    views_rng: np.random.Generator,
    ds: DomainPairDataset,
    step: int,
) -> MetricsRow:
    """One four-phase adaptation step on one batch.

    Phase 1 always runs and updates phi only. Phases 2-4 update theta and
    are gated by their weights; with summed_theta_update they share one
    backward+step on the same pre-step theta. Each optimizer step clears
    its own group's gradients, and no phase writes the other group's, so
    every phase starts from cleared gradients.

    Theta does not move before phase 2, so phase 1's encoder features also
    give lambda* and phase 2's pseudo labels; the r_emp entropy and the swap
    agreement read the logits the losses tape. Each reused array is dropped
    when its phase ends.
    """
    _check_params_finite(step, cfg, p)

    # phase 1: ratio-learner ascent, theta frozen
    with _overflow_diverges("ratio-learner ascent", step, cfg, p):
        loss_phi, zs, zt = emp_learner_loss(p, batch, return_features=True)
    _check_finite(loss_phi.item(), "ratio-learner ascent", step, cfg, p)
    backward(dc.neg(loss_phi))
    opt_phi.step()
    del loss_phi

    lam_star = emp_argmax_of(p, zs, zt)
    mean_lambda = float(lam_star.values.mean())
    del zs

    r_mix = 0.0
    r_ct = 0.0
    r_cs = 0.0
    ct_keep = 0.0
    cs_keep = 0.0
    agreement = 0.0
    pending: list[Tensor] = []

    def theta_update(loss: Tensor, weight: float, phase: str) -> float:
        value = loss.item()
        _check_finite(value, phase, step, cfg, p)
        if weight > 0 and loss.requires_grad:
            if cfg.summed_theta_update:
                pending.append(loss * weight)
            else:
                backward(loss * weight)
                opt_theta.step()
        return value

    # phase 2: worst-case mixup descent. The r_emp metric takes the adversary's
    # achieved entropy at the chosen ratios from the logits the mixup tapes,
    # or from one forward when the phase is off
    if cfg.w_emp > 0:
        yt_hat = Tensor(one_hot_argmax(classify_np(p, zt), p.n_classes))
        loss, z_star = emp_mixup_loss(p, batch, lam_star, yt_hat, return_logits=True)
        ent_at_star = float(np.mean(dc.entropy_rows_np(z_star)))
        r_mix = theta_update(loss, cfg.w_emp, "worst-case mixup")
        del loss, z_star
    else:
        x_star = mix_np(batch.xs.data, batch.xt.data, lam_star.values[:, None])
        ent_at_star = float(np.mean(dc.entropy_rows_np(forward_np(p, x_star))))
    del zt

    if cfg.w_ct > 0:
        # one target forward at this theta feeds the mask and the pseudo labels
        zt = forward_np(p, batch.xt.data)
        with _overflow_diverges("contrastive", step, cfg, p):
            mask = confidence_mask(top1_probs(zt), cfg.alpha)
        pairs = build_contrastive_pairs(
            batch, lam_star, cfg.omega, mask, cfg.space_sd, cfg.space_td
        )
        ct_keep = pairs.n_kept / batch.m
        yt_hat = Tensor(one_hot_argmax(zt, p.n_classes))
        loss, z_sd, z_td = contrastive_loss(p, pairs, batch.ys, yt_hat, return_logits=True)
        agreement = swap_agreement_of(z_sd, z_td)
        r_ct = theta_update(loss, cfg.w_ct, "contrastive")
        del loss, z_sd, z_td

    if cfg.w_cs > 0:
        lam_p = cfg.lam_p
        if cfg.lam_p_adaptive:
            lam_p = adaptive_lam_p(lam_p, mean_lambda, cfg.omega)
        views = make_views(batch, lam_p, views_rng)
        with _overflow_diverges("consensus", step, cfg, p):
            keep = consensus_keep_mask(p, views, cfg.beta)
        cs_keep = float(keep.mean())
        r_cs = theta_update(consensus_loss(p, views, cfg.beta, keep), cfg.w_cs, "consensus")

    if pending:
        total = pending[0]
        for extra in pending[1:]:
            total = total + extra
        backward(total)
        opt_theta.step()

    src_acc, tgt_acc = evaluate(p, ds)
    return MetricsRow(
        step=step,
        r_emp=r_mix - ent_at_star,
        r_ct=r_ct,
        r_cs=r_cs,
        source_acc=src_acc,
        target_acc=tgt_acc,
        mean_lambda_star=mean_lambda,
        ct_keep=ct_keep,
        cs_keep=cs_keep,
        agreement=agreement,
    )


def run_covi_epochs(
    p: ModelParams,
    ds: DomainPairDataset,
    cfg: TrainConfig,
    opt_theta: SGD,
    opt_phi: SGD,
    batcher: DomainBatcher,
    views_rng: np.random.Generator,
    writer=None,
    on_epoch_end=None,
) -> list[MetricsRow]:
    """The adaptation epochs; used by train() and by warm-restart tests."""
    rows: list[MetricsRow] = []
    step = 0
    for epoch in range(cfg.covi_epochs):
        for _ in range(_steps_per_epoch(ds, cfg.batch_size)):
            row = covi_step(p, batcher.next_batch(), cfg, opt_theta, opt_phi, views_rng, ds, step)
            rows.append(row)
            if writer is not None:
                writer.write(row.csv_line() + "\n")
            step += 1
        if on_epoch_end is not None:
            on_epoch_end(epoch)
    return rows


def train(cfg: TrainConfig) -> tuple[ModelParams, str]:
    """Warmup then adaptation epochs; writes metrics and checkpoints under
    cfg.out_dir and returns the final params with the metrics path."""
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    # open before any compute so an unwritable directory fails immediately
    metrics_fh = open(metrics_path, "w", encoding="utf-8", newline="\n")
    try:
        metrics_fh.write(METRICS_HEADER + "\n")
        seeds, ds, p = start_run(cfg)
        warmup(p, ds, cfg, np.random.default_rng(seeds.warmup_batches))
        # a diverged warm-up aborts before it can leave a checkpoint behind
        _check_params_finite(0, cfg, p, after="warm-up")
        save_checkpoint(p, os.path.join(cfg.out_dir, "checkpoint_warmup.ckpt"))

        opt_theta = SGD(p.theta_params(), lr=cfg.lr, momentum=cfg.momentum)
        opt_phi = SGD(p.phi_params(), lr=cfg.phi_lr, momentum=cfg.momentum)
        batcher = DomainBatcher(ds, cfg.batch_size, np.random.default_rng(seeds.covi_batches))
        views_rng = np.random.default_rng(seeds.views)

        def on_epoch_end(epoch: int) -> None:
            if cfg.checkpoint_every > 0 and (epoch + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(
                    p, os.path.join(cfg.out_dir, f"checkpoint_epoch_{epoch + 1:04d}.ckpt")
                )

        run_covi_epochs(
            p, ds, cfg, opt_theta, opt_phi, batcher, views_rng,
            writer=metrics_fh, on_epoch_end=on_epoch_end,
        )
        save_checkpoint(p, os.path.join(cfg.out_dir, "checkpoint_final.ckpt"))
    finally:
        metrics_fh.close()
    return p, metrics_path
