"""Command-line entry point.

Verbs: train, eval, sweep, equilibrium, selftest. Every verb prints the
fully resolved config first, so any run is reproducible from its own
output. All artifacts land under --out (or the config's out_dir).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import diffcore as dc
from .diffcore import ContractError, Tensor
from .contrastive import mask_oracle_mismatches
from .domains import DomainBatch, DomainPairDataset
from .diagnostics import (
    empirical_emp,
    equilibrium_report,
    flip_text,
    lambda_sweep,
    sweep_samples,
    write_sweep_csv,
)
from .model import ModelParams, init_model, load_checkpoint
from .trainer import (
    TrainConfig,
    build_config,
    config_echo,
    derive_seeds,
    evaluate,
    make_dataset,
    model_dims,
    start_run,
    train,
    train_ratio_learner,
    warmup,
)
from .vicinal import (
    RatioVector,
    brute_force_emp,
    emp_argmax,
    emp_learner_loss,
    emp_mixup_loss,
    maximality_violations,
    mix_identities_hold,
    ratio_agreement,
)

USAGE_ERROR = 2
RUNTIME_ERROR = 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: every `main` call parses
    with it. `parse_args` returns a fresh namespace per call and copies the
    `--set` default before appending, so no call sees another's flags."""
    parser = argparse.ArgumentParser(
        prog="vicinalda",
        description="Minimax mixup-ratio domain adaptation on synthetic domain pairs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("train", "run warmup plus adaptation epochs, writing metrics and checkpoints"),
        ("eval", "load the final checkpoint under --out and print accuracies"),
        ("sweep", "sweep the ratio grid with the final checkpoint, writing sweep.csv"),
        ("equilibrium", "compare warmup and final checkpoints, writing the report"),
        ("selftest", "run the oracle suite; nonzero exit on any failure"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", metavar="PATH", default=None, help="key = value config file")
        p.add_argument(
            "--set",
            dest="sets",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", metavar="DIR", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="run seed")
    return parser


def _resolve_config(args) -> TrainConfig:
    cfg = build_config(args.config, args.sets, args.out, args.seed)
    print("# effective config")
    print(config_echo(cfg))
    return cfg


def _load_run(cfg: TrainConfig, *names: str) -> tuple[list[ModelParams], DomainPairDataset]:
    """The checkpoints `names` under out_dir and the dataset of the run
    `cfg` resolves to. A checkpoint whose header seed or dims are not that
    run's raises ContractError before a verb writes anything."""
    seeds = derive_seeds(cfg.seed)
    ds = make_dataset(cfg, seeds.data)
    want = {"model seed": seeds.model, **model_dims(cfg, ds)}
    checkpoints = []
    for name in names:
        path = os.path.join(cfg.out_dir, name)
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"expected checkpoint {path}; run `vicinalda train --out {cfg.out_dir}` first"
            )
        p = load_checkpoint(path)
        got = {"model seed": p.seed, **p.dims()}
        wrong = [f"{k} {got[k]} (checkpoint) vs {v} (config)"
                 for k, v in want.items() if got[k] != v]
        if wrong:
            raise ContractError(
                f"{path} is from another run: {', '.join(wrong)}; pass the --seed, "
                "--config and --set flags `train` was given"
            )
        checkpoints.append(p)
    return checkpoints, ds


def _cmd_train(cfg: TrainConfig) -> int:
    p, metrics_path = train(cfg)
    ds = make_dataset(cfg, derive_seeds(cfg.seed).data)
    src_acc, tgt_acc = evaluate(p, ds)
    print(f"metrics: {metrics_path}")
    print(f"final source_acc={src_acc:.4f} target_acc={tgt_acc:.4f}")
    return 0


def _cmd_eval(cfg: TrainConfig) -> int:
    (p,), ds = _load_run(cfg, "checkpoint_final.ckpt")
    src_acc, tgt_acc = evaluate(p, ds)
    print(f"source_acc={src_acc:.4f} target_acc={tgt_acc:.4f}")
    return 0


def _cmd_sweep(cfg: TrainConfig) -> int:
    (p,), ds = _load_run(cfg, "checkpoint_final.ckpt")
    rows = lambda_sweep(p, ds, n_samples=sweep_samples(ds))
    path = os.path.join(cfg.out_dir, "sweep.csv")
    write_sweep_csv(rows, path)
    lam_max, lam_flip = empirical_emp(rows)
    print(f"sweep: {path}")
    print(f"entropy_peak_lambda={lam_max:.1f} dominance_flip_lambda={flip_text(lam_flip)}")
    return 0


def _cmd_equilibrium(cfg: TrainConfig) -> int:
    (before, after), ds = _load_run(cfg, "checkpoint_warmup.ckpt", "checkpoint_final.ckpt")
    report = equilibrium_report(before, after, ds, cfg.out_dir, n_samples=sweep_samples(ds))
    print(f"report: {report.summary_path}")
    print(report.summary().rstrip())
    return 0


# ---------------------------------------------------------------------------
# selftest: the oracle suite


def _check_gradients(rng) -> bool:
    """The method's two losses that are smooth in the group they train,
    each against central differences: the worst-case mixup loss over theta
    with constant pseudo labels, and the ratio learner's objective over
    phi. The contrastive and consensus labels are argmaxes of the logits
    being differentiated, so the test suite checks those losses on trials
    screened for a safe argmax margin instead."""
    for trial in range(10):
        p = init_model(d=3, n_classes=3, feat_dim=4, hidden=5, hidden_g=6, seed=trial)
        batch = DomainBatch(
            xs=Tensor(rng.normal(size=(4, 3))),
            ys=Tensor(dc.one_hot(rng.integers(0, 3, 4), 3)),
            xt=Tensor(rng.normal(size=(4, 3))),
        )
        lam = RatioVector(rng.uniform(0.1, 0.9, 4))
        yt_hat = dc.one_hot(rng.integers(0, 3, 4), 3)
        for fn, params in (
            (lambda: emp_mixup_loss(p, batch, lam, yt_hat)[0], p.theta_params()),
            (lambda: emp_learner_loss(p, batch)[0], p.phi_params()),
        ):
            analytic = dc.backward_grads(fn, params)
            if dc.grad_mismatches(analytic, dc.finite_difference_grads(fn, params)):
                return False
    return True


def _check_softmax_and_entropy(rng) -> bool:
    for _ in range(50):
        z = rng.uniform(-1e3, 1e3, size=(6, 5))
        p = dc.softmax_np(z)
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-9:
            return False
        h = dc.entropy_rows_np(rng.normal(scale=5.0, size=(6, 4)))
        if np.any(h < -1e-12) or np.any(h > np.log(4) + 1e-12):
            return False
    return True


def _check_brute_force_maximality(rng) -> bool:
    p = init_model(d=2, n_classes=2, seed=1)
    m = 32
    ys = dc.one_hot(rng.integers(0, 2, m), 2)
    batch = DomainBatch(
        xs=Tensor(rng.normal(size=(m, 2))), ys=Tensor(ys), xt=Tensor(rng.normal(size=(m, 2)))
    )
    return maximality_violations(p, batch) == 0


def _check_emp_agreement(cfg: TrainConfig) -> bool:
    """Learned-vs-exhaustive ratio agreement, acceptance criterion 2's
    protocol, on the run `cfg` resolves to."""
    seeds, ds, p = start_run(cfg)
    warmup(p, ds, cfg, np.random.default_rng(seeds.warmup_batches))
    train_ratio_learner(p, ds, cfg, np.random.default_rng(seeds.covi_batches))
    held = ds.head(256)
    exact, within_one = ratio_agreement(emp_argmax(p, held).values, brute_force_emp(p, held).values)
    print(f"  emp agreement: exact={exact:.3f} within_one={within_one:.3f}")
    return exact >= 0.7 and within_one >= 0.95


def _cmd_selftest(cfg: TrainConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    checks = [
        ("finite-difference gradients", lambda: _check_gradients(rng)),
        ("softmax and entropy bounds", lambda: _check_softmax_and_entropy(rng)),
        ("brute-force ratio maximality", lambda: _check_brute_force_maximality(rng)),
        ("confidence-mask equivalence", lambda: mask_oracle_mismatches(rng) == 0),
        ("mix endpoint identities",
         lambda: mix_identities_hold(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))),
        ("learned-vs-exhaustive ratio agreement", lambda: _check_emp_agreement(cfg)),
    ]
    failures = 0
    for name, check in checks:
        t0 = time.time()
        ok = check()
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name} ({time.time() - t0:.1f}s)")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        command = {
            "train": _cmd_train,
            "eval": _cmd_eval,
            "sweep": _cmd_sweep,
            "equilibrium": _cmd_equilibrium,
            "selftest": _cmd_selftest,
        }[args.verb]
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return command(cfg)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # runtime failures: missing files, divergence
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
