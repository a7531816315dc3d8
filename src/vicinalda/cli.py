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
from .diffcore import SGD, ContractError, Tensor, backward
from .contrastive import confidence_mask
from .domains import DomainBatch, DomainBatcher, make_two_moons_pair
from .diagnostics import (
    empirical_emp,
    equilibrium_report,
    flip_text,
    lambda_sweep,
    sweep_samples,
    write_sweep_csv,
)
from .model import RATIO_GRID, init_model, load_checkpoint, logits_of
from .trainer import (
    TrainConfig,
    build_config,
    config_echo,
    derive_seeds,
    evaluate,
    make_dataset,
    train,
    warmup,
)
from .vicinal import (
    brute_force_emp,
    emp_argmax,
    emp_learner_loss,
    emp_mixup_loss,
    mix,
    mix_np,
    ratios,
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
    if args.config is not None and not os.path.exists(args.config):
        raise ContractError(f"config file not found: {args.config}")
    cfg = build_config(args.config, args.sets, args.out, args.seed)
    print("# effective config")
    print(config_echo(cfg))
    return cfg


def _checkpoint_path(cfg: TrainConfig, name: str) -> str:
    path = os.path.join(cfg.out_dir, name)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"expected checkpoint {path}; run `vicinalda train --out {cfg.out_dir}` first"
        )
    return path


def _cmd_train(cfg: TrainConfig) -> int:
    p, metrics_path = train(cfg)
    ds = make_dataset(cfg, derive_seeds(cfg.seed).data)
    src_acc, tgt_acc = evaluate(p, ds)
    print(f"metrics: {metrics_path}")
    print(f"final source_acc={src_acc:.4f} target_acc={tgt_acc:.4f}")
    return 0


def _cmd_eval(cfg: TrainConfig) -> int:
    p = load_checkpoint(_checkpoint_path(cfg, "checkpoint_final.ckpt"))
    ds = make_dataset(cfg, derive_seeds(cfg.seed).data)
    src_acc, tgt_acc = evaluate(p, ds)
    print(f"source_acc={src_acc:.4f} target_acc={tgt_acc:.4f}")
    return 0


def _cmd_sweep(cfg: TrainConfig) -> int:
    p = load_checkpoint(_checkpoint_path(cfg, "checkpoint_final.ckpt"))
    ds = make_dataset(cfg, derive_seeds(cfg.seed).data)
    rows = lambda_sweep(p, ds, n_samples=sweep_samples(ds))
    path = os.path.join(cfg.out_dir, "sweep.csv")
    write_sweep_csv(rows, path)
    lam_max, lam_flip = empirical_emp(rows)
    print(f"sweep: {path}")
    print(f"entropy_peak_lambda={lam_max:.1f} dominance_flip_lambda={flip_text(lam_flip)}")
    return 0


def _cmd_equilibrium(cfg: TrainConfig) -> int:
    before = load_checkpoint(_checkpoint_path(cfg, "checkpoint_warmup.ckpt"))
    after = load_checkpoint(_checkpoint_path(cfg, "checkpoint_final.ckpt"))
    ds = make_dataset(cfg, derive_seeds(cfg.seed).data)
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
    one_hot = np.eye(3)
    for trial in range(10):
        p = init_model(d=3, n_classes=3, feat_dim=4, hidden=5, hidden_g=6, seed=trial)
        batch = DomainBatch(
            xs=Tensor(rng.normal(size=(4, 3))),
            ys=Tensor(one_hot[rng.integers(0, 3, 4)]),
            xt=Tensor(rng.normal(size=(4, 3))),
        )
        lam = ratios(rng.uniform(0.1, 0.9, 4))
        yt_hat = Tensor(one_hot[rng.integers(0, 3, 4)])
        for fn, params in (
            (lambda: emp_mixup_loss(p, batch, lam, yt_hat), p.theta_params()),
            (lambda: emp_learner_loss(p, batch), p.phi_params()),
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
    ys = np.zeros((m, 2))
    ys[np.arange(m), rng.integers(0, 2, m)] = 1.0
    batch = DomainBatch(
        xs=Tensor(rng.normal(size=(m, 2))), ys=Tensor(ys), xt=Tensor(rng.normal(size=(m, 2)))
    )
    lam = brute_force_emp(p, batch)
    # recomputed ratio by ratio, not the stacked table brute_force_emp reads
    xs, xt = batch.xs.data, batch.xt.data
    table = np.stack(
        [dc.entropy_rows_np(logits_of(p, Tensor(mix_np(xs, xt, g))).data) for g in RATIO_GRID],
        axis=1,
    )
    chosen = table[np.arange(m), (lam.values * 10).round().astype(int)]
    return bool(np.all(chosen[:, None] >= table - 1e-15))


def _check_mask_equivalence(rng) -> bool:
    for _ in range(200):
        m = int(rng.integers(2, 40))
        probs = rng.uniform(0, 1, m)
        alpha = float(rng.uniform(-1, 3))
        mean = probs.sum() / m
        std = np.sqrt(((probs - mean) ** 2).sum() / (m - 1))
        if not np.array_equal(confidence_mask(probs, alpha), probs >= mean - alpha * std):
            return False
    return True


def _check_mix_identities(rng) -> bool:
    xs = Tensor(rng.normal(size=(5, 3)))
    xt = Tensor(rng.normal(size=(5, 3)))
    if not np.array_equal(mix(xs, xt, ratios(np.zeros(5))).data, xs.data):
        return False
    if not np.array_equal(mix(xs, xt, ratios(np.ones(5))).data, xt.data):
        return False
    mid = mix(Tensor([[2.0, 0.0]]), Tensor([[0.0, 2.0]]), ratios([0.5]))
    return bool(np.array_equal(mid.data, [[1.0, 1.0]]))


def _check_emp_agreement(seed: int) -> bool:
    """Compact run of the learned-vs-exhaustive ratio agreement protocol."""
    cfg = TrainConfig(seed=seed)
    seeds = derive_seeds(seed)
    ds = make_two_moons_pair(1000, 40.0, 0.05, seeds.data)
    p = init_model(d=2, n_classes=2, seed=seeds.model)
    warmup(p, ds, cfg, np.random.default_rng(seeds.warmup_batches))
    opt_phi = SGD(p.phi_params(), lr=0.05, momentum=0.9)
    batcher = DomainBatcher(ds, 64, np.random.default_rng(seeds.covi_batches))
    total = 2000
    for step in range(total):
        if step == int(total * 0.75):
            opt_phi.lr = 0.01
        backward(dc.neg(emp_learner_loss(p, batcher.next_batch())))
        opt_phi.step()
    held = DomainBatch(
        xs=Tensor(ds.source_x.data[:256]),
        ys=Tensor(ds.source_y.data[:256]),
        xt=Tensor(ds.target_x.data[:256]),
    )
    learned = emp_argmax(p, held).values
    oracle = brute_force_emp(p, held).values
    exact = float((np.abs(learned - oracle) < 1e-9).mean())
    within_one = float((np.abs(learned - oracle) < 0.1 + 1e-9).mean())
    print(f"  emp agreement: exact={exact:.3f} within_one={within_one:.3f}")
    return exact >= 0.7 and within_one >= 0.95


def _cmd_selftest(cfg: TrainConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    checks = [
        ("finite-difference gradients", lambda: _check_gradients(rng)),
        ("softmax and entropy bounds", lambda: _check_softmax_and_entropy(rng)),
        ("brute-force ratio maximality", lambda: _check_brute_force_maximality(rng)),
        ("confidence-mask equivalence", lambda: _check_mask_equivalence(rng)),
        ("mix endpoint identities", lambda: _check_mix_identities(rng)),
        ("learned-vs-exhaustive ratio agreement", lambda: _check_emp_agreement(cfg.seed)),
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
