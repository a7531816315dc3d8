"""Acceptance criteria.

Each test exercises one numbered criterion at its stated tolerance and
prints one pass/fail line (run with -s to see them live). The heavy
multi-seed training artifacts are built once per module.
"""

import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from vicinalda import diffcore as dc
from vicinalda.diffcore import Tensor, backward
from vicinalda.consensus import consensus_keep_mask, consensus_loss, make_views
from vicinalda.contrastive import (
    build_contrastive_pairs,
    confidence_mask,
    contrastive_loss,
    mask_oracle_mismatches,
    target_top1_probs,
)
from vicinalda.domains import DomainBatch, make_two_moons_pair
from vicinalda.diagnostics import empirical_emp, lambda_sweep
from vicinalda.model import (
    init_model,
    load_checkpoint,
    logits_of,
    one_hot_argmax,
)
from vicinalda.trainer import (
    TrainConfig,
    derive_seeds,
    evaluate,
    make_dataset,
    train,
    train_ratio_learner,
    warmup,
)
from vicinalda.vicinal import (
    RatioVector,
    brute_force_emp,
    emp_argmax,
    emp_learner_loss,
    emp_mixup_loss,
    maximality_violations,
    mix_identities_hold,
    ratio_agreement,
)

from tape_oracle import copy_params, dominance_fractions, pseudo_labels
from test_diffcore import (
    assert_grads_close,
    finite_difference_grads,
    random_small_graph,
    run_backward,
)


def report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {criterion}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"{criterion} failed: {detail}"
    assert elapsed < budget, f"{criterion} exceeded runtime budget ({elapsed:.1f}s)"


def random_label_rows(rng, m, n):
    t = np.zeros((m, n))
    t[np.arange(m), rng.integers(0, n, m)] = 1.0
    return t


def random_batch(rng, m=6, d=3, n=3):
    return DomainBatch(
        xs=Tensor(rng.normal(size=(m, d))),
        ys=Tensor(random_label_rows(rng, m, n)),
        xt=Tensor(rng.normal(size=(m, d))),
    )


def _timed_train(cfg):
    """One fixture train, run in a pool worker: its wall time and metrics path."""
    start = time.time()
    _, metrics_path = train(cfg)
    return time.time() - start, metrics_path


@pytest.fixture(scope="module")
def fixture_trains(tmp_path_factory):
    """The ten fixture trains, five full and five mixup-only, submitted at
    once to one spawn pool of at most two workers (never more than the
    cores). Maps ("full" | "emp", seed) to (config, future); a fixture that
    waits on its futures charges the wait to its own wall time."""
    configs = {}
    for seed in range(5):
        out = str(tmp_path_factory.mktemp(f"full_seed{seed}"))
        configs["full", seed] = TrainConfig(seed=seed, out_dir=out)
    for seed in range(5):
        out = str(tmp_path_factory.mktemp(f"emp_seed{seed}"))
        configs["emp", seed] = TrainConfig(seed=seed, out_dir=out, w_ct=0.0, w_cs=0.0)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(min(2, os.cpu_count() or 1), mp_context=context) as pool:
        yield {key: (cfg, pool.submit(_timed_train, cfg)) for key, cfg in configs.items()}


@pytest.fixture(scope="module")
def default_runs(fixture_trains):
    """Five full default-config runs plus their warmup checkpoints."""
    runs = []
    t0 = time.time()
    for seed in range(5):
        cfg, future = fixture_trains["full", seed]
        run_s, metrics_path = future.result()
        assert run_s < 300.0  # default run fits the 5 min budget
        ds = make_dataset(cfg, derive_seeds(seed).data)
        warm = load_checkpoint(f"{cfg.out_dir}/checkpoint_warmup.ckpt")
        final = load_checkpoint(f"{cfg.out_dir}/checkpoint_final.ckpt")
        warm_src, warm_tgt = evaluate(warm, ds)
        runs.append(
            dict(
                seed=seed,
                ds=ds,
                warm=warm,
                final=final,
                metrics_path=metrics_path,
                warm_src=warm_src,
                warm_tgt=warm_tgt,
                final_tgt=evaluate(final, ds)[1],
            )
        )
    return dict(runs=runs, elapsed=time.time() - t0)


@pytest.fixture(scope="module")
def emp_only_runs(fixture_trains):
    """Five runs with only the worst-case mixup loss enabled."""
    runs = []
    t0 = time.time()
    for seed in range(5):
        cfg, future = fixture_trains["emp", seed]
        future.result()
        ds = make_dataset(cfg, derive_seeds(seed).data)
        warm = load_checkpoint(f"{cfg.out_dir}/checkpoint_warmup.ckpt")
        final = load_checkpoint(f"{cfg.out_dir}/checkpoint_final.ckpt")
        runs.append(dict(warm_tgt=evaluate(warm, ds)[1], final_tgt=evaluate(final, ds)[1]))
    return dict(runs=runs, elapsed=time.time() - t0)


def _top2_gap(z: np.ndarray) -> float:
    s = np.sort(z, axis=1)
    return float(np.min(s[:, -1] - s[:, -2]))


def _mask_margin(p, xt, coeff: float) -> float:
    probs = target_top1_probs(p, xt)
    threshold = probs.mean() - coeff * probs.std(ddof=1)
    return float(np.min(np.abs(probs - threshold)))


def _stable_trials(make_trial, margin_fn, need: int, start_seed: int):
    """Draw deterministic trials whose argmax/mask sites have a safe flip
    margin: the losses hold the label side piecewise-constant, so finite
    differences validate the smooth part and must not straddle a flip."""
    trials, seed = [], start_seed
    while len(trials) < need:
        trial = make_trial(seed)
        if margin_fn(trial) > 1e-3:
            trials.append(trial)
        seed += 1
    return trials


def test_criterion_1_gradient_correctness():
    """50 random graphs spanning every core op and the method's losses."""
    t0 = time.time()
    rng = np.random.default_rng(11)
    checked = 0

    for _ in range(30):  # composite graphs over the full op set
        fn, params = random_small_graph(rng)
        assert_grads_close(run_backward(fn, params), finite_difference_grads(fn, params))
        checked += 1

    def make_mixup(seed):
        p = init_model(d=3, n_classes=3, feat_dim=4, hidden=5, hidden_g=6, seed=seed)
        batch = random_batch(np.random.default_rng(seed), m=6)
        lam = RatioVector(np.random.default_rng(seed + 1).integers(0, 11, 6) / 10.0)
        return p, batch, lam

    def mixup_margin(trial):
        p, batch, _ = trial
        return _top2_gap(logits_of(p, batch.xt.data).data)

    for p, batch, lam in _stable_trials(make_mixup, mixup_margin, 5, start_seed=0):
        params = p.theta_params()
        yt_hat = pseudo_labels(p, batch.xt.data)
        fn = lambda: emp_mixup_loss(p, batch, lam, yt_hat)[0]
        assert_grads_close(run_backward(fn, params), finite_difference_grads(fn, params))
        checked += 1

    for trial in range(5):
        # the ratio-learner objective is smooth in phi: its entropy-profile
        # target depends on theta only, which finite differences never move
        p = init_model(d=3, n_classes=3, feat_dim=4, hidden=5, hidden_g=6, seed=10 + trial)
        batch = random_batch(rng)
        params = p.phi_params()
        fn = lambda: emp_learner_loss(p, batch)[0]
        assert_grads_close(run_backward(fn, params), finite_difference_grads(fn, params))
        checked += 1

    def make_contrastive(seed):
        p = init_model(d=3, n_classes=3, feat_dim=4, hidden=5, hidden_g=6, seed=seed)
        batch = random_batch(np.random.default_rng(seed), m=8)
        pairs = build_contrastive_pairs(batch, RatioVector(np.full(8, 0.5)), 0.1, np.ones(8, bool))
        return p, batch, pairs

    def contrastive_margin(trial):
        p, batch, pairs = trial
        return min(
            _top2_gap(logits_of(p, pairs.x_sd).data),
            _top2_gap(logits_of(p, pairs.x_td).data),
            _top2_gap(logits_of(p, batch.xt.data).data),
        )

    for p, batch, pairs in _stable_trials(make_contrastive, contrastive_margin, 5, start_seed=20):
        yt_hat = pseudo_labels(p, batch.xt.data)
        params = p.theta_params()
        fn = lambda: contrastive_loss(p, pairs, batch.ys.data, yt_hat)[0]
        assert_grads_close(run_backward(fn, params), finite_difference_grads(fn, params))
        checked += 1

    def make_consensus(seed):
        p = init_model(d=3, n_classes=3, feat_dim=4, hidden=5, hidden_g=6, seed=seed)
        batch = random_batch(np.random.default_rng(seed), m=8)
        views = make_views(batch, 0.1, np.random.default_rng(seed + 1))
        return p, views

    def consensus_margin(trial):
        p, views = trial
        z1 = logits_of(p, views.x_v1).data
        z2 = logits_of(p, views.x_v2).data
        agg = dc.softmax_np(z1) + dc.softmax_np(z2)
        return min(_top2_gap(agg), _mask_margin(p, views.xt, 2.0))

    for p, views in _stable_trials(make_consensus, consensus_margin, 5, start_seed=40):
        params = p.theta_params()
        keep = consensus_keep_mask(p, views, 2.0)
        fn = lambda: consensus_loss(p, views, keep)
        assert_grads_close(run_backward(fn, params), finite_difference_grads(fn, params))
        checked += 1

    report(
        "criterion 1 (gradient correctness)",
        checked == 50,
        f"{checked}/50 graphs matched central differences at 1e-4",
        time.time() - t0,
        60.0,
    )


def test_criterion_2_emp_oracle_agreement():
    """Learned argmax ratios vs exhaustive search after ratio-only training."""
    t0 = time.time()
    ds = make_two_moons_pair(1000, 40.0, 0.05, seed=0)
    p = init_model(d=2, n_classes=2, seed=1)
    cfg = TrainConfig(seed=0)
    warmup(p, ds, cfg, np.random.default_rng(2))
    train_ratio_learner(p, ds, cfg, np.random.default_rng(3))  # lr 0.05, batch 64

    held = ds.head(256)
    exact, within_one = ratio_agreement(emp_argmax(p, held).values, brute_force_emp(p, held).values)
    report(
        "criterion 2 (EMP oracle agreement)",
        exact >= 0.70 and within_one >= 0.95,
        f"exact={exact:.3f} (need >=0.70), within one step={within_one:.3f} (need >=0.95)",
        time.time() - t0,
        120.0,
    )


def test_criterion_3_brute_force_maximality():
    """Exhaustive maximality of the searched ratio on every tested pair."""
    t0 = time.time()
    violations = 0
    pairs_checked = 0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        p = init_model(d=2, n_classes=2, seed=seed)
        if seed == 0:  # include a source-trained model, not just fresh inits
            ds = make_two_moons_pair(400, 40.0, 0.05, seed=5)
            warmup(p, ds, TrainConfig(warmup_epochs=10, n_per_domain=400), np.random.default_rng(6))
        violations += maximality_violations(p, random_batch(rng, m=64, d=2, n=2))
        pairs_checked += 64
    report(
        "criterion 3 (brute-force maximality)",
        violations == 0,
        f"0 violations required, found {violations} over {pairs_checked} pairs x 11 ratios",
        time.time() - t0,
        60.0,
    )


def test_criterion_4_equilibrium_collapse(default_runs):
    """Entropy peak moves toward 0.5 after adaptation on >= 4 of 5 seeds."""
    t0 = time.time()
    passing = 0
    details = []
    for run in default_runs["runs"]:
        emp_before, _ = empirical_emp(lambda_sweep(run["warm"], run["ds"]))
        emp_after, _ = empirical_emp(lambda_sweep(run["final"], run["ds"]))
        ok = 0.35 <= emp_after <= 0.65 and abs(emp_after - 0.5) < abs(emp_before - 0.5)
        passing += ok
        details.append(f"s{run['seed']}:{emp_before:.1f}->{emp_after:.1f}")
    elapsed = (time.time() - t0) + default_runs["elapsed"]
    report(
        "criterion 4 (equilibrium collapse reproduction)",
        passing >= 4,
        f"{passing}/5 seeds in [0.35,0.65] and closer to 0.5 ({', '.join(details)})",
        elapsed,
        1500.0,
    )


def test_criterion_5_adaptation_gain(default_runs, emp_only_runs):
    """Full training gains >= 5 points; mixup risk alone does not hurt."""
    t0 = time.time()
    full_gains = [r["final_tgt"] - r["warm_tgt"] for r in default_runs["runs"]]
    emp_gains = [r["final_tgt"] - r["warm_tgt"] for r in emp_only_runs["runs"]]
    mean_full = float(np.mean(full_gains))
    mean_emp = float(np.mean(emp_gains))
    elapsed = (time.time() - t0) + default_runs["elapsed"] + emp_only_runs["elapsed"]
    report(
        "criterion 5 (adaptation gain)",
        mean_full >= 0.05 and mean_emp >= 0.0,
        f"full gain {mean_full:+.3f} (need >=+0.05), mixup-only gain {mean_emp:+.3f} (need >=0)",
        elapsed,
        1500.0,
    )


def test_criterion_6_contrastive_identities(default_runs):
    """Mix identities bit-exact, labels sum to 1 exactly, dominance flips."""
    t0 = time.time()
    rng = np.random.default_rng(3)
    ok_mix = mix_identities_hold(rng.normal(size=(64, 2)), rng.normal(size=(64, 2)))

    run = default_runs["runs"][0]
    warm, ds = run["warm"], run["ds"]
    batch = ds.head(256)
    lam_star = brute_force_emp(warm, batch)
    mask = confidence_mask(target_top1_probs(warm, batch.xt.data), 2.0)
    pairs = build_contrastive_pairs(batch, lam_star, 0.1, mask)

    yt_hat = pseudo_labels(warm, batch.xt.data)
    idx = pairs.kept_indices
    z_sd = logits_of(warm, pairs.x_sd).data
    z_td = logits_of(warm, pairs.x_td).data
    lam_td = pairs.lam_td.values[:, None]
    lam_sd = pairs.lam_sd.values[:, None]
    label_td = lam_td * yt_hat[idx] + (1 - lam_td) * one_hot_argmax(z_sd, 2)
    label_sd = (1 - lam_sd) * batch.ys.data[idx] + lam_sd * one_hot_argmax(z_td, 2)
    ok_sums = bool(np.all(label_td.sum(axis=1) == 1.0) and np.all(label_sd.sum(axis=1) == 1.0))

    f_sd, f_td = dominance_fractions(warm, pairs, batch.ys.data)
    ok_flip = pairs.n_kept > 0 and f_sd > f_td
    report(
        "criterion 6 (contrastive identities)",
        ok_mix and ok_sums and ok_flip,
        f"mix identities={ok_mix}, label sums exact={ok_sums}, "
        f"dominance {f_sd:.3f}>{f_td:.3f} over {pairs.n_kept} kept pairs={ok_flip}",
        time.time() - t0,
        60.0,
    )


def test_criterion_7_consensus_zero_perturbation():
    """lam_p=0 reduces to doubled self-training in value and gradient."""
    t0 = time.time()
    worst_value_gap = 0.0
    worst_grad_gap = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed + 40)
        p = init_model(d=3, n_classes=3, seed=seed)
        batch = random_batch(rng, m=24)
        views = make_views(batch, 0.0, np.random.default_rng(seed))
        # beta 1e9 puts the threshold below every prob
        loss = consensus_loss(p, views, consensus_keep_mask(p, views, 1e9))
        z_t = logits_of(p, batch.xt.data)
        self_training = dc.cross_entropy(z_t, one_hot_argmax(z_t.data, 3))
        worst_value_gap = max(worst_value_gap, abs(loss.item() - 2.0 * self_training.item()))

        q = copy_params(p)
        views_q = make_views(batch, 0.0, np.random.default_rng(seed))
        backward(consensus_loss(q, views_q, consensus_keep_mask(q, views_q, 1e9)))
        grads_cs = [t.grad.copy() for t in q.theta_params()]
        for _, t in q.named_params():
            t.zero_grad()
        z_t2 = logits_of(q, batch.xt.data)
        backward(dc.cross_entropy(z_t2, one_hot_argmax(z_t2.data, 3)))
        for gc, t in zip(grads_cs, q.theta_params()):
            worst_grad_gap = max(worst_grad_gap, float(np.max(np.abs(gc - 2.0 * t.grad))))
    report(
        "criterion 7 (consensus zero-perturbation identity)",
        worst_value_gap < 1e-10 and worst_grad_gap < 1e-8,
        f"value gap {worst_value_gap:.2e} (<1e-10), gradient gap {worst_grad_gap:.2e} (<1e-8)",
        time.time() - t0,
        30.0,
    )


def test_criterion_8_mask_equivalence():
    """Mask equals the explicit mean/sample-std filter on 1000 vectors."""
    t0 = time.time()
    mismatches = mask_oracle_mismatches(np.random.default_rng(8))
    report(
        "criterion 8 (mask equivalence)",
        mismatches == 0,
        f"{1000 - mismatches}/1000 random vectors agreed exactly",
        time.time() - t0,
        30.0,
    )


def test_property_source_only_baseline_has_domain_gap(default_runs):
    """The rotation-40 task leaves a real gap for adaptation to close:
    source-only training scores above 0.98 at home, below 0.90 abroad."""
    warm_src = float(np.mean([r["warm_src"] for r in default_runs["runs"]]))
    warm_tgt = float(np.mean([r["warm_tgt"] for r in default_runs["runs"]]))
    assert warm_src > 0.98
    assert warm_tgt < 0.90


def test_property_swap_agreement_trend(default_runs):
    """The swapped-view agreement rate ends above its step-0 value."""
    improved = 0
    for run in default_runs["runs"]:
        lines = open(run["metrics_path"]).read().splitlines()[1:]
        first = float(lines[0].split(",")[9])
        last = float(lines[-1].split(",")[9])
        improved += last > first
    assert improved >= 4, f"agreement trend held on only {improved}/5 seeds"


def test_property_per_pair_peak_matches_sweep_peak(default_runs):
    """Mean per-pair exhaustive ratio sits within one grid step of the
    batch-level sweep peak once the landscape is unimodal (adapted model).
    Before adaptation the per-pair argmaxes are bimodal and the two
    statistics legitimately diverge."""
    for run in default_runs["runs"]:
        ds = run["ds"]
        n = 256
        ti = (np.arange(n) + 1) % n
        batch = DomainBatch(
            xs=Tensor(ds.source_x.data[:n]),
            ys=Tensor(ds.source_y.data[:n]),
            xt=Tensor(ds.target_x.data[ti]),
        )
        per_pair_mean = float(brute_force_emp(run["final"], batch).values.mean())
        peak, _ = empirical_emp(lambda_sweep(run["final"], ds, n))
        assert abs(per_pair_mean - peak) <= 0.1 + 1e-9


# sha256 of metrics.csv for seeds 0-4 at the default config, recorded
# before the tape-free forward took over the gradient-free passes. Training
# must keep every byte. The values come from OpenBLAS 0.3.31 (Haswell
# kernels) on x86-64; a BLAS that sums in another order gives other bytes.
GOLDEN_METRICS_SHA256 = {
    0: "593fd417cb5345b8126df678b0080b68d42560dbb11bce954c5842ecf83e3d12",
    1: "f4dfb429d14a4cec9c5631505522bab4092a61de11f94f8158f4d899b5e012ca",
    2: "ae6c7395d3bc1626bbc0811febe743251fcea50c40c8b36e2f4f84378e44d645",
    3: "0000f403fe85d1d60829443e5c3ff9bf1ecdafa54ce81f267d1941553c6c634e",
    4: "296695a4a1dbb7e6262f02a822a1faa3260d335ae223ef0768f201502b071519",
}


# sha256 of checkpoint_final.ckpt for the same runs. metrics.csv prints
# 6 decimals, so a last-bit change to a parameter can keep its digest;
# the checkpoint holds every parameter bit. Same BLAS caveat as above.
GOLDEN_FINAL_CHECKPOINT_SHA256 = {
    0: "f532339a3b1ea2afaf69ea87b97b605ef28a97eff87481a8e2402b4cd8e721f2",
    1: "05f0676c05fa821fa019bf389c5c9945891162e2fec51fa705b2b9a9f0d76763",
    2: "c4dc4404c6dcb25e7ba0ab8ce21f494a757e1707164cbde85e1cd18106b1fbec",
    3: "8a3f0e4ad38e1ef099bbe04745d9c9838ff61b16c3d5899d90a281c22cd08927",
    4: "90c45fc98dd1156d29ec0dcb3c70730f54f866e29bdb53dd9d53e3c403782f5d",
}


# sha256 of metrics.csv and checkpoint_final.ckpt for two short trains
# whose tape-free forwards cross row-block edges where the default config's
# do not: the wide shape (an 11 x 512-row grid table, 2048-row evaluate) and
# the default shape at batch 63 (693 grid rows). Recorded with 256-row
# forward blocks, before they became 480 rows; same BLAS caveat as above.
BLOCK_EDGE_CONFIGS = {
    "wide": dict(dataset="blobs", blob_classes=5, blob_dim=16, n_per_domain=1024,
                 hidden=256, feat_dim=64, batch_size=512, warmup_epochs=20, covi_epochs=2),
    "batch63": dict(batch_size=63, covi_epochs=8),
}
GOLDEN_BLOCK_EDGE_SHA256 = {
    "wide": (
        "90b1e1e595a6d1c728d0f7bb73900ee02344ca78be0d9e2b64769b7ddf9d9dfa",
        "5f8cb46e20f66ef3e325ac56c9558e4aa4bc806c43e61143cc78a94bfe348438",
    ),
    "batch63": (
        "c0be03ed7d12ddefb25af9f1aed73b106c5e2053fd677bd36549c8d21aae7f6e",
        "456db38b9b3bbb91225cefd4118c3a1537b51113a37e4062bc0597559dfa93a3",
    ),
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(BLOCK_EDGE_CONFIGS))
def test_block_edge_trains_match_golden_digests(name, tmp_path):
    _, metrics_path = train(TrainConfig(out_dir=str(tmp_path), **BLOCK_EDGE_CONFIGS[name]))
    final_path = os.path.join(str(tmp_path), "checkpoint_final.ckpt")
    assert (_sha256(metrics_path), _sha256(final_path)) == GOLDEN_BLOCK_EDGE_SHA256[name]


def test_default_metrics_match_golden_digests(default_runs):
    for run in default_runs["runs"]:
        digest = _sha256(run["metrics_path"])
        assert digest == GOLDEN_METRICS_SHA256[run["seed"]], f"seed {run['seed']}"


def test_default_final_checkpoints_match_golden_digests(default_runs):
    for run in default_runs["runs"]:
        path = os.path.join(os.path.dirname(run["metrics_path"]), "checkpoint_final.ckpt")
        digest = _sha256(path)
        assert digest == GOLDEN_FINAL_CHECKPOINT_SHA256[run["seed"]], f"seed {run['seed']}"


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed give byte-identical metrics files."""
    t0 = time.time()
    paths = []
    for tag in ("a", "b"):
        cfg = TrainConfig(
            seed=123,
            out_dir=str(tmp_path / tag),
            n_per_domain=300,
            warmup_epochs=5,
            covi_epochs=3,
        )
        _, metrics_path = train(cfg)
        paths.append(metrics_path)
    same = open(paths[0], "rb").read() == open(paths[1], "rb").read()
    report(
        "criterion 9 (determinism)",
        same,
        "metrics CSVs byte-identical across reruns",
        time.time() - t0,
        120.0,
    )
