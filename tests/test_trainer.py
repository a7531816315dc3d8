"""Tests for config handling, the four-phase step, and the training loop."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vicinalda import diffcore as dc
from vicinalda.diffcore import SGD, ContractError, Tensor, backward
from vicinalda.consensus import consensus_keep_mask, consensus_loss, make_views
from vicinalda.contrastive import (
    build_contrastive_pairs,
    confidence_mask,
    contrastive_loss,
    swap_agreement,
    target_top1_probs,
)
from vicinalda.domains import DomainBatcher
from vicinalda.model import (
    RATIO_GRID,
    init_model,
    load_checkpoint,
    logits_of,
    pseudo_labels,
)
from vicinalda.trainer import (
    METRICS_HEADER,
    MetricsRow,
    TrainConfig,
    TrainingDiverged,
    adaptive_lam_p,
    build_config,
    config_echo,
    covi_step,
    derive_seeds,
    evaluate,
    make_dataset,
    parse_config_text,
    run_covi_epochs,
    train,
    warmup,
)
from vicinalda.vicinal import emp_argmax, emp_learner_loss, emp_mixup_loss, mix, ratios

from tape_oracle import copy_params
from test_model import params_checksum


def tiny_cfg(**kw) -> TrainConfig:
    base = dict(
        n_per_domain=160,
        batch_size=32,
        warmup_epochs=4,
        covi_epochs=2,
        seed=0,
        out_dir="/tmp/vicinalda-test-default",
    )
    base.update(kw)
    return TrainConfig(**base)


def setup_run(cfg):
    seeds = derive_seeds(cfg.seed)
    ds = make_dataset(cfg, seeds.data)
    p = init_model(
        d=ds.input_dim, n_classes=ds.n_classes, feat_dim=cfg.feat_dim,
        hidden=cfg.hidden, hidden_g=cfg.hidden_g, seed=seeds.model,
    )
    warmup(p, ds, cfg, np.random.default_rng(seeds.warmup_batches))
    return ds, p, seeds


def first_step(cfg):
    """The first adaptation step after warm-up: its row and theta checksum."""
    ds, p, seeds = setup_run(cfg)
    batcher = DomainBatcher(ds, cfg.batch_size, np.random.default_rng(seeds.covi_batches))
    row = covi_step(
        p, batcher.next_batch(), cfg,
        SGD(p.theta_params(), cfg.lr, cfg.momentum),
        SGD(p.phi_params(), cfg.phi_lr, cfg.momentum),
        np.random.default_rng(seeds.views), ds, 0,
    )
    return row, params_checksum(p.theta_params())


def finite_floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


@st.composite
def configs(draw):
    """TrainConfigs whose numeric fields pass validate(); out_dir is any text."""
    n = draw(st.integers(4, 10**6))
    omega = draw(finite_floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True))
    # the space bounds admit at least the grid ratio r
    r = draw(st.sampled_from([float(v) for v in RATIO_GRID if v - omega >= 0 and v + omega <= 1]))
    return TrainConfig(
        dataset=draw(st.sampled_from(["two_moons", "blobs"])),
        n_per_domain=n,
        rotation_deg=draw(finite_floats()),
        noise_std=draw(finite_floats(min_value=0.0)),
        blob_classes=draw(st.integers(2, 10**6)),
        blob_dim=draw(st.integers(2, 10**6)),
        blob_shift=draw(finite_floats()),
        blob_std=draw(finite_floats()),
        batch_size=draw(st.integers(1, n)),
        warmup_epochs=draw(st.integers(1, 10**6)),
        covi_epochs=draw(st.integers(0, 10**6)),
        lr=draw(finite_floats(min_value=0.0, exclude_min=True)),
        phi_lr=draw(finite_floats(min_value=0.0, exclude_min=True)),
        momentum=draw(finite_floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        omega=omega,
        alpha=draw(finite_floats()),
        beta=draw(finite_floats()),
        lam_p=draw(finite_floats(min_value=0.0, max_value=0.5)),
        lam_p_adaptive=draw(st.booleans()),
        w_emp=draw(finite_floats(min_value=0.0)),
        w_ct=draw(finite_floats(min_value=0.0)),
        w_cs=draw(finite_floats(min_value=0.0)),
        space_sd=draw(finite_floats(min_value=0.0, max_value=r - omega)),
        space_td=draw(finite_floats(min_value=r + omega, max_value=1.0)),
        feat_dim=draw(st.integers(1, 10**6)),
        hidden=draw(st.integers(1, 10**6)),
        hidden_g=draw(st.integers(1, 10**6)),
        checkpoint_every=draw(st.integers(0, 10**6)),
        summed_theta_update=draw(st.booleans()),
        seed=draw(st.integers(0, 2**70)),
        out_dir=draw(st.text()),
    )


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_parse_text_with_comments(self):
        pairs = parse_config_text("# run\nlr = 0.02\n\nseed = 5\n")
        assert pairs == {"lr": "0.02", "seed": "5"}

    def test_build_from_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr = 0.02\nomega = 0.2\nsummed_theta_update = true\n")
        cfg = build_config(str(path), overrides=["lr=0.03"], out_dir="/tmp/x", seed=9)
        assert cfg.lr == 0.03
        assert cfg.omega == 0.2
        assert cfg.summed_theta_update is True
        assert cfg.out_dir == "/tmp/x"
        assert cfg.seed == 9

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning_rate = 0.1\n")
        with pytest.raises(ContractError, match="learning_rate"):
            build_config(str(path))

    def test_bad_override_rejected(self):
        with pytest.raises(ContractError):
            build_config(None, overrides=["lr"])

    def test_invalid_values_rejected(self):
        for kw in (
            dict(omega=0.5),
            dict(lr=0.0),
            dict(warmup_epochs=0),
            dict(lam_p=0.9),
            dict(w_ct=-1.0),
            dict(dataset="mnist"),
            dict(batch_size=0),
        ):
            with pytest.raises(ContractError):
                TrainConfig(**kw).validate()

    @pytest.mark.parametrize(
        "key,value",
        [("lr", "nan"), ("rotation_deg", "nan"), ("noise_std", "inf"), ("alpha", "nan"),
         ("phi_lr", "-inf"), ("blob_shift", "inf"), ("beta", "nan"), ("space_td", "nan")],
    )
    def test_non_finite_values_rejected(self, key, value):
        with pytest.raises(ContractError, match=f"{key} must be finite"):
            build_config(None, overrides=[f"{key}={value}"])

    @pytest.mark.parametrize(
        "kw,message",
        [
            (dict(hidden=0), "hidden must be >= 1, got 0"),
            (dict(hidden_g=0), "hidden_g must be >= 1, got 0"),
            (dict(feat_dim=0), "feat_dim must be >= 1, got 0"),
            (dict(dataset="blobs", blob_classes=1), "blob_classes must be >= 2, got 1"),
            (dict(dataset="blobs", blob_dim=1), "blob_dim must be >= 2, got 1"),
            (dict(noise_std=-1.0), "noise_std must be >= 0, got -1.0"),
            (dict(n_per_domain=3, batch_size=2), "n_per_domain must be >= 4, got 3"),
        ],
    )
    def test_bad_dimensions_refused_before_any_output(self, tmp_path, kw, message):
        out = tmp_path / "run"
        with pytest.raises(ContractError, match=message):
            train(TrainConfig(out_dir=str(out), **kw))
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "space_sd,space_td,message",
        [
            (0.9, 0.1, "no grid ratio"),
            (0.05, 0.28, "no grid ratio"),
            # 0.2 + 0.1 is 0.30000000000000004, as build_contrastive_pairs computes it
            (0.1, 0.3, "no grid ratio"),
            (-1.0, 2.0, r"must lie in \[0, 1\]"),
            (0.0, 1.5, r"must lie in \[0, 1\]"),
        ],
    )
    def test_space_bounds_that_switch_phase_3_off_refused(self, space_sd, space_td, message):
        with pytest.raises(ContractError, match=message):
            TrainConfig(space_sd=space_sd, space_td=space_td).validate()

    @pytest.mark.parametrize("space_sd,space_td", [(0.0, 1.0), (0.3, 0.7), (0.1, 0.4)])
    def test_space_bounds_around_a_grid_ratio_accepted(self, space_sd, space_td):
        TrainConfig(space_sd=space_sd, space_td=space_td).validate()

    @settings(max_examples=150, deadline=None)
    @given(cfg=configs())
    def test_echo_round_trips(self, cfg):
        try:
            cfg.validate()
        except ContractError as exc:
            # only an out_dir that its config line cannot carry is refused
            assert "out_dir" in str(exc)
            return
        pairs = parse_config_text(config_echo(cfg))
        assert pairs.keys() == vars(cfg).keys()
        assert build_config(None, overrides=[f"{k}={v}" for k, v in pairs.items()]) == cfg

    def test_out_dir_that_no_config_line_can_carry_is_refused(self):
        for out in ("runs/a ", " runs/a", "runs/a\nlr = 1", "runs\ra", "runs/a\u2028"):
            with pytest.raises(ContractError, match="out_dir"):
                TrainConfig(out_dir=out).validate()

    def test_echo_reproduces_every_field(self):
        echo = config_echo(TrainConfig())
        assert "lr = 0.01" in echo
        assert "omega = 0.1" in echo
        assert len(echo.splitlines()) == len(TrainConfig().__dataclass_fields__)


class TestWarmup:
    def test_zero_epochs_rejected(self):
        cfg = tiny_cfg()
        ds, p, seeds = setup_run(cfg)
        cfg_bad = copy.copy(cfg)
        cfg_bad.warmup_epochs = 0
        with pytest.raises(ContractError):
            warmup(p, ds, cfg_bad, np.random.default_rng(0))

    def test_reaches_high_source_accuracy(self):
        cfg = tiny_cfg(n_per_domain=400, warmup_epochs=20)
        ds, p, _ = setup_run(cfg)
        src_acc, _ = evaluate(p, ds)
        assert src_acc > 0.95

    def test_phi_untouched(self):
        cfg = tiny_cfg()
        seeds = derive_seeds(cfg.seed)
        ds = make_dataset(cfg, seeds.data)
        p = init_model(d=2, n_classes=2, seed=seeds.model)
        before = params_checksum(p.phi_params())
        warmup(p, ds, cfg, np.random.default_rng(seeds.warmup_batches))
        assert params_checksum(p.phi_params()) == before


class TestEvaluate:
    def test_constant_predictor_scores_chance(self):
        cfg = tiny_cfg()
        ds, p, _ = setup_run(cfg)
        for t in p.theta_params():
            t.data = np.zeros_like(t.data)
        p.cls_b.data = np.array([5.0, 0.0])  # always class 0
        src_acc, tgt_acc = evaluate(p, ds)
        counts = ds.source_y.data.sum(axis=0)
        assert abs(src_acc - counts[0] / counts.sum()) < 1e-12
        assert abs(src_acc - 0.5) <= 0.01  # balanced within one

    def test_hand_rolled_count_on_fixture(self):
        cfg = tiny_cfg()
        ds, p, _ = setup_run(cfg)
        pred = logits_of(p, ds.target_x).data.argmax(axis=1)
        truth = ds.target_y_eval.data.argmax(axis=1)
        manual = sum(int(a == b) for a, b in zip(pred[:10], truth[:10])) / 10
        sub = type(ds)(
            source_x=Tensor(ds.source_x.data[:10]),
            source_y=Tensor(ds.source_y.data[:10]),
            target_x=Tensor(ds.target_x.data[:10]),
            target_y_eval=Tensor(ds.target_y_eval.data[:10]),
            n_classes=2, input_dim=2, generator_id="fixture", seed=0,
        )
        assert evaluate(p, sub)[1] == manual

    def test_no_parameter_mutation(self):
        cfg = tiny_cfg()
        ds, p, _ = setup_run(cfg)
        before = params_checksum([t for _, t in p.named_params()])
        evaluate(p, ds)
        assert params_checksum([t for _, t in p.named_params()]) == before

    def test_perfect_oracle_labels_score_one(self):
        cfg = tiny_cfg()
        ds, p, _ = setup_run(cfg)
        predicted = logits_of(p, ds.target_x).data.argmax(axis=1)
        onehot = np.zeros((len(predicted), 2))
        onehot[np.arange(len(predicted)), predicted] = 1.0
        oracle_ds = type(ds)(
            source_x=ds.source_x, source_y=ds.source_y,
            target_x=ds.target_x, target_y_eval=Tensor(onehot),
            n_classes=2, input_dim=2, generator_id="oracle", seed=0,
        )
        assert evaluate(p, oracle_ds)[1] == 1.0


class TestCoviStep:
    def test_zero_weights_leave_theta_unchanged_but_phi_moves(self):
        cfg = tiny_cfg(w_emp=0.0, w_ct=0.0, w_cs=0.0)
        ds, p, seeds = setup_run(cfg)
        theta_before = params_checksum(p.theta_params())
        phi_before = params_checksum(p.phi_params())
        batcher = DomainBatcher(ds, cfg.batch_size, np.random.default_rng(seeds.covi_batches))
        opt_theta = SGD(p.theta_params(), cfg.lr, cfg.momentum)
        opt_phi = SGD(p.phi_params(), cfg.phi_lr, cfg.momentum)
        row = covi_step(
            p, batcher.next_batch(), cfg, opt_theta, opt_phi,
            np.random.default_rng(seeds.views), ds, 0,
        )
        assert params_checksum(p.theta_params()) == theta_before
        assert params_checksum(p.phi_params()) != phi_before
        assert row.r_ct == 0.0 and row.r_cs == 0.0

    def test_same_seed_identical_rows(self):
        rows = []
        for _ in range(2):
            cfg = tiny_cfg()
            ds, p, seeds = setup_run(cfg)
            batcher = DomainBatcher(ds, cfg.batch_size, np.random.default_rng(seeds.covi_batches))
            opt_theta = SGD(p.theta_params(), cfg.lr, cfg.momentum)
            opt_phi = SGD(p.phi_params(), cfg.phi_lr, cfg.momentum)
            views_rng = np.random.default_rng(seeds.views)
            rows.append(
                [
                    covi_step(p, batcher.next_batch(), cfg, opt_theta, opt_phi, views_rng, ds, s)
                    for s in range(3)
                ]
            )
        assert rows[0] == rows[1]

    def test_losses_match_manual_phase_replay(self):
        cfg = tiny_cfg()
        ds, p, seeds = setup_run(cfg)
        batcher = DomainBatcher(ds, cfg.batch_size, np.random.default_rng(seeds.covi_batches))
        batch = batcher.next_batch()
        views_rng = np.random.default_rng(seeds.views)
        views_rng_replay = copy.deepcopy(views_rng)
        q = copy_params(p)

        row = covi_step(
            p, batch, cfg,
            SGD(p.theta_params(), cfg.lr, cfg.momentum),
            SGD(p.phi_params(), cfg.phi_lr, cfg.momentum),
            views_rng, ds, 0,
        )

        # manual replay of the four phases on the snapshot
        opt_theta = SGD(q.theta_params(), cfg.lr, cfg.momentum)
        opt_phi = SGD(q.phi_params(), cfg.phi_lr, cfg.momentum)
        loss_phi = emp_learner_loss(q, batch)
        backward(dc.neg(loss_phi))
        opt_phi.step()
        for _, t in q.named_params():
            t.zero_grad()
        lam_star = emp_argmax(q, batch)
        ent_at_star = float(
            np.mean(dc.entropy_rows_np(logits_of(q, mix(batch.xs, batch.xt, lam_star)).data))
        )
        mix_loss = emp_mixup_loss(q, batch, lam_star)
        r_mix = mix_loss.item()
        backward(mix_loss * cfg.w_emp)
        opt_theta.step()
        for _, t in q.named_params():
            t.zero_grad()
        mask = confidence_mask(target_top1_probs(q, batch.xt), cfg.alpha)
        pairs = build_contrastive_pairs(batch, lam_star, cfg.omega, mask)
        agreement = swap_agreement(q, pairs)
        ct = contrastive_loss(q, pairs, batch.ys, pseudo_labels(q, batch.xt))
        r_ct = ct.item()
        backward(ct * cfg.w_ct)
        opt_theta.step()
        for _, t in q.named_params():
            t.zero_grad()
        views = make_views(batch, cfg.lam_p, views_rng_replay)
        cs_keep = float(consensus_keep_mask(q, views, cfg.beta).mean())
        cs = consensus_loss(q, views, cfg.beta)
        r_cs = cs.item()
        backward(cs * cfg.w_cs)
        opt_theta.step()
        for _, t in q.named_params():
            t.zero_grad()

        assert row.r_emp == r_mix - ent_at_star
        assert row.r_ct == r_ct
        assert row.r_cs == r_cs
        assert row.mean_lambda_star == float(lam_star.values.mean())
        assert row.ct_keep == pairs.n_kept / batch.m
        assert row.cs_keep == cs_keep
        assert row.agreement == agreement
        assert (row.source_acc, row.target_acc) == evaluate(q, ds)

    @pytest.mark.parametrize("summed", [False, True], ids=["sequential", "summed"])
    def test_step_leaves_no_gradient_behind(self, summed):
        # each optimizer step clears its own group, and no phase writes the
        # other group's gradients, so nothing is left for the next step
        cfg = tiny_cfg(summed_theta_update=summed)
        ds, p, seeds = setup_run(cfg)
        batcher = DomainBatcher(ds, cfg.batch_size, np.random.default_rng(seeds.covi_batches))
        covi_step(
            p, batcher.next_batch(), cfg,
            SGD(p.theta_params(), cfg.lr, cfg.momentum),
            SGD(p.phi_params(), cfg.phi_lr, cfg.momentum),
            np.random.default_rng(seeds.views), ds, 0,
        )
        assert [name for name, t in p.named_params() if t.grad is not None] == []

    def test_summed_update_differs_but_is_deterministic(self):
        results = [
            first_step(tiny_cfg(summed_theta_update=summed)) for summed in (False, True, True)
        ]
        assert results[1] == results[2]
        assert results[0][1] != results[1][1]

    def test_adaptive_lam_p_clamp(self):
        # band has room: the configured value stands
        assert adaptive_lam_p(0.1, 0.5, 0.1) == 0.1
        # target-heavy lambda*: perturbation must shrink to stay outside
        assert adaptive_lam_p(0.3, 0.8, 0.1) == pytest.approx(0.1)
        # no room at all: perturbation vanishes
        assert adaptive_lam_p(0.2, 1.0, 0.1) == 0.0

    def test_adaptive_mode_runs_end_to_end(self):
        # lam_p = 0.5 leaves the perturbed views inside the contrastive band
        # once mean lambda* > 0.4; the adaptive run must clamp it there
        (row_fixed, theta_fixed), (row, theta) = [
            first_step(tiny_cfg(lam_p_adaptive=adaptive, lam_p=0.5)) for adaptive in (False, True)
        ]
        assert np.isfinite(row.r_cs)
        assert row.mean_lambda_star == row_fixed.mean_lambda_star
        assert adaptive_lam_p(0.5, row.mean_lambda_star, tiny_cfg().omega) < 0.5
        assert row.r_cs != row_fixed.r_cs
        assert theta != theta_fixed

    def test_narrowed_space_drops_contrastive_pairs(self):
        row_full, _ = first_step(tiny_cfg())
        row, _ = first_step(tiny_cfg(space_sd=0.3, space_td=0.7))
        assert row.mean_lambda_star == row_full.mean_lambda_star
        assert 0.0 < row.ct_keep < row_full.ct_keep

    def test_nan_params_abort_with_diagnostic(self, tmp_path):
        cfg = tiny_cfg(out_dir=str(tmp_path))
        ds, p, seeds = setup_run(cfg)
        p.enc_w1.data[0, 0] = np.nan
        batcher = DomainBatcher(ds, cfg.batch_size, np.random.default_rng(seeds.covi_batches))
        with pytest.raises(TrainingDiverged) as excinfo:
            covi_step(
                p, batcher.next_batch(), cfg,
                SGD(p.theta_params(), cfg.lr, cfg.momentum),
                SGD(p.phi_params(), cfg.phi_lr, cfg.momentum),
                np.random.default_rng(seeds.views), ds, 3,
            )
        expected = "aborted at step 3: non-finite values in parameter enc_w1\n" + "".join(
            f"param {name}: |max|={np.max(np.abs(t.data)):.6e}\n" for name, t in p.named_params()
        )
        assert (tmp_path / "diverged_step_3.txt").read_text(encoding="utf-8") == expected
        assert str(excinfo.value) == expected
        assert sorted(f.name for f in tmp_path.iterdir()) == ["diverged_step_3.txt"]

    def test_overflowing_outputs_abort_with_diagnostic(self, tmp_path):
        # finite parameters whose logits overflow: the phase-1 grid table is
        # where the step first reads them, and a nan there used to surface
        # as a usage error from the label check of the learner's loss
        cfg = tiny_cfg(out_dir=str(tmp_path))
        ds, p, seeds = setup_run(cfg)
        p.enc_w1.data *= 1e200
        p.enc_w2.data *= 1e200
        batcher = DomainBatcher(ds, cfg.batch_size, np.random.default_rng(seeds.covi_batches))
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as excinfo:
            covi_step(
                p, batcher.next_batch(), cfg,
                SGD(p.theta_params(), cfg.lr, cfg.momentum),
                SGD(p.phi_params(), cfg.phi_lr, cfg.momentum),
                np.random.default_rng(seeds.views), ds, 3,
            )
        assert str(excinfo.value).startswith(
            "aborted at step 3: non-finite grid entropy table: the model's logits overflowed "
            "in phase 'ratio-learner ascent'\n")
        dump = (tmp_path / "diverged_step_3.txt").read_text(encoding="utf-8")
        assert dump == str(excinfo.value)

    @pytest.mark.parametrize("w_ct,phase", [(1.0, "contrastive"), (0.0, "consensus")])
    def test_overflow_behind_a_mask_aborts_with_diagnostic(self, tmp_path, w_ct, phase):
        # a theta step at lr 1e300 leaves finite parameters whose target
        # logits overflow, read first by the next confidence mask
        cfg = tiny_cfg(w_ct=w_ct, out_dir=str(tmp_path))
        ds, p, seeds = setup_run(cfg)
        batcher = DomainBatcher(ds, cfg.batch_size, np.random.default_rng(seeds.covi_batches))
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as excinfo:
            covi_step(
                p, batcher.next_batch(), cfg,
                SGD(p.theta_params(), 1e300, cfg.momentum),
                SGD(p.phi_params(), cfg.phi_lr, cfg.momentum),
                np.random.default_rng(seeds.views), ds, 0,
            )
        assert str(excinfo.value).startswith(
            "aborted at step 0: non-finite top-1 probabilities: the model's logits overflowed "
            f"in phase '{phase}'\n")
        assert (tmp_path / "diverged_step_0.txt").read_text(encoding="utf-8") == str(excinfo.value)

    def test_theta_graph_outlives_a_phi_step_but_not_a_theta_step(self):
        cfg = tiny_cfg()
        ds, p, seeds = setup_run(cfg)
        batcher = DomainBatcher(ds, cfg.batch_size, np.random.default_rng(seeds.covi_batches))
        batch = batcher.next_batch()
        opt_theta = SGD(p.theta_params(), cfg.lr, cfg.momentum)
        opt_phi = SGD(p.phi_params(), cfg.phi_lr, cfg.momentum)
        loss = dc.cross_entropy(logits_of(p, batch.xs), batch.ys)
        backward(dc.neg(emp_learner_loss(p, batch)))
        opt_phi.step()
        backward(loss)
        opt_theta.step()
        # its VJP would mix the old activations with the new weights
        with pytest.raises(ContractError, match="stale graph"):
            backward(loss)
        assert [name for name, t in p.named_params() if t.grad is not None] == []


class TestTrain:
    def test_zero_covi_epochs_equals_warmup_checkpoint(self, tmp_path):
        cfg = tiny_cfg(covi_epochs=0, out_dir=str(tmp_path))
        p, metrics_path = train(cfg)
        warm = load_checkpoint(str(tmp_path / "checkpoint_warmup.ckpt"))
        final = load_checkpoint(str(tmp_path / "checkpoint_final.ckpt"))
        for (_, a), (_, b) in zip(warm.named_params(), final.named_params()):
            assert np.array_equal(a.data, b.data)
        assert open(metrics_path).read() == METRICS_HEADER + "\n"

    def test_metrics_csv_determinism_bytes(self, tmp_path):
        cfg_a = tiny_cfg(out_dir=str(tmp_path / "a"))
        cfg_b = tiny_cfg(out_dir=str(tmp_path / "b"))
        _, path_a = train(cfg_a)
        _, path_b = train(cfg_b)
        assert open(path_a, "rb").read() == open(path_b, "rb").read()

    def test_metrics_rows_shape_and_ranges(self, tmp_path):
        cfg = tiny_cfg(out_dir=str(tmp_path))
        _, metrics_path = train(cfg)
        lines = open(metrics_path).read().splitlines()
        assert lines[0] == METRICS_HEADER
        steps_per_epoch = int(np.ceil(cfg.n_per_domain / cfg.batch_size))
        assert len(lines) - 1 == cfg.covi_epochs * steps_per_epoch
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 10
            row = MetricsRow(int(parts[0]), *(float(v) for v in parts[1:]))
            assert 0.0 <= row.source_acc <= 1.0
            assert 0.0 <= row.target_acc <= 1.0
            assert 0.0 <= row.ct_keep <= 1.0
            assert 0.0 <= row.cs_keep <= 1.0
            assert 0.0 <= row.agreement <= 1.0
            assert 0.0 <= row.mean_lambda_star <= 1.0

    def test_unwritable_out_dir_fails_before_compute(self):
        cfg = tiny_cfg(out_dir="/proc/definitely/not/writable")
        with pytest.raises(OSError):
            train(cfg)

    def test_diverged_warmup_writes_no_checkpoint(self, tmp_path):
        cfg = tiny_cfg(lr=1e150, warmup_epochs=2, covi_epochs=1, out_dir=str(tmp_path))
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="after warm-up"):
            train(cfg)
        assert not (tmp_path / "checkpoint_warmup.ckpt").exists()
        assert "after warm-up" in (tmp_path / "diverged_step_0.txt").read_text()

    def test_checkpoint_every_epoch_writes_files(self, tmp_path):
        cfg = tiny_cfg(covi_epochs=2, checkpoint_every=1, out_dir=str(tmp_path))
        train(cfg)
        assert (tmp_path / "checkpoint_epoch_0001.ckpt").exists()
        assert (tmp_path / "checkpoint_epoch_0002.ckpt").exists()

    def test_warm_restart_reproduces_trajectory(self, tmp_path):
        cfg = tiny_cfg(out_dir=str(tmp_path / "full"))
        train(cfg)
        full_rows = open(tmp_path / "full" / "metrics.csv").read()

        # resume: load the warmup checkpoint and replay the covi phase with
        # the same derived rng streams
        seeds = derive_seeds(cfg.seed)
        ds = make_dataset(cfg, seeds.data)
        p = load_checkpoint(str(tmp_path / "full" / "checkpoint_warmup.ckpt"))
        opt_theta = SGD(p.theta_params(), cfg.lr, cfg.momentum)
        opt_phi = SGD(p.phi_params(), cfg.phi_lr, cfg.momentum)
        batcher = DomainBatcher(ds, cfg.batch_size, np.random.default_rng(seeds.covi_batches))
        rows = run_covi_epochs(
            p, ds, cfg, opt_theta, opt_phi, batcher, np.random.default_rng(seeds.views)
        )
        resumed = METRICS_HEADER + "\n" + "".join(r.csv_line() + "\n" for r in rows)
        assert resumed == full_rows

    def test_blobs_dataset_trains(self, tmp_path):
        cfg = tiny_cfg(
            dataset="blobs", blob_classes=3, blob_dim=4, blob_shift=2.0,
            covi_epochs=1, out_dir=str(tmp_path),
        )
        p, _ = train(cfg)
        src_acc, _ = evaluate(p, make_dataset(cfg, derive_seeds(cfg.seed).data))
        assert src_acc > 0.9
