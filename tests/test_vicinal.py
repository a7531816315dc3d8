"""Tests for mixing and the minimax ratio machinery."""

import math

import numpy as np
import pytest

from vicinalda import diffcore as dc
from vicinalda.diffcore import SGD, ContractError, Tensor, backward
from vicinalda.domains import DomainBatch
from vicinalda.model import (
    RATIO_GRID,
    emp_forward,
    encode_np,
    forward_np,
    init_model,
    logits_of,
)
from vicinalda import vicinal
from vicinalda.vicinal import (
    RatioVector,
    brute_force_emp,
    emp_argmax,
    emp_argmax_of,
    emp_learner_loss,
    emp_mixup_loss,
    grid_entropy_table,
    grid_profile_target,
    maximality_violations,
    mix_np,
    ratio_agreement,
)

from tape_oracle import pseudo_labels, unfused_features
from test_diffcore import assert_same_bits
from test_model import params_checksum, perturbed_model


def random_batch(rng, m=6, d=3, n=3):
    ys = np.zeros((m, n))
    ys[np.arange(m), rng.integers(0, n, m)] = 1.0
    return DomainBatch(
        xs=Tensor(rng.normal(size=(m, d))),
        ys=Tensor(ys),
        xt=Tensor(rng.normal(size=(m, d))),
    )


def pair_grid_logits(p, batch):
    """The learner's taped grid logits on the batch's encoder features."""
    return emp_forward(p, encode_np(p, batch.xs.data), encode_np(p, batch.xt.data))


class TestMix:
    def test_lambda_zero_is_source_bit_exact(self):
        rng = np.random.default_rng(0)
        xs, xt = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        out = mix_np(xs, xt, np.zeros((4, 1)))
        assert np.array_equal(out, xs)

    def test_lambda_one_is_target_bit_exact(self):
        rng = np.random.default_rng(1)
        xs, xt = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        out = mix_np(xs, xt, np.ones((4, 1)))
        assert np.array_equal(out, xt)

    def test_midpoint(self):
        out = mix_np(np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]]), 0.5)
        assert np.array_equal(out, [[1.0, 1.0]])

    def test_out_of_range_ratio_rejected(self):
        with pytest.raises(ContractError):
            RatioVector([1.2])
        with pytest.raises(ContractError):
            RatioVector([-0.1])
        with pytest.raises(ContractError):
            RatioVector([0.5, np.nan])
        with pytest.raises(ContractError):
            RatioVector([[0.5]])


class TestMixLabels:
    # label rows mix through mix_np with a column of per-row ratios, as in
    # emp_mixup_loss
    def test_lambda_zero_keeps_source_labels(self):
        ys = np.array([[1.0, 0.0], [0.0, 1.0]])
        yt = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = mix_np(ys, yt, np.array([[0.0], [0.0]]))
        assert np.array_equal(out, ys)

    def test_agreeing_labels_fixed_point(self):
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = mix_np(y, y, np.array([[0.3], [0.9]]))
        assert np.array_equal(out, y)

    def test_distinct_classes_weights(self):
        ys = np.array([[1.0, 0.0, 0.0]])
        yt = np.array([[0.0, 0.0, 1.0]])
        out = mix_np(ys, yt, np.array([[0.3]]))
        assert np.allclose(out, [[0.7, 0.0, 0.3]], atol=1e-15)
        assert out.sum() == 1.0

    def test_vicinal_batch_invariants(self):
        # the mixed rows and soft labels emp_mixup_loss trains on
        rng = np.random.default_rng(3)
        batch = random_batch(rng)
        p = init_model(d=3, n_classes=3, seed=0)
        lam = RatioVector(rng.uniform(0, 1, batch.m))
        x_mix = mix_np(batch.xs.data, batch.xt.data, lam.values[:, None])
        y_mix = mix_np(batch.ys.data, pseudo_labels(p, batch.xt.data), lam.values[:, None])
        expected = (1 - lam.values[:, None]) * batch.xs.data + lam.values[:, None] * batch.xt.data
        assert np.array_equal(x_mix, expected)
        assert np.max(np.abs(y_mix.sum(axis=1) - 1.0)) < 1e-9


class TestBruteForce:
    def test_constant_entropy_ties_take_lowest_ratio(self):
        p = init_model(d=3, n_classes=3, seed=1)
        for t in p.theta_params():
            t.data = np.zeros_like(t.data)  # uniform predictions everywhere
        batch = random_batch(np.random.default_rng(4))
        lam = brute_force_emp(p, batch)
        assert np.array_equal(lam.values, np.zeros(batch.m))

    def test_maximality_exhaustive(self):
        rng = np.random.default_rng(5)
        p = init_model(d=3, n_classes=3, seed=2)
        assert maximality_violations(p, random_batch(rng, m=16)) == 0

    def test_maximality_count_catches_a_ratio_that_is_not_the_peak(self, monkeypatch):
        rng = np.random.default_rng(5)
        p = init_model(d=3, n_classes=3, seed=2)
        batch = random_batch(rng, m=16)
        monkeypatch.setattr(vicinal, "brute_force_emp", lambda p, b: RatioVector(np.zeros(b.m)))
        assert maximality_violations(p, batch) > 0

    def test_independent_entropy_recomputation_agrees_exactly(self):
        rng = np.random.default_rng(6)
        p = init_model(d=2, n_classes=2, seed=3)
        batch = random_batch(rng, m=8, d=2, n=2)
        lam = brute_force_emp(p, batch)
        # independent oracle: recompute per-pair entropies from scratch
        best = []
        for i in range(batch.m):
            entropies = []
            for k, g in enumerate(RATIO_GRID):
                row = (1 - g) * batch.xs.data[i] + g * batch.xt.data[i]
                z = logits_of(p, row[None, :]).data[0]
                e = np.exp(z - z.max())
                prob = e / e.sum()
                entropies.append(-(prob * np.log(np.maximum(prob, 1e-12))).sum())
            best.append(RATIO_GRID[int(np.argmax(entropies))])
        assert np.array_equal(lam.values, np.array(best))

    def test_output_always_on_grid(self):
        rng = np.random.default_rng(7)
        p = init_model(d=3, n_classes=4, seed=4)
        lam = brute_force_emp(p, random_batch(rng, m=20, n=4))
        assert set(np.round(lam.values * 10).astype(int)) <= set(range(11))


class TestEmpSoftAndArgmax:
    def test_saturated_logit_reaches_grid_value(self):
        p = init_model(d=3, n_classes=3, seed=6)
        for t in p.phi_params():
            t.data = np.zeros_like(t.data)
        p.emp_b2.data = np.zeros(11)
        p.emp_b2.data[7] = 1e4  # one grid logit toward +inf
        batch = random_batch(np.random.default_rng(9))
        assert np.array_equal(emp_argmax(p, batch).values, np.full(batch.m, 0.7))

    def test_argmax_ties_take_lower_index(self):
        p = init_model(d=3, n_classes=3, seed=9)
        for t in p.phi_params():
            t.data = np.zeros_like(t.data)  # all grid logits equal
        batch = random_batch(np.random.default_rng(12))
        assert np.array_equal(emp_argmax(p, batch).values, np.zeros(batch.m))

    def test_argmax_matches_independent_oracle(self):
        rng = np.random.default_rng(13)
        p = init_model(d=3, n_classes=3, seed=10)
        batch = random_batch(rng, m=10)
        logits = pair_grid_logits(p, batch).data
        expected = RATIO_GRID[logits.argmax(axis=1)]
        assert np.array_equal(emp_argmax(p, batch).values, expected)


# (d, n_classes, feat_dim, hidden, batch rows): the default two-moons step
# and the wide blobs step, whose 512-row batch spans two forward blocks
TAPE_FREE_CASES = [
    pytest.param(2, 2, 32, 64, 64, id="default"),
    pytest.param(16, 5, 64, 256, 512, id="wide"),
]


class TestTapeFreeRatioMachinery:
    @pytest.mark.parametrize("d,n_classes,feat_dim,hidden,m", TAPE_FREE_CASES)
    def test_grid_table_matches_taped_per_ratio_loop(self, d, n_classes, feat_dim, hidden, m):
        p = perturbed_model(d, n_classes, feat_dim, hidden)
        batch = random_batch(np.random.default_rng(m), m=m, d=d, n=n_classes)
        oracle = np.empty((m, len(RATIO_GRID)))
        for k, lam_k in enumerate(RATIO_GRID):
            logits = logits_of(p, mix_np(batch.xs.data, batch.xt.data, lam_k)).data
            oracle[:, k] = dc.entropy_rows_np(logits)
        assert np.array_equal(grid_entropy_table(p, batch), oracle)

    @pytest.mark.parametrize(
        "d,n_classes,feat_dim,hidden,m",
        TAPE_FREE_CASES + [pytest.param(16, 5, 64, 256, 100, id="wide-100")],
    )
    def test_stacked_grid_table_matches_per_ratio_forwards(
        self, d, n_classes, feat_dim, hidden, m
    ):
        # one forward per ratio; at m = 512 each ratio fills two whole row
        # blocks of the stacked forward, at m = 100 blocks straddle ratios
        p = perturbed_model(d, n_classes, feat_dim, hidden)
        batch = random_batch(np.random.default_rng(m + 1), m=m, d=d, n=n_classes)
        oracle = np.stack(
            [
                dc.entropy_rows_np(forward_np(p, mix_np(batch.xs.data, batch.xt.data, lam_k)))
                for lam_k in RATIO_GRID
            ],
            axis=1,
        )
        table = grid_entropy_table(p, batch)
        assert np.array_equal(table, oracle)
        # the row statistics the learner's target takes keep their bits too
        assert np.array_equal(grid_profile_target(table), grid_profile_target(oracle))

    @pytest.mark.parametrize("d,n_classes,feat_dim,hidden,m", TAPE_FREE_CASES)
    def test_argmax_matches_taped_grid_logits(self, d, n_classes, feat_dim, hidden, m):
        p = perturbed_model(d, n_classes, feat_dim, hidden)
        batch = random_batch(np.random.default_rng(m), m=m, d=d, n=n_classes)
        zs, zt = (unfused_features(p, x.data).data for x in (batch.xs, batch.xt))
        taped = emp_forward(p, zs, zt).data
        assert np.array_equal(pair_grid_logits(p, batch).data, taped)
        expected = RATIO_GRID[np.argmax(taped, axis=1)]
        assert np.array_equal(emp_argmax(p, batch).values, expected)

    @pytest.mark.parametrize("d,n_classes,feat_dim,hidden,m", TAPE_FREE_CASES)
    def test_phase_one_features_give_the_argmax_after_a_phi_step(
        self, d, n_classes, feat_dim, hidden, m
    ):
        # the step's reuse: a phi step leaves the learner's features valid
        p = perturbed_model(d, n_classes, feat_dim, hidden)
        batch = random_batch(np.random.default_rng(m + 2), m=m, d=d, n=n_classes)
        loss, zs, zt = emp_learner_loss(p, batch)
        assert_same_bits(zs, encode_np(p, batch.xs.data))
        assert_same_bits(zt, encode_np(p, batch.xt.data))
        backward(dc.neg(loss))
        SGD(p.phi_params(), lr=0.05, momentum=0.9).step()
        assert_same_bits(emp_argmax_of(p, zs, zt).values, emp_argmax(p, batch).values)


class TestEmpLearnerLoss:
    def test_flat_entropy_plateau(self):
        # uniform theta predictions: no preferred ratio, vanishing phi gradient
        p = init_model(d=3, n_classes=2, seed=11)
        for t in p.theta_params():
            t.data = np.zeros_like(t.data)
        for t in p.phi_params():
            t.data = np.zeros_like(t.data)
        batch = random_batch(np.random.default_rng(14), n=2)
        table = grid_entropy_table(p, batch)
        assert np.allclose(table, math.log(2), atol=1e-12)
        assert np.allclose(grid_profile_target(table), 1.0 / 11, atol=1e-12)
        backward(emp_learner_loss(p, batch)[0])
        assert all(np.max(np.abs(t.grad)) < 1e-12 for t in p.phi_params())

    def test_gradient_reaches_phi_only(self):
        rng = np.random.default_rng(15)
        p = init_model(d=3, n_classes=3, seed=12)
        batch = random_batch(rng)
        backward(emp_learner_loss(p, batch)[0])
        assert all(t.grad is not None for t in p.phi_params())
        assert all(t.grad is None for t in p.theta_params())

    def test_phi_step_preserves_theta_checksum(self):
        rng = np.random.default_rng(16)
        p = init_model(d=3, n_classes=3, seed=13)
        batch = random_batch(rng)
        theta_before = params_checksum(p.theta_params())
        opt_phi = SGD(p.phi_params(), lr=0.05, momentum=0.9)
        backward(dc.neg(emp_learner_loss(p, batch)[0]))
        opt_phi.step()
        assert params_checksum(p.theta_params()) == theta_before

    def test_ascent_increases_soft_point_entropy(self):
        # 50 phi-only ascent steps on a frozen random model: mean prediction
        # entropy at the soft ratio must not decrease over the run
        rng = np.random.default_rng(17)
        p = init_model(d=2, n_classes=2, seed=14)
        batch = random_batch(rng, m=32, d=2, n=2)

        def soft_entropy():
            # the learner's expected grid ratio per pair
            lam = RatioVector(dc.softmax_np(pair_grid_logits(p, batch).data) @ RATIO_GRID)
            x_mix = mix_np(batch.xs.data, batch.xt.data, lam.values[:, None])
            return dc.entropy_rows_np(logits_of(p, x_mix).data).mean()

        start = soft_entropy()
        opt_phi = SGD(p.phi_params(), lr=0.05, momentum=0.9)
        for _ in range(50):
            backward(dc.neg(emp_learner_loss(p, batch)[0]))
            opt_phi.step()
        assert soft_entropy() >= start - 1e-9

    def test_argmax_moves_toward_brute_force_on_fixed_batch(self):
        # needs a theta with a structured entropy landscape, so fit the
        # classifier to the batch's source labels first
        rng = np.random.default_rng(18)
        p = init_model(d=2, n_classes=2, seed=15)
        batch = random_batch(rng, m=32, d=2, n=2)
        opt_theta = SGD(p.theta_params(), lr=0.05, momentum=0.9)
        for _ in range(100):
            backward(dc.cross_entropy(logits_of(p, batch.xs.data), batch.ys.data))
            opt_theta.step()
        oracle = brute_force_emp(p, batch).values
        start, _ = ratio_agreement(emp_argmax(p, batch).values, oracle)
        opt_phi = SGD(p.phi_params(), lr=0.05, momentum=0.9)
        for _ in range(800):
            backward(dc.neg(emp_learner_loss(p, batch)[0]))
            opt_phi.step()
        exact, within_one = ratio_agreement(emp_argmax(p, batch).values, oracle)
        # random-geometry pairs have tiny entropy gaps; the strict >= 0.7 bar
        # belongs to the source-trained protocol in the acceptance suite
        assert exact >= max(0.6, start)
        assert within_one >= 0.85

    def test_agreement_scores_grid_steps_apart(self):
        oracle = RATIO_GRID[[0, 3, 5, 8]]
        assert ratio_agreement(oracle, oracle) == (1.0, 1.0)
        assert ratio_agreement(RATIO_GRID[[1, 4, 6, 9]], oracle) == (0.0, 1.0)
        exact, within_one = ratio_agreement(RATIO_GRID[[2, 5, 7, 10]], oracle)
        assert exact == 0.0 and within_one < 1.0


class TestEmpMixupLoss:
    def test_lambda_zero_reduces_to_source_cross_entropy(self):
        rng = np.random.default_rng(19)
        p = init_model(d=3, n_classes=3, seed=16)
        batch = random_batch(rng)
        lam = RatioVector(np.zeros(batch.m))
        loss = emp_mixup_loss(p, batch, lam, pseudo_labels(p, batch.xt.data))[0]
        expected = dc.cross_entropy(logits_of(p, batch.xs.data), batch.ys.data)
        assert abs(loss.item() - expected.item()) < 1e-15

    def test_lambda_one_reduces_to_self_training(self):
        rng = np.random.default_rng(20)
        p = init_model(d=3, n_classes=3, seed=17)
        batch = random_batch(rng)
        yt_hat = pseudo_labels(p, batch.xt.data)
        loss = emp_mixup_loss(p, batch, RatioVector(np.ones(batch.m)), yt_hat)[0]
        expected = dc.cross_entropy(logits_of(p, batch.xt.data), yt_hat)
        assert abs(loss.item() - expected.item()) < 1e-15
        assert loss.item() >= 0.0

    def test_matches_formula_recomputation(self):
        rng = np.random.default_rng(21)
        p = init_model(d=4, n_classes=3, seed=18)
        batch = random_batch(rng, m=5, d=4)
        lam = brute_force_emp(p, batch)
        yt_hat = pseudo_labels(p, batch.xt.data)
        loss = emp_mixup_loss(p, batch, lam, yt_hat)[0]
        # independent recomputation of the mixed risk from its definition
        lam_col = lam.values[:, None]
        x_mix = (1 - lam_col) * batch.xs.data + lam_col * batch.xt.data
        y_mix = (1 - lam_col) * batch.ys.data + lam_col * yt_hat
        z = logits_of(p, x_mix).data
        prob = np.exp(z - z.max(axis=1, keepdims=True))
        prob /= prob.sum(axis=1, keepdims=True)
        expected = float(np.mean(-(y_mix * np.log(np.maximum(prob, 1e-12))).sum(axis=1)))
        assert abs(loss.item() - expected) < 1e-10

    def test_gradient_reaches_theta_only(self):
        rng = np.random.default_rng(22)
        p = init_model(d=3, n_classes=3, seed=19)
        batch = random_batch(rng)
        yt_hat = pseudo_labels(p, batch.xt.data)
        backward(emp_mixup_loss(p, batch, RatioVector(np.full(batch.m, 0.5)), yt_hat)[0])
        assert all(t.grad is not None for t in p.theta_params())
        assert all(t.grad is None for t in p.phi_params())

    def test_per_pair_independence_of_lambda_star(self):
        rng = np.random.default_rng(23)
        p = init_model(d=3, n_classes=3, seed=20)
        batch = random_batch(rng, m=6)
        base = brute_force_emp(p, batch).values
        xt2 = batch.xt.data.copy()
        xt2[3] += 10.0  # perturb pair 3 only
        batch2 = DomainBatch(xs=Tensor(batch.xs.data), ys=Tensor(batch.ys.data), xt=Tensor(xt2))
        after = brute_force_emp(p, batch2).values
        keep = np.arange(6) != 3
        assert np.array_equal(base[keep], after[keep])
