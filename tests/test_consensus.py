"""Tests for the consensus views, labels, and loss."""

import numpy as np
import pytest

from vicinalda import diffcore as dc
from vicinalda.diffcore import ContractError, backward
from vicinalda.consensus import (
    consensus_keep_mask,
    consensus_labels,
    consensus_loss,
    make_views,
)
from vicinalda.model import init_model, logits_of, one_hot_argmax
from vicinalda.vicinal import mix_np

from test_model import params_checksum
from test_vicinal import random_batch


class TestMakeViews:
    def test_zero_perturbation_views_equal_target(self):
        rng = np.random.default_rng(0)
        batch = random_batch(rng, m=8)
        views = make_views(batch, 0.0, np.random.default_rng(1))
        assert np.array_equal(views.x_v1, batch.xt.data)
        assert np.array_equal(views.x_v2, batch.xt.data)

    def test_identity_shuffle_makes_views_equal(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng, m=8)

        class IdentityRng:
            def permutation(self, n):
                return np.arange(n)

        views = make_views(batch, 0.3, IdentityRng())
        assert np.array_equal(views.x_v1, views.x_v2)

    def test_per_row_decomposition(self):
        rng = np.random.default_rng(3)
        batch = random_batch(rng, m=6)
        lam_p = 0.2
        views = make_views(batch, lam_p, np.random.default_rng(4))
        shuffle = np.random.default_rng(4).permutation(6)
        # each view row = lam_p * (some source row) + (1-lam_p) * own target row
        v1_src = (views.x_v1 - (1 - lam_p) * batch.xt.data) / lam_p
        v2_src = (views.x_v2 - (1 - lam_p) * batch.xt.data) / lam_p
        assert np.allclose(v1_src, batch.xs.data, atol=1e-12)
        assert np.allclose(v2_src, batch.xs.data[shuffle], atol=1e-12)

    def test_shuffle_is_permutation_and_deterministic(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, m=16)
        v1 = make_views(batch, 0.1, np.random.default_rng(9))
        v2 = make_views(batch, 0.1, np.random.default_rng(9))
        shuffle = np.random.default_rng(9).permutation(16)
        assert sorted(shuffle) == list(range(16))
        assert np.array_equal(v1.x_v2, mix_np(batch.xt.data, batch.xs.data[shuffle], 0.1))
        assert np.array_equal(v1.x_v2, v2.x_v2)

    def test_out_of_range_lam_p_rejected(self):
        batch = random_batch(np.random.default_rng(6), m=8)
        for bad in (-0.1, 0.6):
            with pytest.raises(ContractError):
                make_views(batch, bad, np.random.default_rng(0))


class TestConsensusLabels:
    def test_equal_logits_gives_argmax(self):
        z = np.array([[0.2, 1.5, -1.0], [2.0, 0.0, 0.1]])
        got = consensus_labels(z, z)
        assert np.array_equal(got, one_hot_argmax(z, 3))

    def test_aggregation_arithmetic(self):
        # probs v1: a=0.6, b=0.4; probs v2: a=0.1, b=0.9 -> a: 0.7, b: 1.3 -> b
        z1 = np.log(np.array([[0.6, 0.4]]))
        z2 = np.log(np.array([[0.1, 0.9]]))
        got = consensus_labels(z1, z2)
        assert np.array_equal(got, [[0.0, 1.0]])

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        z1, z2 = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        assert np.array_equal(consensus_labels(z1 + 7.5, z2), consensus_labels(z1, z2))

    def test_symmetry_in_views(self):
        rng = np.random.default_rng(8)
        z1, z2 = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        assert np.array_equal(consensus_labels(z1, z2), consensus_labels(z2, z1))


class TestConsensusLoss:
    def test_zero_perturbation_identity(self):
        rng = np.random.default_rng(9)
        p = init_model(d=3, n_classes=3, seed=0)
        batch = random_batch(rng, m=12)
        views = make_views(batch, 0.0, np.random.default_rng(10))
        loss = consensus_loss(p, views, consensus_keep_mask(p, views, beta=1e6))  # keep all
        z_t = logits_of(p, batch.xt.data)
        self_training = dc.cross_entropy(z_t, one_hot_argmax(z_t.data, 3))
        assert abs(loss.item() - 2.0 * self_training.item()) < 1e-10

    def test_zero_perturbation_gradient_is_twice_self_training(self):
        rng = np.random.default_rng(11)
        p = init_model(d=3, n_classes=3, seed=1)
        batch = random_batch(rng, m=10)
        views = make_views(batch, 0.0, np.random.default_rng(12))
        backward(consensus_loss(p, views, consensus_keep_mask(p, views, beta=1e6)))
        grads_consensus = [t.grad.copy() for t in p.theta_params()]
        for t in p.theta_params():
            t.zero_grad()
        z_t = logits_of(p, batch.xt.data)
        backward(dc.cross_entropy(z_t, one_hot_argmax(z_t.data, 3)))
        for gc, t in zip(grads_consensus, p.theta_params()):
            assert np.max(np.abs(gc - 2.0 * t.grad)) < 1e-8

    def test_empty_mask_zero_loss_no_gradient(self):
        rng = np.random.default_rng(13)
        p = init_model(d=3, n_classes=3, seed=2)
        batch = random_batch(rng, m=8)
        views = make_views(batch, 0.1, np.random.default_rng(14))
        # strongly negative beta raises the threshold above every prob
        keep = consensus_keep_mask(p, views, beta=-50.0)
        assert not keep.any()
        loss = consensus_loss(p, views, keep)
        assert loss.item() == 0.0
        assert loss.requires_grad is False

    def test_matches_formula_recomputation(self):
        rng = np.random.default_rng(15)
        p = init_model(d=3, n_classes=3, seed=3)
        batch = random_batch(rng, m=16)
        views = make_views(batch, 0.15, np.random.default_rng(16))
        beta = 0.5
        loss = consensus_loss(p, views, consensus_keep_mask(p, views, beta))

        def softmax(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        z1 = logits_of(p, views.x_v1).data
        z2 = logits_of(p, views.x_v2).data
        agg = softmax(z1) + softmax(z2)
        y_hat = one_hot_argmax(agg, 3)
        probs_t = softmax(logits_of(p, views.xt).data).max(axis=1)
        thr = probs_t.mean() - beta * probs_t.std(ddof=1)
        kept = probs_t >= thr
        ce = lambda z, t: float(
            np.mean(-(t * np.log(np.maximum(softmax(z), 1e-12))).sum(axis=1))
        )
        expected = ce(z1[kept], y_hat[kept]) + ce(z2[kept], y_hat[kept])
        assert abs(loss.item() - expected) < 1e-10

    def test_label_side_carries_no_gradient(self):
        rng = np.random.default_rng(17)
        p = init_model(d=3, n_classes=3, seed=4)
        batch = random_batch(rng, m=10)
        views = make_views(batch, 0.1, np.random.default_rng(18))
        backward(consensus_loss(p, views, consensus_keep_mask(p, views, beta=2.0)))
        assert all(t.grad is not None for t in p.theta_params())
        assert all(t.grad is None for t in p.phi_params())
        assert all(np.all(np.isfinite(t.grad)) for t in p.theta_params())

    def test_loss_never_touches_phi_checksum(self):
        rng = np.random.default_rng(19)
        p = init_model(d=3, n_classes=3, seed=5)
        batch = random_batch(rng, m=6)
        before = params_checksum(p.phi_params())
        views = make_views(batch, 0.1, np.random.default_rng(20))
        backward(consensus_loss(p, views, consensus_keep_mask(p, views, beta=2.0)))
        assert params_checksum(p.phi_params()) == before
