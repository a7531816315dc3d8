"""Tests for confidence masking, view construction, and the swapped loss."""

import numpy as np
import pytest

from vicinalda import diffcore as dc
from vicinalda.diffcore import ContractError, Tensor, backward
from vicinalda.contrastive import (
    build_contrastive_pairs,
    confidence_mask,
    contrastive_loss,
    swap_agreement,
    target_top1_probs,
    top2_of,
)
from vicinalda.domains import DomainBatch
from vicinalda.model import init_model, logits_of, one_hot_argmax, pseudo_labels
from vicinalda.vicinal import ratios

from tape_oracle import dominance_fractions


def random_batch(rng, m=8, d=3, n=3):
    ys = np.zeros((m, n))
    ys[np.arange(m), rng.integers(0, n, m)] = 1.0
    return DomainBatch(
        xs=Tensor(rng.normal(size=(m, d))),
        ys=Tensor(ys),
        xt=Tensor(rng.normal(size=(m, d))),
    )


class TestConfidenceMask:
    def test_equal_probs_all_kept(self):
        mask = confidence_mask(np.full(5, 0.8), alpha=1.0)
        assert mask.all()

    def test_worked_example(self):
        # mean 0.7, sample std 0.2, threshold 0.5 at alpha 1 -> all kept
        mask = confidence_mask(np.array([0.9, 0.5, 0.7]), alpha=1.0)
        assert mask.all()

    def test_alpha_zero_keeps_above_mean(self):
        probs = np.array([0.9, 0.5, 0.7, 0.3])
        mask = confidence_mask(probs, alpha=0.0)
        assert np.array_equal(mask, probs >= probs.mean())

    def test_single_row_fallback_keeps_all(self):
        assert confidence_mask(np.array([0.1]), alpha=2.0).all()

    def test_brute_force_equivalence_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(2, 40))
            probs = rng.uniform(0, 1, m)
            alpha = float(rng.uniform(-1, 3))
            mask = confidence_mask(probs, alpha)
            mean = probs.sum() / m
            var = ((probs - mean) ** 2).sum() / (m - 1)
            expected = probs >= (mean - alpha * np.sqrt(var))
            assert np.array_equal(mask, expected)

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            confidence_mask(np.array([0.5, 1.2]), alpha=1.0)

    @pytest.mark.parametrize("probs", [[np.nan, 0.5, 0.7], [0.5, 0.7, np.nan], [np.nan, np.nan]],
                             ids=["first", "last", "all"])
    def test_rejects_nan(self, probs):
        # every comparison with nan is False, so a range check written as
        # `p < 0 or p > 1` lets it through and the mask drops every row
        with pytest.raises(ContractError, match="nan"):
            confidence_mask(np.array(probs), alpha=2.0)


class TestBuildPairs:
    def test_views_at_expected_ratios(self):
        rng = np.random.default_rng(1)
        batch = random_batch(rng, m=1)
        pair = build_contrastive_pairs(batch, ratios([0.5]), 0.2, np.array([True]))
        assert pair.n_kept == 1
        expected_sd = 0.7 * batch.xs.data + 0.3 * batch.xt.data
        expected_td = 0.3 * batch.xs.data + 0.7 * batch.xt.data
        assert np.allclose(pair.x_sd.data, expected_sd, atol=1e-15)
        assert np.allclose(pair.x_td.data, expected_td, atol=1e-15)

    def test_out_of_range_pair_dropped(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng, m=1)
        pair = build_contrastive_pairs(batch, ratios([0.95]), 0.2, np.array([True]))
        assert pair.n_kept == 0

    def test_kept_set_matches_brute_force_filter(self):
        rng = np.random.default_rng(3)
        m = 40
        batch = random_batch(rng, m=m)
        lam = ratios(rng.integers(0, 11, m) / 10.0)
        mask = rng.uniform(0, 1, m) > 0.3
        omega = 0.1
        pair = build_contrastive_pairs(batch, lam, omega, mask)
        expected = [
            i
            for i in range(m)
            if lam.values[i] - omega >= 0.0 and lam.values[i] + omega <= 1.0 and mask[i]
        ]
        assert list(pair.kept_indices) == expected
        for row, i in enumerate(pair.kept_indices):
            assert 0.0 <= pair.lam_sd.values[row] < lam.values[i]
            assert lam.values[i] < pair.lam_td.values[row] <= 1.0

    def test_space_bounds_are_configurable(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng, m=4)
        lam = ratios([0.2, 0.5, 0.8, 0.5])
        mask = np.ones(4, bool)
        pair = build_contrastive_pairs(batch, lam, 0.1, mask, space_sd=0.3, space_td=0.7)
        assert list(pair.kept_indices) == [1, 3]

    def test_bad_omega_rejected(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, m=2)
        for omega in (0.0, 0.5, -0.1):
            with pytest.raises(ContractError):
                build_contrastive_pairs(batch, ratios([0.5, 0.5]), omega, np.ones(2, bool))


class TestTop2:
    def test_basic(self):
        k1, k2 = top2_of(np.array([[0.1, 3.0, 2.0]]))
        assert (k1[0], k2[0]) == (1, 2)

    def test_tie_for_top1_takes_lower_index(self):
        k1, k2 = top2_of(np.array([[2.0, 2.0, 0.0]]))
        assert (k1[0], k2[0]) == (0, 1)

    def test_against_full_sort_oracle(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(50, 6))
        k1, k2 = top2_of(z)
        for i in range(50):
            ranked = sorted(range(6), key=lambda k: (-z[i, k], k))
            assert (k1[i], k2[i]) == (ranked[0], ranked[1])

    def test_indices_always_differ(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = rng.normal(size=(8, 3)).round(1)  # rounding forces ties
            top = top2_of(z)
            assert np.all(top.k1 != top.k2)


class TestContrastiveLoss:
    def build(self, rng, m=10, omega=0.1, lam_values=None, seed=0):
        p = init_model(d=3, n_classes=3, seed=seed)
        batch = random_batch(rng, m=m)
        lam = ratios(lam_values if lam_values is not None else np.full(m, 0.5))
        pair = build_contrastive_pairs(batch, lam, omega, np.ones(m, bool))
        yt_hat = pseudo_labels(p, batch.xt)
        return p, batch, pair, yt_hat

    def test_empty_pairs_zero_loss_no_gradient(self):
        rng = np.random.default_rng(7)
        p, batch, _, yt_hat = self.build(rng)
        pair = build_contrastive_pairs(batch, ratios(np.ones(batch.m)), 0.1, np.ones(batch.m, bool))
        loss = contrastive_loss(p, pair, batch.ys, yt_hat)
        assert loss.item() == 0.0
        assert loss.requires_grad is False

    def test_soft_labels_sum_to_one_exactly(self):
        rng = np.random.default_rng(8)
        p, batch, pair, yt_hat = self.build(rng)
        lam_td = pair.lam_td.values[:, None]
        lam_sd = pair.lam_sd.values[:, None]
        z_sd = logits_of(p, pair.x_sd).data
        z_td = logits_of(p, pair.x_td).data
        label_td = lam_td * yt_hat.data[pair.kept_indices] + (1 - lam_td) * one_hot_argmax(z_sd, 3)
        label_sd = (1 - lam_sd) * batch.ys.data[pair.kept_indices] + lam_sd * one_hot_argmax(z_td, 3)
        assert np.all(label_td.sum(axis=1) == 1.0)
        assert np.all(label_sd.sum(axis=1) == 1.0)

    def test_matches_formula_recomputation(self):
        rng = np.random.default_rng(9)
        p, batch, pair, yt_hat = self.build(rng, m=12)
        loss = contrastive_loss(p, pair, batch.ys, yt_hat)

        def softmax(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        idx = pair.kept_indices
        z_sd = logits_of(p, pair.x_sd).data
        z_td = logits_of(p, pair.x_td).data
        lam_sd = pair.lam_sd.values[:, None]
        lam_td = pair.lam_td.values[:, None]
        label_td = lam_td * yt_hat.data[idx] + (1 - lam_td) * one_hot_argmax(z_sd, 3)
        label_sd = (1 - lam_sd) * batch.ys.data[idx] + lam_sd * one_hot_argmax(z_td, 3)
        ce = lambda z, t: float(
            np.mean(-(t * np.log(np.maximum(softmax(z), 1e-12))).sum(axis=1))
        )
        expected = ce(z_td, label_td) + ce(z_sd, label_sd)
        assert abs(loss.item() - expected) < 1e-10

    def test_gradient_reaches_theta_only(self):
        rng = np.random.default_rng(10)
        p, batch, pair, yt_hat = self.build(rng)
        backward(contrastive_loss(p, pair, batch.ys, yt_hat))
        assert all(t.grad is not None for t in p.theta_params())
        assert all(t.grad is None for t in p.phi_params())

    def test_perfectly_adapted_labels_match_eq_one_form(self):
        # when each view's top-1 equals its trusted label, the sd label is
        # exactly the plain source/pseudo-label convex combination
        rng = np.random.default_rng(11)
        p, batch, pair, yt_hat = self.build(rng, m=6)
        z_sd = logits_of(p, pair.x_sd).data
        z_td = logits_of(p, pair.x_td).data
        idx = pair.kept_indices
        agree = (one_hot_argmax(z_td, 3).argmax(1) == yt_hat.data[idx].argmax(1)) & (
            one_hot_argmax(z_sd, 3).argmax(1) == batch.ys.data[idx].argmax(1)
        )
        lam_sd = pair.lam_sd.values[:, None]
        label_sd = (1 - lam_sd) * batch.ys.data[idx] + lam_sd * one_hot_argmax(z_td, 3)
        plain = (1 - lam_sd) * batch.ys.data[idx] + lam_sd * yt_hat.data[idx]
        assert np.array_equal(label_sd[agree], plain[agree])

    def test_degenerate_margin_views_coincide(self):
        # omega = 0 is outside build_contrastive_pairs' contract, so the
        # coinciding-views case is constructed directly: the loss stays
        # finite and nonnegative when both views are the same mix
        from vicinalda.contrastive import ContrastivePair
        from vicinalda.vicinal import mix

        rng = np.random.default_rng(16)
        p = init_model(d=3, n_classes=3, seed=4)
        batch = random_batch(rng, m=6)
        lam = ratios(np.full(6, 0.5))
        x_view = mix(batch.xs, batch.xt, lam)
        pairs = ContrastivePair(
            x_sd=x_view, x_td=x_view, lam_sd=lam, lam_td=lam,
            kept_indices=np.arange(6),
        )
        loss = contrastive_loss(p, pairs, batch.ys, pseudo_labels(p, batch.xt))
        assert np.isfinite(loss.item())
        assert loss.item() >= 0.0

    def test_masked_pair_leaves_others_contribution_unchanged(self):
        rng = np.random.default_rng(12)
        p, batch, pair, yt_hat = self.build(rng, m=5)
        full = contrastive_loss(p, pair, batch.ys, yt_hat)
        mask = np.ones(5, bool)
        mask[pair.kept_indices[0]] = False
        reduced_pair = build_contrastive_pairs(
            batch, ratios(np.full(5, 0.5)), 0.1, mask
        )
        reduced = contrastive_loss(p, reduced_pair, batch.ys, yt_hat)
        # recompute full loss from per-pair contributions of the reduced set
        k_full, k_red = pair.n_kept, reduced_pair.n_kept
        assert k_red == k_full - 1
        # contributions are mean-normalized; check via direct recomputation
        z_td = logits_of(p, pair.x_td).data
        z_sd = logits_of(p, pair.x_sd).data

        def softmax(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        lam_td = pair.lam_td.values[:, None]
        lam_sd = pair.lam_sd.values[:, None]
        label_td = lam_td * yt_hat.data[pair.kept_indices] + (1 - lam_td) * one_hot_argmax(z_sd, 3)
        label_sd = (1 - lam_sd) * batch.ys.data[pair.kept_indices] + lam_sd * one_hot_argmax(z_td, 3)
        per_pair = -(label_td * np.log(np.maximum(softmax(z_td), 1e-12))).sum(axis=1) - (
            label_sd * np.log(np.maximum(softmax(z_sd), 1e-12))
        ).sum(axis=1)
        assert abs(full.item() - per_pair.mean()) < 1e-10
        assert abs(reduced.item() - per_pair[1:].mean()) < 1e-10


class TestDiagnosticsHelpers:
    def test_swap_agreement_bounds(self):
        rng = np.random.default_rng(13)
        p = init_model(d=3, n_classes=3, seed=1)
        batch = random_batch(rng, m=20)
        pair = build_contrastive_pairs(batch, ratios(np.full(20, 0.5)), 0.1, np.ones(20, bool))
        rate = swap_agreement(p, pair)
        assert 0.0 <= rate <= 1.0

    def test_dominance_fractions_on_steered_model(self):
        # logits equal the input's first two coords: class = sign structure
        rng = np.random.default_rng(14)
        p = init_model(d=2, n_classes=2, seed=2)
        batch = random_batch(rng, m=30, d=2, n=2)
        pair = build_contrastive_pairs(batch, ratios(np.full(30, 0.5)), 0.1, np.ones(30, bool))
        f_sd, f_td = dominance_fractions(p, pair, batch.ys)
        assert 0.0 <= f_sd <= 1.0 and 0.0 <= f_td <= 1.0

    def test_target_top1_probs_in_unit_interval(self):
        rng = np.random.default_rng(15)
        p = init_model(d=3, n_classes=4, seed=3)
        batch = random_batch(rng, m=10, n=4)
        probs = target_top1_probs(p, batch.xt)
        assert np.all((probs >= 0.25 - 1e-12) & (probs <= 1.0))
