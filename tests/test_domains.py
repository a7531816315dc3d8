"""Tests for the synthetic domain-pair generators and batch sampling."""

import dataclasses

import numpy as np
import pytest

from vicinalda.diffcore import ContractError
from vicinalda.domains import (
    DomainBatch,
    DomainBatcher,
    make_blobs_pair,
    make_two_moons_pair,
)


class TestTwoMoons:
    def test_zero_rotation_zero_noise_identity(self):
        ds = make_two_moons_pair(100, rotation_deg=0.0, noise_std=0.0, seed=3)
        assert np.array_equal(ds.source_x.data, ds.target_x.data)
        assert np.array_equal(ds.source_y.data, ds.target_y_eval.data)

    def test_rotation_180_is_negation(self):
        ds = make_two_moons_pair(80, rotation_deg=180.0, noise_std=0.0, seed=3)
        assert np.allclose(ds.target_x.data, -ds.source_x.data, atol=1e-12)

    def test_seed_determinism_bitwise(self):
        a = make_two_moons_pair(60, 40.0, 0.05, seed=9)
        b = make_two_moons_pair(60, 40.0, 0.05, seed=9)
        assert np.array_equal(a.source_x.data, b.source_x.data)
        assert np.array_equal(a.target_x.data, b.target_x.data)
        assert np.array_equal(a.source_y.data, b.source_y.data)

    def test_class_balance(self):
        for n in (50, 51):
            ds = make_two_moons_pair(n, 40.0, 0.05, seed=1)
            counts = ds.source_y.data.sum(axis=0)
            assert abs(counts[0] - counts[1]) <= 1

    def test_source_standardization(self):
        ds = make_two_moons_pair(500, 40.0, 0.05, seed=2)
        assert np.allclose(ds.source_x.data.mean(axis=0), 0.0, atol=1e-12)
        assert abs(ds.source_x.data.std() - 1.0) < 1e-12

    def test_rotation_preserves_class_centroids(self):
        deg = 40.0
        ds = make_two_moons_pair(400, deg, noise_std=0.05, seed=5)
        rad = np.deg2rad(deg)
        rot = np.array([[np.cos(rad), -np.sin(rad)], [np.sin(rad), np.cos(rad)]])
        labels = ds.source_y.data.argmax(axis=1)
        for cls in (0, 1):
            src_c = ds.source_x.data[labels == cls].mean(axis=0)
            tgt_c = ds.target_x.data[labels == cls].mean(axis=0)
            # noise_std=0.05 over ~200 points: centroid error ~ 0.05/sqrt(200)
            assert np.linalg.norm(tgt_c - rot @ src_c) < 0.02

    def test_rejects_bad_args(self):
        with pytest.raises(ContractError):
            make_two_moons_pair(2, 0.0, 0.0, seed=0)
        with pytest.raises(ContractError):
            make_two_moons_pair(10, 0.0, -0.1, seed=0)


class TestBlobs:
    def test_shift_zero_same_distribution_stats(self):
        ds = make_blobs_pair(3, 4, shift=0.0, seed=7, n_per_domain=900)
        labels = ds.source_y.data.argmax(axis=1)
        for cls in range(3):
            src_c = ds.source_x.data[labels == cls].mean(axis=0)
            tgt_c = ds.target_x.data[labels == cls].mean(axis=0)
            assert np.linalg.norm(src_c - tgt_c) < 0.25

    def test_invariants_hold(self):
        ds = make_blobs_pair(3, 4, shift=2.0, seed=11, n_per_domain=250)
        assert ds.n_classes == 3
        assert ds.input_dim == 4
        assert ds.source_x.shape == (250, 4)
        assert ds.target_x.shape == (250, 4)
        counts = ds.source_y.data.sum(axis=0)
        assert counts.max() - counts.min() <= 1
        assert np.array_equal(ds.source_y.data, make_blobs_pair(3, 4, 2.0, 11, 250).source_y.data)

    def test_rejects_bad_args(self):
        with pytest.raises(ContractError):
            make_blobs_pair(1, 4, 1.0, seed=0)
        with pytest.raises(ContractError):
            make_blobs_pair(3, 1, 1.0, seed=0)
        # a negative std would skip the rescale that keeps classes apart
        with pytest.raises(ContractError, match="blob_std must be >= 0"):
            make_blobs_pair(3, 4, 1.0, seed=0, blob_std=-0.5)

    def test_large_shift_defeats_source_only_baseline(self):
        # far-field predictions quantize per seed, so the chance claim is
        # about the mean over seeds
        from vicinalda.model import init_model
        from vicinalda.trainer import TrainConfig, evaluate, warmup

        accs = []
        for seed in range(5):
            ds = make_blobs_pair(3, 4, shift=25.0, seed=seed, n_per_domain=600, blob_std=0.5)
            p = init_model(d=4, n_classes=3, seed=seed + 100)
            cfg = TrainConfig(dataset="blobs", n_per_domain=600, warmup_epochs=15, seed=seed)
            warmup(p, ds, cfg, np.random.default_rng(seed + 200))
            src_acc, tgt_acc = evaluate(p, ds)
            assert src_acc > 0.95
            accs.append(tgt_acc)
        assert abs(np.mean(accs) - 1.0 / 3.0) <= 0.15


class TestBatcher:
    def test_full_batch_is_permutation(self):
        ds = make_two_moons_pair(40, 40.0, 0.05, seed=1)
        batcher = DomainBatcher(ds, 40, np.random.default_rng(0))
        si, ti = batcher.next_indices()
        assert sorted(si) == list(range(40))
        assert sorted(ti) == list(range(40))

    def test_same_seed_identical_batches(self):
        ds = make_two_moons_pair(50, 40.0, 0.05, seed=1)
        a = DomainBatcher(ds, 16, np.random.default_rng(5))
        b = DomainBatcher(ds, 16, np.random.default_rng(5))
        for _ in range(7):
            ba, bb = a.next_batch(), b.next_batch()
            assert np.array_equal(ba.xs.data, bb.xs.data)
            assert np.array_equal(ba.xt.data, bb.xt.data)
            assert np.array_equal(ba.ys.data, bb.ys.data)

    def test_epoch_coverage_set_equality(self):
        ds = make_two_moons_pair(100, 40.0, 0.05, seed=1)
        batcher = DomainBatcher(ds, 20, np.random.default_rng(2))
        seen_src, seen_tgt = [], []
        for _ in range(5):  # 5 x 20 = exactly one epoch
            si, ti = batcher.next_indices()
            seen_src.extend(si)
            seen_tgt.extend(ti)
        assert sorted(seen_src) == list(range(100))
        assert sorted(seen_tgt) == list(range(100))

    def test_multi_epoch_counts_without_replacement(self):
        ds = make_two_moons_pair(100, 40.0, 0.05, seed=1)
        batcher = DomainBatcher(ds, 30, np.random.default_rng(3))
        seen = []
        for _ in range(10):  # 300 draws = exactly 3 epochs
            si, _ = batcher.next_indices()
            seen.extend(si)
        counts = np.bincount(np.array(seen), minlength=100)
        assert np.all(counts == 3)

    def test_oversized_batch_rejected(self):
        ds = make_two_moons_pair(10, 40.0, 0.05, seed=1)
        with pytest.raises(ContractError):
            DomainBatcher(ds, 11, np.random.default_rng(0))

    def test_batch_type_cannot_express_target_labels(self):
        fields = {f.name for f in dataclasses.fields(DomainBatch)}
        assert fields == {"xs", "ys", "xt"}
