"""Tests for the entropy/dominance sweep and equilibrium reporting."""

import os

import numpy as np
import pytest

from vicinalda.diagnostics import (
    SweepRow,
    empirical_emp,
    equilibrium_report,
    flip_text,
    lambda_sweep,
    write_sweep_csv,
)
from vicinalda.diffcore import ContractError
from vicinalda import diffcore as dc
from vicinalda.model import RATIO_GRID, forward_np, init_model, logits_of
from vicinalda.trainer import TrainConfig, derive_seeds, make_dataset, warmup
from vicinalda.vicinal import mix_np

from test_model import params_checksum


WIDE = dict(dataset="blobs", blob_classes=5, blob_dim=16, hidden=256, feat_dim=64)


def trained_setup(n=300, warmup_epochs=10, seed=0, **shape):
    cfg = TrainConfig(n_per_domain=n, warmup_epochs=warmup_epochs, seed=seed, **shape)
    seeds = derive_seeds(seed)
    ds = make_dataset(cfg, seeds.data)
    p = init_model(d=ds.input_dim, n_classes=ds.n_classes, feat_dim=cfg.feat_dim,
                   hidden=cfg.hidden, seed=seeds.model)
    warmup(p, ds, cfg, np.random.default_rng(seeds.warmup_batches))
    return ds, p


class TestLambdaSweep:
    def test_endpoint_rows_match_accuracies(self):
        ds, p = trained_setup()
        rows = lambda_sweep(p, ds, n_samples=128)
        # lambda 0: pure source rows, source dominance = accuracy there
        src_pred = logits_of(p, ds.source_x.data[:128]).data.argmax(axis=1)
        src_label = ds.source_y.data[:128].argmax(axis=1)
        assert rows[0].lam == 0.0
        assert rows[0].source_dom == float(np.mean(src_pred == src_label))
        # lambda 1: pure (offset-paired) target rows
        tgt_idx = (np.arange(128) + 1) % 128
        tgt_pred = logits_of(p, ds.target_x.data[tgt_idx]).data.argmax(axis=1)
        tgt_label = ds.target_y_eval.data[tgt_idx].argmax(axis=1)
        assert rows[-1].lam == 1.0
        assert rows[-1].target_dom == float(np.mean(tgt_pred == tgt_label))

    def test_counting_identity(self):
        ds, p = trained_setup()
        n = 128
        rows = lambda_sweep(p, ds, n_samples=n)
        tgt_idx = (np.arange(n) + 1) % n
        same = float(
            np.mean(
                ds.source_y.data[:n].argmax(axis=1)
                == ds.target_y_eval.data[tgt_idx].argmax(axis=1)
            )
        )
        for row in rows:
            assert row.source_dom + row.target_dom <= 1.0 + same + 1e-12

    def test_deterministic_and_non_mutating(self):
        ds, p = trained_setup()
        before = params_checksum([t for _, t in p.named_params()])
        a = lambda_sweep(p, ds, n_samples=64)
        b = lambda_sweep(p, ds, n_samples=64)
        assert a == b
        assert params_checksum([t for _, t in p.named_params()]) == before

    def test_rejects_oversized_sample(self):
        ds, p = trained_setup(n=100)
        with pytest.raises(ContractError):
            lambda_sweep(p, ds, n_samples=101)


def per_ratio_sweep(p, ds, n):
    """The sweep as one forward per grid ratio, the way it was computed
    before it read the stacked grid forward: the oracle for its rows."""
    tgt_idx = (np.arange(n) + 1) % n
    xs, xt = ds.source_x.data[:n], ds.target_x.data[tgt_idx]
    src_label = ds.source_y.data[:n].argmax(axis=1)
    tgt_label = ds.target_y_eval.data[tgt_idx].argmax(axis=1)
    rows = []
    for lam_k in RATIO_GRID:
        logits = forward_np(p, mix_np(xs, xt, lam_k))
        top1 = logits.argmax(axis=1)
        rows.append(SweepRow(
            lam=float(lam_k),
            mean_entropy=float(dc.entropy_rows_np(logits).mean()),
            source_dom=float(np.mean(top1 == src_label)),
            target_dom=float(np.mean(top1 == tgt_label)),
        ))
    return rows


def row_bits(rows):
    return np.array([[r.lam, r.mean_entropy, r.source_dom, r.target_dom] for r in rows]).view(
        np.uint64)


class TestSweepAgainstPerRatioOracle:
    @pytest.fixture(scope="class", params=["default", "wide"])
    def setup(self, request):
        if request.param == "wide":
            return trained_setup(warmup_epochs=3, **WIDE)
        return trained_setup()

    @pytest.mark.parametrize("n", [32, 63, 64, 100, 128, 255, 256])
    def test_rows_bit_identical(self, setup, n):
        ds, p = setup
        np.testing.assert_array_equal(row_bits(lambda_sweep(p, ds, n_samples=n)),
                                      row_bits(per_ratio_sweep(p, ds, n)))


class TestEmpiricalEmp:
    def test_planted_peak(self):
        rows = [
            SweepRow(lam=k / 10, mean_entropy=1.0 - abs(k / 10 - 0.6), source_dom=0.5, target_dom=0.4)
            for k in range(11)
        ]
        lam_max, _ = empirical_emp(rows)
        assert lam_max == 0.6

    def test_flip_quantization(self):
        # dominance curves cross between 0.4 and 0.5: flip reported at 0.5
        rows = [
            SweepRow(
                lam=k / 10,
                mean_entropy=0.1,
                source_dom=1.0 - k / 10,
                target_dom=k / 10 + 0.05,
            )
            for k in range(11)
        ]
        _, lam_flip = empirical_emp(rows)
        assert lam_flip == 0.5

    def test_no_flip_reported_absent(self):
        rows = [
            SweepRow(lam=k / 10, mean_entropy=0.1, source_dom=0.9, target_dom=0.1)
            for k in range(11)
        ]
        _, lam_flip = empirical_emp(rows)
        assert lam_flip is None

    def test_empty_sweep_rejected(self):
        with pytest.raises(ContractError):
            empirical_emp([])

    def test_source_only_model_peak_and_flip_colocate(self):
        # the co-location claim is about a fully source-trained model, so
        # this one runs the default-scale warmup
        ds, p = trained_setup(n=1000, warmup_epochs=40)
        lam_max, lam_flip = empirical_emp(lambda_sweep(p, ds, n_samples=256))
        assert lam_flip is not None
        assert abs(lam_max - lam_flip) <= 0.2


class TestEquilibriumReport:
    def test_identical_checkpoints_identical_rows(self, tmp_path):
        ds, p = trained_setup()
        report = equilibrium_report(p, p, ds, str(tmp_path), n_samples=64)
        before, after = ((tmp_path / name).read_bytes()
                         for name in ("sweep_before.csv", "sweep_after.csv"))
        assert before == after
        assert report.before_emp == report.after_emp

    def test_csv_round_trip(self, tmp_path):
        ds, p = trained_setup()
        equilibrium_report(p, p, ds, str(tmp_path), n_samples=64)
        lines = (tmp_path / "sweep_before.csv").read_text().splitlines()
        assert lines[0] == "lambda,mean_entropy,source_dom,target_dom"
        back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        expected = np.array(
            [[r.lam, r.mean_entropy, r.source_dom, r.target_dom]
             for r in lambda_sweep(p, ds, n_samples=64)]
        )
        assert back.shape == (11, 4)
        assert np.max(np.abs(back - expected)) < 1e-6

    def test_summary_file_contents(self, tmp_path):
        ds, p = trained_setup()
        report = equilibrium_report(p, p, ds, str(tmp_path), n_samples=32)
        text = open(report.summary_path).read()
        assert text.startswith("checkpoint,entropy_peak_lambda,dominance_flip_lambda\n")
        assert "before," in text and "after," in text
        # the equilibrium verb prints this text without reading the file back
        assert text == report.summary()

    def test_flip_text(self):
        assert flip_text(None) == "absent"
        assert flip_text(0.5) == "0.5"

    def test_write_read_cycle_standalone(self, tmp_path):
        rows = [SweepRow(lam=0.3, mean_entropy=0.25, source_dom=0.75, target_dom=0.5)]
        path = str(tmp_path / "sweep.csv")
        write_sweep_csv(rows, path)
        raw = open(path, "rb").read()
        assert raw == (
            b"lambda,mean_entropy,source_dom,target_dom\n"
            b"0.300000,0.250000,0.750000,0.500000\n"
        )

    def test_failed_write_keeps_the_previous_sweep(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv([SweepRow(lam=0.3, mean_entropy=0.25, source_dom=0.75, target_dom=0.5)],
                        str(path))
        before = path.read_bytes()
        # the header and the first row are written before the second fails
        rows = [
            SweepRow(lam=0.0, mean_entropy=0.5, source_dom=1.0, target_dom=0.0),
            SweepRow(lam=0.1, mean_entropy="not a float", source_dom=1.0, target_dom=0.0),
        ]
        with pytest.raises(ValueError):
            write_sweep_csv(rows, str(path))
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["sweep.csv"]
