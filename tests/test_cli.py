"""End-to-end CLI tests, through a real subprocess, or through `cli.main`
where a test needs several calls in one process."""

import os
import subprocess
import sys

import numpy as np
import pytest

from vicinalda.model import init_model, save_checkpoint
from vicinalda.trainer import METRICS_HEADER, derive_seeds

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = [
    "--set", "n_per_domain=160",
    "--set", "batch_size=32",
    "--set", "warmup_epochs=3",
    "--set", "covi_epochs=1",
]


def run_cli(*argv, timeout=300, python_flags=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src")
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "vicinalda", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=PKG_ROOT,
    )


class TestUsageErrors:
    def test_missing_config_file_exits_2(self, tmp_path):
        res = run_cli("train", "--config", str(tmp_path / "missing.cfg"))
        assert res.returncode == 2
        assert "missing.cfg" in res.stderr

    @pytest.mark.parametrize("verb,kind", [("train", "directory"), ("eval", "not UTF-8")])
    def test_unreadable_config_exits_2_naming_it(self, tmp_path, verb, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"lr = 0.03\n\xff\n")
        out = tmp_path / "run"
        res = run_cli(verb, "--config", str(path), "--out", str(out))
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: cannot read config file {path}: ")
        assert not out.exists()

    def test_unknown_flag_exits_2(self):
        res = run_cli("train", "--frobnicate")
        assert res.returncode == 2

    def test_unknown_verb_exits_2(self):
        res = run_cli("explode")
        assert res.returncode == 2

    def test_unknown_config_key_named(self, tmp_path):
        res = run_cli("train", "--set", "warp_speed=9", "--out", str(tmp_path))
        assert res.returncode == 2
        assert "warp_speed" in res.stderr

    def test_non_finite_value_exits_2_before_warmup(self, tmp_path):
        out = tmp_path / "run"
        res = run_cli("train", "--set", "lr=nan", "--out", str(out))
        assert res.returncode == 2
        assert "lr must be finite" in res.stderr
        assert not (out / "checkpoint_warmup.ckpt").exists()

    def test_bad_dimension_exits_2_without_metrics(self, tmp_path):
        out = tmp_path / "run"
        res = run_cli("train", "--set", "hidden=0", "--out", str(out))
        assert res.returncode == 2
        assert "hidden must be >= 1" in res.stderr
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("how,key", [("set", "summed_theta_update"),
                                         ("config", "checkpoint_every")])
    def test_removed_keys_exit_2_without_metrics(self, tmp_path, how, key):
        out = tmp_path / "run"
        if how == "set":
            res = run_cli("train", "--set", f"{key}=true", "--out", str(out))
        else:
            cfg = tmp_path / "old.cfg"
            cfg.write_text(f"{key} = 1\n")
            res = run_cli("train", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 2
        assert f"unknown config key {key!r}" in res.stderr
        assert not (out / "metrics.csv").exists()

    def test_empty_out_exits_2(self):
        res = run_cli("train", "--out", "")
        assert res.returncode == 2
        assert "out_dir must not be empty" in res.stderr

    @pytest.mark.parametrize("how,key", [("set", "batch_size"), ("config", "seed")])
    def test_malformed_number_exits_2_naming_the_key(self, tmp_path, how, key):
        out = tmp_path / "run"
        if how == "set":
            res = run_cli("train", "--set", f"{key}=abc", "--out", str(out))
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{key} = x\n")
            res = run_cli("train", "--config", str(cfg), "--out", str(out))
        assert res.returncode == 2
        assert f"config key {key}" in res.stderr and "Traceback" not in res.stderr
        assert not out.exists()

    def test_negative_seed_exits_2_before_any_output(self, tmp_path):
        out = tmp_path / "run"
        res = run_cli("train", "--seed", "-1", "--out", str(out))
        assert res.returncode == 2
        assert "seed must be >= 0" in res.stderr
        assert not out.exists()

    def test_eval_without_checkpoint_exits_1(self, tmp_path):
        res = run_cli("eval", "--out", str(tmp_path), *TINY)
        assert res.returncode == 1
        assert "checkpoint" in res.stderr


class TestTrainVerb:
    def test_train_writes_artifacts_and_echoes_config(self, tmp_path):
        out = str(tmp_path / "run")
        res = run_cli("train", "--out", out, "--seed", "3", *TINY)
        assert res.returncode == 0, res.stderr
        assert "# effective config" in res.stdout
        assert "seed = 3" in res.stdout
        assert "n_per_domain = 160" in res.stdout
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert os.path.exists(os.path.join(out, "checkpoint_warmup.ckpt"))
        assert os.path.exists(os.path.join(out, "checkpoint_final.ckpt"))
        header = open(os.path.join(out, "metrics.csv")).readline().rstrip("\n")
        assert header == METRICS_HEADER

    def test_train_then_eval_sweep_equilibrium(self, tmp_path):
        out = str(tmp_path / "run")
        assert run_cli("train", "--out", out, *TINY).returncode == 0
        res_eval = run_cli("eval", "--out", out, *TINY)
        assert res_eval.returncode == 0, res_eval.stderr
        assert "target_acc=" in res_eval.stdout
        res_sweep = run_cli("sweep", "--out", out, *TINY)
        assert res_sweep.returncode == 0, res_sweep.stderr
        with open(os.path.join(out, "sweep.csv")) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1 + 11  # header, one row per grid ratio
        res_eq = run_cli("equilibrium", "--out", out, *TINY)
        assert res_eq.returncode == 0, res_eq.stderr
        assert os.path.exists(os.path.join(out, "equilibrium_summary.txt"))
        assert os.path.exists(os.path.join(out, "sweep_before.csv"))
        assert os.path.exists(os.path.join(out, "sweep_after.csv"))


class TestEvalVerb:
    def test_fresh_checkpoint_scores_near_chance(self, tmp_path):
        from vicinalda.trainer import TrainConfig, derive_seeds, evaluate, make_dataset

        # verb wiring: eval an untrained checkpoint through the CLI
        out = str(tmp_path / "fresh")
        os.makedirs(out)
        p = init_model(d=2, n_classes=2, seed=derive_seeds(0).model)
        save_checkpoint(p, os.path.join(out, "checkpoint_final.ckpt"))
        res = run_cli("eval", "--out", out, "--seed", "0", *TINY)
        assert res.returncode == 0, res.stderr
        tgt = float(res.stdout.split("target_acc=")[1].split()[0])
        assert 0.0 <= tgt <= 1.0

        # chance-level oracle: a single random boundary on structured data
        # is high variance, so the claim is about the mean over fresh inits
        cfg = TrainConfig(n_per_domain=400, seed=0)
        ds = make_dataset(cfg, derive_seeds(0).data)
        accs = [evaluate(init_model(d=2, n_classes=2, seed=s), ds)[1] for s in range(30)]
        assert abs(np.mean(accs) - 0.5) <= 0.1


class TestEquilibriumVerb:
    def test_leaves_no_file_open(self, tmp_path):
        from vicinalda.trainer import derive_seeds

        out = str(tmp_path / "fresh")
        os.makedirs(out)
        p = init_model(d=2, n_classes=2, seed=derive_seeds(0).model)
        for name in ("checkpoint_warmup.ckpt", "checkpoint_final.ckpt"):
            save_checkpoint(p, os.path.join(out, name))
        res = run_cli("equilibrium", "--out", out, "--seed", "0", *TINY,
                      python_flags=("-X", "dev", "-W", "error::ResourceWarning"))
        assert res.returncode == 0, res.stderr
        assert "ResourceWarning" not in res.stderr


class TestSelftestVerb:
    def test_selftest_passes_within_two_minutes(self):
        import time

        t0 = time.time()
        res = run_cli("selftest", "--seed", "0", timeout=150)
        elapsed = time.time() - t0
        assert res.returncode == 0, res.stdout + res.stderr
        assert res.stdout.count("[PASS]") == 6
        assert "[FAIL]" not in res.stdout
        assert elapsed < 120.0

    def test_agreement_check_runs_the_effective_config(self, monkeypatch):
        """The agreement check builds two batchers, warm-up's and then the
        ratio learner's; both draw at the `--set` batch size. The run stops
        at the second, so the learner never trains."""
        from vicinalda.cli import main
        from vicinalda.domains import DomainBatcher

        sizes = []
        build = DomainBatcher.__init__

        def recording_build(self, ds, m, rng):
            sizes.append(m)
            if len(sizes) == 2:
                raise RuntimeError("stop at the ratio learner's batcher")
            build(self, ds, m, rng)

        monkeypatch.setattr(DomainBatcher, "__init__", recording_build)
        code = main(["selftest", "--set", "batch_size=32", "--set", "warmup_epochs=1"])
        assert code == 1
        assert sizes == [32, 32]


def without_bias_grad(network, bias):
    """`network` (logits_of or emp_forward) with a wrong VJP: the gradient
    of the parameter named `bias` comes back as zeros."""

    def wrong(p, *inputs):
        out = network(p, *inputs)
        vjp, target = out._vjp, getattr(p, bias)
        out._vjp = lambda g: tuple(
            np.zeros_like(pg) if parent is target else pg
            for parent, pg in zip(out._parents, vjp(g))
        )
        return out

    return wrong


class TestGradientSelfcheck:
    # with the real networks the check passes at this rng (the selftest
    # verb's seed 0). The losses look the networks up in vicinal's
    # namespace; each case breaks the group one of the two losses trains
    @pytest.mark.parametrize("network,bias", [("logits_of", "cls_b"), ("emp_forward", "emp_b2")],
                             ids=["theta", "phi"])
    def test_fails_on_a_wrong_vjp(self, monkeypatch, network, bias):
        from vicinalda import cli, vicinal

        monkeypatch.setattr(vicinal, network, without_bias_grad(getattr(vicinal, network), bias))
        assert not cli._check_gradients(np.random.default_rng(0))


class TestParserReuse:
    """`main` parses every call with one parser built once per process; a
    call must not see the flags, errors or help output of the one before."""

    @pytest.fixture()
    def fresh_out(self, tmp_path):
        """A directory holding an untrained final checkpoint of the run at a seed."""
        from vicinalda.trainer import derive_seeds

        def make(seed):
            out = str(tmp_path / f"fresh{seed}")
            os.makedirs(out)
            p = init_model(d=2, n_classes=2, seed=derive_seeds(seed).model)
            save_checkpoint(p, os.path.join(out, "checkpoint_final.ckpt"))
            return out

        return make

    def test_flags_do_not_carry_over(self, fresh_out, capsys):
        from vicinalda.cli import main

        code = main(["eval", "--out", fresh_out(3), "--seed", "3",
                     "--set", "rotation_deg=80", "--set", "n_per_domain=160"])
        first = capsys.readouterr().out
        assert code == 0
        assert "seed = 3" in first and "rotation_deg = 80.0" in first
        assert main(["eval", "--out", fresh_out(0)]) == 0
        second = capsys.readouterr().out
        assert "seed = 0" in second
        assert "rotation_deg = 40.0" in second
        assert "n_per_domain = 1000" in second

    def test_good_call_after_usage_error_and_help(self, fresh_out, capsys):
        from vicinalda.cli import main

        run_dir = fresh_out(5)
        assert main(["eval", "--out", run_dir, "--frobnicate"]) == 2
        assert "--frobnicate" in capsys.readouterr().err
        assert main(["eval", "--help"]) == 0
        assert "--seed" in capsys.readouterr().out
        assert main(["eval", "--out", run_dir, "--seed", "5", *TINY]) == 0
        out = capsys.readouterr().out
        assert "seed = 5" in out and "target_acc=" in out


# Runs whose read verbs need flags: a seed and a layer width other than the
# defaults. The lines each read verb prints after its config echo, given the
# flags `train` was given, were recorded before the verbs checked the
# checkpoint header; <out> stands for the run directory.
OTHER_RUNS = {"seed3": ["--seed", "3", *TINY], "hidden16": ["--set", "hidden=16", *TINY]}
REFUSAL = {
    "seed3": f"model seed {derive_seeds(3).model} (checkpoint) vs {derive_seeds(0).model} (config)",
    "hidden16": "hidden 16 (checkpoint) vs 64 (config)",
}
MATCHED_OUTPUT = {
    "seed3": {
        "eval": "source_acc=0.7250 target_acc=0.8375\n",
        "sweep": "sweep: <out>/sweep.csv\nentropy_peak_lambda=0.6 dominance_flip_lambda=0.6\n",
        "equilibrium": "report: <out>/equilibrium_summary.txt\n"
                       "checkpoint,entropy_peak_lambda,dominance_flip_lambda\n"
                       "before,0.7,0.7\nafter,0.6,0.6\n",
    },
    "hidden16": {
        "eval": "source_acc=0.7250 target_acc=0.7750\n",
        "sweep": "sweep: <out>/sweep.csv\nentropy_peak_lambda=0.6 dominance_flip_lambda=0.6\n",
        "equilibrium": "report: <out>/equilibrium_summary.txt\n"
                       "checkpoint,entropy_peak_lambda,dominance_flip_lambda\n"
                       "before,0.7,0.6\nafter,0.6,0.6\n",
    },
}


class TestReadVerbsCheckTheRun:
    """eval, sweep and equilibrium score the run their flags resolve to. A
    checkpoint whose header seed or dims belong to another run exits 2
    before the verb writes anything."""

    @pytest.fixture(scope="class", params=sorted(OTHER_RUNS))
    def trained(self, request, tmp_path_factory):
        from vicinalda.cli import main

        run = request.param
        out = str(tmp_path_factory.mktemp("runs") / run)
        assert main(["train", "--out", out, *OTHER_RUNS[run]]) == 0
        return run, out

    def test_flagless_read_verbs_exit_2_and_write_nothing(self, trained, capsys):
        from vicinalda.cli import main

        run, out = trained
        for verb in ("eval", "sweep", "equilibrium"):
            files = sorted(os.listdir(out))
            assert main([verb, "--out", out]) == 2
            assert sorted(os.listdir(out)) == files
            err = capsys.readouterr().err
            assert REFUSAL[run] in err and "Traceback" not in err

    def test_matching_flags_print_what_they_printed_before_the_check(self, trained, capsys):
        from vicinalda.cli import main

        run, out = trained
        for verb in ("eval", "sweep", "equilibrium"):
            capsys.readouterr()
            assert main([verb, "--out", out, *OTHER_RUNS[run]]) == 0
            printed = capsys.readouterr().out
            after_echo = printed[printed.index("\n", printed.index("out_dir = ")) + 1:]
            assert after_echo.replace(out, "<out>") == MATCHED_OUTPUT[run][verb]


# sha256 of the read verbs' files on two seed-0 runs: the default config and
# the blobs_wide benchmark shape (16 -> 256 -> 64 -> 5, batch 512). Recorded
# with the per-ratio sweep loop, before the sweep read the stacked grid
# forward. The same BLAS caveat as the acceptance goldens applies: OpenBLAS
# 0.3.31 (Haswell kernels) on x86-64.
WIDE_SETS = {
    "dataset": "blobs", "blob_classes": 5, "blob_dim": 16, "n_per_domain": 1024,
    "hidden": 256, "feat_dim": 64, "batch_size": 512, "warmup_epochs": 20, "covi_epochs": 25,
}
GOLDEN_READ_SHA256 = {
    "default": {
        "sweep.csv": "03fd1e5339b3ffa3a1d9a8236d2630a51d48bab201e2326ae21373d1db3058df",
        "sweep_before.csv": "00530f6cbe6e62797ca8c930636d5bb702c1eec62b2bcf0b073c8ba8a8f513fe",
        "sweep_after.csv": "03fd1e5339b3ffa3a1d9a8236d2630a51d48bab201e2326ae21373d1db3058df",
        "equilibrium_summary.txt":
            "dd7063aab1dc5fa38d98b2b231489c9a6bfc7d1a4e3c6bcac8a2f927e51ee9a8",
    },
    "wide": {
        "sweep.csv": "82898d8f00b8d03d74ec663698325e7dcefd70a0568c8f0798da7a4b2e923d28",
        "sweep_before.csv": "5b9230001f2f0288af2ab8419094e058e428b8e94342abac7ba80b8f16ecbf57",
        "sweep_after.csv": "82898d8f00b8d03d74ec663698325e7dcefd70a0568c8f0798da7a4b2e923d28",
        "equilibrium_summary.txt":
            "627af05d683c1efc53bc466016e63a67231a068ebeeda78d9577d30f04bd239c",
    },
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_READ_SHA256))
def test_read_verb_files_match_golden_digests(shape, tmp_path, capsys):
    import hashlib

    from vicinalda.cli import main
    from vicinalda.trainer import TrainConfig, train

    extra = WIDE_SETS if shape == "wide" else {}
    out = str(tmp_path / shape)
    train(TrainConfig(seed=0, out_dir=out, **extra))
    sets = [arg for key, value in extra.items() for arg in ("--set", f"{key}={value}")]
    for verb in ("sweep", "equilibrium"):
        assert main([verb, "--out", out, "--seed", "0", *sets]) == 0, capsys.readouterr().err
    for name, want in GOLDEN_READ_SHA256[shape].items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == want, name
