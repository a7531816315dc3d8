"""Workloads, measurement loop and correctness checks of the benchmark.

Every workload runs in one process as a closed loop: the next unit of
work starts when the previous one has returned. A unit is either one
`trainer.train` call or one diagnose cycle, i.e. `cli.main` for `eval`,
`sweep` and `equilibrium` on a trained checkpoint pair:

* `moons_default` and `blobs_wide` fill the timed `--seconds` window with
  `train` calls;
* `diagnose` trains its checkpoint pair SETUP_TRAINS times as set-up
  (its train metrics come from those calls) and fills the window with
  diagnose cycles.

The traced run of a training workload ends with TRACE_CYCLES cycles, so
that the read-path layers have per-layer values on every workload.

The workload seed is the run seed of every `train` call, so the repeated
calls of one run must produce byte-identical `metrics.csv` files.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import glob
import hashlib
import io
import os
import platform
import re
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

from tracer import Tracer

SETUP_REPS = 7  # short warm-up trains timed as set-up by the training workloads
SETUP_TRAINS = 3  # full trains timed as set-up by the diagnose workload
MIN_TRAINS = 2  # the metrics.csv identity check needs two calls per seed
MIN_CYCLES = 20
TRACE_CYCLES = 10  # read-path cycles at the end of a traced training run
HELD_PAIRS = 256
VERBS = ("eval", "sweep", "equilibrium")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    timed: str  # "train" or "cycle": the unit that fills the timed window
    overrides: dict = field(default_factory=dict)  # TrainConfig fields
    # adaptation epochs of each set-up train of a training workload, so
    # that one takes 0.5-1 s
    setup_covi_epochs: int = 8
    # correctness gates on the final checkpoint, set below the lowest value
    # seen over the seeds measured (README.md, "Correctness checks")
    min_target_acc: float = 0.95
    min_ratio_agreement: float = 0.6

    def sets(self) -> list[str]:
        """The overrides as repeated `--set KEY=VALUE` CLI flags."""
        out = []
        for key, value in self.overrides.items():
            out += ["--set", f"{key}={value}"]
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="moons_default",
            why="default two-moons train (960 tiny steps): per-op Python and tape "
                "overhead plus the per-step evaluate over 2000 rows",
            timed="train",
        ),
        Workload(
            name="blobs_wide",
            why="5-class 16-dim blobs, hidden 256, batch 512: steps bound by numpy "
                "FLOPs, evaluate a small share; multi-class top-2 swap",
            timed="train",
            overrides={
                "dataset": "blobs",
                "blob_classes": 5,
                "blob_dim": 16,
                "n_per_domain": 1024,
                "hidden": 256,
                "feat_dim": 64,
                "batch_size": 512,
                "warmup_epochs": 20,
                "covi_epochs": 25,
            },
            setup_covi_epochs=4,
            # on some seeds the source-only model maps one target class
            # wrongly (9 and 13 of 0-15, ending at 0.80) or two (509 and 707,
            # ending at 0.60) and adaptation keeps it; each costs 0.2, so the
            # gate admits two and catches a model near chance (0.2)
            min_target_acc=0.55,
            min_ratio_agreement=0.5,
        ),
        Workload(
            name="diagnose",
            why="read path: eval, sweep and equilibrium verbs on a default checkpoint "
                "pair; forwards without backward, checkpoint reads, CSV writes",
            timed="cycle",
        ),
    )
}


# ---------------------------------------------------------------------------
# host facts


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked from the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_facts(root: str) -> dict:
    import vicinalda

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_files = sorted(glob.glob(os.path.join(root, "src", "vicinalda", "**", "*.py"),
                                 recursive=True))
    src_lines = 0
    for path in src_files:
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "src_lines": src_lines,
        "root_exports": len(vicinalda.__all__),
    }


# ---------------------------------------------------------------------------
# measurement


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Checks:
    """Attempted units and the correctness checks they missed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def unit(self, kind: str, problems: list[str]) -> bool:
        """Count one attempted unit; it failed if any check found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{kind}#{self.attempted}: {p}" for p in problems]
        return not problems


@dataclass
class TrainRecord:
    wall_s: float
    warmup_s: float
    step_s: list[float]
    traced: bool


@dataclass
class CycleRecord:
    verb_s: dict[str, float]
    traced: bool

    @property
    def wall_s(self) -> float:
        return sum(self.verb_s.values())


class StepTimer:
    """Times `covi_step` and `warmup` calls from outside, tracing or not.

    Two clock reads per step against steps of several milliseconds; this
    is the instrument of the end-to-end step latency, not a trace.
    """

    def __init__(self, trainer):
        self.trainer = trainer
        self.step_s: list[float] = []
        self.warmup_s = 0.0
        self._orig = (trainer.covi_step, trainer.warmup)

    def __enter__(self) -> "StepTimer":
        covi_step, warmup = self._orig
        clock = time.perf_counter

        def timed_step(*args, **kwargs):
            t0 = clock()
            out = covi_step(*args, **kwargs)
            self.step_s.append(clock() - t0)
            return out

        def timed_warmup(*args, **kwargs):
            t0 = clock()
            out = warmup(*args, **kwargs)
            self.warmup_s += clock() - t0
            return out

        self.trainer.covi_step = timed_step
        self.trainer.warmup = timed_warmup
        return self

    def __exit__(self, *exc) -> None:
        self.trainer.covi_step, self.trainer.warmup = self._orig


class Run:
    """One workload at one seed: set-up, timed window, checks, metrics."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, work_dir: str):
        from vicinalda import cli, trainer

        self.cli = cli
        self.trainer = trainer
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "run")
        self.cfg = self._config(self.out_dir)
        self.checks = Checks()
        self.tracer = Tracer()
        self.setup_s: list[float] = []
        self.trains: list[TrainRecord] = []
        self.cycles: list[CycleRecord] = []
        self.digests: list[str] = []
        self.final: dict[str, float] = {}
        self._ds = None

    def _config(self, out_dir: str, **extra):
        cfg = self.trainer.TrainConfig(seed=self.seed, out_dir=out_dir)
        for key, value in {**self.wl.overrides, **extra}.items():
            setattr(cfg, key, value)
        cfg.validate()
        return cfg

    # -- units ---------------------------------------------------------------

    def train_once(self, traced: bool) -> TrainRecord | None:
        timer = StepTimer(self.trainer)
        ctx = self.tracer if traced else contextlib.nullcontext()
        try:
            with timer, ctx:
                t0 = time.perf_counter()
                _, metrics_path = self.trainer.train(dataclasses.replace(self.cfg))
                wall = time.perf_counter() - t0
        except Exception as exc:  # a failed unit is counted, the run goes on
            self.checks.unit("train", [f"raised {type(exc).__name__}: {exc}"])
            return None
        rec = TrainRecord(wall, timer.warmup_s, timer.step_s, traced)
        self.checks.unit("train", self._check_train(metrics_path))
        self.trains.append(rec)
        return rec

    def cycle_once(self, traced: bool) -> CycleRecord | None:
        verb_s: dict[str, float] = {}
        ok = True
        with self.tracer if traced else contextlib.nullcontext():
            for verb in VERBS:
                argv = [verb, "--out", self.out_dir, "--seed", str(self.seed), *self.wl.sets()]
                buf = io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf):
                        t0 = time.perf_counter()
                        code = self.cli.main(argv)
                        verb_s[verb] = time.perf_counter() - t0
                except Exception as exc:
                    ok = self.checks.unit(verb, [f"raised {type(exc).__name__}: {exc}"]) and ok
                    continue
                problems = [] if code == 0 else [f"exit code {code}"]
                if verb == "eval" and code == 0:
                    problems += check_eval_output(buf.getvalue(), self.final)
                ok = self.checks.unit(verb, problems) and ok
        if not ok:
            return None
        rec = CycleRecord(verb_s, traced)
        self.cycles.append(rec)
        return rec

    # -- checks --------------------------------------------------------------

    def dataset(self):
        if self._ds is None:
            self._ds = self.trainer.make_dataset(
                self.cfg, self.trainer.derive_seeds(self.seed).data)
        return self._ds

    def _check_train(self, metrics_path: str) -> list[str]:
        """Outside the timed region: digest, then accuracies and ratio
        agreement of the final checkpoint as written to disk."""
        from vicinalda.diffcore import Tensor
        from vicinalda.domains import DomainBatch
        from vicinalda.model import load_checkpoint
        from vicinalda.vicinal import brute_force_emp, emp_argmax

        problems = []
        digest = _sha256(metrics_path)
        self.digests.append(digest)
        if digest != self.digests[0]:
            problems.append(f"metrics.csv sha256 {digest[:12]} differs from the "
                            f"first call's {self.digests[0][:12]} at the same seed")
        ds = self.dataset()
        params = load_checkpoint(os.path.join(self.out_dir, "checkpoint_final.ckpt"))
        src_acc, tgt_acc = self.trainer.evaluate(params, ds)
        n = min(HELD_PAIRS, ds.n_source, ds.n_target)
        held = DomainBatch(
            xs=Tensor(ds.source_x.data[:n]),
            ys=Tensor(ds.source_y.data[:n]),
            xt=Tensor(ds.target_x.data[:n]),
        )
        agreement = float(np.mean(emp_argmax(params, held).values
                                  == brute_force_emp(params, held).values))
        self.final = {"source_acc": src_acc, "target_acc": tgt_acc, "agreement": agreement}
        if tgt_acc < self.wl.min_target_acc:
            problems.append(f"final_target_acc {tgt_acc:.4f} < gate {self.wl.min_target_acc}")
        if agreement < self.wl.min_ratio_agreement:
            problems.append(
                f"ratio_agreement {agreement:.4f} < gate {self.wl.min_ratio_agreement}")
        return problems

    # -- the run -------------------------------------------------------------

    def setup(self) -> None:
        """Timed set-up, repeated; the median is setup_s."""
        if self.wl.timed == "cycle":
            # the checkpoint pair the cycles read; these calls are also the
            # workload's train samples
            for _ in range(SETUP_TRAINS):
                rec = self.train_once(traced=False)
                if rec is not None:
                    self.setup_s.append(rec.wall_s)
            return
        # short trains at the workload's shapes warm lazy imports,
        # allocator pools and BLAS threads before the timed window
        warm = self._config(os.path.join(self.work_dir, "warm"),
                            warmup_epochs=1, covi_epochs=self.wl.setup_covi_epochs)
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.trainer.train(dataclasses.replace(warm))
            self.setup_s.append(time.perf_counter() - t0)

    def execute(self) -> None:
        self.setup()
        deadline = time.perf_counter() + self.seconds
        if self.wl.timed == "train":
            # start a train only if one as long as the last ends in the window
            i, last = 0, 0.0
            while i < MIN_TRAINS or time.perf_counter() + last < deadline:
                t0 = time.perf_counter()
                self.train_once(traced=self.trace and i % 2 == 1)
                last = time.perf_counter() - t0
                i += 1
            if self.trace and self.trains:
                for j in range(TRACE_CYCLES):
                    self.cycle_once(traced=j % 2 == 1)
            return
        if not self.trains:
            return
        if self.trace:
            self.train_once(traced=True)
            deadline = time.perf_counter() + self.seconds
        i = 0
        while i < MIN_CYCLES or time.perf_counter() < deadline:
            self.cycle_once(traced=self.trace and i % 2 == 1)
            i += 1


def check_eval_output(stdout: str, final: dict[str, float]) -> list[str]:
    """`eval` must print the accuracies `trainer.evaluate` gives on the
    same checkpoint, at the precision it prints them."""
    match = re.search(r"^source_acc=(\S+) target_acc=(\S+)$", stdout, re.MULTILINE)
    if match is None:
        return ["eval printed no accuracy line"]
    want = (f"{final.get('source_acc', float('nan')):.4f}",
            f"{final.get('target_acc', float('nan')):.4f}")
    if match.groups() != want:
        return [f"eval printed {match.groups()}, evaluate gives {want}"]
    return []


# ---------------------------------------------------------------------------
# metrics

# The end-to-end metrics BENCHMARK.json does not bound: printed and kept in
# the REPORT only. The bounded ones, the per-layer ones and their units are
# read from BENCHMARK.json. README.md gives the measured spreads that
# decided which is which.
UNBOUNDED_UNITS = {
    "train_s": "s",
    "ratio_agreement": "fraction",
    "warmup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "rows_per_s": "rows/s",
    "final_target_acc": "fraction",
    "error_rate": "fraction",
    "eval_ms_p50": "ms",
    "sweep_ms_p50": "ms",
    "equilibrium_ms_p50": "ms",
    "cycle_ms_p90": "ms",
}


def end_to_end_metrics(run: Run) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count), from untraced units only.

    Train metrics need a train, read-path metrics a cycle: on the training
    workloads the verb and cycle metrics are absent.
    """
    trains = [t for t in run.trains if not t.traced]
    cycles = [c for c in run.cycles if not c.traced]
    steps = [s for t in trains for s in t.step_s]
    out = {
        "setup_s": (statistics.median(run.setup_s), len(run.setup_s)),
        "final_target_acc": (run.final["target_acc"], 1),
        "final_source_acc": (run.final["source_acc"], 1),
        "ratio_agreement": (run.final["agreement"], HELD_PAIRS),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "error_rate": (run.checks.failed / max(run.checks.attempted, 1), run.checks.attempted),
    }
    if trains:
        m = run.cfg.batch_size
        rows_per_s = [2 * m * len(t.step_s) / (t.wall_s - t.warmup_s) for t in trains]
        out |= {
            "train_s": (statistics.median(t.wall_s for t in trains), len(trains)),
            "warmup_s": (statistics.median(t.warmup_s for t in trains), len(trains)),
            "step_ms_p50": (_pct(steps, 50) * 1e3, len(steps)),
            "step_ms_p90": (_pct(steps, 90) * 1e3, len(steps)),
            "rows_per_s": (statistics.median(rows_per_s), len(trains)),
        }
    if cycles:
        for verb in VERBS:
            out[f"{verb}_ms_p50"] = (_pct([c.verb_s[verb] for c in cycles], 50) * 1e3,
                                     len(cycles))
        out["cycle_ms_p90"] = (_pct([c.wall_s for c in cycles], 90) * 1e3, len(cycles))
    # the latency of the unit that fills the timed window
    unit_s = steps if run.wl.timed == "train" else [c.wall_s for c in cycles]
    out["latency_ms_p90"] = (_pct(unit_s, 90) * 1e3, len(unit_s))
    return out


def per_layer_metrics(run: Run) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count) from the traced units.

    Per adaptation step unless the name ends in `_us` or the metric is a
    per-call one (checkpoint, dataset, diagnostics, cli): the sample count
    says which base a value has.
    """
    tr = run.tracer
    n = tr.steps

    def per_step_self_ms(name: str) -> tuple[float, int]:
        return tr.span(name, "step")[2] / n * 1e3, n

    def per_call_self(name: str, scale: float, scope: str | None = None):
        calls, _, self_s = tr.span(name, scope)
        return (self_s / calls * scale if calls else 0.0), calls

    def ratio(kept: str, attempted: str) -> tuple[float, int]:
        total = tr.counters[attempted]
        return (tr.counters[kept] / total if total else 0.0), int(total)

    traced_t = [t.wall_s for t in run.trains if t.traced]
    plain_t = [t.wall_s for t in run.trains if not t.traced]
    traced_c = [c.wall_s for c in run.cycles if c.traced]
    plain_c = [c.wall_s for c in run.cycles if not c.traced]
    return {
        "diffcore.backward_ms": per_step_self_ms("diffcore.backward"),
        "diffcore.backward_calls": (tr.span("diffcore.backward", "step")[0] / n, n),
        "diffcore.tape_nodes": (tr.counter("diffcore.tape_nodes", "step") / n, n),
        "diffcore.sgd_step_ms": per_step_self_ms("diffcore.sgd_step"),
        "diffcore.matmul_us": per_call_self("diffcore.matmul", 1e6, "step"),
        "diffcore.matmul_calls": (tr.span("diffcore.matmul", "step")[0] / n, n),
        "model.logits_of_calls": (tr.counter("model.logits_of.calls", "step") / n, n),
        "model.logits_rows": (tr.counter("model.logits_of.rows", "step") / n, n),
        "model.load_checkpoint_ms": per_call_self("model.load_checkpoint", 1e3),
        "model.save_checkpoint_ms": per_call_self("model.save_checkpoint", 1e3),
        "vicinal.grid_entropy_table_ms": per_step_self_ms("vicinal.grid_entropy_table"),
        "vicinal.emp_learner_loss_ms": per_step_self_ms("vicinal.emp_learner_loss"),
        "vicinal.emp_argmax_ms": per_step_self_ms("vicinal.emp_argmax"),
        "vicinal.emp_mixup_loss_ms": per_step_self_ms("vicinal.emp_mixup_loss"),
        "contrastive.target_top1_probs_ms": per_step_self_ms("contrastive.target_top1_probs"),
        "contrastive.target_top1_probs_calls":
            (tr.span("contrastive.target_top1_probs", "step")[0] / n, n),
        "contrastive.swap_agreement_ms": per_step_self_ms("contrastive.swap_agreement"),
        "contrastive.contrastive_loss_ms": per_step_self_ms("contrastive.contrastive_loss"),
        "contrastive.keep_rate": ratio("contrastive.kept", "contrastive.attempted"),
        "consensus.consensus_loss_ms": per_step_self_ms("consensus.consensus_loss"),
        "consensus.keep_mask_ms": per_step_self_ms("consensus.consensus_keep_mask"),
        "consensus.keep_rate": ratio("consensus.kept", "consensus.attempted"),
        "trainer.evaluate_ms": (tr.step_parts["evaluate"] / n * 1e3, n),
        "trainer.phase1_ms": (tr.step_parts["phase1"] / n * 1e3, n),
        "trainer.phase2_ms": (tr.step_parts["phase2"] / n * 1e3, n),
        "trainer.phase3_ms": (tr.step_parts["phase3"] / n * 1e3, n),
        "trainer.phase4_ms": (tr.step_parts["phase4"] / n * 1e3, n),
        "trainer.step_self_ms": (tr.step_parts["self"] / n * 1e3, n),
        "domains.next_batch_us": per_call_self("domains.next_batch", 1e6),
        "domains.make_dataset_ms": per_call_self("domains.make_dataset", 1e3),
        "diagnostics.lambda_sweep_ms": per_call_self("diagnostics.lambda_sweep", 1e3),
        "diagnostics.equilibrium_report_ms":
            per_call_self("diagnostics.equilibrium_report", 1e3),
        "cli.config_ms": per_call_self("cli.config", 1e3),
        "cli.verb_self_ms": per_call_self("cli.verb", 1e3),
        "trace.train_overhead":
            (statistics.median(traced_t) / statistics.median(plain_t), len(traced_t)),
        "trace.cycle_overhead":
            (statistics.median(traced_c) / statistics.median(plain_c), len(traced_c)),
    }
