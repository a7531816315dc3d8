"""In-process span tracer for the vicinalda benchmark.

The tracer measures from outside the package: it replaces module
attributes (and two class methods) with wrappers, so every caller that
looks a function up by name at call time goes through the wrapper, and it
puts the originals back on `uninstall`. Nothing in `src/vicinalda` knows
about it.

Three kinds of wrapper:

* span: opens a span with a parent (the innermost open span). Self time
  is the span's duration minus what its child spans cover.
* op: times each call but opens no span, so the enclosing span's self
  time still contains it. Used for `matmul`, which sits under every
  forward; as a span it would hollow out `evaluate` and the grid table.
* count: counts calls and rows, no timing (`logits_of`).

Spans are reduced as they close (per-name call counts, total and self
time, split by whether they ran inside a `covi_step`), so memory stays
flat however long the traced run is. Direct children of a `covi_step`
are assigned to the adaptation phase named by the call order: a phase
starts at its first marker call and owns every later `backward` and
`SGD.step` until the next phase starts.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

STEP = "trainer.covi_step"
EVALUATE = "trainer.evaluate"

# phase markers among the direct children of covi_step
PHASE_OF = {
    "vicinal.emp_learner_loss": 1,
    "vicinal.emp_argmax": 1,
    "vicinal.emp_mixup_loss": 2,
    "contrastive.target_top1_probs": 3,
    "contrastive.build_contrastive_pairs": 3,
    "contrastive.swap_agreement": 3,
    "contrastive.contrastive_loss": 3,
    "consensus.make_views": 4,
    "consensus.consensus_keep_mask": 4,
    "consensus.consensus_loss": 4,
}

# (module, attribute, kind, span name); "Class.method" patches the class
TARGETS = [
    ("vicinalda.trainer", "train", "span", "trainer.train"),
    ("vicinalda.trainer", "warmup", "span", "trainer.warmup"),
    ("vicinalda.trainer", "covi_step", "span", STEP),
    ("vicinalda.trainer", "evaluate", "span", EVALUATE),
    ("vicinalda.diffcore", "backward", "span", "diffcore.backward"),
    ("vicinalda.diffcore", "SGD.step", "span", "diffcore.sgd_step"),
    ("vicinalda.diffcore", "matmul", "op", "diffcore.matmul"),
    ("vicinalda.model", "logits_of", "count", "model.logits_of"),
    ("vicinalda.model", "save_checkpoint", "span", "model.save_checkpoint"),
    ("vicinalda.model", "load_checkpoint", "span", "model.load_checkpoint"),
    ("vicinalda.vicinal", "grid_entropy_table", "span", "vicinal.grid_entropy_table"),
    ("vicinalda.vicinal", "emp_learner_loss", "span", "vicinal.emp_learner_loss"),
    ("vicinalda.vicinal", "emp_argmax", "span", "vicinal.emp_argmax"),
    ("vicinalda.vicinal", "emp_mixup_loss", "span", "vicinal.emp_mixup_loss"),
    ("vicinalda.contrastive", "target_top1_probs", "span", "contrastive.target_top1_probs"),
    ("vicinalda.contrastive", "build_contrastive_pairs", "span",
     "contrastive.build_contrastive_pairs"),
    ("vicinalda.contrastive", "swap_agreement", "span", "contrastive.swap_agreement"),
    ("vicinalda.contrastive", "contrastive_loss", "span", "contrastive.contrastive_loss"),
    ("vicinalda.consensus", "make_views", "span", "consensus.make_views"),
    ("vicinalda.consensus", "consensus_keep_mask", "span", "consensus.consensus_keep_mask"),
    ("vicinalda.consensus", "consensus_loss", "span", "consensus.consensus_loss"),
    ("vicinalda.domains", "DomainBatcher.next_batch", "span", "domains.next_batch"),
    ("vicinalda.domains", "make_two_moons_pair", "span", "domains.make_dataset"),
    ("vicinalda.domains", "make_blobs_pair", "span", "domains.make_dataset"),
    ("vicinalda.diagnostics", "lambda_sweep", "span", "diagnostics.lambda_sweep"),
    ("vicinalda.diagnostics", "equilibrium_report", "span", "diagnostics.equilibrium_report"),
    ("vicinalda.cli", "_resolve_config", "span", "cli.config"),
    ("vicinalda.cli", "_cmd_eval", "span", "cli.verb"),
    ("vicinalda.cli", "_cmd_sweep", "span", "cli.verb"),
    ("vicinalda.cli", "_cmd_equilibrium", "span", "cli.verb"),
]


def tape_nodes(loss) -> int:
    """Tracked tensors reachable from `loss`: the nodes `backward` visits."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad)
    return len(seen)


class _Frame:
    __slots__ = ("name", "start", "child", "excluded0", "phase", "buckets")

    def __init__(self, name: str, start: float, excluded0: float):
        self.name = name
        self.start = start
        self.child = 0.0
        self.excluded0 = excluded0
        self.phase = 1
        self.buckets: dict[str, float] | None = {} if name == STEP else None


class Tracer:
    """Wraps the TARGETS while installed and reduces their spans."""

    def __init__(self):
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []
        # time spent on the tracer's own bookkeeping that must not count
        # toward any span (the tape walk done before each backward)
        self._excluded = 0.0
        self._step_depth = 0
        # (scope, name) -> [calls, total seconds, self seconds]; scope is
        # "step" inside a covi_step, "other" elsewhere
        self.spans: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.steps = 0
        self.missing: list[str] = []
        self.step_parts: dict[str, float] = defaultdict(float)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "vicinalda" or n.startswith("vicinalda.")]
        for module_name, attr, kind, name in TARGETS:
            owner = sys.modules.get(module_name)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part, None)
            key = attr.split(".")[-1]
            orig = getattr(owner, key, None)
            if orig is None:
                # renamed or removed by a later change: its metrics read 0
                self.missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(owner, type):
                self._set(owner, key, self._wrap(kind, name, orig))
                continue
            wrapper = self._wrap(kind, name, orig)
            # every module that imported the function holds its own binding
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, binding, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)
        if self._stack:
            raise RuntimeError(f"spans left open: {[f.name for f in self._stack]}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, kind: str, name: str, fn):
        if kind == "count":
            counters = self.counters

            def counted(p, x, *args, **kwargs):
                counters[name + ".calls." + self._scope()] += 1
                counters[name + ".rows." + self._scope()] += x.shape[0]
                return fn(p, x, *args, **kwargs)

            return counted

        if kind == "op":
            spans = self.spans
            clock = time.perf_counter

            def timed(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                rec = spans[(self._scope(), name)]
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt
                return out

            return timed

        post = _POST.get(name)
        pre = _PRE.get(name)

        def spanned(*args, **kwargs):
            if pre is not None:
                t0 = time.perf_counter()
                pre(self, args)
                self._excluded += time.perf_counter() - t0
            frame = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if post is not None:
                post(self, args, out)
            return out

        return spanned

    def _scope(self) -> str:
        return "step" if self._step_depth else "other"

    def _open(self, name: str) -> _Frame:
        if name == STEP:
            self._step_depth += 1
        frame = _Frame(name, time.perf_counter(), self._excluded)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        if frame.name == STEP:
            self._step_depth -= 1
        dur = end - frame.start - (self._excluded - frame.excluded0)
        parent = self._stack[-1] if self._stack else None
        rec = self.spans[(self._scope(), frame.name)]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame.child
        if parent is not None:
            parent.child += dur
            if parent.buckets is not None:
                if frame.name == EVALUATE:
                    part = "evaluate"
                else:
                    parent.phase = max(parent.phase, PHASE_OF.get(frame.name, parent.phase))
                    part = f"phase{parent.phase}"
                parent.buckets[part] = parent.buckets.get(part, 0.0) + dur
        if frame.buckets is not None:
            self.steps += 1
            for part, value in frame.buckets.items():
                self.step_parts[part] += value
            self.step_parts["self"] += dur - frame.child

    # -- results ------------------------------------------------------------

    def span(self, name: str, scope: str | None = None) -> tuple[int, float, float]:
        """(calls, total s, self s) of a span name, in one scope or both."""
        scopes = ("step", "other") if scope is None else (scope,)
        calls, total, self_s = 0, 0.0, 0.0
        for s in scopes:
            rec = self.spans.get((s, name))
            if rec is not None:
                calls += rec[0]
                total += rec[1]
                self_s += rec[2]
        return calls, total, self_s

    def counter(self, name: str, scope: str | None = None) -> float:
        scopes = ("step", "other") if scope is None else (scope,)
        return sum(self.counters.get(f"{name}.{s}", 0.0) for s in scopes)


def _count_tape(tracer: Tracer, args) -> None:
    tracer.counters["diffcore.tape_nodes." + tracer._scope()] += tape_nodes(args[0])


def _contrastive_keep(tracer: Tracer, args, pairs) -> None:
    batch = args[0]
    tracer.counters["contrastive.kept"] += pairs.n_kept
    tracer.counters["contrastive.attempted"] += batch.m


def _consensus_keep(tracer: Tracer, args, mask) -> None:
    tracer.counters["consensus.kept"] += int(mask.sum())
    tracer.counters["consensus.attempted"] += mask.size


_PRE = {"diffcore.backward": _count_tape}
_POST = {
    "contrastive.build_contrastive_pairs": _contrastive_keep,
    "consensus.consensus_keep_mask": _consensus_keep,
}
