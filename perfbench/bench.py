"""Workloads and the timed runner of the benchmark.

A run generates its workload's corpus from the seed, writes it as JSONL,
sets up (load, model and Adam init) a few times, runs the input checks
and one checked training step, then repeats whole rounds of the
workload's operations until the run length has passed; the first round's
outputs are checked too. Every operation is timed on its own.

The host shares its cores with other tenants, whose load slows every op
by up to 2x, in spells from under a second to minutes long: raw times of
one op, or the fastest of a run, differ by a third from run to run. So
a fixed reference kernel written here is timed just before and after
each op (and each set-up) and at intervals during it, and the op's time
is taken relative to the kernel's mean: a busy spell slows op and kernel
alike, and the ratio stays. Each figure is the median over the run of
that ratio times ``REF_SECONDS``, the kernel's time on a quiet host: what
the op takes at quiet-host speed.

With tracing on, the run measures half its length untraced and half with
the layer wrappers of ``tracing`` installed, and reports the per-layer
figures and the tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from convemo import classifier, dataset, model, tensor, training
from convemo.config import TrainConfig

import checks as chk
from tracing import Tracer

FAILED = object()       # what Run.op returns for an operation that raised
MIN_ROUNDS = 2          # timed rounds per measured stretch, at the least
SETUP_REPS = 5          # set-ups before the first round; setup_s is the median of all
STANDIN_WIDTH = 32      # fused width of paper-step's checkpoint stand-in model
STANDIN_CKPT_REPS = 3   # stand-in checkpoint round trips per paper-step round

# The reference kernel: small numpy ops like a tape op's, float formatting
# and parsing like a checkpoint's, and a pass over a 2 MB array, which
# leaves the core's own caches, on fixed inputs.
_REF_RNG = np.random.default_rng(20220505)
_REF_X = _REF_RNG.standard_normal((8, 32))
_REF_W = _REF_RNG.standard_normal((32, 32)) * 0.1
_REF_FLOATS = _REF_RNG.standard_normal(600).tolist()
_REF_BIG = _REF_RNG.standard_normal(1 << 18)
_REF_OUT = np.empty_like(_REF_BIG)
# The kernel's time on a quiet host: the fastest of many calls on the
# machine described in README.md. It scales ratios to seconds; a host of
# another speed gives other absolute figures, but the same on both sides
# of a comparison made there.
REF_SECONDS = 0.00145
SAMPLE_EVERY = 0.05     # seconds of an op between two kernel calls inside it


def reference_seconds() -> float:
    """Time one call of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(50):
        a = np.maximum(_REF_X @ _REF_W, 0.0)
        e = np.exp(a - a.max(axis=1, keepdims=True))
        (e / e.sum(axis=1, keepdims=True)).sum()
    json.loads(json.dumps(_REF_FLOATS))
    np.multiply(_REF_BIG, 1.5, out=_REF_OUT)
    return time.perf_counter() - t0


def timed(fn, every: float = SAMPLE_EVERY):
    """``fn()``'s result, its seconds, and its seconds at quiet-host speed.

    The kernel runs once before and once after the op, and every ``every``
    seconds during it (never if 0) from a SIGALRM handler, whose time is
    taken out of the op's. One call before and after suffices for an op
    of milliseconds; during an op of seconds the host's speed changes.
    """
    samples = [reference_seconds()]
    spent = 0.0

    def sample(signum, frame):
        nonlocal spent
        t0 = time.perf_counter()
        samples.append(reference_seconds())
        spent += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, every, every)
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0 - spent
        signal.signal(signal.SIGALRM, previous)
    samples.append(reference_seconds())
    return out, seconds, seconds / statistics.fmean(samples) * REF_SECONDS


@dataclass(frozen=True)
class Workload:
    synth: dict                  # SynthSpec fields; the seed comes from the command line
    config: dict                 # TrainConfig fields that differ from the default
    eval_reps: int               # evaluate_model calls per round
    mask_dialogues: int          # test dialogues masked per round, each timed on its own
    mask_utterances: int | None = None  # mask only this long a prefix of each
    driven: bool = False         # driven training steps instead of train()
    raw_ops: tuple = ()          # ops reported as the fastest raw time of the run


WORKLOADS = {
    # Tiny tensors: per-op Python overhead dominates and BLAS does almost nothing.
    "dyadic-small": Workload(
        synth=dict(num_dialogues=200, utterances_per_dialogue=8, num_speakers=2,
                   num_classes=4, dims={"a": 8, "t": 16, "v": 8}),
        config=dict(learning_rate=1.5e-3, window_past=1, window_future=1,
                    epochs=1, patience=1),
        eval_reps=6, mask_dialogues=8),
    # Paper width: BLAS and memory bandwidth dominate; Adam is most of a step.
    "paper-step": Workload(
        synth=dict(num_dialogues=6, utterances_per_dialogue=50, num_speakers=2,
                   num_classes=6, dims={"a": 100, "t": 768, "v": 512}),
        config=dict(),
        eval_reps=2, mask_dialogues=1, mask_utterances=10, driven=True,
        # These run in OpenBLAS on both vCPUs, whose slowdown the one-thread
        # reference kernel does not track (README.md, End-to-end metrics).
        raw_ops=("train", "eval", "mask")),
    # Six speakers, unbounded windows: 1,600 edges and up to 72 relation types
    # per dialogue, so work that scales with relations shows here.
    "multiparty-long": Workload(
        synth=dict(num_dialogues=60, utterances_per_dialogue=40, num_speakers=6,
                   num_classes=6, dims={"a": 16, "t": 32, "v": 16}, dependency="neighbor"),
        config=dict(window_past=None, window_future=None, epochs=1, patience=1),
        eval_reps=3, mask_dialogues=1),
}

# one tensor per layer for the finite-difference and Adam checks
PROBES = ("encoder.layer0.head0.wq", "rgcn.theta_root",
          "graph_attention.head0.w_key_self", "classifier.w1")


@dataclass
class Phase:
    """Timings of one measured stretch: op name -> [(units, seconds, quiet-host seconds)]."""
    ops: dict = field(default_factory=lambda: defaultdict(list))

    def rate(self, name: str, raw: bool = False) -> float:
        """Units per second: of the fastest raw op if ``raw``, else of the
        median op at quiet-host speed."""
        if raw:
            return max(units / seconds for units, seconds, _ in self.ops[name])
        return statistics.median(units / quiet for units, _, quiet in self.ops[name])

    def time(self, name: str) -> float:
        return statistics.median(quiet for _, _, quiet in self.ops[name])


class Run:
    def __init__(self, name: str, seed: int, seconds: float, workdir: str):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.config = TrainConfig(seed=seed, **self.wl.config).validate()
        self.spec = dataset.SynthSpec(seed=seed, **self.wl.synth)
        self.checks = chk.Checks()
        self.attempted = 0
        self.failed = 0
        self.phase = Phase()
        self.rng = np.random.default_rng([seed, 1])
        self.history = None          # first train() history, for determinism
        self.rounds = 0
        self.ckpt_bytes = 0
        self.sample_every = SAMPLE_EVERY

    # -- timing -------------------------------------------------------------

    def op(self, name: str, units: float, fn):
        """Run and time one operation; a failure is counted and reported."""
        self.attempted += 1
        try:
            out, seconds, quiet = timed(fn, self.sample_every)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return FAILED
        self.phase.ops[name].append((units, seconds, quiet))
        return out

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        self.generated = dataset.synth_corpus(self.spec)
        self.corpus_path = os.path.join(self.workdir, "corpus.jsonl")
        dataset.save_corpus(self.corpus_path, self.generated)
        self.setup_s, self.load_s, self.init_s = [], [], []
        for _ in range(SETUP_REPS):
            self.set_up_once()
        self.test = self.corpus.split("test")
        self.train_dialogues = self.corpus.split("train")
        self.mask_targets = [
            dataset.Dialogue(d.dialogue_id, d.num_speakers, d.split,
                             d.utterances[:self.wl.mask_utterances])
            for d in self.test[:self.wl.mask_dialogues]]
        self.dropout_rng = np.random.default_rng([self.seed, 2])
        if self.wl.driven:
            self._setup_standin()

    def set_up_once(self) -> None:
        """One timed set-up: load the corpus, initialise the model and Adam."""
        self.corpus = self.model = self.optimizer = None  # free the last set-up first
        self.attempted += 1

        def set_up():
            t0 = time.perf_counter()
            self.corpus = dataset.load_corpus(self.corpus_path)
            t1 = time.perf_counter()
            dims = model.ModelDims.for_corpus(self.corpus, self.config)
            self.model = model.ModelParams.init(self.config, dims, np.random.default_rng(self.seed))
            self.load_s.append(t1 - t0)
            self.init_s.append(time.perf_counter() - t1)
            self.optimizer = training.Adam(self.model.named(), self.config.learning_rate,
                                           self.config.beta1, self.config.beta2,
                                           self.config.adam_eps)

        self.setup_s.append(timed(set_up, self.sample_every)[2])

    def _setup_standin(self) -> None:
        """paper-step's checkpoint model: a JSON checkpoint of the width-1380 model
        does not fit in memory, so the round trip is timed on the same config at
        width 32, with Adam moments from one step on random gradients."""
        dims = replace(self.model.dims, width=STANDIN_WIDTH)
        self.standin = model.ModelParams.init(self.config, dims, self.rng)
        opt = training.Adam(self.standin.named(), self.config.learning_rate)
        for t in self.standin.named().values():
            t.grad = self.rng.standard_normal(t.shape)
        opt.step()
        opt.zero_grad()
        self.standin_state = opt.state_dict()
        self.standin_x = self.rng.standard_normal((len(self.test[0]), STANDIN_WIDTH))

    def initial_checks(self) -> None:
        c = self.checks
        chk.check_corpus(c, self.generated, self.corpus)
        chk.check_graphs(c, self.corpus, self.config)
        chk.check_step(c, self.model, self.optimizer, self.train_dialogues[0], self.config,
                       PROBES, dropout_seed=self.seed, rng=self.rng)

    # -- rounds -------------------------------------------------------------

    def round(self, first: bool) -> None:
        if self.wl.driven:
            d = self.train_dialogues[self.rounds % len(self.train_dialogues)]
            self.op("train", len(d), lambda: self.driven_step(d))
            trained, state = self.model, None
        else:
            # Set up once more per round, so that set-up time is sampled across
            # the run rather than in one spell at its start. (paper-step trains
            # the set-up model itself, and has no memory for a second one.)
            self.set_up_once()
            units = self.config.epochs * sum(len(d) for d in self.train_dialogues)
            result = self.op("train", units, lambda: training.train(self.corpus, self.config))
            if result is FAILED:
                return
            trained, state = result.model, result.best_optimizer_state
            if self.history is None:
                self.history = result.history
            else:
                chk.check_same_history(self.checks, self.history, result.history)
            self.model = trained
        units = sum(len(d) for d in self.test)
        for _ in range(self.wl.eval_reps):
            report = self.op("eval", units, lambda: training.evaluate_model(
                self.corpus, trained, self.config, "test"))
        masks = [self.op("mask", len(d) + 1, lambda d=d: training.mask_importance(d, trained, self.config))
                 for d in self.mask_targets]
        # A paper-step round is long (about 6 s), so its short stand-in round trip
        # is repeated to give the median as many samples as elsewhere.
        for rep in range(STANDIN_CKPT_REPS if self.wl.driven else 1):
            self.checkpoint_round_trip(first and rep == 0, trained, state)
        if first:
            if report is not FAILED:
                chk.check_eval(self.checks, report, self.test, trained, self.config)
            for mask_report, d in zip(masks, self.mask_targets):
                if mask_report is not FAILED:
                    chk.check_mask(self.checks, mask_report, d, trained, self.config)

    def driven_step(self, d) -> None:
        tape = tensor.Tape()
        out = model.forward_dialogue(d, self.model, self.config, training=True,
                                     rng=self.dropout_rng, tape=tape)
        gold = model.dialogue_gold(d, self.model.dims.task_mode)
        loss = classifier.loss(out.logits, gold, self.model.dims.task_mode, tape)
        tensor.backward(loss, tape)
        self.optimizer.step()
        self.optimizer.zero_grad()

    def checkpoint_round_trip(self, first: bool, trained, state) -> None:
        if self.wl.driven:
            trained, state = self.standin, self.standin_state
            speakers = self.test[0].speakers

            def probe(m):
                x = tensor.Tensor(self.standin_x)
                return [model.forward_fused(x, speakers, m, self.config).logits.data]
        else:
            def probe(m):
                return [model.forward_dialogue(d, m, self.config).logits.data for d in self.test]
        path = os.path.join(self.workdir, "checkpoint.json")
        saved = self.op("ckpt_save", 1, lambda: training.save_checkpoint(
            path, trained, self.config, state, 0, 0.0, list(self.corpus.label_names)))
        if saved is FAILED:
            return
        self.ckpt_bytes = os.path.getsize(path)
        loaded = self.op("ckpt_load", 1, lambda: training.load_checkpoint(path))
        if first and loaded is not FAILED:
            chk.check_checkpoint(self.checks, trained, state, loaded, probe)

    def measure(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        start = self.rounds
        while self.rounds - start < MIN_ROUNDS or time.perf_counter() < end:
            self.round(first=self.rounds == 0)
            self.rounds += 1

    # -- results ------------------------------------------------------------

    def end_to_end(self) -> dict:
        p = self.phase
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "train_utt_per_s": (p.rate("train", "train" in self.wl.raw_ops), "utt/s"),
            "eval_utt_per_s": (p.rate("eval", "eval" in self.wl.raw_ops), "utt/s"),
            "mask_fwd_per_s": (p.rate("mask", "mask" in self.wl.raw_ops), "fwd/s"),
            "ckpt_save_s": (p.time("ckpt_save"), "s"),
            "ckpt_load_s": (p.time("ckpt_load"), "s"),
            "ckpt_mb": (self.ckpt_bytes / 1e6, "MB"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }

    def traced(self) -> dict:
        """Half the run untraced, half traced; per-layer figures and overhead."""
        self.measure(self.seconds / 2)
        untraced, self.phase = self.phase, Phase()
        tracer = Tracer()
        tracer.install()
        try:
            self.trace_checks(tracer)
            self.measure(self.seconds / 2)
        finally:
            tracer.remove()
        out = {name: (value, "ms" if name.endswith("_ms") else "count")
               for name, value in tracer.metrics().items()}
        out["dataset.load_s"] = (statistics.median(self.load_s), "s")
        out["model.init_s"] = (statistics.median(self.init_s), "s")
        for name in ("train", "eval"):
            raw = name in self.wl.raw_ops
            overhead = 100.0 * (untraced.rate(name, raw) / self.phase.rate(name, raw) - 1.0)
            out[f"trace.{name}_overhead_pct"] = (overhead, "%")
        return out

    def trace_checks(self, tracer: Tracer) -> None:
        """Traced logits equal forward_dialogue's; the layer-sliced backward
        gives the same gradients as one whole-tape backward."""
        d, m = self.test[0], self.model
        tracer.remove()
        want = model.forward_dialogue(d, m, self.config).logits.data
        tracer.install()
        got = training.forward_dialogue(d, m, self.config).logits.data
        self.checks.expect(np.array_equal(want, got),
                           "trace: traced logits differ from forward_dialogue's")
        grads = []
        for sliced in (False, True):
            tape = tensor.Tape()
            out = model.forward_dialogue(d, m, self.config, training=True,
                                         rng=np.random.default_rng(self.seed), tape=tape)
            loss = classifier.loss(out.logits, model.dialogue_gold(d, m.dims.task_mode),
                                   m.dims.task_mode, tape)
            m.zero_grads()
            if sliced:
                tensor.backward(loss, tape)
            else:
                tracer.take_spans(tape)
                tracer.remove()
                tensor.backward(loss, tape)
                tracer.install()
            grads.append({k: t.grad for k, t in m.named().items()})
        m.zero_grads()
        whole, sliced = grads
        self.checks.expect(all(np.array_equal(whole[k], sliced[k]) for k in whole),
                           "trace: layer-sliced backward gradients differ from a whole-tape backward")


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    r = Run(name, seed, seconds, workdir)
    if trace:
        # The kernel then runs only around ops, never inside a layer span
        # or a timed load or init.
        r.sample_every = 0.0
    r.setup()
    r.initial_checks()
    if trace:
        metrics = r.traced()
    else:
        r.measure(seconds)
        metrics = r.end_to_end()
    for failure in r.checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "correct": r.checks.ok,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
