"""End-to-end training: per-dialogue forward/backward, adaptive-moment
updates, early stopping on validation weighted F1, checkpointing, and
the utterance-masking analysis.

Every run is a pure function of (seed, config, corpus): dialogue order,
parameter init, and dropout all draw from generators spawned off the
config seed, so identical runs reproduce identical histories and
checkpoints byte for byte.
"""

from __future__ import annotations

import bisect
import contextvars
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import classifier as clf
from . import metrics
from .config import ConfigError, TrainConfig
from .dataset import TASK_MODES, Corpus, Dialogue, repeated_name
from .graph import ConversationGraph
from .model import (
    ModelDims,
    ModelParams,
    dialogue_gold,
    forward_dialogue,
    forward_fused,
    forward_graphs,
    fused_matrix,
)
from .tensor import (
    NonFiniteError,
    Parameter,
    Tape,
    Tensor,
    backward,
    open_params,
    save_params,
)

CHECKPOINT_FORMAT = "convemo-checkpoint"


class TrainingAbort(RuntimeError):
    """Training hit a non-finite loss or optimizer step; the message names
    the dialogue or the parameter, and the epoch."""


ADAM_CHUNK = 1 << 15   # float64 elements per operand per pass: 256 KB, cache-resident
# Elements a step updates before it is split across the CPUs. OpenBLAS's idle
# workers spin on the other CPUs for a while after the backward's GEMMs, so in
# a training loop a helper gained nothing below about 16M elements.
ADAM_SPLIT = 1 << 24


class Adam:
    """Adaptive-moment optimizer over a named parameter map, in Kingma & Ba's
    efficient order (2015, section 2): both bias corrections fold into one
    step size per step, so an element costs one division and one square root.

    The map is every member of one arena (``tensor.Arena``), in arena order:
    a model's ``named()``, or a lone parameter; anything else is refused. The
    moments are two flat arrays laid out alike, ``m`` and ``v`` name -> view
    dicts into them. ``step`` walks the whole parameter, gradient and moment
    arrays in ``ADAM_CHUNK``-element pieces, cut once when the optimizer is
    made, through two scratch buffers, so a step allocates nothing
    parameter-sized. A step over at least ``ADAM_SPLIT`` elements is cut into
    one contiguous part per CPU the process may use: the calling thread
    updates the first, short-lived helper threads the rest, each through
    scratch of its own, and the result is the same to the bit. A training
    loop releases the gradient arena between epochs (``Arena.release_grad``);
    the next backward allocates it again.
    The optimizer owns the moments; the parameter arena belongs to the model.
    Betas outside [0, 1) and an ``eps`` that is not positive are refused.
    """

    def __init__(self, params: dict[str, Parameter], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        for name, value in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"Adam: {name} must be in [0, 1), not {value!r}")
        if not 0.0 < eps < math.inf:
            raise ValueError(f"Adam: eps must be positive and finite, not {eps!r}")
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        tensors = list(params.values())
        arena = tensors[0].arena if tensors else None
        if arena is None or arena.params != tensors:
            raise ValueError(f"Adam steps one whole arena: the {len(tensors)} parameters given "
                             "must be all that share an arena, in arena order")
        for name, t in params.items():
            if t.data is not t._view:
                raise ValueError(f"parameter '{name}' no longer views its arena: update it in place")
        self.arena = arena
        self._m, self._v = np.zeros(self.arena.data.size), np.zeros(self.arena.data.size)
        self.m = dict(zip(params, self.arena.views(self._m)))
        self.v = dict(zip(params, self.arena.views(self._v)))
        self._scratch = np.empty((2, min(self.arena.data.size, ADAM_CHUNK)))
        self._chunks = [(at, min(at + ADAM_CHUNK, self.arena.data.size))
                        for at in range(0, self.arena.data.size, ADAM_CHUNK)]

    def step(self) -> None:
        """One update, bit-identical to ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + (1-b2)*g*g``, ``p -= (m*alpha) / (sqrt(v) + eps_hat)``,
        where ``alpha = lr*sqrt(bias2)/bias1``, ``eps_hat = eps*sqrt(bias2)``
        and ``bias_i = 1 - b_i**t`` at step t. That equals the textbook
        ``p -= lr*(m/bias1) / (sqrt(v/bias2) + eps)`` but for rounding.

        The update runs over the whole arena. A gradient assigned by hand is
        first copied into the gradient arena, and a tensor without a gradient
        takes a zero one: its moments decay, and one that has never had a
        gradient stays as it is. The chunks are cut into contiguous parts,
        one per CPU (``os.sched_getaffinity``), when the arena holds at least
        ``ADAM_SPLIT`` elements, and are updated in one part on the calling
        thread otherwise. Every element takes the same operations in the same
        order either way, and every helper has finished before ``step``
        returns or raises. Raises ``NonFiniteError`` naming the parameter of
        the first element whose gradient, moment or update is NaN or Inf; the
        optimizer state and parameters are then undefined.
        """
        self.step_count += 1
        arena, chunks = self.arena, self._chunks
        arena.alloc_grad()
        for t in self.params.values():
            if t.grad is None:
                t._buf.fill(0.0)
            elif t.grad is not t._buf:
                np.copyto(t._buf, t.grad)
        parts = 1
        if arena.data.size >= ADAM_SPLIT and hasattr(os, "sched_getaffinity"):
            parts = min(len(os.sched_getaffinity(0)), len(chunks))
        if parts < 2:
            bad = [self._update(chunks, self._scratch)]
        else:
            # imported here: concurrent.futures loads logging, which a process
            # whose steps all run inline need not hold (about 0.5 MB)
            from concurrent.futures import ThreadPoolExecutor

            cut = [len(chunks) * i // parts for i in range(parts + 1)]
            with ThreadPoolExecutor(parts - 1) as helpers:
                # each helper runs in a copy of the caller's context, so under
                # the caller's np.errstate
                futures = [helpers.submit(contextvars.copy_context().run, self._update,
                                          chunks[lo:hi], np.empty_like(self._scratch))
                           for lo, hi in zip(cut[1:], cut[2:])]
                bad = [self._update(chunks[:cut[1]], self._scratch)]
                bad += [f.result() for f in futures]
        bad = [at for at in bad if at is not None]
        if bad:
            name = list(self.params)[bisect.bisect_right(arena.bounds, min(bad)) - 1]
            raise NonFiniteError(f"Adam.step: non-finite gradient or update in '{name}'")

    def _update(self, chunks: list[tuple[int, int]], scratch: np.ndarray) -> int | None:
        """Update the [at, end) element ranges ``chunks`` in order, through the
        two rows of ``scratch``. Stops at the first chunk holding a non-finite
        value, before writing its parameters, and returns that value's index."""
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1, 1 - b2
        bias1, root2 = 1.0 - b1 ** self.step_count, math.sqrt(1.0 - b2 ** self.step_count)
        alpha, eps_hat = self.lr * root2 / bias1, self.eps * root2
        arrays = (self.arena.data, self.arena.grad, self._m, self._v)
        for at, end in chunks:
            p, g, m, v = (x[at:end] for x in arrays)
            a, b = scratch[:, :end - at]
            np.multiply(m, b1, m)
            np.add(m, np.multiply(g, c1, a), m)
            np.multiply(v, b2, v)
            np.add(v, np.multiply(np.multiply(g, c2, a), g, a), v)
            np.add(np.sqrt(v, a), eps_hat, a)             # denominator
            np.divide(np.multiply(m, alpha, b), a, b)    # update
            # update * denominator is about alpha*m while every element is
            # finite, and NaN or Inf once a gradient, moment or update is not.
            # einsum, not np.vdot: BLAS's dot is itself threaded, and parts
            # calling it side by side oversubscribe the CPUs.
            if not math.isfinite(np.einsum("i,i->", b, a)):
                return at + int(np.argmax(~np.isfinite(b * a)))
            np.subtract(p, b, p)
        return None

    def zero_grad(self) -> None:
        self.arena.zero_grad()

    def state_dict(self) -> dict:
        """Step count and name -> views of one flat copy of each moment."""
        return {"step_count": self.step_count,
                "m": dict(zip(self.params, self.arena.views(self._m.copy()))),
                "v": dict(zip(self.params, self.arena.views(self._v.copy())))}


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_wf1: float


@dataclass
class TrainResult:
    model: ModelParams            # best-validation parameters
    history: list[EpochStats]
    best_epoch: int
    best_valid_wf1: float
    best_optimizer_state: dict
    label_names: list[str]

    def history_csv(self) -> str:
        lines = ["epoch,train_loss,valid_wf1"]
        for row in self.history:
            lines.append(f"{row.epoch},{row.train_loss!r},{row.valid_wf1!r}")
        return "\n".join(lines) + "\n"


STACK_BLOCK = 1 << 18   # float64 elements of a stacked forward's largest live set per layer: 2 MB
STACK_SHARE = 64        # at least, or 1/64 of the parameters, as a forward reads them all once per stack.
# The budget bounds one layer's largest block, or the RGCN's picked rows, messages and mean
# together, each copy's sized by the most message rows any copy has: blocks of like size are
# alive together, so the peak is ~3x it, under 5% of one parameter array, while training
# holds four such arrays and a loaded checkpoint three.


def copies_per_forward(n: int, model: ModelParams, graphs: list[ConversationGraph] | None) -> int:
    """How many n-utterance copies one stacked forward runs: as many as keep
    its largest block within the larger of ``STACK_BLOCK`` elements and the
    parameter count over ``STACK_SHARE``. Per copy, that block is n rows
    of the widest layer, or per attention head 3 or 4 n x k projections or n x n
    scores, or the RGCN's live blocks over the most message rows any one of
    ``graphs`` has (``gnn.rgcn_layout``): its picked input rows and their
    messages, rows x width each, and its n x rows mean."""
    rows = 0 if graphs is None else max(g.rgcn_layout[2].size for g in graphs)
    enc, gt = model.encoder, model.graph_attention
    heads = [(3, enc.num_heads, enc.head_dim)] + ([(4, gt.num_heads, gt.head_dim)] if gt else [])
    widest = max(max(shape[-1] for shape in model.arena.shapes),
                 *(h * max(parts * k, n) for parts, h, k in heads))
    budget = max(STACK_BLOCK, model.arena.data.size // STACK_SHARE)
    return max(1, budget // max(n * max(n, widest), rows * (2 * model.dims.width + n)))


def predict_dialogues(dialogues: list[Dialogue], model: ModelParams,
                      config: TrainConfig) -> list[np.ndarray]:
    """Eval-mode preds of each dialogue, in input order.

    Dialogues of one length run stacked, each with its own graph, through
    one forward, ``copies_per_forward`` of them at a time, sized by the
    dialogue of that length whose graph has the most message rows; a
    dialogue alone in its chunk runs as a stack of one.
    """
    by_length: dict[int, list[int]] = {}
    for i, d in enumerate(dialogues):
        by_length.setdefault(len(d), []).append(i)
    preds: list = [None] * len(dialogues)
    for n, members in by_length.items():
        speakers = [dialogues[i].speakers for i in members]
        step = copies_per_forward(n, model, forward_graphs(speakers, (len(members), n, 0),
                                                            model, config))
        for lo in range(0, len(members), step):
            chunk = members[lo:lo + step]
            stacked = forward_dialogue([dialogues[i] for i in chunk], model, config).preds
            for i, p in zip(chunk, stacked):
                preds[i] = p
    return preds


def _validation_score(dialogues: list[Dialogue], model: ModelParams,
                      config: TrainConfig) -> float:
    preds = predict_dialogues(dialogues, model, config)
    if model.dims.task_mode == "single":
        gold = [u.label for d in dialogues for u in d.utterances]
        return metrics.weighted_f1(gold, np.concatenate(preds), model.dims.num_classes)[1]
    gold = np.concatenate([dialogue_gold(d, "multi") for d in dialogues])
    flat = np.concatenate(preds)
    return float(metrics.multilabel_f1(gold, flat).mean())


def train(corpus: Corpus, config: TrainConfig) -> TrainResult:
    """Train on the corpus's train split, early-stopping on validation
    weighted F1; returns the best-validation model plus the full history."""
    config = config.validate()
    train_dialogues = corpus.split("train")
    valid_dialogues = corpus.split("valid")
    if not train_dialogues:
        raise ConfigError("corpus has no train split")
    if not valid_dialogues:
        raise ConfigError("corpus has no valid split")

    seq = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in seq.spawn(3))
    dims = ModelDims.for_corpus(corpus, config)
    model = ModelParams.init(config, dims, init_rng)
    optimizer = Adam(model.named(), config.learning_rate,
                     config.beta1, config.beta2, config.adam_eps)

    history: list[EpochStats] = []
    # The best epoch's parameters and Adam moments are kept as flat copies.
    # Weighted F1 is >= 0, so epoch 0 always sets them.
    best_wf1, best_epoch, best_params, best_opt_state = -1.0, -1, None, None

    def step(epoch: int) -> None:
        try:
            optimizer.step()
        except NonFiniteError as exc:
            raise TrainingAbort(f"non-finite optimizer step at epoch {epoch}: {exc}") from exc
        optimizer.zero_grad()

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(train_dialogues))
        losses = []
        pending = 0
        for idx in order:
            dialogue = train_dialogues[idx]
            tape = Tape()
            try:
                result = forward_dialogue(dialogue, model, config, training=True,
                                          rng=dropout_rng, tape=tape)
                gold = dialogue_gold(dialogue, dims.task_mode)
                loss = clf.loss(result.logits, gold, dims.task_mode, tape)
                backward(loss, tape)
            except NonFiniteError as exc:
                raise TrainingAbort(
                    f"non-finite loss in dialogue '{dialogue.dialogue_id}' "
                    f"at epoch {epoch}: {exc}") from exc
            losses.append(loss.item())
            pending += 1
            if pending == config.grad_accum:
                step(epoch)
                pending = 0
        if pending:
            step(epoch)
        # validation and the best-state copies need no gradient memory
        model.arena.release_grad()

        valid_wf1 = _validation_score(valid_dialogues, model, config)
        history.append(EpochStats(epoch, float(np.mean(losses)), valid_wf1))
        if valid_wf1 > best_wf1:
            best_wf1, best_epoch = valid_wf1, epoch
            # free the previous best's three copies before taking new ones
            best_params = best_opt_state = None
            best_params = model.arena.data.copy()
            best_opt_state = optimizer.state_dict()
        elif epoch - best_epoch > config.patience:
            break

    np.copyto(model.arena.data, best_params)
    return TrainResult(model, history, best_epoch, best_wf1,
                       best_opt_state, list(corpus.label_names))


def evaluate_model(corpus: Corpus, model: ModelParams, config: TrainConfig,
                   split: str = "test", shift_level: str = "utterance") -> metrics.EvalReport:
    if corpus.task_mode != "single":
        raise ConfigError("evaluate_model needs a single-label corpus; "
                          "use evaluate_multilabel for multi-label data")
    dialogues = corpus.split(split)
    if not dialogues:
        raise ConfigError(f"corpus has no '{split}' dialogues")
    preds = predict_dialogues(dialogues, model, config)
    return metrics.make_report(dialogues, preds, corpus.label_names, shift_level)


def evaluate_multilabel(corpus: Corpus, model: ModelParams, config: TrainConfig,
                        split: str = "test") -> dict:
    """Per-class weighted F1 for multi-label corpora, plus the mean and the
    exact-match (all labels right) accuracy."""
    if corpus.task_mode != "multi":
        raise ConfigError("evaluate_multilabel needs a multi-label corpus")
    dialogues = corpus.split(split)
    if not dialogues:
        raise ConfigError(f"corpus has no '{split}' dialogues")
    gold = np.concatenate([dialogue_gold(d, "multi") for d in dialogues])
    pred = np.concatenate(predict_dialogues(dialogues, model, config))
    per_class = metrics.multilabel_f1(gold, pred)
    return {
        "per_class_f1": {name: float(v) for name, v in zip(corpus.label_names, per_class)},
        "mean_f1": float(per_class.mean()),
        "exact_match_accuracy": float((gold == pred).all(axis=1).mean()),
    }


@dataclass
class MaskReport:
    baseline_f1: float
    masked_f1: list[float]  # weighted F1 with utterance k's features zeroed


def mask_importance(dialogue: Dialogue, model: ModelParams,
                    config: TrainConfig) -> MaskReport:
    """Dialogue-level weighted F1 when masking one utterance at a time.

    Masking zeroes the utterance's fused feature vector; the node and its
    edges stay, so only information is removed, not topology.

    The n+1 inputs (copy 0 unmasked, copy k+1 with utterance k zeroed) run
    stacked through ``forward_fused``, ``copies_per_forward`` at a time, each
    with the dialogue's speakers, so its graph (one memoised object) per copy;
    a chunk's copies are scored from one confusion matrix per copy, counted at once.
    """
    if model.dims.task_mode != "single":
        raise ConfigError(f"mask_importance needs a single-label corpus, "
                          f"not task mode '{model.dims.task_mode}'")
    x = fused_matrix(dialogue, config.active_modalities)
    n = len(dialogue)
    gold = [u.label for u in dialogue.utterances]
    per_forward = copies_per_forward(n, model, forward_graphs([dialogue.speakers], (1, n, 0),
                                                               model, config))
    f1 = []
    for lo in range(0, n + 1, per_forward):
        copies = np.repeat(x[None], min(per_forward, n + 1 - lo), axis=0)
        j = np.arange(max(lo, 1), lo + len(copies))   # copy j > 0 zeroes utterance j-1
        copies[j - lo, j - 1] = 0.0
        preds = forward_fused(Tensor(copies), [dialogue.speakers] * len(copies), model, config).preds
        cm = metrics.confusion_matrix(gold, preds, model.dims.num_classes)   # one per copy
        f1 += metrics.f1_scores(cm)[1].tolist()
    return MaskReport(f1[0], f1[1:])


# ---------------------------------------------------------------------------
# checkpointing

def save_checkpoint(path, model: ModelParams, config: TrainConfig,
                    optimizer_state: dict, epoch: int, valid_wf1: float,
                    label_names: list[str], corpus_fingerprint: str = "") -> None:
    """Write the model, its Adam moments and run metadata as one container
    (``tensor.save_params``) of three members laid out like ``model.arena``,
    ``param``, ``m`` and ``v``, each written end to end from the per-name
    arrays; the header's ``params`` lists each name and shape in that order."""
    named = model.named()
    header = {
        "config": config.to_dict(),
        "dims": asdict(model.dims),
        "label_names": label_names,
        "epoch": epoch,
        "valid_weighted_f1": valid_wf1,
        "corpus_fingerprint": corpus_fingerprint,
        "step_count": optimizer_state["step_count"],
        "params": [[name, list(t.shape)] for name, t in named.items()],
    }
    save_params(path, {"param": [t.data for t in named.values()],
                       **{k: [optimizer_state[k][name] for name in named] for k in ("m", "v")}},
                CHECKPOINT_FORMAT, header)


@dataclass
class Checkpoint:
    model: ModelParams
    config: TrainConfig
    epoch: int
    valid_wf1: float
    label_names: list[str]
    corpus_fingerprint: str
    optimizer_state: dict = field(repr=False, default_factory=dict)

    def check_fits(self, corpus: Corpus) -> None:
        """Raise a one-line ``ConfigError`` unless ``corpus`` has the model's
        label names, task mode and fused input width, and no more speakers."""
        want, got = self.model.dims, ModelDims.for_corpus(corpus, self.config)
        pairs = (("label names", self.label_names, list(corpus.label_names)),
                 ("task mode", want.task_mode, got.task_mode),
                 (f"fused width of modalities '{self.config.active_modalities}'",
                  want.width, got.width))
        problems = [f"{what}: corpus {theirs}, checkpoint {ours}"
                    for what, ours, theirs in pairs if ours != theirs]
        if got.num_speakers > want.num_speakers:
            problems.append(f"speaker count: corpus {got.num_speakers}, "
                            f"checkpoint at most {want.num_speakers}")
        if problems:
            raise ConfigError("checkpoint does not fit the corpus: " + "; ".join(problems))


def _check_header(path, header: dict) -> None:
    """Raise a one-line ``ValueError`` naming ``path`` and the key unless a checkpoint
    header holds every key ``load_checkpoint`` reads, of its type, and a label name per class."""
    get, dims, names = header.get, header.get("dims"), header.get("label_names")
    valid = {
        "config": type(get("config")) is dict,
        "dims": (type(dims) is dict and dims.keys() == ModelDims.__dataclass_fields__.keys()
                 and all(type(dims[k]) is int and dims[k] > 0
                         for k in ("width", "num_classes", "num_speakers"))
                 and dims["task_mode"] in TASK_MODES),
        "label_names": type(names) is list and all(type(s) is str for s in names),
        "epoch": type(get("epoch")) is int,
        "valid_weighted_f1": type(get("valid_weighted_f1")) in (int, float),
        "step_count": type(get("step_count")) is int,
        "params": type(get("params")) is list,   # its entries are matched by load_checkpoint
    }
    bad = [key for key, ok in valid.items() if not ok]
    if bad:
        raise ValueError(f"malformed {CHECKPOINT_FORMAT} file {path}: header key '{bad[0]}' "
                         "is missing or of the wrong type")
    if len(names) != dims["num_classes"] or repeated_name(names) is not None:
        raise ValueError(f"malformed {CHECKPOINT_FORMAT} file {path}: header key 'label_names' "
                         f"must name each of the model's {dims['num_classes']} classes once")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``, once its header is
    checked and its parameter layout matched with the model its config builds:
    the parameters straight into the model's arena and each moment into one
    flat array, so three arena-sized arrays in all, each CRC-checked."""
    with open_params(path, CHECKPOINT_FORMAT) as (header, read_into):
        _check_header(path, header)
        try:
            config = TrainConfig.from_dict(header["config"])
        except ConfigError as exc:
            raise ValueError(f"malformed {CHECKPOINT_FORMAT} file {path}: header key 'config': "
                             f"{exc}") from None
        model = ModelParams.init(config, ModelDims(**header["dims"]), None)
        named = model.named()
        layout = [[name, list(t.shape)] for name, t in named.items()]
        # a file written while the RGCN kept a parameter per relation lists
        # slice r of rgcn.theta as rgcn.theta_rel{r}: the same elements in order
        per_relation = [[f"{k}_rel{r}", s[1:]] if k == "rgcn.theta" else [k, s]
                        for k, s in layout for r in range(s[0] if k == "rgcn.theta" else 1)]
        for i, pair in enumerate(itertools.zip_longest(header["params"], layout)):
            if pair[0] != pair[1] and header["params"] != per_relation:
                theirs, ours = ("nothing" if e is None else json.dumps(e) for e in pair)
                raise ValueError(f"checkpoint {path} does not fit the model of its config: "
                                 f"parameter {i} is {theirs} in the file, {ours} in the model")
        read_into("param", model.arena.data)
        state: dict = {"step_count": header["step_count"]}
        for key in ("m", "v"):
            flat = np.empty_like(model.arena.data)
            read_into(key, flat)
            state[key] = dict(zip(named, model.arena.views(flat)))
    return Checkpoint(model, config, header["epoch"], float(header["valid_weighted_f1"]),
                      header["label_names"], header.get("corpus_fingerprint", ""), state)
