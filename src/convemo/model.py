"""Full model assembly and per-dialogue forward pass.

The pipeline per dialogue: fuse modality features, contextualize with
the position-free encoder, form the typed conversation graph, run the
relational convolution and graph-transformer attention, then classify
every utterance. Ablations reshape the pipeline structurally: ``no_gnn``
routes encoder features straight to the classifier (and allocates no
graph parameters at all); ``no_relations`` collapses every relation
type to a single one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .classifier import ClassifierOutput, ClassifierParams, classify
from .config import TrainConfig
from .dataset import Corpus, Dialogue, fuse_features, fused_dim
from .encoder import EncoderParams, encode
from .gnn import GraphTransformerParams, RgcnParams, graph_transformer_forward, rgcn_forward
from .graph import ConversationGraph, graph_from_speakers, num_relation_types
from .tensor import Tape, Tensor


@dataclass
class ModelDims:
    width: int
    num_classes: int
    num_speakers: int
    task_mode: str = "single"

    @classmethod
    def for_corpus(cls, corpus: Corpus, config: TrainConfig) -> "ModelDims":
        width = fused_dim(corpus.dims, config.active_modalities)
        if width == 0:
            raise ValueError("active modalities have zero total width in this corpus")
        return cls(width, corpus.num_classes, corpus.max_speakers, corpus.task_mode)


@dataclass
class ModelParams:
    dims: ModelDims
    encoder: EncoderParams
    rgcn: RgcnParams | None
    graph_attention: GraphTransformerParams | None
    classifier: ClassifierParams
    arena: T.Arena | None = field(default=None, repr=False)   # every parameter, in ``named`` order

    @classmethod
    def init(cls, config: TrainConfig, dims: ModelDims,
             rng: np.random.Generator | None) -> "ModelParams":
        """A model in one arena, drawn from ``rng`` in the modules' declaration
        order; with ``rng`` None its values are left unset (``T.Init``)."""
        d = dims.width
        init = T.Init(rng)
        encoder = EncoderParams.init(d, config.seq_context_layers, config.encoder_heads,
                                     init, ffn_width=config.ffn_mult * d)
        if config.ablation == "no_gnn":
            rgcn, gt = None, None
        else:
            relations = (1 if config.ablation == "no_relations"
                         else num_relation_types(dims.num_speakers))
            rgcn = RgcnParams.init(d, d, relations, init)
            gt = GraphTransformerParams.init(d, d, config.gnn_heads, init)
        clf = ClassifierParams.init(d, dims.num_classes, init,
                                    hidden=config.classifier_hidden)
        model = cls(dims, encoder, rgcn, gt, clf)
        model.arena = init.place(list(model.named().values()))
        return model

    def named(self) -> dict[str, Tensor]:
        out = self.encoder.named()
        if self.rgcn is not None:
            out.update(self.rgcn.named())
        if self.graph_attention is not None:
            out.update(self.graph_attention.named())
        out.update(self.classifier.named())
        return out

    def zero_grads(self) -> None:
        self.arena.zero_grad()


@dataclass
class ForwardResult(ClassifierOutput):
    context: Tensor       # encoder output Z (before any graph layer)
    graph_out: Tensor     # features entering the classifier


def fused_matrix(dialogue: Dialogue | Sequence[Dialogue], active: str) -> np.ndarray:
    """``fuse_features`` of a dialogue's utterances, n x d, or of B dialogues
    of one length n at once, stacked B x n x d."""
    if isinstance(dialogue, Dialogue):
        return fuse_features(dialogue.utterances, active)
    lengths = sorted({len(d) for d in dialogue})
    if len(lengths) != 1:
        raise T.ShapeError(f"fused_matrix: a stack takes dialogues of one length, not {lengths}")
    fused = fuse_features([u for d in dialogue for u in d.utterances], active)
    return fused.reshape(len(dialogue), lengths[0], -1)


def dialogue_gold(dialogue: Dialogue, task_mode: str) -> np.ndarray:
    if task_mode == "single":
        return np.asarray([u.label for u in dialogue.utterances], dtype=np.int64)
    return np.stack([np.asarray(u.label, dtype=np.float64) for u in dialogue.utterances])


def forward_graphs(speakers: Sequence[int] | Sequence[Sequence[int]], shape: tuple[int, ...],
                   params: ModelParams, config: TrainConfig) -> list[ConversationGraph] | None:
    """The conversation graph of each copy of an input of ``shape``, n x d or
    B x n x d, from its ``speakers``: one flat sequence of n ids for n x d, one
    per copy for a stack. None under ``no_gnn``, whose forward reads none; but
    speakers that do not fit ``shape`` are refused in every ablation."""
    nested = len(speakers) > 0 and not isinstance(speakers[0], (int, np.integer))
    seqs = speakers if nested else [speakers]
    if nested != (len(shape) == 3) or len(seqs) != math.prod(shape[:-2]) or any(
            len(s) != shape[-2] for s in seqs):
        given = f"{len(speakers)} speakers sequences" if nested else "one flat speakers sequence"
        raise T.ShapeError(f"forward_fused: {given} for input of shape {shape}; a stack takes "
                           "one speakers sequence per copy, each with one id per row")
    if config.ablation == "no_gnn":
        return None
    return [graph_from_speakers(s, params.dims.num_speakers, config.window_past,
                                config.window_future, config.edge_mode, config.self_loops,
                                config.ablation == "no_relations") for s in seqs]


def forward_fused(x: Tensor, speakers: Sequence[int] | Sequence[Sequence[int]],
                  params: ModelParams, config: TrainConfig, training: bool = False,
                  rng: np.random.Generator | None = None,
                  tape: Tape | None = None,
                  capture: dict | None = None) -> ForwardResult:
    """Pipeline from an already-fused feature matrix (n x d) and its
    ``speakers``. A stack of B copies (B x n x d) runs as B forwards at once,
    on a tape or not, and takes B ``speakers`` sequences, one per copy."""
    graphs = forward_graphs(speakers, x.shape, params, config)
    z = encode(x, params.encoder, training, config.dropout, rng, tape, capture)
    if graphs is None:
        h = z
    else:
        g = graphs if x.data.ndim == 3 else graphs[0]
        hid = rgcn_forward(z, g, params.rgcn, tape)
        if config.relu_between_graph_layers:
            hid = T.relu(hid, tape)
        h = graph_transformer_forward(hid, g, params.graph_attention, tape, capture)
    out = classify(h, params.classifier, params.dims.task_mode,
                   config.multilabel_threshold, tape)
    return ForwardResult(out.probs, out.preds, out.logits, z, h)


def forward_dialogue(dialogue: Dialogue | Sequence[Dialogue], params: ModelParams,
                     config: TrainConfig, training: bool = False,
                     rng: np.random.Generator | None = None,
                     tape: Tape | None = None,
                     capture: dict | None = None) -> ForwardResult:
    """Forward of one dialogue, or a stacked forward of a sequence of
    dialogues of one length, each with its own graph."""
    speakers = (dialogue.speakers if isinstance(dialogue, Dialogue)
                else [d.speakers for d in dialogue])
    return forward_fused(Tensor(fused_matrix(dialogue, config.active_modalities)), speakers,
                         params, config, training, rng, tape, capture)
