"""Conversation-level multimodal emotion recognition.

Fused per-utterance features pass through a position-free transformer
context encoder, a windowed inter/intra-speaker relational graph, a
relational graph convolution, graph-transformer attention, and a shared
emotion classifier. Training, metrics, and the analysis studies
(ablations, context truncation, window sweeps, utterance masking) are
all driven from here or from the ``convemo`` command line tool.
"""

__version__ = "0.1.0"

from .config import ConfigError, TrainConfig, mosei_defaults
from .dataset import (
    Corpus,
    CorpusError,
    Dialogue,
    SynthSpec,
    Utterance,
    fuse_features,
    load_corpus,
    save_corpus,
    synth_corpus,
    truncate_context,
)
from .graph import ConversationGraph, collapse_relations, graph_from_speakers, relation_type_id
from .metrics import EvalReport, accuracy, multilabel_f1, shift_split, weighted_f1
from .model import ModelDims, ModelParams, forward_dialogue
from .tensor import NonFiniteError, ShapeError, Tape, Tensor, backward
from .training import (
    TrainingAbort,
    evaluate_model,
    evaluate_multilabel,
    load_checkpoint,
    mask_importance,
    save_checkpoint,
    train,
)

__all__ = [
    "__version__",
    "ConfigError", "TrainConfig", "mosei_defaults",
    "Corpus", "CorpusError", "Dialogue", "SynthSpec", "Utterance",
    "fuse_features", "load_corpus", "save_corpus", "synth_corpus", "truncate_context",
    "ConversationGraph", "collapse_relations", "graph_from_speakers", "relation_type_id",
    "EvalReport", "accuracy", "multilabel_f1", "shift_split", "weighted_f1",
    "ModelDims", "ModelParams", "forward_dialogue",
    "NonFiniteError", "ShapeError", "Tape", "Tensor", "backward",
    "TrainingAbort", "evaluate_model", "evaluate_multilabel",
    "load_checkpoint", "mask_importance", "save_checkpoint", "train",
]
