"""Training configuration.

Defaults follow the published conversation-emotion setup for the dyadic
corpus: dropout 0.1, 7 graph-attention heads, 4 context-encoder layers,
initial learning rate 1e-4, and symmetric graph windows of 10. Presets
for the other corpus's per-modality settings are provided as well.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields, replace

from .dataset import CorpusError, normalize_modalities
from .graph import EDGE_MODES

ABLATIONS = ("full", "no_gnn", "no_relations")

# field type -> (values accepted, the type stored, how a message names it);
# bools are accepted only by bool fields
_KINDS = {"int": (numbers.Integral, int, "an integer"),
          "float": (numbers.Real, float, "a finite number"),
          "bool": (bool, bool, "true or false"),
          "str": (str, str, "a string")}


class ConfigError(ValueError):
    """Configuration value or file failed validation."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    dropout: float = 0.1
    gnn_heads: int = 7
    seq_context_layers: int = 4
    encoder_heads: int = 4
    ffn_mult: int = 4
    window_past: int | None = 10
    window_future: int | None = 10
    edge_mode: str = "both_directions"
    self_loops: bool = True
    relu_between_graph_layers: bool = False
    classifier_hidden: int | None = None
    multilabel_threshold: float = 0.5
    epochs: int = 50
    seed: int = 0
    ablation: str = "full"
    active_modalities: str = "atv"
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_accum: int = 1
    patience: int = 10

    def validate(self) -> "TrainConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")   # e.g. "int | None"
            if value is None and optional:
                continue
            accepted, stored, noun = _KINDS[kind]
            if (not isinstance(value, accepted) or (kind != "bool" and isinstance(value, bool))
                    or (kind == "float" and not math.isfinite(value))):
                raise ConfigError(f"{f.name} must be {noun}"
                                  + (" or null" if optional else "") + f", not {value!r}")
            setattr(self, f.name, stored(value))
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        for name in ("dropout", "beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError("adam_eps must be positive")
        for name in ("gnn_heads", "seq_context_layers", "encoder_heads", "ffn_mult",
                     "epochs", "grad_accum"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.classifier_hidden is not None and self.classifier_hidden < 1:
            raise ConfigError("classifier_hidden must be >= 1, or null for the default")
        if self.edge_mode not in EDGE_MODES:
            raise ConfigError(f"unknown edge_mode '{self.edge_mode}'")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}")
        for name in ("window_past", "window_future", "patience", "seed"):
            if (getattr(self, name) or 0) < 0:   # a null window is unbounded
                raise ConfigError(f"{name} must be >= 0")
        try:
            self.active_modalities = normalize_modalities(self.active_modalities)
        except CorpusError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(values) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values).validate()

    def with_overrides(self, **kw) -> "TrainConfig":
        return replace(self, **kw).validate()


def iemocap_defaults() -> TrainConfig:
    return TrainConfig().validate()


def mosei_defaults(modalities: str = "atv") -> TrainConfig:
    """Per-modality presets for the sentiment/emotion corpus."""
    table = {
        "t": dict(dropout=0.399, gnn_heads=3, seq_context_layers=5, learning_rate=3.3e-3),
        "at": dict(dropout=0.103, gnn_heads=1, seq_context_layers=2, learning_rate=6.9e-3),
        "atv": dict(dropout=0.337, gnn_heads=2, seq_context_layers=1, learning_rate=1.1e-3),
    }
    key = normalize_modalities(modalities)
    if key not in table:
        raise ConfigError(f"no preset for modality set '{key}'")
    return TrainConfig(active_modalities=key, **table[key]).validate()
