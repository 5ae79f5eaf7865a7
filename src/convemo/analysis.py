"""Batch study procedures: ablation matrix, context-truncation sweep,
window-size sweep, and embedding dumps.

Every study cell trains a fresh model from scratch (the comparisons are
between independently trained configurations) and evaluates weighted F1
on the test split, or on multi-label data the mean of the per-class ones.
Cells report per-seed values plus their mean and median; reruns with the
same (corpus, config, seeds) reproduce tables exactly.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .config import ABLATIONS, ConfigError, TrainConfig
from .dataset import Corpus, truncate_context
from .model import ModelParams, forward_dialogue
from .training import _validation_score, train

EMBED_STAGES = ("before_gnn", "after_gnn")


@dataclass
class StudyRow:
    cell: dict              # grid coordinates, e.g. {"variant": "full", "modalities": "atv"}
    per_seed: list[float]   # weighted F1 per seed, in seed order

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_seed))

    @property
    def median(self) -> float:
        return float(np.median(self.per_seed))


@dataclass
class StudyResult:
    kind: str
    seeds: list[int]
    rows: list[StudyRow] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        keys = list(self.rows[0].cell) if self.rows else []
        writer = csv.writer(buf)
        writer.writerow(keys + [f"seed{s}" for s in self.seeds] + ["mean", "median"])
        for row in self.rows:
            writer.writerow([row.cell[k] for k in keys]
                            + [repr(v) for v in row.per_seed]
                            + [repr(row.mean), repr(row.median)])
        return buf.getvalue()

    def format_table(self) -> str:
        keys = list(self.rows[0].cell) if self.rows else []
        header = [" | ".join(keys + [f"seed {s}" for s in self.seeds] + ["mean", "median"])]
        lines = []
        for row in self.rows:
            cells = [str(row.cell[k]) for k in keys]
            cells += [f"{v * 100:.2f}" for v in row.per_seed]
            cells += [f"{row.mean * 100:.2f}", f"{row.median * 100:.2f}"]
            lines.append(" | ".join(cells))
        return "\n".join(header + lines)

    def lookup(self, **cell) -> StudyRow:
        for row in self.rows:
            if all(row.cell.get(k) == v for k, v in cell.items()):
                return row
        raise KeyError(f"no study row matching {cell}")


def _run_cells(kind: str, seeds: list[int], cells: Iterable[tuple]) -> StudyResult:
    """Train each (cell, corpus, config) of ``cells`` once per seed and score its test split."""
    result = StudyResult(kind, list(seeds))
    for cell, corpus, config in cells:
        test = corpus.split("test")
        if not test:
            raise ConfigError("corpus has no 'test' dialogues")
        cfgs = [config.with_overrides(seed=s) for s in seeds]
        result.rows.append(StudyRow(cell, [_validation_score(test, train(corpus, cfg).model, cfg)
                                           for cfg in cfgs]))
    return result


def run_ablation(corpus: Corpus, base_config: TrainConfig, seeds: list[int],
                 variants: tuple[str, ...] = ABLATIONS,
                 modality_sets: list[str] | None = None) -> StudyResult:
    """Variant x modality-set grid of retrained models."""
    return _run_cells("ablation", seeds, (
        ({"variant": v, "modalities": m}, corpus,
         base_config.with_overrides(ablation=v, active_modalities=m))
        for m in modality_sets or [base_config.active_modalities] for v in variants))


def run_context_sweep(corpus: Corpus, base_config: TrainConfig,
                      n_values: list[int | None], seeds: list[int]) -> StudyResult:
    """Truncate dialogues to n-utterance chunks (None keeps them whole),
    retrain, and score; each truncated corpus is made when its cell runs."""
    return _run_cells("context", seeds, (
        ({"context": "all" if n is None else n},
         corpus if n is None else truncate_context(corpus, n), base_config) for n in n_values))


def run_window_sweep(corpus: Corpus, base_config: TrainConfig,
                     pf_values: list[tuple[int | None, int | None]],
                     seeds: list[int]) -> StudyResult:
    return _run_cells("window", seeds, (
        ({"past": "inf" if p is None else p, "future": "inf" if f is None else f}, corpus,
         base_config.with_overrides(window_past=p, window_future=f)) for p, f in pf_values))


def dump_embeddings(corpus: Corpus, model: ModelParams, config: TrainConfig,
                    stage: str = "after_gnn", split: str = "test") -> str:
    """CSV of per-utterance vectors captured before or after the graph
    layers, for external cluster visualization."""
    if stage not in EMBED_STAGES:
        raise ValueError(f"stage must be 'before_gnn' or 'after_gnn', got '{stage}'")
    buf = io.StringIO()
    writer = csv.writer(buf)
    width = model.dims.width
    writer.writerow(["dialogue_id", "utterance_idx", "gold_label"]
                    + [f"e{i}" for i in range(width)])
    for d in corpus.split(split):
        result = forward_dialogue(d, model, config)
        mat = result.context.data if stage == "before_gnn" else result.graph_out.data
        for idx, u in enumerate(d.utterances):
            label = int(u.label) if model.dims.task_mode == "single" else \
                "|".join(str(int(v)) for v in u.label)
            writer.writerow([d.dialogue_id, idx, label] + [repr(float(v)) for v in mat[idx]])
    return buf.getvalue()
