"""Evaluation metrics: accuracy, per-class and weighted F1, confusion
matrix, and the emotion-shift accuracy split.

Per-class F1 = 2*precision*recall/(precision+recall), with F1 defined as
0 whenever precision+recall is 0. The weighted average uses each class's
gold support as its weight. An utterance counts as an "emotion shift"
when its gold label differs from the previous reference utterance's gold
label: the previous utterance of anyone at utterance level, the same
speaker's previous utterance at speaker level. Reference-less utterances
(dialogue or speaker openings) count as non-shift.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .dataset import Dialogue

SHIFT_LEVELS = ("utterance", "speaker")   # the previous label: any speaker's, or the same one's


def confusion_matrix(gold, pred, num_classes: int) -> np.ndarray:
    """Counts of (gold, pred) label pairs, c x c; for R rows of predictions
    (R x n), of one gold sequence of n or of R x n golds, R x c x c."""
    gold = np.asarray(gold, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    rows = pred.ndim == 2 and gold.ndim == 1   # one gold sequence for every row
    if pred.ndim > 2 or gold.shape != pred.shape[rows:]:
        raise ValueError(f"gold and pred lengths differ: {gold.shape} vs {pred.shape}")
    if gold.size and (gold.min() < 0 or gold.max() >= num_classes
                      or pred.min() < 0 or pred.max() >= num_classes):
        raise ValueError(f"labels out of range for {num_classes} classes")
    lead, cells = pred.shape[:-1], num_classes * num_classes
    pairs = gold * num_classes + pred + cells * np.arange(math.prod(lead)).reshape(*lead, 1)
    return np.bincount(pairs.ravel(), minlength=cells * math.prod(lead)).reshape(
        *lead, num_classes, num_classes)


def _f1_from_counts(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray) -> np.ndarray:
    precision = np.divide(tp, tp + fp, out=np.zeros_like(tp, dtype=float), where=(tp + fp) > 0)
    recall = np.divide(tp, tp + fn, out=np.zeros_like(tp, dtype=float), where=(tp + fn) > 0)
    denom = precision + recall
    return np.divide(2 * precision * recall, denom,
                     out=np.zeros_like(denom), where=denom > 0)


def f1_scores(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class F1 and the support-weighted average of a c x c confusion
    matrix, or of each of an R x c x c stack: (R, c) and (R,)."""
    tp = np.diagonal(cm, 0, -2, -1).astype(float)
    fp = cm.sum(axis=-2) - tp
    fn = cm.sum(axis=-1) - tp
    per_class = _f1_from_counts(tp, fp, fn)
    support = cm.sum(axis=-1)
    total = support.sum(axis=-1)
    weighted = np.divide((per_class * support).sum(axis=-1), total,
                         out=np.zeros(np.shape(total)), where=total > 0)
    return per_class, weighted


def weighted_f1(gold, pred, num_classes: int) -> tuple[np.ndarray, float]:
    """Per-class F1 and the support-weighted average."""
    per_class, weighted = f1_scores(confusion_matrix(gold, pred, num_classes))
    return per_class, float(weighted)


def accuracy(gold, pred) -> float:
    gold = np.asarray(gold)
    pred = np.asarray(pred)
    if gold.shape != pred.shape:
        raise ValueError(f"gold and pred lengths differ: {gold.shape} vs {pred.shape}")
    if gold.size == 0:
        raise ValueError("accuracy of an empty prediction set is undefined")
    return float((gold == pred).mean())


@dataclass
class ShiftSplit:
    shift_accuracy: float
    non_shift_accuracy: float
    shift_count: int
    non_shift_count: int


def shift_split(dialogues: Sequence[Dialogue], preds: Sequence[Sequence[int]],
                level: str = "utterance") -> ShiftSplit:
    """Accuracy over emotion-shift vs emotion-stable utterances.

    ``preds`` is one prediction sequence per dialogue, in the order of
    ``dialogues``. One stable sort by dialogue, and at speaker level by
    speaker within it, puts each utterance right after its reference.
    """
    if level not in SHIFT_LEVELS:
        raise ValueError(f"level must be 'utterance' or 'speaker', got '{level}'")
    if len(dialogues) != len(preds):
        raise ValueError(f"{len(preds)} prediction sequences for {len(dialogues)} dialogues")
    for d, p in zip(dialogues, preds):
        if np.shape(p) != (len(d),):
            raise ValueError(f"dialogue '{d.dialogue_id}' has {len(d)} utterances "
                             f"but {np.shape(p)} predictions")
    utts = [u for d in dialogues for u in d.utterances]
    labels = [u.label for u in utts]
    if not all(issubclass(t, (int, np.integer)) for t in set(map(type, labels))):
        raise ValueError("shift analysis needs a single-label corpus")
    keys = [np.repeat(np.arange(len(dialogues)), [len(d) for d in dialogues])]
    if level == "speaker":
        keys.insert(0, np.array([u.speaker for u in utts]))
    order = np.lexsort(keys)   # the last key is the primary one
    keys, gold = np.stack(keys)[:, order], np.array(labels)[order]
    shift = np.zeros(gold.size, dtype=bool)
    shift[1:] = (keys[:, 1:] == keys[:, :-1]).all(axis=0) & (gold[1:] != gold[:-1])
    correct = np.concatenate([np.zeros(0, np.int64), *preds])[order] == gold
    shift_n, shift_c = int(shift.sum()), int((shift & correct).sum())
    non_n, non_c = gold.size - shift_n, int(correct.sum()) - shift_c
    return ShiftSplit(
        shift_accuracy=shift_c / shift_n if shift_n else 0.0,
        non_shift_accuracy=non_c / non_n if non_n else 0.0,
        shift_count=shift_n,
        non_shift_count=non_n,
    )


def multilabel_f1(gold, pred) -> np.ndarray:
    """Per emotion class, the binary weighted F1 over {0, 1} outcomes,
    weighted by that class's binary support."""
    gold = np.asarray(gold, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if gold.shape != pred.shape or gold.ndim != 2:
        raise ValueError(f"gold/pred must be matching binary matrices, "
                         f"got {gold.shape} and {pred.shape}")
    return f1_scores(confusion_matrix(gold.T, pred.T, 2))[1]


@dataclass
class EvalReport:
    accuracy: float
    per_class_f1: list[float]
    weighted_f1: float
    support: list[int]
    confusion: list[list[int]]
    shift_accuracy: float
    non_shift_accuracy: float
    shift_level: str
    label_names: list[str]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def format_table(self) -> str:
        names = [n[:10] for n in self.label_names]
        width = max(8, max(len(n) for n in names) + 2)
        header = "".join(n.rjust(width) for n in names) + "Acc.".rjust(width) + "wF1".rjust(width)
        values = "".join(f"{v * 100:.1f}".rjust(width) for v in self.per_class_f1)
        values += f"{self.accuracy * 100:.1f}".rjust(width)
        values += f"{self.weighted_f1 * 100:.1f}".rjust(width)
        shift = (f"shift acc {self.shift_accuracy * 100:.1f} | "
                 f"non-shift acc {self.non_shift_accuracy * 100:.1f} "
                 f"({self.shift_level} level)")
        return "\n".join([header, values, shift])


def make_report(dialogues: Sequence[Dialogue], preds: Sequence[Sequence[int]],
                label_names: Sequence[str], shift_level: str = "utterance") -> EvalReport:
    """Assemble the full report from per-dialogue gold labels and predictions."""
    gold = [u.label for d in dialogues for u in d.utterances]
    pred = np.concatenate([np.zeros(0, np.int64), *preds])
    cm = confusion_matrix(gold, pred, len(label_names))
    per_class, weighted = f1_scores(cm)
    split = shift_split(dialogues, preds, shift_level)
    return EvalReport(
        accuracy=accuracy(gold, pred),
        per_class_f1=per_class.tolist(),
        weighted_f1=float(weighted),
        support=cm.sum(axis=1).tolist(),
        confusion=cm.tolist(),
        shift_accuracy=split.shift_accuracy,
        non_shift_accuracy=split.non_shift_accuracy,
        shift_level=shift_level,
        label_names=list(label_names),
    )
