"""Shared two-layer emotion classifier.

A ReLU hidden layer followed by a linear output layer. Single-label
mode turns logits into a softmax distribution and predicts the argmax
(lowest class index wins ties); multi-label mode thresholds element-wise
logistic probabilities into a binary vector. Losses read only the logits,
so only they go on a tape: probabilities and predictions are read off them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tape, Tensor


@dataclass
class ClassifierParams:
    w1: Tensor   # d'' x h
    b1: Tensor   # h
    w2: Tensor   # h x C
    b2: Tensor   # C

    @classmethod
    def init(cls, d_in: int, num_classes: int, rng: np.random.Generator | T.Init,
             hidden: int | None = None) -> "ClassifierParams":
        h = hidden or -(-d_in // 2)  # half the input width, rounded up
        if h < 1 or num_classes < 1:
            raise ValueError("classifier sizes must be positive")
        init = T.Init.of(rng)
        return cls(w1=init.xavier((d_in, h)), b1=init.fill((h,), 0.0),
                   w2=init.xavier((h, num_classes)), b2=init.fill((num_classes,), 0.0))

    def named(self, prefix: str = "classifier") -> dict[str, Tensor]:
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}


@dataclass
class ClassifierOutput:
    probs: Tensor        # n x C
    preds: np.ndarray    # (n,) class ids, or (n, C) binary in multi mode
    logits: Tensor       # n x C, kept for loss computation


def logits_of(h: Tensor, params: ClassifierParams, tape: Tape | None = None) -> Tensor:
    hidden = T.relu(T.add_bias(T.matmul(h, params.w1, tape), params.b1, tape), tape)
    return T.add_bias(T.matmul(hidden, params.w2, tape), params.b2, tape)


def classify(h: Tensor, params: ClassifierParams, mode: str = "single",
             threshold: float = 0.5, tape: Tape | None = None) -> ClassifierOutput:
    logits = logits_of(h, params, tape)
    if mode == "single":
        probs = T.softmax_rows(logits)
        preds = probs.data.argmax(axis=-1)  # argmax takes the first max: lowest index
    elif mode == "multi":
        probs = Tensor(T._stable_sigmoid(logits.data))
        preds = (probs.data >= threshold).astype(np.int64)
    else:
        raise ValueError(f"mode must be 'single' or 'multi', got '{mode}'")
    return ClassifierOutput(probs, preds, logits)


def loss(logits: Tensor, gold, mode: str = "single", tape: Tape | None = None) -> Tensor:
    """Mean cross-entropy (single) or mean per-class binary cross-entropy (multi)."""
    if mode == "single":
        return T.cross_entropy_logits(logits, np.asarray(gold, dtype=np.int64), tape)
    if mode == "multi":
        return T.bce_with_logits(logits, np.asarray(gold, dtype=np.float64), tape)
    raise ValueError(f"mode must be 'single' or 'multi', got '{mode}'")
