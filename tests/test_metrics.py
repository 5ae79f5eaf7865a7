import json

import numpy as np
import pytest

from convemo.dataset import Corpus, Dialogue, Utterance
from convemo.metrics import (
    EvalReport,
    accuracy,
    confusion_matrix,
    f1_scores,
    make_report,
    multilabel_f1,
    shift_split,
    weighted_f1,
)


def confusion_oracle(gold, pred, c):
    """Independent recomputation by explicit counting."""
    cm = [[0] * c for _ in range(c)]
    for g, p in zip(gold, pred):
        cm[g][p] += 1
    return cm


def f1_oracle(gold, pred, c):
    """Per-class precision/recall/F1 from the counted confusion matrix."""
    cm = confusion_oracle(gold, pred, c)
    per_class = []
    for k in range(c):
        tp = cm[k][k]
        fp = sum(cm[r][k] for r in range(c)) - tp
        fn = sum(cm[k]) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(f1)
    supports = [sum(cm[k]) for k in range(c)]
    total = sum(supports)
    weighted = sum(f * s for f, s in zip(per_class, supports)) / total if total else 0.0
    return per_class, weighted


def test_perfect_prediction():
    gold = [0, 1, 2, 1, 0]
    per_class, weighted = weighted_f1(gold, gold, 3)
    np.testing.assert_allclose(per_class, np.ones(3))
    assert weighted == 1.0
    assert accuracy(gold, gold) == 1.0


def test_hand_expanded_case():
    # gold=[0,0,1], pred=[0,1,1]: both classes come out at F1 = 2/3,
    # weighted by supports (2, 1) the average stays 2/3
    per_class, weighted = weighted_f1([0, 0, 1], [0, 1, 1], 2)
    np.testing.assert_allclose(per_class, [2 / 3, 2 / 3], atol=1e-15)
    assert abs(weighted - 2 / 3) < 1e-12


def test_weighted_f1_matches_confusion_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(1, 60))
        gold = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        per_class, weighted = weighted_f1(gold, pred, c)
        want_pc, want_w = f1_oracle(gold.tolist(), pred.tolist(), c)
        np.testing.assert_allclose(per_class, want_pc, atol=1e-12)
        assert abs(weighted - want_w) < 1e-12


def test_row_wise_scores_equal_weighted_f1_of_each_row_to_the_bit():
    # mask_importance scores a chunk of copies at once: R rows of predictions
    # against one gold sequence, from one R x c x c confusion tensor
    rng = np.random.default_rng(8)
    c, n = 6, 30
    gold = rng.integers(0, 4, size=n)           # classes 4 and 5 never in gold
    preds = rng.integers(0, 5, size=(9, n))     # class 5 never predicted
    preds[3] = 2                                # every pred in one class
    preds[4] = gold
    cm = confusion_matrix(gold, preds, c)
    per_class, weighted = f1_scores(cm)
    assert cm.shape == (9, c, c) and per_class.shape == (9, c) and weighted.shape == (9,)
    for r in range(9):
        np.testing.assert_array_equal(cm[r], confusion_oracle(gold, preds[r], c))
        want_pc, want_w = weighted_f1(gold, preds[r], c)
        assert per_class[r].tobytes() == want_pc.tobytes()
        assert weighted[r].tobytes() == np.float64(want_w).tobytes()
    assert weighted[4] == 1.0 and (per_class[3, [0, 1, 3, 4, 5]] == 0.0).all()
    # R x n golds: each row of predictions against its own
    golds = rng.integers(0, c, size=(9, n))
    per_class, weighted = f1_scores(confusion_matrix(golds, preds, c))
    for r in range(9):
        want_pc, want_w = weighted_f1(golds[r], preds[r], c)
        assert per_class[r].tobytes() == want_pc.tobytes()
        assert weighted[r].tobytes() == np.float64(want_w).tobytes()
    for bad_gold, bad_pred in ((gold[:-1], preds), (gold, preds[None]), (golds[:3], preds),
                               (np.int64(1), preds[0])):
        with pytest.raises(ValueError, match="gold and pred lengths differ"):
            confusion_matrix(bad_gold, bad_pred, c)
    with pytest.raises(ValueError, match="out of range for 4 classes"):   # a pred of 4
        confusion_matrix(gold, preds, 4)


def test_accuracy_cases():
    assert accuracy([1, 2, 3], [0, 0, 0]) == 0.0
    rng = np.random.default_rng(1)
    gold = rng.integers(0, 4, size=50)
    pred = rng.integers(0, 4, size=50)
    want = sum(int(g == p) for g, p in zip(gold, pred)) / 50
    assert accuracy(gold, pred) == want
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([1, 2], [1])


def test_accuracy_is_trace_over_total():
    rng = np.random.default_rng(2)
    gold = rng.integers(0, 3, size=40)
    pred = rng.integers(0, 3, size=40)
    cm = confusion_matrix(gold, pred, 3)
    assert accuracy(gold, pred) == np.trace(cm) / cm.sum()
    assert cm.sum() == 40


def test_weighted_f1_invariant_under_label_permutation():
    rng = np.random.default_rng(3)
    gold = rng.integers(0, 4, size=80)
    pred = rng.integers(0, 4, size=80)
    perm = rng.permutation(4)
    _, w1 = weighted_f1(gold, pred, 4)
    _, w2 = weighted_f1(perm[gold], perm[pred], 4)
    assert abs(w1 - w2) < 1e-12


def _dialogue(labels, speakers=None, did="d0"):
    speakers = speakers or [0] * len(labels)
    utts = [Utterance(speaker=s, label=l, audio=np.zeros(1))
            for s, l in zip(speakers, labels)]
    return Dialogue(did, max(speakers) + 1, "test", utts)


def test_shift_constant_dialogue_all_non_shift():
    d = _dialogue([2, 2, 2, 2])
    split = shift_split([d], [[2, 2, 2, 2]])
    assert split.shift_count == 0
    assert split.non_shift_count == 4
    assert split.non_shift_accuracy == 1.0


def test_shift_alternating_labels():
    d = _dialogue([0, 1, 0, 1])
    split = shift_split([d], [[0, 0, 0, 0]])
    assert split.shift_count == 3  # all but the first
    assert split.non_shift_count == 1
    assert split.non_shift_accuracy == 1.0
    assert abs(split.shift_accuracy - 1 / 3) < 1e-12


def test_shift_speaker_level_uses_same_speaker_reference():
    # speakers alternate; each speaker's own sequence is constant
    d = _dialogue([0, 1, 0, 1], speakers=[0, 1, 0, 1])
    split = shift_split([d], [[0, 1, 0, 1]], level="speaker")
    assert split.shift_count == 0
    assert split.non_shift_count == 4


def test_shift_matches_naive_scan():
    rng = np.random.default_rng(4)
    dialogues, preds = [], []
    for i in range(20):
        n = int(rng.integers(1, 12))
        speakers = rng.integers(0, 3, size=n).tolist()
        labels = rng.integers(0, 4, size=n).tolist()
        dialogues.append(_dialogue(labels, [s for s in speakers], did=f"d{i}"))
        preds.append(rng.integers(0, 4, size=n).tolist())
    # speaker ids reused by the next dialogue: "r1" opens with speakers 0 and 1,
    # whose last labels in "r0" (2 and 1) differ from theirs, so a reference
    # carried over from "r0" would count them as shifts
    dialogues += [_dialogue([1, 1, 2], [0, 1, 0], did="r0"), _dialogue([3, 2, 2], [0, 1, 1], did="r1")]
    preds += [[1, 1, 2], [3, 0, 2]]
    for level in ("utterance", "speaker"):
        got = shift_split(dialogues, preds, level)
        shift = [0, 0]
        non = [0, 0]
        for d, p in zip(dialogues, preds):
            labels = [u.label for u in d.utterances]
            speakers = [u.speaker for u in d.utterances]
            for idx in range(len(labels)):
                if level == "utterance":
                    ref = labels[idx - 1] if idx > 0 else None
                else:
                    ref = None
                    for j in range(idx - 1, -1, -1):
                        if speakers[j] == speakers[idx]:
                            ref = labels[j]
                            break
                bucket = shift if (ref is not None and labels[idx] != ref) else non
                bucket[0] += int(p[idx] == labels[idx])
                bucket[1] += 1
        assert got.shift_count == shift[1] and got.non_shift_count == non[1]
        assert got.shift_count + got.non_shift_count == sum(len(d) for d in dialogues)
        assert got.shift_accuracy == (shift[0] / shift[1] if shift[1] else 0.0)
        assert got.non_shift_accuracy == (non[0] / non[1] if non[1] else 0.0)
        only = shift_split(dialogues[-1:], preds[-1:], level)   # "r1" alone
        assert (only.shift_count, only.non_shift_count) == ((1, 2) if level == "utterance" else (0, 3))


def test_shift_alignment_errors():
    d = _dialogue([0, 1])
    with pytest.raises(ValueError):
        shift_split([d], [[0]])
    with pytest.raises(ValueError):
        shift_split([d], [[0, 1], [0]])


def test_multilabel_perfect():
    gold = np.array([[1, 0], [0, 1], [1, 1]])
    np.testing.assert_allclose(multilabel_f1(gold, gold), [1.0, 1.0])


def test_multilabel_all_zero_predictor():
    gold = np.array([[1], [0], [1], [0]])
    pred = np.zeros_like(gold)
    # class-1 side has F1 0 (no predictions), class-0 side F1 = 2/3;
    # binary supports are 2 and 2
    out = multilabel_f1(gold, pred)
    zero_side = 2 * (0.5 * 1.0) / (0.5 + 1.0)
    np.testing.assert_allclose(out, [(zero_side * 2 + 0.0 * 2) / 4])


def test_multilabel_matches_binary_confusion_oracle():
    rng = np.random.default_rng(5)
    gold = (rng.random((30, 4)) < 0.4).astype(int)
    pred = (rng.random((30, 4)) < 0.5).astype(int)
    got = multilabel_f1(gold, pred)
    for c in range(4):
        _, want = f1_oracle(gold[:, c].tolist(), pred[:, c].tolist(), 2)
        assert abs(got[c] - want) < 1e-12


def test_report_consistency_and_json():
    rng = np.random.default_rng(6)
    dialogues, preds = [], []
    for i in range(5):
        n = int(rng.integers(1, 8))
        labels = rng.integers(0, 3, size=n).tolist()
        dialogues.append(_dialogue(labels, did=f"d{i}"))
        preds.append(rng.integers(0, 3, size=n).tolist())
    report = make_report(dialogues, preds, ["a", "b", "c"])
    total = sum(len(d) for d in dialogues)
    cm = np.asarray(report.confusion)
    assert cm.sum() == total
    np.testing.assert_array_equal(cm.sum(axis=1), report.support)
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.weighted_f1 <= 1.0
    payload = json.loads(report.to_json())
    assert payload["label_names"] == ["a", "b", "c"]
    rebuilt = EvalReport(**payload)
    assert rebuilt.weighted_f1 == report.weighted_f1
    table = report.format_table()
    assert "Acc." in table and "wF1" in table
