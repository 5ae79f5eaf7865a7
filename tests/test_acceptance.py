"""Acceptance suite.

One test per acceptance criterion, each printing a [PASS]/[FAIL] line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them). All
tolerances are pinned here:

  * gradients vs central finite differences (step 1e-5): rel err < 1e-4
  * graph construction vs brute-force enumeration: exact match
  * encoder permutation equivariance: 1e-9
  * metric oracles and forward-pass loop oracles: 1e-12
"""

import json
import math
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from convemo import tensor as T
from convemo.classifier import ClassifierParams, logits_of, loss as clf_loss
from convemo.config import TrainConfig
from convemo.dataset import SynthSpec, synth_corpus, truncate_context
from convemo.encoder import EncoderParams, encode
from convemo.gnn import GraphTransformerParams, RgcnParams, graph_transformer_forward, rgcn_forward
from convemo.graph import (
    FUTURE,
    PAST,
    graph_from_speakers,
    num_relation_types,
    relation_type_id,
)
from convemo.metrics import accuracy, weighted_f1
from convemo.model import ModelDims, ModelParams, dialogue_gold, forward_dialogue
from convemo.tensor import Tensor
from convemo.training import evaluate_model, train
from helpers import check_grads

FD_TOL = 1e-4


def _report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient correctness, layer by layer and end to end

def _attention_case(rng):
    n, d, k = int(rng.integers(2, 6)), int(rng.integers(2, 9)), 3
    x = T.parameter(rng.standard_normal((n, d)))
    wq = T.parameter(rng.standard_normal((d, k)) * 0.5)
    wk = T.parameter(rng.standard_normal((d, k)) * 0.5)
    wv = T.parameter(rng.standard_normal((d, k)) * 0.5)
    probe = Tensor(rng.standard_normal((n, k)))

    def build(tape):
        q = T.matmul(x, wq, tape)
        key = T.matmul(x, wk, tape)
        v = T.matmul(x, wv, tape)
        alpha = T.softmax_rows(
            T.mul_scalar(T.matmul(q, T.transpose(key, tape), tape), 1 / math.sqrt(k), tape), tape)
        return T.sum_all(T.mul(T.matmul(alpha, v, tape), probe, tape), tape)

    return build, [x, wq, wk, wv]


def _layer_norm_case(rng):
    n, d = int(rng.integers(2, 6)), int(rng.integers(2, 9))
    x = T.parameter(rng.standard_normal((n, d)) * 2)
    gamma = T.parameter(rng.standard_normal(d))
    beta = T.parameter(rng.standard_normal(d))
    probe = Tensor(rng.standard_normal((n, d)))

    def build(tape):
        return T.sum_all(T.mul(T.layer_norm(x, gamma, beta, tape=tape), probe, tape), tape)

    return build, [x, gamma, beta]


def _ffn_case(rng):
    n, d, m = int(rng.integers(2, 6)), int(rng.integers(2, 9)), 7
    x = T.parameter(rng.standard_normal((n, d)) + 0.3)
    w1 = T.parameter(rng.standard_normal((d, m)) * 0.5)
    w2 = T.parameter(rng.standard_normal((m, d)) * 0.5)
    probe = Tensor(rng.standard_normal((n, d)))

    def build(tape):
        return T.sum_all(T.mul(
            T.matmul(T.relu(T.matmul(x, w1, tape), tape), w2, tape), probe, tape), tape)

    return build, [x, w1, w2]


def _random_small_graph(rng, n):
    speakers = rng.integers(0, 2, size=n).tolist()
    return graph_from_speakers(speakers, 2, int(rng.integers(0, 3)) or None,
                               int(rng.integers(0, 3)) or None)


def _rgcn_case(rng):
    n, d = int(rng.integers(2, 6)), int(rng.integers(2, 7))
    g = _random_small_graph(rng, n)
    params = RgcnParams.init(d, d, g.relation_count, rng)
    z = T.parameter(rng.standard_normal((n, d)))
    probe = Tensor(rng.standard_normal((n, d)))

    def build(tape):
        return T.sum_all(T.mul(rgcn_forward(z, g, params, tape), probe, tape), tape)

    return build, [z] + list(params.named().values())


def _graph_transformer_case(rng):
    n, d = int(rng.integers(2, 6)), int(rng.integers(2, 7))
    g = _random_small_graph(rng, n)
    params = GraphTransformerParams.init(d, d, 2, rng)
    x = T.parameter(rng.standard_normal((n, d)))
    probe = Tensor(rng.standard_normal((n, d)))

    def build(tape):
        return T.sum_all(T.mul(
            graph_transformer_forward(x, g, params, tape=tape), probe, tape), tape)

    return build, [x] + list(params.named().values())


def _classifier_case(rng):
    n, d, c = int(rng.integers(2, 6)), int(rng.integers(2, 8)), 4
    params = ClassifierParams.init(d, c, rng)
    h = T.parameter(rng.standard_normal((n, d)))
    gold = rng.integers(0, c, size=n)

    def build(tape):
        return clf_loss(logits_of(h, params, tape), gold, "single", tape)

    return build, [h] + list(params.named().values())


def _loss_case(rng):
    n, c = int(rng.integers(2, 6)), int(rng.integers(2, 8))
    logits = T.parameter(rng.standard_normal((n, c)) * 2)
    if rng.integers(0, 2):
        gold = rng.integers(0, c, size=n)
        return (lambda tape: T.cross_entropy_logits(logits, gold, tape)), [logits]
    targets = (rng.random((n, c)) < 0.5).astype(float)
    return (lambda tape: T.bce_with_logits(logits, targets, tape)), [logits]


def _end_to_end_case(rng):
    corpus = synth_corpus(SynthSpec(
        num_dialogues=3, utterances_per_dialogue=int(rng.integers(2, 6)),
        num_speakers=2, num_classes=3, dims={"a": 2, "t": 2, "v": 2},
        seed=int(rng.integers(0, 10_000))))
    config = TrainConfig(seq_context_layers=1, encoder_heads=2, gnn_heads=2,
                         ffn_mult=2, window_past=1, window_future=1).validate()
    dims = ModelDims.for_corpus(corpus, config)
    model = ModelParams.init(config, dims, rng)
    dialogue = corpus.dialogues[0]
    gold = dialogue_gold(dialogue, "single")

    def build(tape):
        result = forward_dialogue(dialogue, model, config, tape=tape)
        return clf_loss(result.logits, gold, "single", tape)

    return build, list(model.named().values())


GRAD_CASES = [
    ("attention", _attention_case),
    ("layer_norm", _layer_norm_case),
    ("ffn", _ffn_case),
    ("rgcn", _rgcn_case),
    ("graph_transformer", _graph_transformer_case),
    ("classifier", _classifier_case),
    ("losses", _loss_case),
    ("end_to_end", _end_to_end_case),
]


def test_gradient_correctness_all_layers():
    t0 = time.time()
    worst = {}
    for name, case in GRAD_CASES:
        rng = np.random.default_rng(zlib.crc32(name.encode()))   # str hashes vary per process
        errs = []
        for _ in range(20):
            build, params = case(rng)
            errs.append(check_grads(build, params))
        worst[name] = max(errs)
    elapsed = time.time() - t0
    bad = {k: v for k, v in worst.items() if v >= FD_TOL}
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items()) + f"; {elapsed:.0f}s"
    _report("gradient correctness (20 instances per layer, rel err < 1e-4)",
            not bad and elapsed < 120, detail)


# ---------------------------------------------------------------------------
# 2. graph construction oracle

def _brute_force(speakers, past, future, mode, self_loops, m):
    n = len(speakers)
    edges = set()
    if self_loops:
        for i in range(n):
            edges.add((i, i, relation_type_id(speakers[i], speakers[i], PAST, m)))
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            rel_p = relation_type_id(speakers[src], speakers[dst], PAST, m)
            rel_f = relation_type_id(speakers[src], speakers[dst], FUTURE, m)
            if mode == "both_directions":
                if src < dst and (past is None or dst - src <= past):
                    edges.add((src, dst, rel_p))
                if src > dst and (future is None or src - dst <= future):
                    edges.add((src, dst, rel_f))
            elif src < dst:
                if past is None or dst - src <= past:
                    edges.add((src, dst, rel_p))
                if future is None or dst - src <= future:
                    edges.add((src, dst, rel_f))
    return edges


def test_graph_construction_matches_brute_force():
    rng = np.random.default_rng(2024)
    windows = [0, 1, 2, 3, 4, 5, None]
    checked = 0
    for _ in range(500):
        n = int(rng.integers(1, 21))
        m = int(rng.integers(1, 5))
        speakers = rng.integers(0, m, size=n).tolist()
        past = windows[rng.integers(0, len(windows))]
        future = windows[rng.integers(0, len(windows))]
        loops = bool(rng.integers(0, 2))
        for mode in ("both_directions", "single_direction"):
            g = graph_from_speakers(speakers, m, past, future, mode, loops)
            want = _brute_force(speakers, past, future, mode, loops, m)
            assert set(g.edges) == want and len(g.edges) == len(want), \
                (speakers, past, future, mode, loops)
            checked += 1
    _report("graph construction vs brute-force oracle (both edge modes)",
            checked == 1000, f"{checked} graphs, exact match")


# ---------------------------------------------------------------------------
# 3. seven-utterance worked example and the relation-count formula

def test_worked_example_and_relation_formula():
    from test_graph import SEVEN_EXPECTED, SEVEN_SPEAKERS

    g = graph_from_speakers(SEVEN_SPEAKERS, 2, None, None)
    ok = g.relation_count == 8
    srcs, dsts, rels = g.edge_arrays.tolist()
    for node, (want_intra, want_inter) in SEVEN_EXPECTED.items():
        got_intra, got_inter = set(), set()
        for src, rel in [(s, r) for s, d, r in zip(srcs, dsts, rels) if d == node]:
            entry = (src, rel // 4)
            if SEVEN_SPEAKERS[src] == SEVEN_SPEAKERS[node]:
                got_intra.add(entry)
            else:
                got_inter.add(entry)
        ok = ok and got_intra == want_intra and got_inter == want_inter
    formula = all(num_relation_types(m) == 2 * m * m for m in (1, 2, 3, 4, 5))
    _report("seven-utterance worked example + 2*M^2 relation formula",
            ok and formula, "relation sets exact for all 7 nodes; M in 1..5")


# ---------------------------------------------------------------------------
# 4. permutation equivariance of the context encoder

def test_encoder_permutation_equivariance():
    rng = np.random.default_rng(7)
    worst = 0.0
    params = None
    for i in range(100):
        if i % 10 == 0:
            params = EncoderParams.init(width=8, num_layers=2, num_heads=2, rng=rng)
        n = int(rng.integers(2, 9))
        x = rng.standard_normal((n, 8)) * 2
        perm = rng.permutation(n)
        out = encode(Tensor(x), params).data
        out_perm = encode(Tensor(x[perm]), params).data
        worst = max(worst, float(np.abs(out_perm - out[perm]).max()))
    _report("encoder permutation equivariance (100 pairs, tol 1e-9)",
            worst < 1e-9, f"worst |diff| {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. metric oracles

def _metric_oracle(gold, pred, c):
    cm = [[0] * c for _ in range(c)]
    for g, p in zip(gold, pred):
        cm[g][p] += 1
    per_class, supports = [], []
    for k in range(c):
        tp = cm[k][k]
        fp = sum(cm[r][k] for r in range(c)) - tp
        fn = sum(cm[k]) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class.append(2 * precision * recall / (precision + recall)
                         if precision + recall else 0.0)
        supports.append(sum(cm[k]))
    total = sum(supports)
    wf1 = sum(f * s for f, s in zip(per_class, supports)) / total if total else 0.0
    acc = sum(cm[k][k] for k in range(c)) / total if total else 0.0
    return per_class, wf1, acc


def test_metric_oracles():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 8))
        n = int(rng.integers(1, 50))
        gold = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        per_class, wf1 = weighted_f1(gold, pred, c)
        want_pc, want_w, want_acc = _metric_oracle(gold.tolist(), pred.tolist(), c)
        worst = max(worst,
                    float(np.abs(per_class - np.asarray(want_pc)).max()),
                    abs(wf1 - want_w),
                    abs(accuracy(gold, pred) - want_acc))
    _, hand = weighted_f1([0, 0, 1], [0, 1, 1], 2)
    hand_ok = abs(hand - 2 / 3) < 1e-12
    _report("metric oracles (1000 random pairs, tol 1e-12; hand case 2/3)",
            worst < 1e-12 and hand_ok, f"worst |diff| {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. overfit smoke test

def test_overfit_feature_solvable_corpus():
    corpus = synth_corpus(SynthSpec(num_dialogues=200, utterances_per_dialogue=8,
                                    num_speakers=2, num_classes=4,
                                    dims={"a": 8, "t": 16, "v": 8}, seed=0))
    config = TrainConfig(learning_rate=1e-3, epochs=50, seq_context_layers=2,
                         encoder_heads=4, gnn_heads=2, window_past=10,
                         window_future=10, dropout=0.1, seed=0,
                         patience=10).validate()
    t0 = time.time()
    result = train(corpus, config)
    elapsed = time.time() - t0
    report = evaluate_model(corpus, result.model, config, "train")
    _report("overfit smoke (train acc >= 99% within 50 epochs, < 5 min)",
            report.accuracy >= 0.99 and len(result.history) <= 50 and elapsed < 300,
            f"train acc {report.accuracy:.4f} in {len(result.history)} epochs, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. ablation and context-truncation direction

def test_ablation_and_context_direction():
    corpus = synth_corpus(SynthSpec(num_dialogues=120, utterances_per_dialogue=8,
                                    num_speakers=2, num_classes=4,
                                    dims={"a": 8, "t": 16, "v": 8},
                                    dependency="neighbor", seed=1))
    base = TrainConfig(learning_rate=1.5e-3, epochs=12, seq_context_layers=1,
                       encoder_heads=2, gnn_heads=2, window_past=1, window_future=1,
                       dropout=0.1, patience=20).validate()
    seeds = [0, 1, 2]
    t0 = time.time()

    def score(corpus_, cfg, seed):
        cfg = cfg.with_overrides(seed=seed)
        result = train(corpus_, cfg)
        return evaluate_model(corpus_, result.model, cfg, "test").weighted_f1

    full = [score(corpus, base, s) for s in seeds]
    no_gnn = [score(corpus, base.with_overrides(ablation="no_gnn"), s) for s in seeds]
    truncated = truncate_context(corpus, 1)
    n1 = [score(truncated, base, s) for s in seeds]
    elapsed = time.time() - t0

    gap_gnn = float(np.median(full) - np.median(no_gnn))
    gap_ctx = float(np.median(full) - np.median(n1))
    detail = (f"median wF1 full {np.median(full):.3f}, no_gnn {np.median(no_gnn):.3f}, "
              f"n=1 {np.median(n1):.3f}; {elapsed:.0f}s")
    _report("ablation direction (full > no_gnn and full > n=1 by >= 5 points, < 15 min)",
            gap_gnn >= 0.05 and gap_ctx >= 0.05 and elapsed < 900, detail)


# ---------------------------------------------------------------------------
# 8. training determinism through the CLI

def test_cli_train_determinism(tmp_path):
    from convemo.cli import main

    fixtures = Path(__file__).parent / "fixtures"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"seq_context_layers": 1, "encoder_heads": 2,
                                    "gnn_heads": 2, "epochs": 3,
                                    "learning_rate": 0.002, "window_past": 2,
                                    "window_future": 2, "patience": 20}))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["train", "--corpus", str(fixtures / "tiny_corpus.jsonl"),
                     "--config", str(cfg_path), "--seed", "11", "--out", str(out)])
        assert code == 0
        outs.append(out)
    history_same = (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()
    ckpt_same = (outs[0] / "checkpoint.json").read_bytes() == (outs[1] / "checkpoint.json").read_bytes()
    _report("determinism (byte-identical history and checkpoint for same seed)",
            history_same and ckpt_same)


# ---------------------------------------------------------------------------
# 9. forward equivalence of the graph layers against loop oracles

def test_graph_layers_match_loop_oracles():
    from test_gnn import gt_loop_oracle, rgcn_loop_oracle

    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        speakers = rng.integers(0, m, size=n).tolist()
        past = [0, 1, 2, None][rng.integers(0, 4)]
        future = [0, 1, 2, None][rng.integers(0, 4)]
        mode = ("both_directions", "single_direction")[rng.integers(0, 2)]
        g = graph_from_speakers(speakers, m, past, future, mode)
        d = int(rng.integers(2, 7))
        z = rng.standard_normal((n, d))

        rgcn = RgcnParams.init(d, d, g.relation_count, rng)
        got = rgcn_forward(Tensor(z), g, rgcn).data
        want = rgcn_loop_oracle(z, g, rgcn.theta_root.data, [t.data for t in rgcn.thetas])
        worst = max(worst, float(np.abs(got - want).max()))

        gt = GraphTransformerParams.init(d, d, int(rng.integers(1, 4)), rng)
        got = graph_transformer_forward(Tensor(z), g, gt).data
        want = gt_loop_oracle(z, g, gt)
        worst = max(worst, float(np.abs(got - want).max()))
    _report("rgcn/graph-transformer forward vs loop oracles (200 graphs, tol 1e-12)",
            worst < 1e-12, f"worst |diff| {worst:.2e}")
