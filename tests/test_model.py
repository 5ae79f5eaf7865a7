from dataclasses import replace

import numpy as np
import pytest

from convemo import tensor as T
from convemo.classifier import classify
from convemo.config import TrainConfig
from convemo.dataset import Corpus, CorpusError, Dialogue, SynthSpec, Utterance, synth_corpus
from convemo.encoder import encode
from convemo.gnn import graph_transformer_forward, rgcn_forward
from convemo.graph import collapse_relations, graph_from_speakers, speaker_graph
from convemo.model import (
    ModelDims,
    ModelParams,
    dialogue_gold,
    forward_dialogue,
    forward_fused,
    forward_graphs,
    fused_matrix,
)
from convemo.tensor import Tensor
from convemo.training import Adam, load_checkpoint, save_checkpoint
from helpers import FD_TOL, check_grads


def _small_setup(ablation="full", seed=0, num_speakers=2):
    corpus = synth_corpus(SynthSpec(num_dialogues=4, utterances_per_dialogue=3,
                                    num_speakers=num_speakers, num_classes=3,
                                    dims={"a": 2, "t": 3, "v": 2}, seed=seed))
    config = TrainConfig(seq_context_layers=1, encoder_heads=2, gnn_heads=2,
                         window_past=1, window_future=1, ablation=ablation,
                         seed=seed).validate()
    dims = ModelDims.for_corpus(corpus, config)
    model = ModelParams.init(config, dims, np.random.default_rng(seed))
    return corpus, config, model


def test_forward_matches_hand_composed_pipeline():
    corpus, config, model = _small_setup()
    d = corpus.dialogues[0]
    got = forward_dialogue(d, model, config)

    x = Tensor(fused_matrix(d, config.active_modalities))
    z = encode(x, model.encoder)
    g = graph_from_speakers(d.speakers, model.dims.num_speakers,
                            config.window_past, config.window_future,
                            config.edge_mode, config.self_loops)
    hid = rgcn_forward(z, g, model.rgcn)
    h = graph_transformer_forward(hid, g, model.graph_attention)
    out = classify(h, model.classifier, "single")

    np.testing.assert_array_equal(got.probs.data, out.probs.data)
    np.testing.assert_array_equal(got.preds, out.preds)
    np.testing.assert_array_equal(got.context.data, z.data)
    np.testing.assert_array_equal(got.graph_out.data, h.data)


def test_no_gnn_equals_encoder_plus_classifier():
    corpus, config, model = _small_setup(ablation="no_gnn")
    d = corpus.dialogues[1]
    got = forward_dialogue(d, model, config)
    x = Tensor(fused_matrix(d, config.active_modalities))
    z = encode(x, model.encoder)
    out = classify(z, model.classifier, "single")
    np.testing.assert_array_equal(got.probs.data, out.probs.data)
    np.testing.assert_array_equal(got.graph_out.data, z.data)


def test_no_relations_uses_collapsed_graph():
    corpus, config, model = _small_setup(ablation="no_relations")
    assert model.rgcn.relation_count == 1
    d = corpus.dialogues[2]
    got = forward_dialogue(d, model, config)
    x = Tensor(fused_matrix(d, config.active_modalities))
    z = encode(x, model.encoder)
    g = collapse_relations(graph_from_speakers(d.speakers, model.dims.num_speakers,
                                               config.window_past, config.window_future,
                                               config.edge_mode, config.self_loops))
    hid = rgcn_forward(z, g, model.rgcn)
    h = graph_transformer_forward(hid, g, model.graph_attention)
    out = classify(h, model.classifier, "single")
    np.testing.assert_array_equal(got.probs.data, out.probs.data)


def test_forward_dialogue_stacks_a_sequence_of_dialogues():
    corpus, config, model = _small_setup(num_speakers=3)
    stacked = forward_dialogue(corpus.dialogues[:3], model, config)
    for b, d in enumerate(corpus.dialogues[:3]):
        want = forward_dialogue(d, model, config).logits.data
        assert np.abs(stacked.logits.data[b] - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("active", ["a", "t", "v", "at", "av", "tv", "atv"])
def test_stacked_fused_matrix_equals_per_dialogue_stacking(active):
    widths = {"a": 2, "t": 3, "v": 5}
    corpus = synth_corpus(SynthSpec(num_dialogues=5, utterances_per_dialogue=4, dims=widths,
                                    seed=3))
    want = np.stack([np.stack([np.concatenate([{"a": u.audio, "t": u.text, "v": u.video}[k]
                                               for k in "atv" if k in active])
                               for u in d.utterances]) for d in corpus.dialogues])
    got = fused_matrix(corpus.dialogues, active)
    assert got.shape == want.shape == (5, 4, sum(widths[k] for k in active))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for d, one in zip(corpus.dialogues, want):
        assert fused_matrix(d, active).tobytes() == one.tobytes()


def test_stacked_fused_matrix_refuses_a_missing_modality_and_mixed_lengths():
    corpus = synth_corpus(SynthSpec(num_dialogues=3, utterances_per_dialogue=5,
                                    dims={"a": 2, "t": 3, "v": 5}, seed=4))
    d0, d1, d2 = corpus.dialogues
    d1.utterances[2] = replace(d1.utterances[2], video=None)
    for given in ([d0, d1, d2], d1):
        with pytest.raises(CorpusError) as info:
            fused_matrix(given, "atv")
        assert str(info.value) == "utterance is missing requested modality 'v'"
    assert fused_matrix([d0, d1, d2], "ta").shape == (3, 5, 5)
    # 3 + 5 rows would fill a (2, 4, d) stack: refused, not reshaped
    short = Dialogue("short", 2, "test", d0.utterances[:3])
    for given in ([short, d2], [d2, short, d2], []):
        with pytest.raises(T.ShapeError) as info:
            fused_matrix(given, "atv")
        assert len(str(info.value).splitlines()) == 1 and "one length" in str(info.value)
    _, config, model = _small_setup()
    with pytest.raises(T.ShapeError, match=r"one length, not \[3, 5\]"):
        forward_dialogue([short, d2], model, config)


@pytest.mark.parametrize("ablation", ["full", "no_relations", "no_gnn"])
@pytest.mark.parametrize("stacked", [True, False])
def test_speakers_must_match_the_stack_depth(ablation, stacked):
    # a stack takes one speakers sequence per copy and a 2-D input one flat
    # sequence, in every ablation: refused in one line before any forward runs
    corpus, config, model = _small_setup(ablation=ablation)
    d = corpus.dialogues[0]
    x = fused_matrix(d, config.active_modalities)
    data, speakers, given = ((np.stack([x, x]), d.speakers, "one flat speakers sequence")
                             if stacked else (x, [d.speakers, d.speakers], "2 speakers sequences"))
    with pytest.raises(T.ShapeError) as err:
        forward_fused(Tensor(data), speakers, model, config)
    message = str(err.value)
    assert given in message and "one speakers sequence per copy" in message
    assert len(message.splitlines()) == 1
    # speakers of the right depth but the wrong count or lengths
    data, speakers, given = ((np.stack([x, x]), [[0], [1, 2, 3, 4, 5], [0]], "3 speakers sequences")
                             if stacked else (x, d.speakers[:2], "one flat speakers sequence"))
    with pytest.raises(T.ShapeError) as err:
        forward_fused(Tensor(data), speakers, model, config)
    message = str(err.value)
    assert given in message and "one id per row" in message and len(message.splitlines()) == 1


@pytest.mark.parametrize("ablation", ["full", "no_relations", "no_gnn"])
def test_taped_stacked_forward_gradients_equal_the_sum_of_per_dialogue_backwards(ablation):
    """One backward through a stacked forward of three same-length dialogues,
    each with its own graph, gives every parameter the sum of the gradients of
    three per-dialogue backwards: the tape composes through the encoder, the
    per-copy RGCN mean matrices and the masked graph attention."""
    corpus, config, model = _small_setup(ablation=ablation, num_speakers=3)
    config = replace(config, dropout=0.0)
    dialogues = corpus.dialogues[:3]
    speakers = [d.speakers for d in dialogues]
    assert len({tuple(s) for s in speakers}) == 3
    xs = [fused_matrix(d, config.active_modalities) for d in dialogues]
    probe = np.random.default_rng(4).standard_normal((3, 3, model.dims.num_classes))

    def grads(*runs):
        model.zero_grads()
        for x, s, p in runs:
            tape = T.Tape()
            out = forward_fused(Tensor(x), s, model, config, training=True,
                                rng=np.random.default_rng(0), tape=tape)
            T.backward(T.sum_all(T.mul(out.logits, Tensor(p), tape), tape), tape)
        return {name: None if t.grad is None else t.grad.copy()
                for name, t in model.named().items()}

    stacked = grads((np.stack(xs), speakers, probe))
    per_dialogue = grads(*zip(xs, speakers, probe))
    # every parameter gets a gradient, and the relation types no dialogue uses
    # an exact zero slice of theta's, in both runs
    assert all(g is not None for g in per_dialogue.values())
    if model.rgcn is not None:
        graphs = forward_graphs(speakers, (3, 3, 0), model, config)
        unused = sorted(set(range(model.rgcn.relation_count))
                        - {rel for g in graphs for *_, rel in g.edges})
        assert unused or ablation == "no_relations"
        for grads in (stacked, per_dialogue):
            assert not grads["rgcn.theta"][unused].any()
    for name, want in per_dialogue.items():
        got = stacked[name]
        if want is None:
            assert got is None, name
        else:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def test_eval_forward_is_bitwise_deterministic():
    corpus, config, model = _small_setup()
    d = corpus.dialogues[0]
    a = forward_dialogue(d, model, config)
    b = forward_dialogue(d, model, config)
    np.testing.assert_array_equal(a.probs.data, b.probs.data)
    np.testing.assert_array_equal(a.preds, b.preds)


def test_parameter_count_ordering_across_ablations():
    counts = {}
    for ablation in ("full", "no_relations", "no_gnn"):
        _, _, model = _small_setup(ablation=ablation)
        counts[ablation] = model.arena.data.size
    assert counts["no_gnn"] < counts["no_relations"] < counts["full"]


def test_relation_parameter_space_sized_by_corpus_speakers():
    _, _, model2 = _small_setup(num_speakers=2)
    _, _, model3 = _small_setup(num_speakers=3)
    assert model2.rgcn.relation_count == 8
    assert model3.rgcn.relation_count == 18


def test_snapshot_restore_roundtrip():
    # a flat copy of the arena is a snapshot, and one copy back restores the
    # model, since every parameter is a view into the arena
    corpus, config, model = _small_setup()
    snap = model.arena.data.copy()
    d = corpus.dialogues[0]
    before = forward_dialogue(d, model, config).probs.data.copy()
    for t in model.named().values():
        t.data += 1.0
    after = forward_dialogue(d, model, config).probs.data
    assert not np.array_equal(before, after)
    np.copyto(model.arena.data, snap)
    restored = forward_dialogue(d, model, config).probs.data
    np.testing.assert_array_equal(before, restored)


def test_dialogue_gold_modes():
    u1 = Utterance(speaker=0, label=2, audio=np.zeros(1))
    u2 = Utterance(speaker=0, label=0, audio=np.zeros(1))
    d = Dialogue("x", 1, "train", [u1, u2])
    np.testing.assert_array_equal(dialogue_gold(d, "single"), [2, 0])
    m1 = Utterance(speaker=0, label=np.array([1.0, 0.0]), audio=np.zeros(1))
    dm = Dialogue("y", 1, "train", [m1])
    np.testing.assert_array_equal(dialogue_gold(dm, "multi"), [[1.0, 0.0]])


@pytest.mark.parametrize("ablation", ["full", "no_gnn", "no_relations"])
def test_end_to_end_gradients(ablation):
    from convemo.classifier import loss as clf_loss

    corpus, config, model = _small_setup(ablation=ablation, seed=3)
    d = corpus.dialogues[0]
    gold = dialogue_gold(d, "single")
    groups = list(model.named().values())

    def build(tape):
        result = forward_dialogue(d, model, config, tape=tape)
        return clf_loss(result.logits, gold, "single", tape)

    err = check_grads(build, groups)
    assert err < FD_TOL, f"end-to-end ({ablation}) rel err {err:.3e}"


def test_capture_exposes_stage_outputs():
    corpus, config, model = _small_setup()
    d = corpus.dialogues[0]
    capture = {}
    result = forward_dialogue(d, model, config, capture=capture)
    assert len(capture["attention"]) == config.seq_context_layers
    assert len(capture["attention"][0]) == config.encoder_heads
    assert len(capture["graph_attention"]) == config.gnn_heads
    for alpha in (*capture["attention"][0], *capture["graph_attention"]):
        assert alpha.shape == (len(d), len(d))
    assert result.context.shape == (len(d), model.dims.width)


def test_default_forward_records_one_op_per_attention_layer():
    # at the default config (4 encoder layers of 4 heads, 7 graph heads) an
    # attention layer is one projection op and one attention op, not a few
    # ops per head: 12 ops per encoder layer, 4 for the RGCN, 3 for the graph
    # transformer and 6 for the classifier's logits and the loss
    from convemo.classifier import loss as clf_loss

    corpus = synth_corpus(SynthSpec(num_dialogues=2, utterances_per_dialogue=6, num_speakers=2,
                                    num_classes=4, dims={"a": 4, "t": 8, "v": 4}, seed=1))
    config = TrainConfig().validate()
    model = ModelParams.init(config, ModelDims.for_corpus(corpus, config),
                             np.random.default_rng(0))
    d = corpus.dialogues[0]
    tape = T.Tape()
    out = forward_dialogue(d, model, config, training=True, rng=np.random.default_rng(1),
                           tape=tape)
    clf_loss(out.logits, dialogue_gold(d, "single"), "single", tape)
    ops = [op for op, *_ in tape.entries]
    assert len(ops) == 61
    assert ops.count("attention") == config.seq_context_layers + 1


@pytest.mark.parametrize("task_mode", ["single", "multi"])
@pytest.mark.parametrize("ablation", ["full", "no_relations", "no_gnn"])
def test_a_training_tape_holds_the_logits_but_not_the_probabilities(ablation, task_mode):
    # losses read the logits only, so nothing on a tape differentiates the
    # probabilities; they and the predictions are read off the logits' values
    corpus, config, _ = _small_setup(ablation=ablation)
    dims = replace(ModelDims.for_corpus(corpus, config), task_mode=task_mode)
    model = ModelParams.init(config, dims, np.random.default_rng(4))
    d = corpus.dialogues[0]
    tape = T.Tape()
    taped = forward_dialogue(d, model, config, training=True, rng=np.random.default_rng(5),
                             tape=tape)
    ops = [op for op, *_ in tape.entries]
    assert "softmax_rows" not in ops and "sigmoid" not in ops
    assert tape.entries[-1][2] is taped.logits
    untaped = forward_dialogue(d, model, config, training=True, rng=np.random.default_rng(5))
    assert taped.probs.data.tobytes() == untaped.probs.data.tobytes()
    assert taped.preds.tobytes() == untaped.preds.tobytes()
    assert taped.preds.shape == ((len(d),) if task_mode == "single" else (len(d), 3))


def test_each_layer_multiplies_its_weights_as_one_span_of_the_arena(tmp_path):
    # every encoder layer's q/k/v and the graph transformer's matrices lie end
    # to end in the arena, each still its view, so one batched matmul reads
    # them as one span, in a fresh model and in a loaded one; the RGCN's one
    # op reads its (R, d, d') theta, also a view of the arena
    corpus = synth_corpus(SynthSpec(num_dialogues=2, utterances_per_dialogue=3, num_speakers=2,
                                    num_classes=3, dims={"a": 2, "t": 3, "v": 2}, seed=2))
    d = corpus.dialogues[0]
    for u, speaker in zip(d.utterances, (0, 0, 1)):
        u.speaker = speaker   # relation types 0, 1, 3, 4 and 6, with self loops
    config = TrainConfig(window_past=1, window_future=1).validate()
    model = ModelParams.init(config, ModelDims.for_corpus(corpus, config),
                             np.random.default_rng(0))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, config, Adam(model.named(), 1e-3).state_dict(), 0, 0.5,
                    corpus.label_names)
    for m in (model, load_checkpoint(path).model):
        tape = T.Tape()
        forward_dialogue(d, m, config, training=True, rng=np.random.default_rng(1), tape=tape)
        lists = [list(inputs[1:]) for op, inputs, *_ in tape.entries if op == "block_matmul"]
        *qkv, projections = lists
        named = m.named()
        assert qkv == [[named[f"encoder.layer{li}.head{h}.{w}"]
                        for h in range(m.encoder.num_heads) for w in ("wq", "wk", "wv")]
                       for li in range(len(m.encoder.layers))]
        assert projections == [named[f"graph_attention.head{h}.{w}"]
                               for h in range(m.graph_attention.num_heads)
                               for w in ("w_self", "w_msg", "w_key_self", "w_key_nbr")]
        [theta] = [inputs[1] for op, inputs, *_ in tape.entries if op == "relation_matmul"]
        assert theta is named["rgcn.theta"] and theta.data is theta._view
        assert theta.data.base is m.arena.data and theta.shape == (8, m.dims.width, m.dims.width)
        for weights in (*qkv, projections):
            size = weights[0].data.size
            assert all(w.arena is m.arena and w.data is w._view for w in weights)
            assert [w._at for w in weights] == [weights[0]._at + i * size
                                                for i in range(len(weights))]
            span = T._span(m.arena.data, weights[0], len(weights))
            assert span.base is m.arena.data
            assert all(np.shares_memory(s, w.data) for s, w in zip(span, weights))


def test_graph_memo_key_covers_every_graph_field():
    # one speaker sequence under configs that each differ from the first in
    # one graph field; every config must find its own graph in the memo
    speakers = [0, 1, 1, 0, 1]
    base = TrainConfig(seq_context_layers=1, encoder_heads=2, gnn_heads=2,
                       window_past=1, window_future=1, seed=0).validate()
    variants = [(base, 2), (replace(base, window_past=2), 2),
                (replace(base, window_future=3), 2),
                (replace(base, edge_mode="single_direction"), 2),
                (replace(base, self_loops=False), 2),
                (replace(base, ablation="no_relations"), 2), (base, 3)]
    x = Tensor(np.random.default_rng(1).standard_normal((len(speakers), 6)))
    runs = [(config, ModelParams.init(config, ModelDims(6, 3, m), np.random.default_rng(2)))
            for config, m in variants]

    def logits(k):
        config, model = runs[k]
        return forward_fused(x, speakers, model, config).logits.data

    fresh = []
    for k in range(len(runs)):
        speaker_graph.cache_clear()
        fresh.append(logits(k))
    speaker_graph.cache_clear()
    for k in [0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, *range(len(runs))]:
        assert np.array_equal(logits(k), fresh[k]), variants[k]
    assert speaker_graph.cache_info().hits >= 13
