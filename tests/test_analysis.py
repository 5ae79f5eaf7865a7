import numpy as np
import pytest

from convemo.analysis import dump_embeddings, run_ablation, run_context_sweep, run_window_sweep
from convemo.config import ConfigError, TrainConfig
from convemo.dataset import Corpus, Dialogue, SynthSpec, Utterance, synth_corpus
from convemo.encoder import encode
from convemo.model import ModelDims, ModelParams, fused_matrix
from convemo.tensor import Tensor
from convemo.training import evaluate_multilabel, train


def _corpus(dependency="none", n=16, seed=0):
    return synth_corpus(SynthSpec(num_dialogues=n, utterances_per_dialogue=5,
                                  num_speakers=2, num_classes=3,
                                  dims={"a": 3, "t": 5, "v": 3},
                                  dependency=dependency, seed=seed))


def _config(**kw):
    base = dict(learning_rate=1.5e-3, epochs=3, seq_context_layers=1,
                encoder_heads=2, gnn_heads=2, window_past=1, window_future=1,
                dropout=0.1, seed=0, patience=20)
    base.update(kw)
    return TrainConfig(**base).validate()


def test_ablation_grid_and_param_structure():
    corpus = _corpus()
    result = run_ablation(corpus, _config(epochs=2), seeds=[0, 1],
                          variants=("full", "no_gnn"))
    assert len(result.rows) == 2
    assert [r.cell["variant"] for r in result.rows] == ["full", "no_gnn"]
    for row in result.rows:
        assert len(row.per_seed) == 2
        assert all(0.0 <= v <= 1.0 for v in row.per_seed)
    # the no_gnn configuration allocates strictly fewer parameters
    dims = ModelDims.for_corpus(corpus, _config())
    full = ModelParams.init(_config(), dims, np.random.default_rng(0)).arena.data.size
    nognn = ModelParams.init(_config(ablation="no_gnn"), dims,
                             np.random.default_rng(0)).arena.data.size
    assert nognn < full


def test_ablation_reruns_reproduce_exactly():
    corpus = _corpus(n=10)
    cfg = _config(epochs=2)
    a = run_ablation(corpus, cfg, seeds=[3], variants=("full",))
    b = run_ablation(corpus, cfg, seeds=[3], variants=("full",))
    assert a.to_csv() == b.to_csv()


def test_context_sweep_identity_row_matches_plain_run():
    corpus = _corpus(n=10)
    cfg = _config(epochs=2)
    result = run_context_sweep(corpus, cfg, [None, 2], seeds=[1])
    from convemo.training import evaluate_model

    trained = train(corpus, cfg.with_overrides(seed=1))
    plain = evaluate_model(corpus, trained.model, cfg.with_overrides(seed=1), "test")
    row = result.lookup(context="all")
    assert row.per_seed[0] == plain.weighted_f1
    assert result.lookup(context=2).cell["context"] == 2


def test_context_rows_in_requested_order():
    corpus = _corpus(n=8)
    result = run_context_sweep(corpus, _config(epochs=1), [3, None, 1], seeds=[0])
    assert [r.cell["context"] for r in result.rows] == [3, "all", 1]


def _multilabel_corpus(n=12, test=True):
    rng = np.random.default_rng(0)
    dialogues = []
    for i in range(n):
        utts = []
        for speaker in (0, 1, 0, 1):
            on = (rng.random(3) < 0.5).astype(float)
            utts.append(Utterance(speaker=speaker, label=on,
                                  text=np.concatenate([on, rng.standard_normal(2) * 0.05])))
        split = "train" if i < n - 4 else ("valid" if i < n - 2 or not test else "test")
        dialogues.append(Dialogue(f"m{i}", 2, split, utts))
    return Corpus(dialogues, ["x", "y", "z"], {"a": 0, "t": 5, "v": 0}, "multi")


def test_multilabel_study_scores_the_mean_of_per_class_weighted_f1():
    corpus = _multilabel_corpus()
    cfg = _config(epochs=2, active_modalities="t")
    result = run_ablation(corpus, cfg, seeds=[0, 1], variants=("full", "no_gnn"))
    assert [r.cell["variant"] for r in result.rows] == ["full", "no_gnn"]
    for row in result.rows:
        variant = cfg.with_overrides(ablation=row.cell["variant"])
        for seed, score in zip([0, 1], row.per_seed):
            seeded = variant.with_overrides(seed=seed)
            model = train(corpus, seeded).model
            assert score == evaluate_multilabel(corpus, model, seeded, "test")["mean_f1"]
    with pytest.raises(ConfigError, match="no 'test' dialogues"):
        run_context_sweep(_multilabel_corpus(test=False), cfg, [None], seeds=[0])


def test_window_sweep_cells_and_degenerate_windows():
    corpus = _corpus(n=8)
    result = run_window_sweep(corpus, _config(epochs=1),
                              [(0, 0), (None, None)], seeds=[0])
    assert [r.cell for r in result.rows] == [
        {"past": 0, "future": 0},
        {"past": "inf", "future": "inf"},
    ]
    for row in result.rows:
        assert np.isfinite(row.per_seed[0])


def test_csv_and_table_shapes():
    corpus = _corpus(n=8)
    result = run_context_sweep(corpus, _config(epochs=1), [1], seeds=[0, 1, 2])
    lines = result.to_csv().strip().splitlines()
    assert lines[0] == "context,seed0,seed1,seed2,mean,median"
    assert len(lines) == 2
    table = result.format_table()
    assert "median" in table
    with pytest.raises(KeyError):
        result.lookup(context=99)


def test_dump_embeddings_stages_and_determinism():
    corpus = _corpus(n=10)
    cfg = _config(epochs=2)
    trained = train(corpus, cfg)
    before = dump_embeddings(corpus, trained.model, cfg, "before_gnn")
    again = dump_embeddings(corpus, trained.model, cfg, "before_gnn")
    assert before == again
    after = dump_embeddings(corpus, trained.model, cfg, "after_gnn")
    assert after != before

    test_dialogues = corpus.split("test")
    n_rows = sum(len(d) for d in test_dialogues)
    lines = before.strip().splitlines()
    assert len(lines) == n_rows + 1  # header

    # before_gnn rows are exactly the encoder output
    d = test_dialogues[0]
    z = encode(Tensor(fused_matrix(d, cfg.active_modalities)), trained.model.encoder).data
    first = lines[1].split(",")
    assert first[0] == d.dialogue_id and first[1] == "0"
    np.testing.assert_array_equal(np.array([float(v) for v in first[3:]]), z[0])

    with pytest.raises(ValueError):
        dump_embeddings(corpus, trained.model, cfg, "middle")


def test_feature_solvable_control_both_variants_high():
    # when labels depend only on the utterance's own features, the graph
    # layers are not needed: both variants should score high and the gap
    # direction is not guaranteed
    corpus = _corpus(n=60)
    cfg = _config(epochs=8)
    result = run_ablation(corpus, cfg, seeds=[0], variants=("full", "no_gnn"))
    assert result.lookup(variant="full").per_seed[0] >= 0.95
    assert result.lookup(variant="no_gnn").per_seed[0] >= 0.95


def test_median_reported_over_seeds():
    corpus = _corpus(n=8)
    result = run_context_sweep(corpus, _config(epochs=1), [2], seeds=[0, 1, 2])
    row = result.rows[0]
    assert row.median == float(np.median(row.per_seed))
    assert row.mean == float(np.mean(row.per_seed))
