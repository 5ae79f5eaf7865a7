import numpy as np
import pytest

from convemo.dataset import (
    Corpus,
    CorpusError,
    Dialogue,
    SynthSpec,
    Utterance,
    fuse_features,
    fused_dim,
    load_corpus,
    normalize_modalities,
    save_corpus,
    synth_corpus,
    truncate_context,
)


def _utt(rng, dims, speaker=0, label=0):
    return Utterance(
        speaker=speaker,
        label=label,
        audio=rng.standard_normal(dims["a"]) if dims["a"] else None,
        text=rng.standard_normal(dims["t"]) if dims["t"] else None,
        video=rng.standard_normal(dims["v"]) if dims["v"] else None,
    )


def test_fuse_full_iemocap_dims():
    rng = np.random.default_rng(0)
    u = _utt(rng, {"a": 100, "t": 768, "v": 512})
    assert fuse_features(u, "atv").shape == (1380,)


def test_fuse_mosei_audio_text():
    rng = np.random.default_rng(1)
    u = _utt(rng, {"a": 80, "t": 768, "v": 35})
    assert fuse_features(u, "at").shape == (848,)


def test_fuse_text_only_is_identity():
    rng = np.random.default_rng(2)
    u = _utt(rng, {"a": 4, "t": 6, "v": 0})
    np.testing.assert_array_equal(fuse_features(u, "t"), u.text)


def test_fuse_order_is_fixed_regardless_of_request_order():
    rng = np.random.default_rng(3)
    u = _utt(rng, {"a": 3, "t": 4, "v": 5})
    np.testing.assert_array_equal(fuse_features(u, "vta"), fuse_features(u, "atv"))
    assert fused_dim({"a": 3, "t": 4, "v": 5}, "va") == 8


def test_fuse_missing_modality_errors():
    rng = np.random.default_rng(4)
    u = _utt(rng, {"a": 3, "t": 4, "v": 0})
    with pytest.raises(CorpusError, match="missing requested modality 'v'"):
        fuse_features(u, "atv")


def test_normalize_modalities():
    assert normalize_modalities("vat") == "atv"
    assert normalize_modalities("t") == "t"
    with pytest.raises(CorpusError):
        normalize_modalities("x")
    with pytest.raises(CorpusError):
        normalize_modalities("")


def _tiny_corpus(task_mode="single"):
    rng = np.random.default_rng(5)
    dims = {"a": 2, "t": 3, "v": 0}
    label = (lambda i: i % 2) if task_mode == "single" else (lambda i: np.array([i % 2, 1.0]))
    mk = lambda n, sid: [Utterance(speaker=i % 2, label=label(i),
                                   audio=rng.standard_normal(2),
                                   text=rng.standard_normal(3),
                                   raw_text=f"utt {i}")
                         for i in range(n)]
    return Corpus(
        dialogues=[
            Dialogue("dlg-a", 2, "train", mk(3, 0)),
            Dialogue("dlg-b", 2, "test", mk(2, 1)),
        ],
        label_names=["neutral", "angry"],
        dims=dims,
        task_mode=task_mode,
    )


def test_load_save_roundtrip(tmp_path):
    corpus = _tiny_corpus()
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, corpus)
    loaded = load_corpus(path)
    assert len(loaded.dialogues) == 2
    assert [len(d) for d in loaded.dialogues] == [3, 2]
    assert loaded.label_names == corpus.label_names
    assert loaded.task_mode == "single"
    for d0, d1 in zip(corpus.dialogues, loaded.dialogues):
        assert d0.dialogue_id == d1.dialogue_id
        assert d0.split == d1.split
        for u0, u1 in zip(d0.utterances, d1.utterances):
            assert u0.speaker == u1.speaker and u0.label == u1.label
            np.testing.assert_array_equal(u0.audio, u1.audio)
            np.testing.assert_array_equal(u0.text, u1.text)
            assert u0.raw_text == u1.raw_text
    # second round trip is structurally identical bytes
    path2 = tmp_path / "again.jsonl"
    save_corpus(path2, loaded)
    assert path.read_text() == path2.read_text()


def test_a_failed_corpus_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, _tiny_corpus())
    before = path.read_bytes()
    broken = _tiny_corpus()
    broken.dialogues[1].utterances[0].raw_text = object()   # not JSON: fails after line 2
    with pytest.raises(TypeError):
        save_corpus(path, broken)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


def test_load_multilabel_roundtrip(tmp_path):
    corpus = _tiny_corpus("multi")
    path = tmp_path / "multi.jsonl"
    save_corpus(path, corpus)
    loaded = load_corpus(path)
    assert loaded.task_mode == "multi"
    np.testing.assert_array_equal(loaded.dialogues[0].utterances[1].label, [1.0, 1.0])


def test_load_dimension_mismatch_names_line(tmp_path):
    corpus = _tiny_corpus()
    path = tmp_path / "bad.jsonl"
    save_corpus(path, corpus)
    lines = path.read_text().splitlines()
    import json

    rec = json.loads(lines[1])
    rec["utterances"][1]["text"] = rec["utterances"][1]["text"][:-1]  # width 2 not 3
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=r"bad.jsonl:2: dialogue 'dlg-a' utterance 1"):
        load_corpus(path)


def test_load_unknown_speaker(tmp_path):
    corpus = _tiny_corpus()
    path = tmp_path / "bad.jsonl"
    save_corpus(path, corpus)
    import json

    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["utterances"][0]["speaker"] = 5
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=r"speaker index 5"):
        load_corpus(path)


def test_load_rejects_duplicate_dialogue_id(tmp_path):
    path = tmp_path / "dup.jsonl"
    save_corpus(path, _tiny_corpus())
    lines = path.read_text().splitlines()
    lines.append(lines[1])  # dialogue 'dlg-a' again, as line len(lines) + 1
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError) as info:
        load_corpus(path)
    assert str(info.value) == (f"{path}:{len(lines)}: duplicate dialogue_id 'dlg-a' "
                               f"(first at line 2)")


def test_load_parse_failure_has_line_number(tmp_path):
    path = tmp_path / "broken.jsonl"
    corpus = _tiny_corpus()
    save_corpus(path, corpus)
    text = path.read_text().splitlines()
    text[2] = "{not json"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(CorpusError, match="broken.jsonl:3"):
        load_corpus(path)


def _set(path, keys, value):
    """Rewrite line ``keys[0]`` of the JSONL file at ``path`` with the value at
    the nested ``keys[1:]`` set to ``value``, or, with only a line, replaced."""
    import json

    lines = path.read_text().splitlines()
    if len(keys) == 1:
        lines[keys[0]] = json.dumps(value)
    else:
        rec = json.loads(lines[keys[0]])
        node = rec
        for k in keys[1:-1]:
            node = node[k]
        node[keys[-1]] = value
        lines[keys[0]] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("keys, value, line, message", [
    ((1, "utterances", 0, "text", 1), float("nan"), 2, "parse failure: non-finite number NaN"),
    ((2, "utterances", 1, "audio", 0), float("inf"), 3, "parse failure: non-finite number Infinity"),
    ((1, "utterances", 2, "text", 0), -float("inf"), 2,
     "parse failure: non-finite number -Infinity"),
    ((0, "dims", "a"), float("nan"), 1, "header parse failure: non-finite number NaN"),
    ((0, "dims"), [2, 3, 0], 1, "dims must map 'a', 't' and 'v' to widths >= 0"),
    ((0, "dims", "t"), "3", 1, "dims must map 'a', 't' and 'v' to widths >= 0"),
    ((0, "label_names"), "ab", 1, "label_names must be a list of strings"),
    ((0,), ["neutral", "angry"], 1, "header missing 'label_names'"),
    ((1,), [{"dialogue_id": "dlg-a"}], 2, "a dialogue must be a JSON object"),
    ((1, "dialogue_id"), 7, 2, "missing or non-string dialogue_id"),
    ((2, "utterances"), {"speaker": 0}, 3, "dialogue 'dlg-b' needs a non-empty list of utterances"),
    ((1, "utterances", 1), "hello", 2, "dialogue 'dlg-a' utterance 1: an utterance must be a JSON object"),
    ((1, "utterances", 0, "text", 2), "x", 2,
     "dialogue 'dlg-a' utterance 0: modality 't' must be a list of numbers"),
    ((2, "utterances", 0, "audio"), {"x": 1}, 3,
     "dialogue 'dlg-b' utterance 0: modality 'a' must be a list of numbers"),
])
def test_malformed_corpus_is_refused_at_load_naming_the_line(tmp_path, keys, value, line,
                                                            message):
    path = tmp_path / "bad.jsonl"
    save_corpus(path, _tiny_corpus())
    _set(path, keys, value)
    with pytest.raises(CorpusError) as info:
        load_corpus(path)
    assert str(info.value).startswith(f"{path}:{line}: {message}")
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("keys, value, line, message", [
    ((1, "num_speakers"), True, 2, "dialogue 'dlg-a' needs a positive num_speakers"),
    ((2, "utterances", 1, "speaker"), True, 3,
     "dialogue 'dlg-b' utterance 1: speaker index True not in [0, 2)"),
    ((1, "utterances", 0, "speaker"), False, 2,
     "dialogue 'dlg-a' utterance 0: speaker index False not in [0, 2)"),
])
def test_json_booleans_are_not_speaker_counts_or_indices(tmp_path, keys, value, line, message):
    # Python counts a bool as an int, so a true num_speakers once loaded as 1,
    # trained, and wrote a checkpoint that eval then refused
    path = tmp_path / "bad.jsonl"
    save_corpus(path, _tiny_corpus())
    _set(path, keys, value)
    with pytest.raises(CorpusError) as info:
        load_corpus(path)
    assert str(info.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("literal, spots, line, message", [
    ("1e999", [(1, 2, "text", 1)], 2, "dialogue 'dlg-a' utterance 2: modality 't'"),
    ("-1e999", [(2, 1, "audio", 0)], 3, "dialogue 'dlg-b' utterance 1: modality 'a'"),
    # the first in utterance order, then in a, t, v order, is named
    ("1e999", [(1, 2, "audio", 0), (1, 1, "text", 2), (1, 1, "audio", 1)], 2,
     "dialogue 'dlg-a' utterance 1: modality 'a'"),
    ("1" + "0" * 400, [(2, 0, "text", 0)], 3, "dialogue 'dlg-b' utterance 0: modality 't'"),
], ids=["float", "negative", "first_named", "integer"])
def test_feature_beyond_float64_range_is_refused_at_load_naming_the_utterance(
        tmp_path, literal, spots, line, message):
    path = tmp_path / "big.jsonl"
    save_corpus(path, _tiny_corpus())
    for at, idx, key, i in spots:
        _set(path, (at, "utterances", idx, key, i), 12345.25)
    path.write_text(path.read_text().replace("12345.25", literal))
    with pytest.raises(CorpusError) as info:
        load_corpus(path)
    assert str(info.value) == f"{path}:{line}: {message} holds a number beyond float64's range"


def test_synth_determinism():
    spec = SynthSpec(num_dialogues=6, utterances_per_dialogue=5, seed=13)
    c1 = synth_corpus(spec)
    c2 = synth_corpus(spec)
    assert [d.dialogue_id for d in c1.dialogues] == [d.dialogue_id for d in c2.dialogues]
    for d1, d2 in zip(c1.dialogues, c2.dialogues):
        for u1, u2 in zip(d1.utterances, d2.utterances):
            assert u1.label == u2.label and u1.speaker == u2.speaker
            np.testing.assert_array_equal(u1.audio, u2.audio)
            np.testing.assert_array_equal(u1.text, u2.text)


@pytest.mark.parametrize("field, value, message", [
    ("num_speakers", 0, "sizes must be positive, got num_speakers 0"),
    ("num_classes", 0, "sizes must be positive, got num_classes 0"),
    ("num_dialogues", 0, "sizes must be positive, got num_dialogues 0"),
    ("dims", {"a": 4, "t": -1, "v": 4}, "widths must be >= 0"),
    ("dims", {"a": 0, "t": 0, "v": 0}, "one of them positive"),
])
def test_synth_refuses_bad_sizes_naming_them(field, value, message):
    with pytest.raises(ValueError, match=message) as info:
        synth_corpus(SynthSpec(**{"num_dialogues": 2, field: value}))
    assert len(str(info.value).splitlines()) == 1


def _centroid_probe_accuracy(corpus):
    """Feature-only oracle: nearest centroid fitted on train, scored on train.

    Intentionally context-free; it can only exploit the utterance's own
    feature vector.
    """
    feats, labels = [], []
    for d in corpus.split("train"):
        for u in d.utterances:
            feats.append(fuse_features(u, "atv"))
            labels.append(u.label)
    feats = np.stack(feats)
    labels = np.asarray(labels)
    centroids = np.stack([feats[labels == c].mean(axis=0) if (labels == c).any()
                          else np.zeros(feats.shape[1])
                          for c in range(corpus.num_classes)])
    dists = ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return (dists.argmin(axis=1) == labels).mean()


def test_synth_none_mode_is_feature_solvable():
    corpus = synth_corpus(SynthSpec(num_dialogues=40, utterances_per_dialogue=8, seed=21))
    assert _centroid_probe_accuracy(corpus) >= 0.99


def test_synth_neighbor_mode_defeats_feature_probe():
    corpus = synth_corpus(SynthSpec(num_dialogues=40, utterances_per_dialogue=16,
                                    dependency="neighbor", seed=22))
    acc = _centroid_probe_accuracy(corpus)
    assert acc <= 1.0 / corpus.num_classes + 0.10


def test_truncate_chunk_sizes():
    rng = np.random.default_rng(9)
    utts = [_utt(rng, {"a": 2, "t": 0, "v": 0}, label=i % 3) for i in range(13)]
    corpus = Corpus([Dialogue("d", 1, "train", utts)], ["x", "y", "z"],
                    {"a": 2, "t": 0, "v": 0})
    out = truncate_context(corpus, 3)
    assert [len(d) for d in out.dialogues] == [3, 3, 3, 3, 1]
    flat = [u.label for d in out.dialogues for u in d.utterances]
    assert flat == [u.label for u in utts]


def test_truncate_identity_when_n_large():
    corpus = _tiny_corpus()
    out = truncate_context(corpus, 10)
    assert [d.dialogue_id for d in out.dialogues] == ["dlg-a", "dlg-b"]


def test_truncate_conserves_utterance_count():
    rng = np.random.default_rng(10)
    for seed in range(5):
        spec = SynthSpec(num_dialogues=7, utterances_per_dialogue=int(rng.integers(1, 20)),
                         seed=seed)
        corpus = synth_corpus(spec)
        for n in (1, 2, 3, 7, 50):
            out = truncate_context(corpus, n)
            assert out.total_utterances() == corpus.total_utterances()


def test_split_filter_and_lookup():
    corpus = _tiny_corpus()
    assert [d.dialogue_id for d in corpus.split("train")] == ["dlg-a"]
    assert corpus.find_dialogue("dlg-b").split == "test"
    with pytest.raises(CorpusError):
        corpus.find_dialogue("nope")
    with pytest.raises(CorpusError):
        corpus.split("weird")
