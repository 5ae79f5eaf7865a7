import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from convemo.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
TINY = str(FIXTURES / "tiny_corpus.jsonl")
WINDOW_EXAMPLE = str(FIXTURES / "window_example.jsonl")

FAST_ARGS = ["--epochs", "4", "--lr", "0.002", "--past", "2", "--future", "2"]


def _fast_config_file(tmp_path):
    cfg = {"seq_context_layers": 1, "encoder_heads": 2, "gnn_heads": 2,
           "dropout": 0.1, "patience": 20}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _train(tmp_path, out_name="run", seed="7", extra=()):
    out = tmp_path / out_name
    code = main(["train", "--corpus", TINY, "--config", _fast_config_file(tmp_path),
                 "--seed", seed, "--out", str(out), *FAST_ARGS, *extra])
    assert code == 0
    return out


def test_missing_corpus_names_path(tmp_path, capsys):
    code = main(["train", "--corpus", "/nope/missing.jsonl", "--out", str(tmp_path)])
    assert code == 1
    assert "/nope/missing.jsonl" in capsys.readouterr().err


def test_train_is_deterministic_and_fast(tmp_path):
    t0 = time.time()
    out1 = _train(tmp_path, "run1")
    out2 = _train(tmp_path, "run2")
    assert time.time() - t0 < 60  # bundled-corpus smoke budget
    h1 = (out1 / "history.csv").read_text()
    h2 = (out2 / "history.csv").read_text()
    assert h1 == h2
    assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["resolved_config"]["seed"] == 7
    assert manifest["tool_version"]
    assert manifest["corpus_fingerprint"]
    env = manifest["numeric_environment"]
    assert set(env) == {"numpy", "blas", "cpus", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS"}
    assert env["numpy"] == np.__version__ and env["blas"] and env["cpus"] >= 1
    assert env["OMP_NUM_THREADS"] == os.environ.get("OMP_NUM_THREADS")


def test_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"no_such_key": 3}')
    code = main(["train", "--corpus", TINY, "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "no_such_key" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("gnn_heads", "2"), ("learning_rate", None), ("window_past", "inf"),
    ("active_modalities", 5), ("seed", 1.5), ("seed", -1), ("self_loops", "no"),
    ("gnn_heads", True), ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.5), ("adam_eps", 0.0),
    ("adam_eps", -1.0),
])
def test_config_value_of_wrong_type_is_one_line_error(tmp_path, capsys, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    # the config is checked before the corpus is read
    code = main(["train", "--corpus", "/nope/missing.jsonl", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and key in err and "missing.jsonl" not in err


def test_eval_roundtrip_and_oracle_crosscheck(tmp_path, capsys):
    out = _train(tmp_path)
    ckpt = str(out / "checkpoint.json")
    eval_out = tmp_path / "eval1"
    assert main(["eval", "--corpus", TINY, "--checkpoint", ckpt,
                 "--out", str(eval_out)]) == 0
    eval_out2 = tmp_path / "eval2"
    assert main(["eval", "--corpus", TINY, "--checkpoint", ckpt,
                 "--out", str(eval_out2)]) == 0
    r1 = (eval_out / "report_test.json").read_text()
    r2 = (eval_out2 / "report_test.json").read_text()
    assert r1 == r2
    capsys.readouterr()

    # cross-check weighted F1 against the metrics module on dumped predictions
    from convemo.dataset import load_corpus
    from convemo.metrics import weighted_f1
    from convemo.model import forward_dialogue
    from convemo.training import load_checkpoint

    corpus = load_corpus(TINY)
    loaded = load_checkpoint(ckpt)
    gold, pred = [], []
    for d in corpus.split("test"):
        gold.extend(u.label for u in d.utterances)
        pred.extend(int(p) for p in forward_dialogue(d, loaded.model, loaded.config).preds)
    _, want = weighted_f1(gold, pred, corpus.num_classes)
    got = json.loads(r1)["weighted_f1"]
    assert got == want


def test_eval_split_filter(tmp_path):
    out = _train(tmp_path)
    ckpt = str(out / "checkpoint.json")
    assert main(["eval", "--corpus", TINY, "--checkpoint", ckpt,
                 "--split", "valid", "--out", str(tmp_path / "ev")]) == 0
    report = json.loads((tmp_path / "ev" / "report_valid.json").read_text())
    from convemo.dataset import load_corpus

    corpus = load_corpus(TINY)
    assert sum(report["support"]) == sum(len(d) for d in corpus.split("valid"))


def test_eval_fingerprint_mismatch(tmp_path, capsys):
    out = _train(tmp_path)
    ckpt = str(out / "checkpoint.json")
    other = tmp_path / "other.jsonl"
    other.write_text(Path(TINY).read_text() + "\n")
    code = main(["eval", "--corpus", str(other), "--checkpoint", ckpt,
                 "--out", str(tmp_path / "ev")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("fingerprint") >= 1
    # both fingerprints printed
    import hashlib

    from convemo.training import load_checkpoint

    fp_ckpt = load_checkpoint(ckpt).corpus_fingerprint
    fp_other = hashlib.sha256(other.read_bytes()).hexdigest()
    assert fp_ckpt in err and fp_other in err
    # --force allows it
    assert main(["eval", "--corpus", str(other), "--checkpoint", ckpt,
                 "--force", "--out", str(tmp_path / "ev2")]) == 0


@pytest.mark.parametrize("classes, text_width, problem", [
    (5, 4, "label names: corpus ['class0', 'class1', 'class2', 'class3', 'class4'], "
           "checkpoint ['class0', 'class1', 'class2']"),
    (3, 8, "fused width of modalities 'atv': corpus 14, checkpoint 10"),
])
def test_checkpoint_that_does_not_fit_the_corpus_is_refused(tmp_path, capsys,
                                                             classes, text_width, problem):
    from convemo.dataset import SynthSpec, save_corpus, synth_corpus

    ckpt = str(_train(tmp_path) / "checkpoint.json")   # 3 classes, widths 3, 4, 3
    other = tmp_path / "other.jsonl"
    corpus = synth_corpus(SynthSpec(num_dialogues=6, utterances_per_dialogue=3, num_classes=classes,
                                    dims={"a": 3, "t": text_width, "v": 3}, seed=1))
    save_corpus(other, corpus)
    capsys.readouterr()
    did = corpus.dialogues[0].dialogue_id
    for argv in (["eval", "--force"], ["mask", "--dialogue-id", did], ["embed"]):
        code = main([*argv, "--corpus", str(other), "--checkpoint", ckpt,
                     "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: checkpoint does not fit the corpus: {problem}\n"


def test_graph_command_matches_golden(tmp_path, capsys):
    assert main(["graph", "--corpus", WINDOW_EXAMPLE, "--dialogue-id", "window-example",
                 "--past", "inf", "--future", "inf"]) == 0
    got = capsys.readouterr().out
    golden = (FIXTURES / "window_example_graph.json").read_text()
    assert got == golden


def test_graph_unknown_dialogue(tmp_path, capsys):
    code = main(["graph", "--corpus", WINDOW_EXAMPLE, "--dialogue-id", "nope"])
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_graph_windowed_to_file(tmp_path):
    out = tmp_path / "g.json"
    assert main(["graph", "--corpus", WINDOW_EXAMPLE, "--dialogue-id", "window-example",
                 "--past", "1", "--future", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 7
    # windowed graph: self loops + one past in-edge per non-initial node
    assert len(payload["edges"]) == 7 + 6


@pytest.mark.parametrize("command", ["graph", "train"])
@pytest.mark.parametrize("flag, value", [("--past", "abc"), ("--future", "1.5"),
                                         ("--past", "-1")])
def test_bad_window_names_its_flag_in_one_line(tmp_path, capsys, command, flag, value):
    args = (["--dialogue-id", "window-example"] if command == "graph"
            else ["--out", str(tmp_path / "o")])
    code = main([command, "--corpus", WINDOW_EXAMPLE, *args, f"{flag}={value}"])
    err = capsys.readouterr().err
    assert code == 1 and len(err.splitlines()) == 1
    assert flag in err and f"'{value}'" in err and "inf" in err and "int()" not in err
    assert not (tmp_path / "o").exists()


def test_mask_command_rows(tmp_path, capsys):
    out = _train(tmp_path)
    ckpt = str(out / "checkpoint.json")
    from convemo.dataset import load_corpus

    did = load_corpus(TINY).split("test")[0].dialogue_id
    mask_out = tmp_path / "mask"
    assert main(["mask", "--corpus", TINY, "--checkpoint", ckpt,
                 "--dialogue-id", did, "--out", str(mask_out)]) == 0
    capsys.readouterr()
    lines = (mask_out / f"mask_{did}.csv").read_text().strip().splitlines()
    assert lines[0] == "masked_utterance,weighted_f1"
    assert lines[1].startswith("baseline,")
    assert len(lines) == 2 + 5  # fixture dialogues have 5 utterances


def test_mask_command_refuses_a_multilabel_corpus(tmp_path, capsys):
    from convemo.config import TrainConfig
    from convemo.dataset import Corpus, Dialogue, Utterance, save_corpus
    from convemo.model import ModelDims, ModelParams
    from convemo.training import Adam, save_checkpoint

    rng = np.random.default_rng(5)
    utts = [Utterance(speaker=0, label=(rng.random(3) < 0.5).astype(float),
                      text=rng.standard_normal(4)) for _ in range(3)]
    corpus_path = tmp_path / "multi.jsonl"
    save_corpus(corpus_path, Corpus([Dialogue("ml0", 1, "test", utts)], ["joy", "anger", "fear"],
                                    {"a": 0, "t": 4, "v": 0}, "multi"))
    config = TrainConfig(seq_context_layers=1, encoder_heads=2, gnn_heads=2,
                         active_modalities="t")
    model = ModelParams.init(config, ModelDims(4, 3, 1, "multi"), np.random.default_rng(0))
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, model, config, Adam(model.named(), 1e-3).state_dict(), 0, 0.0,
                    ["joy", "anger", "fear"])
    assert main(["mask", "--corpus", str(corpus_path), "--checkpoint", str(ckpt),
                 "--dialogue-id", "ml0", "--out", str(tmp_path / "mask")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "task mode 'multi'" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "mask" / "mask_ml0.csv").exists()


def test_study_window_grid_cells(tmp_path, capsys):
    out = tmp_path / "study"
    code = main(["study", "--kind", "window", "--corpus", TINY,
                 "--config", _fast_config_file(tmp_path),
                 "--seeds", "0", "--grid", "0:0,1:2,inf:inf",
                 "--epochs", "1", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    tables = list(out.glob("window_*.csv"))
    assert len(tables) == 1
    rows = tables[0].read_text().strip().splitlines()
    assert rows[0] == "past,future,seed0,mean,median"
    assert [r.split(",")[:2] for r in rows[1:]] == [["0", "0"], ["1", "2"], ["inf", "inf"]]


def test_study_context_requires_grid(tmp_path, capsys):
    code = main(["study", "--kind", "context", "--corpus", TINY,
                 "--out", str(tmp_path / "s")])
    assert code == 1
    assert "--grid" in capsys.readouterr().err


def test_synth_command_roundtrip(tmp_path, capsys):
    path = tmp_path / "generated.jsonl"
    assert main(["synth", "--out", str(path), "--dialogues", "6", "--utterances", "4",
                 "--classes", "3", "--dims", "2,3,2", "--dependency", "neighbor",
                 "--seed", "11"]) == 0
    from convemo.dataset import load_corpus

    corpus = load_corpus(path)
    assert len(corpus.dialogues) == 6
    assert corpus.num_classes == 3
    assert corpus.dims == {"a": 2, "t": 3, "v": 2}


@pytest.mark.parametrize("args, named", [
    (["synth", "--dims", "4,x,4"], "--dims"),
    (["synth", "--dims", "4,-1,4"], "--dims"),
    (["synth", "--dims", "0,0,0"], "--dims"),
    (["synth", "--classes", "0"], "num_classes"),
    (["synth", "--speakers", "0"], "num_speakers"),
    (["study", "--kind", "ablation", "--seeds", "0,x"], "--seeds"),
    (["study", "--kind", "context", "--grid", "0"], "--grid"),
])
def test_bad_size_names_its_flag_in_one_line(tmp_path, capsys, args, named):
    out = tmp_path / "o"
    where = (["--out", str(out / "z.jsonl")] if args[0] == "synth"
             else ["--corpus", TINY, "--out", str(out)])
    assert main([*args, *where]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and named in err
    assert not any(word in err for word in ("int()", "high <= 0", "negative dimensions", "chunk"))
    assert not out.exists()


def test_eval_multilabel_corpus(tmp_path, capsys):
    from convemo.dataset import Corpus, Dialogue, Utterance, save_corpus

    rng = np.random.default_rng(4)
    dialogues = []
    for i in range(10):
        utts = []
        for _ in range(3):
            on = (rng.random(2) < 0.5).astype(float)
            utts.append(Utterance(speaker=0, label=on,
                                  text=np.concatenate([on, rng.standard_normal(2) * 0.1])))
        split = "train" if i < 6 else ("valid" if i < 8 else "test")
        dialogues.append(Dialogue(f"ml{i}", 1, split, utts))
    corpus_path = tmp_path / "multi.jsonl"
    save_corpus(corpus_path, Corpus(dialogues, ["joy", "anger"],
                                    {"a": 0, "t": 4, "v": 0}, "multi"))
    out = tmp_path / "run"
    assert main(["train", "--corpus", str(corpus_path),
                 "--config", _fast_config_file(tmp_path), "--modalities", "t",
                 "--epochs", "2", "--out", str(out)]) == 0
    ev = tmp_path / "ev"
    assert main(["eval", "--corpus", str(corpus_path),
                 "--checkpoint", str(out / "checkpoint.json"), "--out", str(ev)]) == 0
    text = capsys.readouterr().out
    assert "joy" in text and "anger" in text and "exact match" in text
    report = json.loads((ev / "report_test.json").read_text())
    assert set(report["per_class_f1"]) == {"joy", "anger"}


def test_version_runs_as_module():
    proc = subprocess.run([sys.executable, "-m", "convemo.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_numerical_abort_exit_code(tmp_path, capsys):
    with np.errstate(all="ignore"):
        code = main(["train", "--corpus", TINY, "--config", _fast_config_file(tmp_path),
                     "--lr", "1e100", "--epochs", "2", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "numerical abort" in capsys.readouterr().err


def test_train_refuses_a_non_finite_feature_at_load(tmp_path, capsys):
    lines = Path(TINY).read_text().splitlines()
    rec = json.loads(lines[1])
    rec["utterances"][0]["audio"][0] = float("nan")
    lines[1] = json.dumps(rec)
    corpus = tmp_path / "nan.jsonl"
    corpus.write_text("\n".join(lines) + "\n")
    code = main(["train", "--corpus", str(corpus), "--config", _fast_config_file(tmp_path),
                 "--out", str(tmp_path / "o"), *FAST_ARGS])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {corpus}:2: parse failure: non-finite number NaN is not allowed\n"


def test_train_refuses_an_overflowing_feature_at_load(tmp_path, capsys):
    # json decodes 1e999 as inf, which would abort training at epoch 0 with exit 2
    lines = Path(TINY).read_text().splitlines()
    rec = json.loads(lines[1])
    rec["utterances"][0]["audio"][0] = 12345.25
    lines[1] = json.dumps(rec).replace("12345.25", "1e999")
    corpus = tmp_path / "overflow.jsonl"
    corpus.write_text("\n".join(lines) + "\n")
    code = main(["train", "--corpus", str(corpus), "--config", _fast_config_file(tmp_path),
                 "--out", str(tmp_path / "o"), *FAST_ARGS])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (f"error: {corpus}:2: dialogue '{rec['dialogue_id']}' utterance 0: "
                   "modality 'a' holds a number beyond float64's range\n")
