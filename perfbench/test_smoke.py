"""Smoke test of the benchmark harness and its checks, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_program()

import bench  # noqa: E402
import checks as chk  # noqa: E402
from convemo import tensor, training  # noqa: E402
from convemo.graph import graph_from_speakers  # noqa: E402

ROOT = os.path.dirname(run.HERE)

TINY = bench.Workload(
    synth=dict(num_dialogues=12, utterances_per_dialogue=4, num_speakers=2,
               num_classes=3, dims={"a": 2, "t": 3, "v": 2}),
    config=dict(epochs=1, patience=1, seq_context_layers=1, gnn_heads=2, learning_rate=1e-2),
    eval_reps=1, mask_dialogues=1)
TINY_DRIVEN = bench.Workload(
    synth=dict(num_dialogues=6, utterances_per_dialogue=5, num_speakers=3,
               num_classes=3, dims={"a": 2, "t": 3, "v": 2}),
    config=dict(seq_context_layers=1, gnn_heads=2, window_past=None, window_future=None),
    eval_reps=1, mask_dialogues=1, mask_utterances=3, driven=True,
    raw_ops=("train", "eval", "mask"))


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(bench.WORKLOADS, "tiny", TINY)
    monkeypatch.setitem(bench.WORKLOADS, "tiny-driven", TINY_DRIVEN)


@pytest.mark.parametrize("name", ["tiny", "tiny-driven"])
@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_run_reports_every_declared_metric(tiny, tmp_path, name, trace, kind):
    result = bench.run(name, seed=3, seconds=0.0, trace=trace, workdir=str(tmp_path))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared(kind)
    for key, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), key
        if kind == "end_to_end":
            assert metric["value"] > 0, key


def test_failed_operation_is_counted(tiny, tmp_path, monkeypatch):
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        raise training.TrainingAbort("injected")

    monkeypatch.setattr(training, "mask_importance", flaky)
    r = bench.Run("tiny", 0, 0.0, str(tmp_path))
    r.setup()
    r.round(first=False)
    assert r.failed == len(calls) == 1 and "mask" not in r.phase.ops


def test_brute_force_graph_check_catches_a_wrong_relation():
    speakers = [0, 1, 1, 0, 2]
    want = chk.brute_force_edges(speakers, 3, 1, None, True)
    assert set(graph_from_speakers(speakers, 3, 1, None).edges) == want
    src, dst, rel = next(iter(want))
    assert (want - {(src, dst, rel)}) | {(src, dst, (rel + 1) % 18)} != want


def test_step_checks_catch_wrong_gradients_and_adam(tiny, tmp_path, monkeypatch):
    r = bench.Run("tiny", 1, 0.0, str(tmp_path))
    r.setup()
    r.initial_checks()
    assert r.checks.ok, r.checks.failures

    original = tensor.backward

    def skewed(loss, tape):
        original(loss, tape)
        grad = r.model.named()[bench.PROBES[0]].grad
        grad *= 1.01

    monkeypatch.setattr(tensor, "backward", skewed)
    c = chk.Checks()
    chk.check_step(c, r.model, r.optimizer, r.train_dialogues[0], r.config, bench.PROBES,
                   dropout_seed=1, rng=np.random.default_rng(0))
    assert [f for f in c.failures if f.startswith("gradient")] and \
        not [f for f in c.failures if f.startswith("Adam")]

    monkeypatch.setattr(tensor, "backward", original)
    r.optimizer.beta1 = 0.5
    bad_adam = training.Adam.step

    def wrong_step(self):
        self.beta1 = 0.8
        bad_adam(self)
        self.beta1 = 0.5

    monkeypatch.setattr(training.Adam, "step", wrong_step)
    c = chk.Checks()
    chk.check_step(c, r.model, r.optimizer, r.train_dialogues[0], r.config, bench.PROBES,
                   dropout_seed=1, rng=np.random.default_rng(0))
    assert [f for f in c.failures if f.startswith("Adam")]


def test_gradient_check_steps_past_a_relu_kink(tmp_path):
    # On dyadic-small seed 272 a kink lies within 1e-5 of the probe point
    # along encoder.layer0.head0.wq's direction; the gradient is right.
    r = bench.Run("dyadic-small", 272, 0.0, str(tmp_path))
    r.setup()
    r.initial_checks()
    assert r.checks.ok, r.checks.failures


def test_eval_and_checkpoint_checks_catch_mismatches(tiny, tmp_path):
    r = bench.Run("tiny", 2, 0.0, str(tmp_path))
    r.setup()
    report = training.evaluate_model(r.corpus, r.model, r.config, "test")
    c = chk.Checks()
    chk.check_eval(c, report, r.test, r.model, r.config)
    assert c.ok
    report.weighted_f1 += 1e-9
    chk.check_eval(c, report, r.test, r.model, r.config)
    assert len(c.failures) == 1

    path = str(tmp_path / "ckpt.json")
    state = r.optimizer.state_dict()
    training.save_checkpoint(path, r.model, r.config, state, 0, 0.0, r.corpus.label_names)
    loaded = training.load_checkpoint(path)
    next(iter(loaded.model.named().values())).data[0] += 1e-12
    c = chk.Checks()
    chk.check_checkpoint(c, r.model, state, loaded,
                         lambda m: [training.forward_dialogue(r.test[0], m, r.config).logits.data])
    assert any(f.startswith("checkpoint: parameters") for f in c.failures)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.HERE, name), bench_dir)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dyadic-small",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == ""
