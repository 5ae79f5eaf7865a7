import gc
import math
import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from convemo import classifier as clf
from convemo import tensor as T
from convemo.config import ConfigError, TrainConfig
from convemo.dataset import Corpus, Dialogue, SynthSpec, Utterance, load_corpus, synth_corpus
from convemo.graph import speaker_graph
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
from convemo import training
from convemo.training import (
    ADAM_CHUNK,
    Adam,
    TrainingAbort,
    evaluate_model,
    load_checkpoint,
    mask_importance,
    save_checkpoint,
    train,
)
from helpers import arena_params


def _none_corpus(n=40, utts=6, seed=0):
    return synth_corpus(SynthSpec(num_dialogues=n, utterances_per_dialogue=utts,
                                  num_speakers=2, num_classes=3,
                                  dims={"a": 4, "t": 6, "v": 4}, seed=seed))


def _fast_config(**kw):
    base = dict(learning_rate=1e-3, epochs=6, seq_context_layers=1,
                encoder_heads=2, gnn_heads=2, window_past=2, window_future=2,
                dropout=0.1, seed=0, patience=20)
    base.update(kw)
    return TrainConfig(**base).validate()


def test_adam_zero_lr_leaves_params_bit_identical():
    rng = np.random.default_rng(0)
    p = T.parameter(rng.standard_normal((3, 3)))
    before = p.data.copy()
    opt = Adam({"p": p}, lr=0.0)
    p.grad = rng.standard_normal((3, 3))
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_moves_against_gradient():
    p = T.parameter(np.zeros((2, 2)))
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.ones((2, 2))
    opt.step()
    assert (p.data < 0).all()


def _adam_reference_step(p, m, v, g, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The allocating update Adam.step must reproduce bit for bit: Kingma &
    Ba's efficient order, both bias corrections in one step size."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    root2 = math.sqrt(1.0 - b2 ** step)
    alpha, eps_hat = lr * root2 / (1.0 - b1 ** step), eps * root2
    return p - (m * alpha) / (np.sqrt(v) + eps_hat), m, v


def _adam_textbook_step(p, m, v, g, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Kingma & Ba's Algorithm 1 as printed: bias-corrected moments, eps added
    to the square root of the corrected second moment."""
    c1 = 1 - b1    # as Adam computes it
    m = b1 * m + c1 * g
    v = b2 * v + (1 - b2) * g * g
    m_hat, v_hat = m / (1 - b1 ** step), v / (1 - b2 ** step)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


@pytest.mark.parametrize("cpus", [1, 2])
def test_adam_stays_within_1e12_of_the_textbook_update_over_many_steps(split_steps, cpus):
    # a multi-chunk arena over 60 steps, on one thread and split in 2 parts.
    # Some gradient entries are exactly 0 and some about 1e-10, where eps
    # outweighs sqrt(v/bias2) and a wrong eps_hat shows at once. Parameters
    # start at magnitudes 2 to 3, which 60 steps at lr 1e-2 cannot bring near
    # 0, where p - update cancels and a relative error measures the
    # cancellation, not the update.
    affinity, pools = split_steps
    affinity(cpus)
    shapes = {"w": (300, 250), "b": (17,), "u": (40, 30)}
    rng = np.random.default_rng(8)
    params = arena_params({k: (2 + rng.random(s)) * rng.choice([-1.0, 1.0], s)
                           for k, s in shapes.items()})
    assert params["w"].data.size > 2 * ADAM_CHUNK
    ref = {k: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for k, t in params.items()}
    opt = Adam(params, lr=1e-2)
    for step in range(1, 61):
        for name, t in params.items():
            g = rng.standard_normal(t.shape)
            g[rng.random(t.shape) < 0.1] = 0.0
            tiny = rng.random(t.shape) < 0.1
            g[tiny] = 1e-10 * rng.standard_normal(np.count_nonzero(tiny))
            t.grad = g
            ref[name] = _adam_textbook_step(*ref[name], g, step, 1e-2)
        opt.step()
        for name, t in params.items():
            for got, want in zip((t.data, opt.m[name], opt.v[name]), ref[name]):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert pools == ([cpus - 1] * 60 if cpus > 1 else [])


def test_adam_step_bit_identical_to_reference_across_chunks():
    # laid end to end, the first chunk straddles one|bias|small|large, and
    # "small" (mid-arena, step 2) and "tail" (after the last chunk boundary,
    # step 3) go without a gradient: they take a zero one
    shapes = {"one": (1,), "bias": (7,), "small": (5, 6), "large": (300, 250), "tail": (3, 4)}
    large = 300 * 250
    assert large > ADAM_CHUNK and large % ADAM_CHUNK  # several chunks, a ragged last one
    rng = np.random.default_rng(0)
    params = arena_params({k: rng.standard_normal(s) for k, s in shapes.items()})
    ref = {k: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for k, t in params.items()}
    opt = Adam(params, lr=1e-2)
    assert all(t.data.base is opt.arena.data for t in params.values())
    skipped = {2: "small", 3: "tail"}
    for step in (1, 2, 3):
        for name, t in params.items():
            t.grad = None if skipped.get(step) == name else rng.standard_normal(t.shape)
            g = np.zeros(t.shape) if t.grad is None else t.grad
            ref[name] = _adam_reference_step(*ref[name], g, step, 1e-2)
        opt.step()
        for name, t in params.items():
            p, m, v = ref[name]
            np.testing.assert_array_equal(t.data, p)
            np.testing.assert_array_equal(opt.m[name], m)
            np.testing.assert_array_equal(opt.v[name], v)
            if skipped.get(step) == name:
                assert t.grad is None
    assert opt.step_count == 3


def test_a_missing_gradient_is_a_zero_one_not_the_stale_buffer():
    # "late" has a gradient, written into its buffer as backward does, at step
    # 1 and none at step 2, while its buffer still holds step 1's: step 2 must
    # update it as a zero gradient does, so its moments decay. "never" has no
    # gradient at all and keeps its value and moments to the bit.
    rng = np.random.default_rng(9)
    params = arena_params({"late": rng.standard_normal((4, 5)), "never": rng.standard_normal(6),
                           "always": rng.standard_normal(3)})
    opt = Adam(params, lr=1e-2)
    opt.arena.alloc_grad()
    never = tuple(a.tobytes() for a in (params["never"].data, opt.m["never"], opt.v["never"]))
    ref = {k: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for k, t in params.items()}
    for step, names in ((1, ("late", "always")), (2, ("always",))):
        opt.zero_grad()
        for name in names:
            t = params[name]
            np.copyto(t._buf, rng.standard_normal(t.shape))
            t.grad = t._buf
        g = params["late"].grad if step == 1 else np.zeros((4, 5))
        ref["late"] = _adam_reference_step(*ref["late"], g, step, 1e-2)
        ref["always"] = _adam_reference_step(*ref["always"], params["always"].grad, step, 1e-2)
        kept = opt.m["late"].copy(), opt.v["late"].copy()
        opt.step()
        for name in ("late", "always"):
            for got, want in zip((params[name].data, opt.m[name], opt.v[name]), ref[name]):
                np.testing.assert_array_equal(got, want)
        assert tuple(a.tobytes() for a in (params["never"].data, opt.m["never"],
                                           opt.v["never"])) == never
    assert params["late"].grad is None and params["never"].grad is None
    np.testing.assert_array_equal(opt.m["late"], 0.9 * kept[0])
    np.testing.assert_array_equal(opt.v["late"], 0.999 * kept[1])


def test_hand_assigned_gradient_gives_the_reference_update_and_is_not_written():
    # as a driven benchmark step does: grads set by hand on a model,
    # before any backward and again once the gradient arena exists
    cfg = _fast_config()
    corpus = _none_corpus(n=2, utts=4)
    model = ModelParams.init(cfg, ModelDims.for_corpus(corpus, cfg), np.random.default_rng(0))
    opt = Adam(model.named(), 1e-2)
    rng = np.random.default_rng(1)
    for step in (1, 2):
        if step == 2:
            _driven_step(model, cfg, corpus.dialogues[0], opt, rng)
            assert model.arena.grad is not None
        named = model.named()
        grads = {k: rng.standard_normal(t.shape) for k, t in named.items()}
        kept = {k: g.copy() for k, g in grads.items()}
        want = {k: _adam_reference_step(t.data, opt.m[k], opt.v[k], grads[k],
                                        opt.step_count + 1, 1e-2) for k, t in named.items()}
        for k, t in named.items():
            t.grad = grads[k]
        opt.step()
        for k, t in named.items():
            assert t.grad is grads[k] and grads[k].tobytes() == kept[k].tobytes()
            for got, ref in zip((t.data, opt.m[k], opt.v[k]), want[k]):
                np.testing.assert_array_equal(got, ref)
        opt.zero_grad()


def test_adam_step_keeps_array_identity():
    """A step writes into the existing parameter and moment arrays."""
    rng = np.random.default_rng(1)
    params = arena_params({"w": rng.standard_normal((300, 250)), "b": rng.standard_normal(4)})
    opt = Adam(params, lr=1e-2)
    before = {k: (t.data, opt.m[k], opt.v[k]) for k, t in params.items()}
    values = {k: t.data.copy() for k, t in params.items()}
    for t in params.values():
        t.grad = rng.standard_normal(t.shape)
    opt.step()
    for k, t in params.items():
        assert all(a is b for a, b in zip((t.data, opt.m[k], opt.v[k]), before[k]))
        assert not np.array_equal(t.data, values[k])


# 1e200 is finite, but its square overflows v, which zeroes the update
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_adam_non_finite_gradient_or_moment_names_parameter(bad):
    # in the chunk "rgcn.theta_rel3" shares with "ok", and in one of its own
    for at in ((0, 17), (299, 17)):
        rng = np.random.default_rng(2)
        params = arena_params({"ok": rng.standard_normal(3),
                               "rgcn.theta_rel3": rng.standard_normal((300, 250)),
                               "after": rng.standard_normal(5)})
        opt = Adam(params, lr=1e-2)
        for t in params.values():
            t.grad = rng.standard_normal(t.shape)
        params["rgcn.theta_rel3"].grad[at] = bad
        with np.errstate(all="ignore"), \
                pytest.raises(T.NonFiniteError, match=r"Adam\.step: .*'rgcn\.theta_rel3'"):
            opt.step()


@pytest.fixture
def split_steps(monkeypatch):
    """Every Adam step is split (``ADAM_SPLIT`` 1) over as many CPUs as
    ``affinity(k)`` says the process may use; ``pools`` records each helper
    pool's size."""
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    def affinity(k):
        monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: set(range(k)))

    monkeypatch.setattr(training, "ADAM_SPLIT", 1)
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Recording)
    return affinity, pools


def _two_large(rng):
    # one run of 5 chunks: 2 parts take 2 and 3 of them, 4 parts 1, 1, 1 and 2
    shapes = {"a": (300, 250), "b": (300, 250)}
    return arena_params({k: rng.standard_normal(s) for k, s in shapes.items()})


@pytest.mark.parametrize("cpus", [2, 4])
def test_split_adam_step_bit_identical_to_reference(split_steps, cpus):
    # "mid" goes without a gradient at step 2 and takes a zero one in the
    # middle of a part; at step 3 the gradients of "wide" and "one" are
    # assigned by hand, the rest written into the arena
    affinity, pools = split_steps
    affinity(cpus)
    shapes = {"one": (1,), "large": (300, 250), "mid": (5, 6), "wide": (400, 300), "tail": (3, 4)}
    rng = np.random.default_rng(3)
    params = arena_params({k: rng.standard_normal(s) for k, s in shapes.items()})
    ref = {k: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for k, t in params.items()}
    opt = Adam(params, lr=1e-2)
    grad = opt.arena.alloc_grad()
    for step in (1, 2, 3):
        for name, t in params.items():
            if step == 2 and name == "mid":
                t.grad = None
                ref[name] = _adam_reference_step(*ref[name], np.zeros(t.shape), step, 1e-2)
                continue
            g = rng.standard_normal(t.shape)
            if step == 3 and name not in ("wide", "one"):
                np.copyto(t._buf, g)
                g = t._buf
            t.grad = g
            ref[name] = _adam_reference_step(*ref[name], g, step, 1e-2)
        opt.step()
        for name, t in params.items():
            for got, want in zip((t.data, opt.m[name], opt.v[name]), ref[name]):
                np.testing.assert_array_equal(got, want)
    assert opt.arena.grad is grad
    assert pools == [cpus - 1] * 3


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_split_adam_step_names_the_lowest_bad_parameter(split_steps, cpus):
    # "a" holds a NaN in chunk 1, "b" an overflowing gradient in chunk 4: with
    # 2 parts each part has one, with 4 parts two helpers have one each. The
    # helpers keep the caller's np.errstate, so b's overflow warns nowhere.
    affinity, pools = split_steps
    affinity(cpus)
    params = _two_large(np.random.default_rng(4))
    opt = Adam(params, lr=1e-2)
    for t in params.values():
        t.grad = np.ones(t.shape)
    params["a"].grad[160, 0], params["b"].grad[-1, -1] = np.nan, 1e200   # elements 40,000, 149,999
    with warnings.catch_warnings(), np.errstate(all="ignore"), \
            pytest.raises(T.NonFiniteError, match=r"Adam\.step: .*'a'$"):
        warnings.simplefilter("error")
        opt.step()
    assert pools == ([cpus - 1] if cpus > 1 else [])


def test_an_error_in_a_helper_reaches_the_caller_once_every_helper_ended(split_steps, monkeypatch):
    affinity, pools = split_steps
    affinity(4)

    class Failure(Exception):
        pass

    einsum = np.einsum

    def failing_off_the_calling_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise Failure("in a helper")
        return einsum(*args)

    params = _two_large(np.random.default_rng(5))
    opt = Adam(params, lr=1e-2)
    for t in params.values():
        t.grad = np.ones(t.shape)
    threads = threading.active_count()
    monkeypatch.setattr(training.np, "einsum", failing_off_the_calling_thread)
    with pytest.raises(Failure, match="in a helper"):
        opt.step()
    assert pools == [3] and threading.active_count() == threads


def test_no_helper_below_the_threshold_or_on_one_cpu(split_steps, monkeypatch):
    affinity, pools = split_steps
    params = {"w": T.parameter(np.random.default_rng(6).standard_normal((300, 250)))}
    opt = Adam(params, lr=1e-2)
    params["w"].grad = np.ones((300, 250))
    threads = threading.active_count()
    affinity(1)
    opt.step()
    affinity(4)
    monkeypatch.setattr(training, "ADAM_SPLIT", 300 * 250 + 1)
    opt.step()
    assert pools == [] and threading.active_count() == threads
    monkeypatch.setattr(training, "ADAM_SPLIT", 300 * 250)
    opt.step()
    assert pools == [2]   # 3 chunks, so 3 parts on 4 CPUs
    assert threading.active_count() == threads


def test_split_steps_stay_bit_identical_under_rapid_thread_switches(split_steps, monkeypatch):
    # 8 parts of 1,000-element chunks on however few CPUs, switching threads
    # every microsecond: a chunk updated twice, or skipped, breaks the moments
    affinity, pools = split_steps
    affinity(8)
    monkeypatch.setattr(training, "ADAM_CHUNK", 1000)
    shapes = {"a": (37, 101), "b": (13,), "c": (90, 90), "d": (64, 70)}
    rng = np.random.default_rng(7)
    params = arena_params({k: rng.standard_normal(s) for k, s in shapes.items()})
    ref = {k: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for k, t in params.items()}
    opt = Adam(params, lr=1e-2)
    failures = []

    def steps():
        try:
            for step in range(1, 21):
                skipped = list(params)[step % len(params)]
                for name, t in params.items():
                    t.grad = None if name == skipped else rng.standard_normal(t.shape)
                    g = np.zeros(t.shape) if t.grad is None else t.grad
                    ref[name] = _adam_reference_step(*ref[name], g, step, 1e-2)
                opt.step()
                for name, t in params.items():
                    for got, want in zip((t.data, opt.m[name], opt.v[name]), ref[name]):
                        np.testing.assert_array_equal(got, want)
        except BaseException as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=steps)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    if failures:
        raise failures[0]
    assert pools == [7] * 20


def _driven_step(model, config, dialogue, optimizer, rng):
    tape = T.Tape()
    out = forward_dialogue(dialogue, model, config, training=True, rng=rng, tape=tape)
    loss = clf.loss(out.logits, dialogue_gold(dialogue, model.dims.task_mode),
                    model.dims.task_mode, tape)
    T.backward(loss, tape)
    optimizer.step()
    optimizer.zero_grad()
    return tape, loss


def test_absent_relation_keeps_no_gradient_after_a_step_that_had_one():
    # both speakers talk in the first dialogue, one alone in the second: the
    # second step's missing relation types get an exact zero slice of theta's
    # gradient, although its buffer holds the first step's there, and Adam
    # updates them as with a zero gradient
    cfg = _fast_config(window_past=1, window_future=1, dropout=0.0)
    corpus = _none_corpus(n=2, utts=4)
    both, alone = corpus.dialogues
    for u in alone.utterances:
        u.speaker = 0
    model = ModelParams.init(cfg, ModelDims.for_corpus(corpus, cfg), np.random.default_rng(0))
    opt = Adam(model.named(), cfg.learning_rate)
    rng = np.random.default_rng(1)
    _driven_step(model, cfg, both, opt, rng)
    theta = model.rgcn.theta
    had_gradient = [r for r, g in enumerate(theta._buf) if g.any()]
    tape = T.Tape()
    out = forward_dialogue(alone, model, cfg, training=True, rng=rng, tape=tape)
    T.backward(clf.loss(out.logits, dialogue_gold(alone, "single"), "single", tape), tape)
    absent = [r for r in had_gradient if not theta.grad[r].any()]
    assert absent and len(absent) < len(had_gradient) - 1
    m, v = opt.m["rgcn.theta"], opt.v["rgcn.theta"]
    want = _adam_reference_step(theta.data[absent], m[absent], v[absent],
                                np.zeros((len(absent), *theta.shape[1:])), 2, cfg.learning_rate)
    opt.step()
    for got, ref in zip((theta.data[absent], m[absent], v[absent]), want):
        np.testing.assert_array_equal(got, ref)


def test_train_holds_gradient_buffers_only_while_stepping(monkeypatch):
    seen, at_validation = [], []
    real_step, real_score = Adam.step, training._validation_score

    def step(self):
        seen.append({k: t.grad for k, t in self.params.items()})
        real_step(self)

    def score(dialogues, model, config):
        at_validation.append([t._buf for t in model.named().values()])
        return real_score(dialogues, model, config)

    monkeypatch.setattr(Adam, "step", step)
    monkeypatch.setattr(training, "_validation_score", score)
    result = train(_none_corpus(n=6, utts=4), _fast_config(epochs=3))
    assert len(result.history) == 3 and len(seen) > 6
    # one buffer per parameter for all of an epoch's steps (``seen`` keeps
    # each alive, so no id is reused) ...
    for k in seen[0]:
        assert len({id(s[k]) for s in seen if s[k] is not None}) <= 3
    # ... freed before validation and the best-state copies, and so before
    # train returns
    assert all(buf is None for bufs in at_validation for buf in bufs)
    for t in result.model.named().values():
        assert t.grad is None and t._buf is None


def test_second_backward_allocates_no_weight_gradients():
    # width 256: an allocating backward traces about the parameters' bytes
    # again (1.03x measured); with owned buffers only intermediates remain
    corpus = synth_corpus(SynthSpec(num_dialogues=3, utterances_per_dialogue=6, num_speakers=2,
                                    num_classes=3, dims={"a": 64, "t": 128, "v": 64}, seed=0))
    cfg = TrainConfig(seed=0).validate()
    model = ModelParams.init(cfg, ModelDims.for_corpus(corpus, cfg), np.random.default_rng(0))
    opt = Adam(model.named(), cfg.learning_rate)
    d, rng = corpus.dialogues[0], np.random.default_rng(1)
    tracemalloc.start()
    try:
        _driven_step(model, cfg, d, opt, rng)   # warm-up: allocates the buffers
        tape = T.Tape()
        out = forward_dialogue(d, model, cfg, training=True, rng=rng, tape=tape)
        loss = clf.loss(out.logits, dialogue_gold(d, "single"), "single", tape)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        T.backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert model.dims.width == 256
    assert peak < 0.25 * model.arena.data.size * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_aborts_on_non_finite_gradient(monkeypatch, bad):
    models = []
    real_init, real_backward = ModelParams.init.__func__, training.backward

    def init(cls, *args):
        models.append(real_init(cls, *args))
        return models[-1]

    def poisoned(loss, tape):
        real_backward(loss, tape)
        models[0].classifier.w2.grad[0, 0] = bad

    monkeypatch.setattr(ModelParams, "init", classmethod(init))
    monkeypatch.setattr(training, "backward", poisoned)
    with np.errstate(all="ignore"), \
            pytest.raises(TrainingAbort, match=r"epoch 0: Adam\.step: .*'classifier\.w2'"):
        train(_none_corpus(n=6, utts=4), _fast_config(epochs=2))


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(dropout=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(ablation="nope").validate()
    with pytest.raises(ConfigError):
        TrainConfig(window_past=-2).validate()
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"not_a_key": 1})
    cfg = TrainConfig.from_dict({"active_modalities": "vt"})
    assert cfg.active_modalities == "tv"
    # numpy scalars pass and are stored as the builtin type, so configs stay JSON
    cfg = TrainConfig(seed=np.int64(3), dropout=np.float32(0.25)).validate()
    assert (type(cfg.seed), type(cfg.dropout)) == (int, float)


@pytest.mark.parametrize("hidden", [0, -3])
def test_classifier_hidden_below_one_is_refused_naming_the_key(hidden):
    with pytest.raises(ConfigError) as info:
        TrainConfig.from_dict({"classifier_hidden": hidden})
    assert "classifier_hidden" in str(info.value) and "\n" not in str(info.value)
    assert TrainConfig(classifier_hidden=None).validate().classifier_hidden is None
    assert TrainConfig(classifier_hidden=1).validate().classifier_hidden == 1


@pytest.mark.parametrize("threshold", [7.0, 1.0, 0.0, -0.5])
def test_multilabel_threshold_outside_zero_one_is_refused(threshold):
    # a threshold of 7 once made every multi-label prediction 0, silently
    with pytest.raises(ConfigError) as info:
        TrainConfig.from_dict({"multilabel_threshold": threshold})
    assert str(info.value) == "multilabel_threshold must be in (0, 1)"
    assert TrainConfig(multilabel_threshold=0.45).validate().multilabel_threshold == 0.45


def test_paper_default_hyperparameters():
    cfg = TrainConfig()
    assert cfg.dropout == 0.1
    assert cfg.gnn_heads == 7
    assert cfg.seq_context_layers == 4
    assert cfg.learning_rate == 1e-4
    assert (cfg.window_past, cfg.window_future) == (10, 10)


def test_mosei_presets():
    from convemo.config import mosei_defaults

    t = mosei_defaults("t")
    assert (t.dropout, t.gnn_heads, t.seq_context_layers, t.learning_rate) == (0.399, 3, 5, 3.3e-3)
    at = mosei_defaults("ta")  # order-insensitive
    assert (at.dropout, at.gnn_heads, at.seq_context_layers, at.learning_rate) == (0.103, 1, 2, 6.9e-3)
    atv = mosei_defaults("atv")
    assert (atv.dropout, atv.gnn_heads, atv.seq_context_layers, atv.learning_rate) == (0.337, 2, 1, 1.1e-3)
    with pytest.raises(ConfigError):
        mosei_defaults("av")


def test_training_learns_feature_solvable_corpus():
    corpus = _none_corpus()
    result = train(corpus, _fast_config(epochs=10))
    report = evaluate_model(corpus, result.model, _fast_config(), "train")
    assert report.accuracy >= 0.95
    assert len(result.history) <= 10


def test_train_determinism_same_seed():
    corpus = _none_corpus(n=12, utts=5)
    cfg = _fast_config(epochs=3)
    r1 = train(corpus, cfg)
    r2 = train(corpus, cfg)
    assert r1.history_csv() == r2.history_csv()
    assert list(r1.model.named()) == list(r2.model.named())
    np.testing.assert_array_equal(r1.model.arena.data, r2.model.arena.data)


def test_train_is_deterministic_with_a_warm_graph_memo(tmp_path):
    corpus = load_corpus(Path(__file__).parent / "fixtures" / "tiny_corpus.jsonl")
    cfg = _fast_config(epochs=3)
    runs = []
    for k in range(3):
        if k != 1:   # the second run finds every graph the first one built
            speaker_graph.cache_clear()
        result = train(corpus, cfg)
        path = tmp_path / f"{k}.ckpt"
        save_checkpoint(path, result.model, cfg, result.best_optimizer_state,
                        result.best_epoch, result.best_valid_wf1, result.label_names)
        runs.append((result.history_csv(), path.read_bytes()))
    assert speaker_graph.cache_info().hits > 0
    assert runs[0] == runs[1] == runs[2]


def test_train_differs_across_seeds():
    corpus = _none_corpus(n=12, utts=5)
    r1 = train(corpus, _fast_config(epochs=2, seed=0))
    r2 = train(corpus, _fast_config(epochs=2, seed=1))
    assert r1.history_csv() != r2.history_csv()


def test_loss_epoch_median_non_increasing_over_seeds():
    corpus = _none_corpus(n=24, utts=5)
    curves = []
    for seed in range(5):
        result = train(corpus, _fast_config(epochs=5, seed=seed))
        curves.append([h.train_loss for h in result.history])
    medians = np.median(np.asarray(curves), axis=0)
    assert all(b <= a + 1e-6 for a, b in zip(medians, medians[1:]))


def test_training_abort_names_dialogue():
    corpus = _none_corpus(n=6, utts=4)
    cfg = _fast_config(epochs=2, learning_rate=1e100)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingAbort, match="synth-"):
            train(corpus, cfg)


def test_train_requires_both_splits():
    corpus = _none_corpus(n=8)
    only_train = Corpus([d for d in corpus.dialogues if d.split == "train"],
                        corpus.label_names, corpus.dims)
    with pytest.raises(ConfigError, match="valid"):
        train(only_train, _fast_config())


def test_grad_accumulation_runs():
    corpus = _none_corpus(n=10, utts=4)
    result = train(corpus, _fast_config(epochs=2, grad_accum=3))
    assert len(result.history) == 2
    assert np.isfinite(result.history[-1].train_loss)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    corpus = _none_corpus(n=10, utts=4)
    cfg = _fast_config(epochs=2)
    result = train(corpus, cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, result.model, cfg, result.best_optimizer_state,
                    result.best_epoch, result.best_valid_wf1,
                    result.label_names, corpus_fingerprint="abc123")
    ckpt = load_checkpoint(path)
    assert ckpt.epoch == result.best_epoch
    assert ckpt.corpus_fingerprint == "abc123"
    assert ckpt.label_names == result.label_names
    d = corpus.dialogues[0]
    a = forward_dialogue(d, result.model, cfg).probs.data
    b = forward_dialogue(d, ckpt.model, ckpt.config).probs.data
    np.testing.assert_array_equal(a, b)
    assert ckpt.optimizer_state["step_count"] == result.best_optimizer_state["step_count"]
    # saving again from the loaded model reproduces the same bytes
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(path2, ckpt.model, ckpt.config, ckpt.optimizer_state,
                    ckpt.epoch, ckpt.valid_wf1, ckpt.label_names, "abc123")
    assert path.read_bytes() == path2.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json", "ckpt2.json"]


def _assert_same_checkpoint(ckpt, model, state):
    got, want = ckpt.model.named(), model.named()
    assert list(got) == list(want)
    for name in want:
        np.testing.assert_array_equal(got[name].data, want[name].data)
        for key in ("m", "v"):
            np.testing.assert_array_equal(ckpt.optimizer_state[key][name], state[key][name])
    assert ckpt.optimizer_state["step_count"] == state["step_count"]


def _xavier_draw_order(model):
    """Names of the Xavier-drawn tensors in the order the per-tensor init
    drew them: each encoder layer's W_q of every head, W_k, W_v, then W_o and
    the feed-forward pair; the RGCN root and relation matrices; each graph
    attention head's four matrices, then W_out; the classifier."""
    names = []
    for li in range(len(model.encoder.layers)):
        base = f"encoder.layer{li}"
        for w in ("wq", "wk", "wv"):
            names += [f"{base}.head{h}.{w}" for h in range(model.encoder.num_heads)]
        names += [f"{base}.wo", f"{base}.ffn1", f"{base}.ffn2"]
    if model.rgcn is not None:
        names += ["rgcn.theta_root", "rgcn.theta"]   # theta: R matrices, one after another
        for h in range(model.graph_attention.num_heads):
            names += [f"graph_attention.head{h}.{w}"
                      for w in ("w_self", "w_msg", "w_key_self", "w_key_nbr")]
        names += ["graph_attention.w_out"]
    return names + ["classifier.w1", "classifier.w2"]


def _assert_packed(model, moments):
    """Every parameter, gradient buffer and moment is a view into one flat
    array of its kind, laid out in ``named`` order."""
    arena, named = model.arena, model.named()
    assert arena.params == list(named.values())
    assert all(t.data.base is arena.data for t in named.values())
    assert all(t._buf.base is arena.grad for t in named.values())
    for key in ("m", "v"):
        flat = {id(moments[key][k].base) for k in named}
        assert len(flat) == 1
        assert next(iter(moments[key].values())).base.size == arena.data.size


@pytest.mark.parametrize("ablation", ["full", "no_gnn"])
def test_init_and_load_return_packed_models(tmp_path, ablation):
    cfg = _fast_config(ablation=ablation, encoder_heads=3, classifier_hidden=4)
    corpus = _none_corpus(n=2, utts=4)
    model = ModelParams.init(cfg, ModelDims.for_corpus(corpus, cfg), np.random.default_rng(4))
    # the values are the per-tensor draws of rng.uniform, bit for bit and in order
    named, rng = model.named(), np.random.default_rng(4)
    drawn = _xavier_draw_order(model)
    for name in drawn:
        shape = named[name].shape
        bound = np.sqrt(6.0 / (shape[-2] + shape[-1]))
        assert named[name].data.tobytes() == rng.uniform(-bound, bound, size=shape).tobytes()
    for name in set(named) - set(drawn):
        fill = 1.0 if ".gamma" in name else 0.0
        np.testing.assert_array_equal(named[name].data, np.full(named[name].shape, fill))
    opt = Adam(model.named(), cfg.learning_rate)
    assert opt.arena is model.arena
    _driven_step(model, cfg, corpus.dialogues[0], opt, np.random.default_rng(1))
    _assert_packed(model, {"m": opt.m, "v": opt.v})
    _assert_packed(model, opt.state_dict())

    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, cfg, opt.state_dict(), 0, 0.5, corpus.label_names)
    ckpt = load_checkpoint(path)
    _assert_same_checkpoint(ckpt, model, opt.state_dict())
    loaded = Adam(ckpt.model.named(), cfg.learning_rate)
    assert loaded.arena is ckpt.model.arena
    _driven_step(ckpt.model, cfg, corpus.dialogues[1], loaded, np.random.default_rng(1))
    _assert_packed(ckpt.model, ckpt.optimizer_state)


def test_a_dropped_model_is_freed_without_the_cycle_collector():
    # a parameter holds its arena, which holds its members only weakly: a
    # reference cycle would keep every arena-sized array alive until the next
    # full collection, and a benchmark round's peak RSS growing with it
    cfg = _fast_config()
    corpus = _none_corpus(n=2, utts=4)
    gc.disable()
    try:
        model = ModelParams.init(cfg, ModelDims.for_corpus(corpus, cfg), np.random.default_rng(0))
        opt = Adam(model.named(), cfg.learning_rate)
        _driven_step(model, cfg, corpus.dialogues[0], opt, np.random.default_rng(1))
        flat = [weakref.ref(a) for a in (model.arena.data, model.arena.grad, opt._m, opt._v)]
        del model, opt
        assert all(ref() is None for ref in flat)
    finally:
        gc.enable()


def test_adam_over_part_of_an_arena_is_refused():
    cfg = _fast_config()
    model = ModelParams.init(cfg, ModelDims(width=6, num_speakers=2, num_classes=3),
                             np.random.default_rng(0))
    with pytest.raises(ValueError, match="share an arena"):
        Adam(model.classifier.named(), cfg.learning_rate)


@pytest.mark.parametrize("case", ["two_lone_parameters", "reordered_model", "empty"])
def test_adam_refuses_all_but_one_whole_arena_in_one_line(case):
    cfg = _fast_config()
    model = ModelParams.init(cfg, ModelDims(width=6, num_speakers=2, num_classes=3),
                             np.random.default_rng(0))
    params = {
        "two_lone_parameters": {"a": T.parameter(np.zeros(3)), "b": T.parameter(np.ones(2))},
        "reordered_model": dict(reversed(model.named().items())),
        "empty": {},
    }[case]
    with pytest.raises(ValueError) as info:
        Adam(params, cfg.learning_rate)
    assert type(info.value) is ValueError
    assert "share an arena" in str(info.value) and "\n" not in str(info.value)


def test_adam_over_a_rebound_parameter_is_refused():
    cfg = _fast_config()
    model = ModelParams.init(cfg, ModelDims(width=6, num_speakers=2, num_classes=3),
                             np.random.default_rng(0))
    model.classifier.w1.data += 1.0      # in place: still the arena's view
    Adam(model.named(), cfg.learning_rate)
    model.classifier.w1.data = model.classifier.w1.data + 1.0
    with pytest.raises(ValueError, match=r"^parameter 'classifier\.w1' no longer views its "
                                         r"arena: [^\n]*$"):
        Adam(model.named(), cfg.learning_rate)


@pytest.mark.parametrize("kw, name", [
    ({"beta1": 1.0}, "beta1"), ({"beta1": -0.1}, "beta1"), ({"beta2": 1.5}, "beta2"),
    ({"beta2": np.nan}, "beta2"), ({"eps": 0.0}, "eps"), ({"eps": -1.0}, "eps"),
    ({"eps": np.inf}, "eps"),
])
def test_adam_refuses_meaningless_hyperparameters_in_one_line(kw, name):
    params = {"p": T.parameter(np.zeros(3))}
    with pytest.raises(ValueError, match=rf"^Adam: {name} must be [^\n]*$"):
        Adam(params, 1e-2, **kw)
    Adam(params, 1e-2, beta1=0.0, beta2=0.0, eps=1e-300)   # the edges that make sense


def test_damaged_checkpoint_raises_one_line_error(tmp_path):
    cfg = _fast_config()
    model = ModelParams.init(cfg, ModelDims(width=6, num_speakers=2, num_classes=3),
                             np.random.default_rng(0))
    state = Adam(model.named(), cfg.learning_rate).state_dict()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, cfg, state, 0, 0.5, ["a", "b", "c"])
    _assert_same_checkpoint(load_checkpoint(path), model, state)
    data = path.read_bytes()
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 0xFF  # caught by the zip member CRCs
    for damaged in (data[:len(data) // 2], data[:1], bytes(flipped)):
        path.write_bytes(damaged)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and "\n" not in str(info.value)


def test_damaged_parameter_member_is_caught_while_read_in_place(tmp_path):
    cfg = _fast_config()
    model = ModelParams.init(cfg, ModelDims(width=6, num_speakers=2, num_classes=3),
                             np.random.default_rng(0))
    state = Adam(model.named(), cfg.learning_rate).state_dict()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, cfg, state, 0, 0.5, ["a", "b", "c"])
    data = path.read_bytes()
    at = data.find(model.classifier.w1.data.tobytes())
    assert at > 0
    flipped = bytearray(data)
    flipped[at + 5] ^= 0x01   # a parameter value that still parses: only the CRC tells
    path.write_bytes(bytes(flipped))
    with pytest.raises(ValueError, match=r"corrupt or truncated .*(CRC|crc)") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and "\n" not in str(info.value)


def test_checkpoint_header_rejected(tmp_path):
    path = tmp_path / "bad.json"
    for content in (b'{"format": "other", "version": 1}',
                    b'{"format": "convemo-checkpoint", "version": 1}',   # the old JSON layout
                    b"P"):
        path.write_bytes(content)
        with pytest.raises(ValueError, match="not a convemo-checkpoint") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and "\n" not in str(info.value)


def _saved_checkpoint(tmp_path):
    """A model after one driven step, its optimizer, and its checkpoint's path."""
    cfg = _fast_config()
    corpus = _none_corpus(n=2, utts=4)
    model = ModelParams.init(cfg, ModelDims.for_corpus(corpus, cfg), np.random.default_rng(0))
    opt = Adam(model.named(), cfg.learning_rate)
    _driven_step(model, cfg, corpus.dialogues[0], opt, np.random.default_rng(1))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, cfg, opt.state_dict(), 0, 0.5, ["a", "b", "c"])
    return model, opt, path


def _resave_with_header(path, model, state, edit):
    """Rewrite the checkpoint at ``path`` with ``edit`` applied to its header."""
    with T.open_params(path, training.CHECKPOINT_FORMAT) as (header, _):
        pass
    edit(header)
    named = model.named()
    T.save_params(path, {"param": [t.data for t in named.values()],
                         "m": [state["m"][k] for k in named], "v": [state["v"][k] for k in named]},
                  training.CHECKPOINT_FORMAT, header)


def test_checkpoint_is_three_arena_members_and_a_layout_header(tmp_path):
    import zipfile

    model, opt, path = _saved_checkpoint(tmp_path)
    with zipfile.ZipFile(path) as zf:
        assert zf.namelist() == ["__header__.npy", "param.npy", "m.npy", "v.npy"]
    with np.load(path) as npz:
        for key, flat in (("param", model.arena.data), ("m", opt._m), ("v", opt._v)):
            assert npz[key].dtype == np.float64
            assert npz[key].tobytes() == flat.tobytes()
    with T.open_params(path, training.CHECKPOINT_FORMAT) as (header, _):
        assert header["params"] == [[k, list(t.shape)] for k, t in model.named().items()]
        assert header["step_count"] == 1


def test_a_committed_version_3_checkpoint_loads_and_predicts_its_logits():
    # written by an earlier layout of the code (tiny corpus, 1 encoder layer, 2 + 2
    # heads, ffn_mult 1, 1 epoch, seed 7): a change to parameter names, order or
    # shapes must fail here rather than silently break files already on disk
    fixtures = Path(__file__).parent / "fixtures"
    path = fixtures / "tiny_checkpoint_v3.zip"
    with T.open_params(path, training.CHECKPOINT_FORMAT) as (header, _):
        assert header["version"] == 3
        layout = header["params"]
    ckpt = load_checkpoint(path)
    # its layout is today's with the RGCN's relation matrices one entry each
    assert layout == _per_relation([[k, list(t.shape)] for k, t in ckpt.model.named().items()])
    assert ckpt.model.rgcn.relation_count == 8
    corpus = load_corpus(fixtures / "tiny_corpus.jsonl")
    outs = [forward_dialogue(d, ckpt.model, ckpt.config) for d in corpus.split("test")]
    logits = np.concatenate([out.logits.data for out in outs])
    want = np.load(fixtures / "tiny_checkpoint_v3_test_logits.npy")
    # the RGCN's summation order may move the last bits: the loop oracles' tolerance
    assert logits.shape == want.shape
    assert np.abs(logits - want).max() <= 1e-12 * np.abs(want).max()
    np.testing.assert_array_equal(np.concatenate([out.preds for out in outs]), want.argmax(axis=1))


def _per_relation(layout):
    """``layout`` with ``rgcn.theta`` listed as one entry per relation matrix,
    as version-3 files written while the RGCN kept a parameter per relation list
    it: the same elements in the same order."""
    out = []
    for name, shape in layout:
        out += ([[f"rgcn.theta_rel{r}", shape[1:]] for r in range(shape[0])]
                if name == "rgcn.theta" else [[name, shape]])
    return out


def test_a_checkpoint_lists_theta_once_and_reads_a_per_relation_header_alike(tmp_path):
    model, opt, path = _saved_checkpoint(tmp_path)
    shape = [model.rgcn.relation_count, model.dims.width, model.dims.width]
    with T.open_params(path, training.CHECKPOINT_FORMAT) as (header, _):
        assert ["rgcn.theta", shape] in header["params"]
        assert not any("theta_rel" in name for name, _ in header["params"])
    ckpt = load_checkpoint(path)
    _assert_same_checkpoint(ckpt, model, opt.state_dict())
    again = tmp_path / "again.json"
    save_checkpoint(again, ckpt.model, ckpt.config, ckpt.optimizer_state, 0, 0.5, ["a", "b", "c"])
    assert again.read_bytes() == path.read_bytes()
    # the same members under an older file's per-relation header load alike
    _resave_with_header(path, model, opt.state_dict(),
                        lambda h: h.__setitem__("params", _per_relation(h["params"])))
    _assert_same_checkpoint(load_checkpoint(path), model, opt.state_dict())


@pytest.mark.parametrize("case", ["partial_run", "wrong_count"])
def test_a_partial_per_relation_run_or_a_theta_of_the_wrong_count_is_refused(tmp_path, case):
    # 7 of the model's 8 rgcn.theta_rel entries, or an rgcn.theta of 7 relations
    model, opt, path = _saved_checkpoint(tmp_path)
    d = model.dims.width
    assert model.rgcn.relation_count == 8

    def edit(header):
        if case == "partial_run":
            header["params"] = [e for e in _per_relation(header["params"])
                                if e[0] != "rgcn.theta_rel7"]
        else:
            header["params"] = [[n, [7, d, d] if n == "rgcn.theta" else s]
                                for n, s in header["params"]]

    _resave_with_header(path, model, opt.state_dict(), edit)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    i = list(model.named()).index("rgcn.theta")
    theirs = (f'["rgcn.theta_rel0", [{d}, {d}]]' if case == "partial_run"
              else f'["rgcn.theta", [7, {d}, {d}]]')
    assert str(info.value) == (f"checkpoint {path} does not fit the model of its config: "
                               f"parameter {i} is {theirs} in the file, "
                               f'["rgcn.theta", [8, {d}, {d}]] in the model')


@pytest.mark.parametrize("names", [["a", "b"], ["a", "b", "a"], ["a", "b", "c", "d"]],
                         ids=["too_few", "repeated", "too_many"])
def test_label_names_that_do_not_name_each_class_once_are_refused(tmp_path, names):
    # two names for a 3-class model once loaded, and evaluation then failed
    # naming no file
    model, opt, path = _saved_checkpoint(tmp_path)
    assert model.dims.num_classes == 3
    _resave_with_header(path, model, opt.state_dict(), lambda h: h.__setitem__("label_names", names))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == (f"malformed convemo-checkpoint file {path}: header key "
                               "'label_names' must name each of the model's 3 classes once")


def test_version_2_checkpoint_is_refused_in_one_line(tmp_path):
    import json

    path = tmp_path / "old.json"
    header = json.dumps({"format": "convemo-checkpoint", "version": 2}).encode()
    with open(path, "wb") as fh:
        np.savez(fh, __header__=np.frombuffer(header, dtype=np.uint8),
                 **{"param/classifier.w1": np.zeros((2, 2))})
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"unsupported convemo-checkpoint version 2 in {path}"


@pytest.mark.parametrize("edit, names", [
    (lambda h: h["params"][-1].__setitem__(0, "classifier.w9"), "classifier.w9"),
    (lambda h: h["params"][3].__setitem__(1, [1, 1]), "[1, 1]"),
    (lambda h: h["params"].pop(), "nothing"),
    (lambda h: h["params"].append(["extra", [2]]), "extra"),
])
def test_checkpoint_whose_layout_differs_from_its_model_is_refused(tmp_path, edit, names):
    model, opt, path = _saved_checkpoint(tmp_path)
    _resave_with_header(path, model, opt.state_dict(), edit)
    with pytest.raises(ValueError, match="does not fit the model of its config") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and names in str(info.value)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("key, value", [
    ("dims", None), ("step_count", None), ("config", None), ("params", None),
    ("dims", {"width": 14, "num_classes": 3, "num_speakers": 2, "task_mode": "single",
              "extra": 1}),
    ("dims", {"width": 14, "num_classes": 3, "num_speakers": 2}),
    ("dims", {"width": "14", "num_classes": 3, "num_speakers": 2, "task_mode": "single"}),
    ("dims", {"width": 14, "num_classes": 3, "num_speakers": 2, "task_mode": "both"}),
    ("dims", [6, 3, 2]), ("config", []), ("label_names", "abc"), ("label_names", [1, 2, 3]),
    ("epoch", 1.5), ("valid_weighted_f1", "0.5"), ("step_count", True), ("params", {}),
])
def test_malformed_checkpoint_header_is_refused_naming_the_key(tmp_path, key, value):
    model, opt, path = _saved_checkpoint(tmp_path)

    def edit(header):
        if value is None:
            del header[key]
        else:
            header[key] = value

    _resave_with_header(path, model, opt.state_dict(), edit)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == (f"malformed convemo-checkpoint file {path}: header key "
                               f"'{key}' is missing or of the wrong type")


@pytest.mark.parametrize("config, why", [({"bogus": 1}, "unknown config keys: ['bogus']"),
                                         ({"dropout": "x"}, "dropout must be a finite number")])
def test_checkpoint_with_a_bad_config_is_refused_naming_the_file(tmp_path, config, why):
    model, opt, path = _saved_checkpoint(tmp_path)
    _resave_with_header(path, model, opt.state_dict(), lambda h: h["config"].update(config))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"malformed convemo-checkpoint file {path}: header key "
                                      f"'config': {why}")
    assert "\n" not in str(info.value)


def test_checkpoint_save_and_load_hold_no_parameter_sized_temporary(tmp_path):
    # save writes each member from the per-name arrays; load reads into the
    # new model's arena and two flat moments, so three arena-sized arrays
    cfg = TrainConfig(seed=0).validate()
    model = ModelParams.init(cfg, ModelDims(width=96, num_speakers=2, num_classes=3),
                             np.random.default_rng(0))
    opt = Adam(model.named(), cfg.learning_rate)
    rng = np.random.default_rng(1)
    opt._m[:], opt._v[:] = rng.standard_normal(opt._m.size), rng.random(opt._v.size)
    state, arena = opt.state_dict(), model.arena.data.nbytes
    assert arena >= 4 << 20
    path = tmp_path / "ckpt.json"
    tracemalloc.start()
    try:
        save_checkpoint(path, model, cfg, state, 0, 0.5, ["a", "b", "c"])
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        ckpt = load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert save_peak < arena / 4
    assert load_peak < 3 * arena + arena / 4
    _assert_same_checkpoint(ckpt, model, state)


def test_multilabel_training_smoke():
    from convemo.training import evaluate_multilabel

    rng = np.random.default_rng(0)
    dialogues = []
    for i in range(12):
        utts = []
        for j in range(4):
            on = rng.random(3) < 0.5
            vec = on.astype(float) @ np.eye(3) + rng.standard_normal(3) * 0.05
            utts.append(Utterance(speaker=0, label=on.astype(float),
                                  audio=None, text=np.concatenate([vec, vec]),
                                  video=None))
        split = "train" if i < 8 else ("valid" if i < 10 else "test")
        dialogues.append(Dialogue(f"m{i}", 1, split, utts))
    corpus = Corpus(dialogues, ["x", "y", "z"], {"a": 0, "t": 6, "v": 0}, "multi")
    cfg = _fast_config(epochs=3, active_modalities="t")
    result = train(corpus, cfg)
    assert len(result.history) == 3
    d = corpus.dialogues[0]
    preds = forward_dialogue(d, result.model, cfg).preds
    assert preds.shape == (4, 3)
    assert set(np.unique(preds)) <= {0, 1}
    report = evaluate_multilabel(corpus, result.model, cfg, "test")
    assert set(report["per_class_f1"]) == {"x", "y", "z"}
    assert 0.0 <= report["mean_f1"] <= 1.0
    assert 0.0 <= report["exact_match_accuracy"] <= 1.0
    with pytest.raises(ConfigError):
        evaluate_model(corpus, result.model, cfg, "test")
    with pytest.raises(ConfigError):
        evaluate_multilabel(_none_corpus(n=6), result.model, cfg, "test")


# ---------------------------------------------------------------------------
# masking

@pytest.fixture(scope="module")
def neighbor_model():
    corpus = synth_corpus(SynthSpec(num_dialogues=100, utterances_per_dialogue=8,
                                    num_speakers=2, num_classes=4,
                                    dims={"a": 4, "t": 8, "v": 4},
                                    dependency="neighbor", seed=7))
    cfg = TrainConfig(learning_rate=1.5e-3, epochs=12, seq_context_layers=1,
                      encoder_heads=2, gnn_heads=2, window_past=1, window_future=1,
                      dropout=0.05, seed=7, patience=20).validate()
    result = train(corpus, cfg)
    return corpus, cfg, result.model


def test_mask_baseline_equals_plain_eval(neighbor_model):
    corpus, cfg, model = neighbor_model
    d = corpus.split("test")[0]
    report = mask_importance(d, model, cfg)
    gold = [u.label for u in d.utterances]
    from convemo.metrics import weighted_f1

    _, wf1 = weighted_f1(gold, forward_dialogue(d, model, cfg).preds, model.dims.num_classes)
    assert report.baseline_f1 == wf1
    assert len(report.masked_f1) == len(d)


def test_mask_single_utterance_dialogue(neighbor_model):
    corpus, cfg, model = neighbor_model
    base = corpus.split("test")[0]
    d = Dialogue("one", base.num_speakers, "test", base.utterances[:1])
    report = mask_importance(d, model, cfg)
    assert report.masked_f1[0] in (0.0, 1.0)


def test_masking_the_determining_neighbor_hurts_most(neighbor_model):
    """In neighbor mode the label at k+1 is determined by utterance k, so
    zeroing k should depress the gold probability at k+1 far more than
    zeroing a distant utterance."""
    corpus, cfg, model = neighbor_model
    k, far = 3, 7
    drops = []
    for d in corpus.split("test")[:20]:
        x = fused_matrix(d, cfg.active_modalities)
        gold = d.utterances[k + 1].label

        def gold_prob(masked_idx):
            xm = x.copy()
            xm[masked_idx] = 0.0
            result = forward_fused(Tensor(xm), d.speakers, model, cfg)
            return result.probs.data[k + 1, gold]

        drops.append(gold_prob(far) - gold_prob(k))
    assert np.median(drops) > 0.0


STACKED_CASES = {
    "full": {},
    "no_gnn": {"ablation": "no_gnn"},
    "no_relations": {"ablation": "no_relations"},
    "single_direction": {"edge_mode": "single_direction"},
    "unbounded_windows": {"window_past": None, "window_future": None},
    "relu_between_graph_layers": {"relu_between_graph_layers": True},
}


def _untrained(num_speakers=3, utts=7, dims=None, **config):
    corpus = synth_corpus(SynthSpec(num_dialogues=4, utterances_per_dialogue=utts,
                                    num_speakers=num_speakers, num_classes=4,
                                    dims=dims or {"a": 4, "t": 6, "v": 4}, seed=3))
    cfg = _fast_config(**config)
    model = ModelParams.init(cfg, ModelDims.for_corpus(corpus, cfg), np.random.default_rng(5))
    return corpus, cfg, model


def _masked_copies(d, cfg):
    """Copy 0 unmasked, then copy k+1 with utterance k zeroed, one at a time."""
    x = fused_matrix(d, cfg.active_modalities)
    yield x
    for k in range(len(d)):
        copy = x.copy()
        copy[k] = 0.0
        yield copy


def _per_copy_f1(d, model, cfg):
    """The masking analysis as one 2-D forward per copy."""
    from convemo.metrics import weighted_f1

    gold = [u.label for u in d.utterances]
    return [weighted_f1(gold, forward_fused(Tensor(x), d.speakers, model, cfg).preds,
                        model.dims.num_classes)[1]
            for x in _masked_copies(d, cfg)]


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_stacked_forward_matches_per_copy_forwards(case):
    corpus, cfg, model = _untrained(**STACKED_CASES[case])
    first = corpus.dialogues[0]
    one_utterance = Dialogue("one", first.num_speakers, "test", first.utterances[:1])
    for d in (first, corpus.dialogues[1], one_utterance):
        copies = np.stack(list(_masked_copies(d, cfg)))
        stacked = forward_fused(Tensor(copies), [d.speakers] * len(copies), model, cfg)
        assert stacked.logits.shape == (len(d) + 1, len(d), 4)
        for b, x in enumerate(copies):
            one = forward_fused(Tensor(x), d.speakers, model, cfg)
            want = one.logits.data
            assert np.abs(stacked.logits.data[b] - want).max() <= 1e-12 * np.abs(want).max()
            np.testing.assert_array_equal(stacked.preds[b], one.preds)
        report = mask_importance(d, model, cfg)
        assert [report.baseline_f1, *report.masked_f1] == _per_copy_f1(d, model, cfg)


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_stacked_forward_with_a_graph_per_copy_matches_2d_forwards(case):
    _, cfg, model = _untrained(**STACKED_CASES[case])
    rng = np.random.default_rng(11)
    # the relation types present in each graph differ; the second dialogue
    # has one speaker, and the second stack one utterance per copy
    for speakers in ([[0, 1, 2, 0, 1], [1, 1, 1, 1, 1], [2, 0, 2, 0, 2]],
                     [[0], [2], [1]]):
        n = len(speakers[0])
        x = rng.standard_normal((len(speakers), n, model.dims.width))
        stacked = forward_fused(Tensor(x), speakers, model, cfg)
        assert stacked.logits.shape == (len(speakers), n, 4)
        for b, s in enumerate(speakers):
            one = forward_fused(Tensor(x[b]), s, model, cfg)
            want = one.logits.data
            assert np.abs(stacked.logits.data[b] - want).max() <= 1e-12 * np.abs(want).max()
            np.testing.assert_array_equal(stacked.preds[b], one.preds)


def test_mask_budget_splits_copies_unevenly(monkeypatch):
    # 2 speakers at width 16: one copy's largest live set is the RGCN's over its
    # 15 message rows, picked inputs and messages 15 * 16 each and the 8 x 15
    # mean, 600 elements for 8 utterances
    corpus, cfg, model = _untrained(num_speakers=2, utts=8, dims={"a": 4, "t": 8, "v": 4})
    d = corpus.dialogues[0]
    assert _own_rows(forward_graphs([d.speakers], (1, 8, 0), model, cfg)) == [15]
    monkeypatch.setattr(training, "STACK_BLOCK", 4 * 600 + 100)
    sizes = []

    def recording(x, *args, **kwargs):
        sizes.append(x.shape[0])
        return forward_fused(x, *args, **kwargs)

    monkeypatch.setattr(training, "forward_fused", recording)
    report = mask_importance(d, model, cfg)
    assert sizes == [4, 4, 1]
    assert [report.baseline_f1, *report.masked_f1] == _per_copy_f1(d, model, cfg)


def _own_rows(graphs) -> list[int]:
    """Each graph's RGCN message rows, one per (relation, source) pair its edges use."""
    return [g.rgcn_layout[2].size for g in graphs]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mask_memory_stays_within_the_budget(monkeypatch):
    # 6 speakers: 72 relation types at width 64, unbounded windows, 24
    # utterances: one copy's RGCN computes a few hundred message rows, whose
    # picked inputs, messages and mean set its size, so the budget runs the
    # 25 copies several at a time
    corpus, cfg, model = _untrained(num_speakers=6, utts=24, dims={"a": 16, "t": 32, "v": 16},
                                    window_past=None, window_future=None)
    d = corpus.dialogues[0]
    sizes = []

    def recording(x, *args, **kwargs):
        sizes.append(x.shape[0])
        return forward_fused(x, *args, **kwargs)

    monkeypatch.setattr(training, "forward_fused", recording)
    peak = _traced_peak(lambda: mask_importance(d, model, cfg))
    per = sizes[0]
    assert 2 <= per < 25 and sum(sizes) == 25 and set(sizes[:-1]) == {per}
    assert peak <= 1.5 * training.STACK_BLOCK * 8
    monkeypatch.setattr(training, "forward_fused", forward_fused)
    # with one copy per forward it holds no more than a loop of 2-D forwards
    monkeypatch.setattr(training, "STACK_BLOCK", 1)
    one_at_a_time = _traced_peak(lambda: mask_importance(d, model, cfg))
    loop = _traced_peak(lambda: _per_copy_f1(d, model, cfg))
    assert one_at_a_time <= 1.05 * loop


def _per_dialogue_preds(dialogues, model, cfg):
    return [forward_dialogue(d, model, cfg).preds for d in dialogues]


def test_predict_dialogues_keeps_input_order_and_splits_by_budget(monkeypatch):
    # 2 speakers at width 16: one 8-utterance copy's largest live set is its
    # RGCN's over the 25 message rows of the 8-utterance dialogue that has the
    # most, 25 * (16 + 16 + 8) = 1,000 elements, and a 5-utterance one's
    # 13 * (16 + 16 + 5) = 481
    corpus = synth_corpus(SynthSpec(num_dialogues=12, utterances_per_dialogue=8,
                                    num_speakers=2, num_classes=4,
                                    dims={"a": 4, "t": 8, "v": 4}, seed=3))
    cfg = _fast_config()
    model = ModelParams.init(cfg, ModelDims.for_corpus(corpus, cfg), np.random.default_rng(5))
    cut = {1: 5, 4: 1, 6: 5}   # index -> shorter length
    dialogues = [Dialogue(d.dialogue_id, d.num_speakers, "test", d.utterances[:cut.get(i, 8)])
                 for i, d in enumerate(corpus.dialogues)]
    want = _per_dialogue_preds(dialogues, model, cfg)
    eights = [d.speakers for d in dialogues if len(d) == 8]
    assert max(_own_rows(forward_graphs(eights, (9, 8, 0), model, cfg))) == 25
    monkeypatch.setattr(training, "STACK_BLOCK", 4 * 1000 + 500)
    calls = []

    def recording(dialogue, *args, **kwargs):
        if isinstance(dialogue, Dialogue):
            calls.append((len(dialogue), "2-D"))
        else:
            calls.append((len(dialogue[0]), len(dialogue)))
        return forward_dialogue(dialogue, *args, **kwargs)

    monkeypatch.setattr(training, "forward_dialogue", recording)
    got = training.predict_dialogues(dialogues, model, cfg)
    # a dialogue left alone in its chunk runs as a stack of one
    assert calls == [(8, 4), (8, 4), (8, 1), (5, 2), (1, 1)]
    assert len(got) == len(want)
    for p, w in zip(got, want):
        np.testing.assert_array_equal(p, w)


@pytest.mark.parametrize("ablation", ["full", "no_gnn"])
@pytest.mark.parametrize("task_mode", ["single", "multi"])
def test_evaluation_where_every_chunk_is_lone_matches_the_per_dialogue_loop(monkeypatch,
                                                                          task_mode, ablation):
    # every length differs, so each dialogue runs as a stack of one
    from convemo.metrics import make_report, multilabel_f1
    from convemo.training import evaluate_multilabel

    rng = np.random.default_rng(8)
    dialogues = []
    for i, n in enumerate((5, 1, 17, 2)):
        utts = [Utterance(speaker=int(rng.integers(3)),
                          label=(int(rng.integers(4)) if task_mode == "single"
                                 else (rng.random(4) < 0.5).astype(float)),
                          audio=rng.standard_normal(4), text=rng.standard_normal(6))
                for _ in range(n)]
        dialogues.append(Dialogue(f"d{i}", 3, "test", utts))
    corpus = Corpus(dialogues, list("wxyz"), {"a": 4, "t": 6, "v": 0}, task_mode)
    cfg = _fast_config(ablation=ablation, active_modalities="at", multilabel_threshold=0.45)
    model = ModelParams.init(cfg, ModelDims.for_corpus(corpus, cfg), np.random.default_rng(2))
    want = _per_dialogue_preds(dialogues, model, cfg)
    calls = []

    def recording(dialogue, *args, **kwargs):
        calls.append([len(d) for d in dialogue])
        return forward_dialogue(dialogue, *args, **kwargs)

    monkeypatch.setattr(training, "forward_dialogue", recording)
    got = training.predict_dialogues(dialogues, model, cfg)
    assert calls == [[5], [1], [17], [2]]
    for p, w in zip(got, want, strict=True):
        assert p.dtype == w.dtype and p.shape == w.shape and p.tobytes() == w.tobytes()
    if task_mode == "single":
        report = make_report(dialogues, want, corpus.label_names, "utterance")
        assert evaluate_model(corpus, model, cfg, "test").to_json() == report.to_json()
        return
    gold = np.concatenate([dialogue_gold(d, "multi") for d in dialogues])
    pred = np.concatenate(want)
    per_class = multilabel_f1(gold, pred)
    assert evaluate_multilabel(corpus, model, cfg, "test") == {
        "per_class_f1": dict(zip("wxyz", per_class.tolist())),
        "mean_f1": float(per_class.mean()),
        "exact_match_accuracy": float((gold == pred).all(axis=1).mean()),
    }


def test_evaluate_multilabel_matches_the_per_dialogue_loop():
    from convemo.metrics import multilabel_f1
    from convemo.training import evaluate_multilabel

    rng = np.random.default_rng(1)
    dialogues = []
    for i in range(9):
        utts = [Utterance(speaker=j % 2, label=(rng.random(3) < 0.5).astype(float), audio=None,
                          text=rng.standard_normal(6), video=None)
                for j in range(3 if i == 4 else 5)]
        dialogues.append(Dialogue(f"m{i}", 2, "test", utts))
    corpus = Corpus(dialogues, ["x", "y", "z"], {"a": 0, "t": 6, "v": 0}, "multi")
    cfg = _fast_config(active_modalities="t", multilabel_threshold=0.45)
    model = ModelParams.init(cfg, ModelDims.for_corpus(corpus, cfg), np.random.default_rng(2))
    gold = np.concatenate([dialogue_gold(d, "multi") for d in dialogues])
    pred = np.concatenate(_per_dialogue_preds(dialogues, model, cfg))
    assert 0 < pred.mean() < 1
    per_class = multilabel_f1(gold, pred)
    assert evaluate_multilabel(corpus, model, cfg, "test") == {
        "per_class_f1": dict(zip("xyz", per_class.tolist())),
        "mean_f1": float(per_class.mean()),
        "exact_match_accuracy": float((gold == pred).all(axis=1).mean()),
    }


def test_stacked_eval_memory_stays_within_the_budget():
    # the masking test's shape: a copy's RGCN live set is sized by the message
    # rows of the dialogue that has the most, 229 * (2 * 64 + 24) elements, so
    # the four dialogues run in one forward
    corpus, cfg, model = _untrained(num_speakers=6, utts=24, dims={"a": 16, "t": 32, "v": 16},
                                    window_past=None, window_future=None)
    graphs = forward_graphs([d.speakers for d in corpus.dialogues], (4, 24, 0), model, cfg)
    assert len(corpus.dialogues) == 4 and max(_own_rows(graphs)) == 229
    assert training.copies_per_forward(24, model, graphs) == training.STACK_BLOCK // (229 * 152) == 7
    peak = _traced_peak(lambda: training.predict_dialogues(corpus.dialogues, model, cfg))
    assert peak <= 1.5 * training.STACK_BLOCK * 8


def test_graph_attention_heads_can_set_the_stack_budget():
    # width 32, 7 graph heads of width 5 and one relation type: per row, one
    # copy's graph projection is 4 * 7 * 5 = 140 elements, more than its FFN's
    # 128; with 100 utterances, the graph scores, 7 * 100 per row, are larger
    # still, so the four dialogues run three to a forward
    for utts, per_row in ((8, 140), (100, 700)):
        corpus, cfg, model = _untrained(num_speakers=2, utts=utts,
                                        dims={"a": 8, "t": 16, "v": 8}, gnn_heads=7,
                                        ablation="no_relations")
        graphs = forward_graphs([d.speakers for d in corpus.dialogues], (4, utts, 0), model, cfg)
        assert (training.copies_per_forward(utts, model, graphs)
                == training.STACK_BLOCK // (utts * per_row))
    assert training.copies_per_forward(100, model, graphs) == 3
    peak = _traced_peak(lambda: training.predict_dialogues(corpus.dialogues, model, cfg))
    assert peak <= 1.5 * training.STACK_BLOCK * 8


def test_parameter_count_can_set_the_stack_budget(monkeypatch):
    # the shape of the memory tests above, whose largest live set is one copy's
    # RGCN picked inputs, messages and mean; with the fixed budget shrunk, the
    # parameter count over STACK_SHARE sets the budget instead
    corpus, cfg, model = _untrained(num_speakers=6, utts=24, dims={"a": 16, "t": 32, "v": 16},
                                    window_past=None, window_future=None)
    d = corpus.dialogues[0]
    monkeypatch.setattr(training, "STACK_BLOCK", 4 * 1024)
    monkeypatch.setattr(training, "STACK_SHARE", 3)
    budget = model.arena.data.size // training.STACK_SHARE
    one = forward_graphs([d.speakers], (1, 24, 0), model, cfg)
    every = forward_graphs([d.speakers for d in corpus.dialogues], (4, 24, 0), model, cfg)
    rgcn = [max(_own_rows(g)) * (2 * 64 + 24) for g in (one, every)]
    assert rgcn[0] < rgcn[1]   # the four dialogues are sized by the one with the most rows
    assert training.copies_per_forward(24, model, one) == budget // rgcn[0] == 3
    assert training.copies_per_forward(24, model, every) == budget // rgcn[1] == 3
    peaks = [_traced_peak(lambda: mask_importance(d, model, cfg)),
             _traced_peak(lambda: training.predict_dialogues(corpus.dialogues, model, cfg))]
    assert max(peaks) <= 1.5 * budget * 8
    mask_sizes, eval_sizes = [], []

    def fused(x, *args, **kwargs):
        mask_sizes.append(x.shape[0])
        return forward_fused(x, *args, **kwargs)

    def dialogue(dialogues, *args, **kwargs):
        eval_sizes.append(len(dialogues))
        return forward_dialogue(dialogues, *args, **kwargs)

    monkeypatch.setattr(training, "forward_fused", fused)
    monkeypatch.setattr(training, "forward_dialogue", dialogue)
    report = mask_importance(d, model, cfg)
    got = training.predict_dialogues(corpus.dialogues, model, cfg)
    assert mask_sizes == [3] * 8 + [1] and eval_sizes == [3, 1]
    assert [report.baseline_f1, *report.masked_f1] == _per_copy_f1(d, model, cfg)
    for p, w in zip(got, _per_dialogue_preds(corpus.dialogues, model, cfg), strict=True):
        np.testing.assert_array_equal(p, w)


def test_multiparty_long_eval_runs_three_copies_a_forward_over_their_own_message_rows(
        monkeypatch):
    # the shape of the benchmark's multiparty-long workload: 6 speakers, 40
    # utterances, unbounded windows, width 64, the default config; a graph has
    # some 400 message rows, so the budget runs 3 dialogues a forward, and
    # each forward's RGCN GEMMs run over its copies' own rows, no more
    corpus = synth_corpus(SynthSpec(num_dialogues=9, utterances_per_dialogue=40, num_speakers=6,
                                    num_classes=6, dims={"a": 16, "t": 32, "v": 16},
                                    dependency="neighbor", seed=3))
    cfg = TrainConfig(window_past=None, window_future=None).validate()
    model = ModelParams.init(cfg, ModelDims.for_corpus(corpus, cfg), np.random.default_rng(5))
    assert model.dims.width == 64
    chunks, gemm_rows, relation_matmul = [], [], T.relation_matmul

    def dialogue(dialogues, *args, **kwargs):
        chunks.append((dialogues, forward_dialogue(dialogues, *args, **kwargs)))
        return chunks[-1][1]

    def counting(x, theta, rels, rows, at=None, tape=None):
        gemm_rows.append(sum(r.size for r in rows))
        return relation_matmul(x, theta, rels, rows, at, tape)

    monkeypatch.setattr(training, "forward_dialogue", dialogue)
    monkeypatch.setattr(T, "relation_matmul", counting)
    peak = _traced_peak(lambda: training.predict_dialogues(corpus.dialogues, model, cfg))
    assert peak <= 1.5 * training.STACK_BLOCK * 8
    sizes = [len(c) for c, _ in chunks]
    assert sum(sizes) == 9 and min(sizes[:-1]) >= 3
    assert gemm_rows == [sum(_own_rows(forward_graphs([d.speakers for d in c], (len(c), 40, 0),
                                                      model, cfg))) for c, _ in chunks]
    for c, stacked in chunks:
        for b, d in enumerate(c):
            one = forward_dialogue(d, model, cfg)
            want = one.logits.data
            assert np.abs(stacked.logits.data[b] - want).max() <= 1e-12 * np.abs(want).max()
            np.testing.assert_array_equal(stacked.preds[b], one.preds)


def test_a_ten_utterance_mask_at_paper_width_runs_in_one_forward():
    # the default config at width 1380 with 2 speakers, 119M parameters whose
    # values are left undrawn: a 10-utterance dialogue and its 10 masked copies
    # fit one forward, whatever its speakers
    cfg = TrainConfig().validate()
    model = ModelParams.init(cfg, ModelDims(1380, 6, 2), None)
    assert model.arena.data.size == 119_093_316
    for speakers in ([0, 1] * 5, [0] * 10, [0] * 5 + [1] * 5, [1, 1, 1, 0, 0, 0, 0, 0, 0, 1]):
        graphs = forward_graphs([speakers], (1, 10, 0), model, cfg)
        assert training.copies_per_forward(10, model, graphs) >= 11


def test_train_history_and_checkpoint_match_per_dialogue_validation(monkeypatch, tmp_path):
    corpus = _none_corpus(n=24, utts=5, seed=4)
    assert len(corpus.split("valid")) > 1
    cfg = _fast_config(epochs=4)
    files = []
    for stacked in (True, False):
        if not stacked:
            monkeypatch.setattr(training, "predict_dialogues", _per_dialogue_preds)
        result = train(corpus, cfg)
        path = tmp_path / f"{stacked}.ckpt"
        save_checkpoint(path, result.model, cfg, result.best_optimizer_state,
                        result.best_epoch, result.best_valid_wf1, result.label_names)
        files.append((result.history_csv(), path.read_bytes()))
    assert files[0] == files[1]


def test_mask_refuses_a_multilabel_model():
    corpus, cfg, _ = _untrained()
    dims = ModelDims(14, 3, 3, "multi")
    model = ModelParams.init(cfg, dims, np.random.default_rng(0))
    with pytest.raises(ConfigError, match="task mode 'multi'"):
        mask_importance(corpus.dialogues[0], model, cfg)


def test_evaluate_model_split_and_report(neighbor_model):
    corpus, cfg, model = neighbor_model
    report = evaluate_model(corpus, model, cfg, "test")
    n_test = sum(len(d) for d in corpus.split("test"))
    assert sum(report.support) == n_test
    assert report.weighted_f1 > 0.8  # the full model solves neighbor mode
    with pytest.raises(ConfigError):
        evaluate_model(Corpus(corpus.split("train"), corpus.label_names, corpus.dims),
                       model, cfg, "test")
