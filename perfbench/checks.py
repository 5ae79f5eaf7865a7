"""Correctness checks for the benchmark's workloads.

Each check compares the program's output against a computation written
here, apart from the program (a brute-force graph, a numpy cross-entropy
and weighted F1, an Adam update, a finite difference), or against a
property of the method (probabilities sum to 1, a checkpoint reloads bit
for bit, a seed reproduces its losses). Nothing is compared against a
stored copy of earlier output.

A check never raises on a mismatch: it records a one-line failure in a
``Checks`` collector, so one run reports every failed check at once.
"""

from __future__ import annotations

import numpy as np

from convemo import classifier, tensor
from convemo.graph import graph_from_speakers
from convemo.model import dialogue_gold, forward_dialogue

# Central-difference steps. The first is the repository's gradient tests' step.
# A central difference is wrong when a ReLU or max kink lies within the step
# (seed 272 of dyadic-small: rel err 3.0e-3 at 1e-5, 1.7e-9 at 1e-6, and
# one-sided differences at 1e-6 agree to 6e-8), so the derivative counts as
# matched when the difference at any of these steps matches it; a wrong
# gradient misses at every step.
FD_STEPS = (1e-5, 1e-6)
FD_TOL = 1e-4       # relative error bound, as in the repository's gradient tests
EXACT_TOL = 1e-12   # probability sums, losses, F1 and Adam updates


class Checks:
    """Collects the failed checks of a run."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


def rel_err(a: float, b: float) -> float:
    """The repository's finite-difference error: |a-b| / max(|a|, |b|, 1e-6)."""
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def close(a: np.ndarray, b: np.ndarray, tol: float = EXACT_TOL) -> bool:
    """max |a - b| within ``tol`` of the largest magnitude in either array."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    scale = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) <= tol * scale


# ---------------------------------------------------------------------------
# inputs

def check_corpus(checks: Checks, generated, loaded) -> None:
    """``load_corpus`` must reproduce the generated corpus exactly."""
    same = (loaded.label_names == generated.label_names and loaded.dims == generated.dims
            and loaded.task_mode == generated.task_mode
            and len(loaded.dialogues) == len(generated.dialogues))
    for a, b in zip(generated.dialogues, loaded.dialogues):
        same = same and (a.dialogue_id, a.num_speakers, a.split, len(a)) == \
            (b.dialogue_id, b.num_speakers, b.split, len(b))
        for u, v in zip(a.utterances, b.utterances):
            same = same and u.speaker == v.speaker and u.label == v.label
            for key in ("audio", "text", "video"):
                x, y = getattr(u, key), getattr(v, key)
                same = same and ((x is None and y is None)
                                 or (x is not None and y is not None and np.array_equal(x, y)))
    checks.expect(same, "corpus: load_corpus does not reproduce the generated corpus")


def brute_force_edges(speakers, num_speakers: int, past, future, self_loops: bool) -> set:
    """Every (src, dst, relation) of the both-directions graph, by pair enumeration.

    relation id = direction * M^2 + src_speaker * M + dst_speaker, with
    direction 0 (past) when src spoke before dst and 1 (future) after.
    """
    m = num_speakers
    edges = set()
    for dst, s_dst in enumerate(speakers):
        if self_loops:
            edges.add((dst, dst, s_dst * m + s_dst))
        for src, s_src in enumerate(speakers):
            gap = dst - src
            if gap > 0 and (past is None or gap <= past):
                edges.add((src, dst, s_src * m + s_dst))
            elif gap < 0 and (future is None or -gap <= future):
                edges.add((src, dst, m * m + s_src * m + s_dst))
    return edges


def check_graphs(checks: Checks, corpus, config) -> None:
    """Every dialogue's edge list equals the brute-force edge set, without duplicates."""
    checks.expect(config.edge_mode == "both_directions",
                  f"graph: brute force covers both_directions only, not {config.edge_mode}")
    m = corpus.max_speakers
    bad = []
    for d in corpus.dialogues:
        g = graph_from_speakers(d.speakers, m, config.window_past, config.window_future,
                                config.edge_mode, config.self_loops)
        want = brute_force_edges(d.speakers, m, config.window_past, config.window_future,
                                 config.self_loops)
        if set(g.edges) != want or len(g.edges) != len(want):
            bad.append(d.dialogue_id)
    checks.expect(not bad, f"graph: edge sets differ from brute force in {bad[:3]}")


# ---------------------------------------------------------------------------
# one training step

def numpy_cross_entropy(logits: np.ndarray, gold: np.ndarray) -> float:
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(log_norm - z[np.arange(len(gold)), gold]))


def check_probs(checks: Checks, out, where: str) -> None:
    probs = out.probs.data
    checks.expect(np.abs(probs.sum(axis=1) - 1.0).max() <= EXACT_TOL,
                  f"forward: probability rows do not sum to 1 ({where})")
    checks.expect(np.array_equal(out.preds, probs.argmax(axis=1)),
                  f"forward: preds are not the argmax of probs ({where})")


def check_step(checks: Checks, model, optimizer, dialogue, config, probe_names,
               dropout_seed: int, rng: np.random.Generator) -> None:
    """One taped training step on ``dialogue``, checked piece by piece.

    - forward: probability rows sum to 1 and preds are their argmax;
    - loss: equals a numpy cross-entropy of the logits;
    - gradients: along a random unit direction over each probe tensor, the
      analytic directional derivative matches a central finite difference
      (at the second step if a kink lies within the first) with the dropout
      masks held fixed (same dropout seed every pass);
    - Adam: the update of each probe tensor matches one written here.
    """
    mode = model.dims.task_mode
    gold = dialogue_gold(dialogue, mode)

    def loss_value(tape=None):
        out = forward_dialogue(dialogue, model, config, training=True,
                               rng=np.random.default_rng(dropout_seed), tape=tape)
        return out, classifier.loss(out.logits, gold, mode, tape)

    tape = tensor.Tape()
    out, loss = loss_value(tape)
    check_probs(checks, out, f"training forward of {dialogue.dialogue_id}")
    checks.expect(rel_err(loss.item(), numpy_cross_entropy(out.logits.data, gold)) <= EXACT_TOL,
                  "loss: classifier.loss differs from a numpy cross-entropy")
    checks.expect(loss.item() == loss_value()[1].item(),
                  "determinism: the same dropout seed gives a different loss")
    model.zero_grads()
    tensor.backward(loss, tape)

    params = model.named()
    for name in probe_names:
        t = params[name]
        direction = rng.standard_normal(t.shape)
        direction /= np.linalg.norm(direction)
        analytic = float((t.grad * direction).sum()) if t.grad is not None else 0.0
        base = t.data
        misses = []
        for step in FD_STEPS:
            t.data = base + step * direction
            f_plus = loss_value()[1].item()
            t.data = base - step * direction
            f_minus = loss_value()[1].item()
            t.data = base
            numeric = (f_plus - f_minus) / (2 * step)
            err = rel_err(analytic, numeric)
            if err < FD_TOL:
                break
            misses.append(f"{numeric:.6e} at step {step:g} (rel err {err:.1e})")
        checks.expect(len(misses) < len(FD_STEPS),
                      f"gradient: {name} directional derivative {analytic:.6e} vs "
                      f"finite differences {', '.join(misses)}")

    before = {name: (params[name].data.copy(), optimizer.m[name].copy(),
                     optimizer.v[name].copy(), params[name].grad.copy())
              for name in probe_names}
    step = optimizer.step_count + 1
    optimizer.step()
    for name, (theta, m, v, g) in before.items():
        m_new = optimizer.beta1 * m + (1.0 - optimizer.beta1) * g
        v_new = optimizer.beta2 * v + (1.0 - optimizer.beta2) * np.square(g)
        m_hat = m_new / (1.0 - optimizer.beta1 ** step)
        v_hat = v_new / (1.0 - optimizer.beta2 ** step)
        theta_new = theta - optimizer.lr * m_hat / (np.sqrt(v_hat) + optimizer.eps)
        ok = (close(optimizer.m[name], m_new) and close(optimizer.v[name], v_new)
              and close(params[name].data, theta_new))
        checks.expect(ok, f"Adam: update of {name} differs from the reference update")
    optimizer.zero_grad()


# ---------------------------------------------------------------------------
# evaluation, masking, checkpoints, determinism

def numpy_weighted_f1(gold, pred, num_classes: int) -> float:
    """Support-weighted F1 with per-class F1 = 2tp / (2tp + fp + fn), 0 when undefined."""
    gold, pred = np.asarray(gold), np.asarray(pred)
    total = 0.0
    for c in range(num_classes):
        tp = np.sum((gold == c) & (pred == c))
        denom = np.sum(gold == c) + np.sum(pred == c)
        if denom:
            total += np.sum(gold == c) * 2.0 * tp / denom
    return total / len(gold)


def eval_predictions(checks: Checks, dialogues, model, config) -> list[np.ndarray]:
    """Eval-mode forwards of ``dialogues``; checks each output's probabilities."""
    preds = []
    for d in dialogues:
        out = forward_dialogue(d, model, config)
        check_probs(checks, out, f"eval forward of {d.dialogue_id}")
        preds.append(out.preds)
    return preds


def check_eval(checks: Checks, report, dialogues, model, config) -> None:
    """``evaluate_model``'s weighted F1 equals one recomputed from preds and gold."""
    preds = np.concatenate(eval_predictions(checks, dialogues, model, config))
    gold = [u.label for d in dialogues for u in d.utterances]
    want = numpy_weighted_f1(gold, preds, model.dims.num_classes)
    checks.expect(abs(report.weighted_f1 - want) <= EXACT_TOL,
                  f"eval: weighted F1 {report.weighted_f1!r} vs recomputed {want!r}")


def check_mask(checks: Checks, mask_report, dialogue, model, config) -> None:
    """The masking baseline equals the unmasked eval F1 of the dialogue."""
    preds = eval_predictions(checks, [dialogue], model, config)[0]
    want = numpy_weighted_f1([u.label for u in dialogue.utterances], preds,
                             model.dims.num_classes)
    checks.expect(abs(mask_report.baseline_f1 - want) <= EXACT_TOL
                  and len(mask_report.masked_f1) == len(dialogue),
                  f"mask: baseline F1 {mask_report.baseline_f1!r} vs eval F1 {want!r}")


def check_checkpoint(checks: Checks, saved_model, saved_state, loaded, probe) -> None:
    """A loaded checkpoint has bit-identical parameters and Adam moments, and
    ``probe(model)`` (the logits of some forwards) is bit-identical too."""
    a, b = saved_model.named(), loaded.model.named()
    checks.expect(a.keys() == b.keys() and all(np.array_equal(a[k].data, b[k].data) for k in a),
                  "checkpoint: parameters are not bit-identical after a reload")
    state = loaded.optimizer_state
    same = state["step_count"] == saved_state["step_count"]
    for key in ("m", "v"):
        same = same and state[key].keys() == saved_state[key].keys() and all(
            np.array_equal(state[key][k], saved_state[key][k]) for k in saved_state[key])
    checks.expect(same, "checkpoint: Adam moments are not bit-identical after a reload")
    checks.expect(all(np.array_equal(x, y) for x, y in zip(probe(saved_model), probe(loaded.model))),
                  "checkpoint: predictions differ after a reload")


def check_same_history(checks: Checks, first, history) -> None:
    key = [(h.epoch, h.train_loss, h.valid_wf1) for h in history]
    want = [(h.epoch, h.train_loss, h.valid_wf1) for h in first]
    checks.expect(key == want, "determinism: train() with the same seed gave other "
                               f"per-epoch losses: {key} vs {want}")
