"""Layer-by-layer tracing from outside the program.

``Tracer.install`` replaces the public entry point of each layer, in the
module namespace its caller looks it up in, with a wrapper that records a
timing span; ``remove`` puts the originals back. Nothing in ``src/`` is
changed, and the wrappers pass arguments and results through untouched,
so traced outputs are bit-identical to untraced ones.

Eval-mode layer and graph figures are kept for the forwards made through
``evaluate_model`` and validation only, so the shorter forwards of the
masking analysis do not mix in. Spans recorded while a tape is open are kept per tape, as (layer, first
tape entry, entry after the last, ms). The ``backward`` wrapper uses them
to split the tape into one contiguous slice per layer and replays the
slices, last first, through the original ``backward``. That runs the same
adjoint calls in the same order as one whole-tape pass, so it gives the
same gradients while timing each layer's share of the backward pass.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict

from convemo import classifier, model, tensor, training

# (module, attribute, layer): the calls into each layer, where the model's
# forward pass and the training loop look them up.
LAYER_CALLS = (
    (model, "encode", "encoder"),
    (model, "rgcn_forward", "rgcn"),
    (model, "graph_transformer_forward", "attn"),
    (model, "classify", "classifier"),
    (classifier, "loss", "classifier"),
)

# per-layer metric name of each traced layer, formatted with eval, fwd or bwd
LAYER_METRICS = {"encoder": "encoder.{}_ms", "rgcn": "gnn.rgcn_{}_ms",
                 "attn": "gnn.attn_{}_ms", "classifier": "classifier.{}_ms"}


class Tracer:
    def __init__(self):
        self.eval_ms = defaultdict(list)     # layer -> ms per tape-free call
        self.fwd_ms = defaultdict(list)      # layer -> ms per taped forward
        self.bwd_ms = defaultdict(list)      # layer -> ms per backward
        self.samples = defaultdict(list)     # other named per-call figures
        self._spans: dict[int, list] = {}    # id(tape) -> [(layer, lo, hi, ms)]
        self._saved: list = []
        self._in_eval = False                # inside an eval forward_dialogue call

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, layer in LAYER_CALLS:
            self._patch(module, attr, self._layer_wrapper(getattr(module, attr), layer))
        self._patch(model, "graph_from_speakers", self._graph_wrapper(model.graph_from_speakers))
        self._patch(model, "fused_matrix", self._timed(model.fused_matrix, "model.fuse_ms"))
        self._patch(training, "forward_dialogue", self._eval_forward_wrapper(training.forward_dialogue))
        sliced = self._backward_wrapper(tensor.backward)
        self._patch(tensor, "backward", sliced)
        self._patch(training, "backward", sliced)
        self._patch(training.Adam, "step", self._adam_wrapper(training.Adam.step))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _layer_wrapper(self, fn, layer: str):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            tape = signature.bind(*args, **kwargs).arguments.get("tape")
            lo = len(tape) if tape is not None else 0
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            ms = (time.perf_counter() - t0) * 1e3
            if tape is None:
                if self._in_eval:
                    self.eval_ms[layer].append(ms)
            else:
                self._spans.setdefault(id(tape), []).append((layer, lo, len(tape), ms))
            return out

        return traced

    def _timed(self, fn, name: str):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.samples[name].append((time.perf_counter() - t0) * 1e3)
            return out

        return traced

    def _graph_wrapper(self, fn):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            g = fn(*args, **kwargs)
            if not self._in_eval:
                return g
            self.samples["graph.build_ms"].append((time.perf_counter() - t0) * 1e3)
            self.samples["graph.edges"].append(len(g.edges))
            self.samples["graph.relations"].append(len({rel for _, _, rel in g.edges}))
            return g

        return traced

    def _eval_forward_wrapper(self, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if signature.bind(*args, **kwargs).arguments.get("tape") is not None:
                return fn(*args, **kwargs)
            self._in_eval = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._in_eval = False
            self.samples["model.eval_fwd_ms"].append((time.perf_counter() - t0) * 1e3)
            return out

        return traced

    def _adam_wrapper(self, fn):
        tracer = self

        def traced(self):
            t0 = time.perf_counter()
            fn(self)
            tracer.samples["training.adam_step_ms"].append((time.perf_counter() - t0) * 1e3)
            tracer.samples["training.adam_tensors"].append(len(self.params))

        return traced

    def _backward_wrapper(self, fn):
        def traced(loss, tape):
            spans = self.take_spans(tape)
            fwd = defaultdict(float)
            for layer, _, _, ms in spans:
                fwd[layer] += ms
            for layer, ms in fwd.items():
                self.fwd_ms[layer].append(ms)
            self.samples["tensor.tape_ops"].append(len(tape))
            self.samples["tensor.matmul_ops"].append(
                sum(1 for entry in tape.entries if entry[0] == "matmul"))
            bwd = defaultdict(float)
            t_all = time.perf_counter()
            for layer, lo, hi in reversed(layer_slices(spans, len(tape))):
                part = tensor.Tape()
                part.entries = tape.entries[lo:hi]
                t0 = time.perf_counter()
                fn(loss, part)
                bwd[layer] += (time.perf_counter() - t0) * 1e3
            self.samples["tensor.backward_ms"].append((time.perf_counter() - t_all) * 1e3)
            for layer, ms in bwd.items():
                self.bwd_ms[layer].append(ms)

        return traced

    def take_spans(self, tape) -> list:
        """The spans recorded on ``tape``, forgotten here once taken."""
        return self._spans.pop(id(tape), [])

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Median of each per-call time (ms); counts are averaged per call."""
        out = {}
        for layer, name in LAYER_METRICS.items():
            for kind, table in (("eval", self.eval_ms), ("fwd", self.fwd_ms), ("bwd", self.bwd_ms)):
                if table.get(layer):
                    out[name.format(kind)] = statistics.median(table[layer])
        for name, values in self.samples.items():
            out[name] = (statistics.median(values) if name.endswith("_ms")
                         else statistics.fmean(values))
        return out


def layer_slices(spans, n_entries: int) -> list[tuple[str, int, int]]:
    """Cover tape entries [0, n_entries) with contiguous (layer, lo, hi) slices.

    Entries recorded outside every span form slices of layer "other".
    """
    slices = []
    pos = 0
    for layer, lo, hi, _ in sorted(spans, key=lambda s: s[1]):
        if lo < pos:
            raise ValueError(f"overlapping layer spans at tape entry {lo}")
        if lo > pos:
            slices.append(("other", pos, lo))
        if hi > lo:
            slices.append((layer, lo, hi))
        pos = hi
    if pos < n_entries:
        slices.append(("other", pos, n_entries))
    return slices
