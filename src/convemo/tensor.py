"""Dense float64 tensors with a reverse-mode autodiff tape.

The conversation model runs entirely on the primitives in this module:
matmul (and row blocks of matmuls sharing one input: one batched matmul
over a layer's weights, read as one span of their arena), multi-head
attention over such blocks (plain or graph-masked), a relational matmul
(picked rows times their relation's slice of one (R, d, k) weight, one
GEMM per present relation), row softmax, layer norm, relu, inverted
dropout, bias adds, and the two classification losses. Forward
ops record onto an explicit ``Tape``; ``backward`` replays the tape in
reverse and accumulates adjoints, so a tensor consumed by several ops
receives the sum of all contributions.

Ops act on the last two axes: rows are axis -2 and features axis -1. An
operand may carry one leading stack axis, (B, n, d) for B copies of an
(n, d) input, which runs B forwards at once, on a tape or not: a stacked
input times a 2-D weight is one GEMM over all B*n rows, and stacked @
stacked is numpy's batched matmul. Each op has one backward, in which the
adjoint of an operand shared by every copy (a weight, a bias, a layer-norm
affine) sums over the rows of all copies; a 2-D operand is a stack of one.
A stack carries one graph mask per copy; a 2-D @ stacked matmul, stacks
of unequal copy counts and repeated or out-of-range relation ids are
refused, each with a one-line ``ShapeError``.

Parameters live in arenas (``Arena``): one flat float64 array holds the
values of a set of parameters, each parameter's ``data`` a reshaped view
into it, and a second flat array, allocated by the first backward that
reaches one of them, holds their gradient buffers the same way. A model
(``Init.place``) is one arena, a lone ``parameter`` an arena of its own, and
an optimizer steps one whole arena. Nothing may rebind a parameter's
``data``. ``parameter.grad`` is the parameter's buffer view: it stays valid
until the first backward after ``zero_grad`` writes the next step's gradient
into it, or ``release_grad`` frees the arena's buffers, so copy it to keep it.
An array assigned to ``grad`` by hand is never written into. Every other
tensor's ``grad`` is a fresh array per contribution, as a value.

Storage is always row-major contiguous float64. Any op that produces a
NaN or Inf from finite inputs raises ``NonFiniteError`` instead of
letting the value propagate silently.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import weakref
import zipfile
import zlib
from collections.abc import Mapping
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

PARAMS_VERSION = 3
_HEADER = "__header__"


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf."""


class Tensor:
    """Dense n-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A leaf tensor whose value and gradient buffer are views into its
    ``arena``'s flat arrays."""

    __slots__ = ("arena", "_at", "_view", "_buf", "__weakref__")

    def __init__(self, data=None):
        """A parameter alone in an arena over ``data``'s memory or, with no
        ``data``, one that ``Init.place`` lays out later."""
        self.data, self.requires_grad, self.grad, self.arena, self._buf = None, True, None, None, None
        if data is not None:
            data = np.ascontiguousarray(data, dtype=np.float64)
            Arena([self], [data.shape], data.reshape(-1))

    def _accumulate(self, g) -> None:
        """Add one adjoint into the buffer: ``g`` is an array, or a deferred
        matmul (``_Product``) that computes its first contribution straight into
        the buffer. The sum runs in the order of an allocating ``grad + g``, so
        the gradient is the same to the bit."""
        self.arena.alloc_grad()
        buf = self._buf
        if self.grad is None:        # first contribution since zero_grad
            if type(g) is _Product:
                np.matmul(g.left, g.right, out=buf)
            else:
                np.copyto(buf, g)
        else:
            np.add(self.grad, g, out=buf)
        self.grad = buf


def parameter(data) -> Parameter:
    """A tensor that collects gradients into a buffer of its own."""
    return Parameter(data)


class Arena:
    """Parameters laid end to end in one flat float64 array ``data``, each
    parameter's ``data`` a reshaped view of ``data[bounds[i]:bounds[i+1]]``,
    kept as its ``_view`` (and ``bounds[i]`` as its ``_at``) to tell a rebinding.
    ``grad``, laid out alike, holds their gradient buffers: allocated by the first
    backward that reaches a member, kept across ``zero_grad`` and freed by
    ``release_grad``. Each member holds its arena, and the arena holds its members
    weakly, so a dropped model is freed at once, not by the cyclic collector."""

    __slots__ = ("members", "shapes", "data", "grad", "bounds")

    def __init__(self, params: Sequence[Parameter], shapes, data: np.ndarray):
        self.members = [weakref.ref(t) for t in params]
        self.shapes, self.data, self.grad = list(shapes), data, None
        self.bounds = [0, *itertools.accumulate(map(math.prod, self.shapes))]
        for t, shape, lo, hi in zip(params, self.shapes, self.bounds, self.bounds[1:]):
            t.data = t._view = data[lo:hi].reshape(shape)
            t.arena, t._at, t._buf = self, lo, None

    @property
    def params(self) -> list[Parameter | None]:
        """The members in order, None in the place of one since freed."""
        return [ref() for ref in self.members]

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """``flat``, an array laid out like ``data``, cut into one view per parameter."""
        return [flat[lo:hi].reshape(shape)
                for shape, lo, hi in zip(self.shapes, self.bounds, self.bounds[1:])]

    def alloc_grad(self) -> np.ndarray:
        """``grad``, first allocated, with each member's buffer, if it is not yet."""
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            for t, view in zip(self.params, self.views(self.grad)):
                if t is not None:   # a freed member keeps its place
                    t._buf = view
        return self.grad

    def zero_grad(self) -> None:
        for t in self.params:
            if t is not None:
                t.grad = None

    def release_grad(self) -> None:
        self.grad = None
        for t in self.params:
            if t is not None:
                t.grad = t._buf = None


class Init:
    """Declares parameters, each Xavier-uniform from ``rng`` or a constant,
    and draws their values in declaration order.

    Parameters declared on an ``Init`` have no value until ``place`` lays them
    out in one arena and draws each straight into its view, so a model is
    never built and then copied; with ``rng`` None the arena is left unset,
    for a caller that reads it from a file. ``Init.of`` a generator instead
    draws each parameter as it is declared, into an arena of its own."""

    DRAW_CHUNK = 1 << 15   # elements scaled while still in cache

    def __init__(self, rng: np.random.Generator | None, defer: bool = True):
        self.rng, self.defer = rng, defer
        self.declared: dict[Parameter, tuple] = {}   # -> (shape, draw)

    @classmethod
    def of(cls, rng: "np.random.Generator | Init") -> "Init":
        return rng if isinstance(rng, Init) else cls(rng, defer=False)

    def xavier(self, shape: tuple[int, ...]) -> Parameter:
        """Uniform in +-sqrt(6/(fan_in+fan_out)), the last two axes' sizes,
        equal to the bit to ``rng.uniform(-bound, bound, shape)``: low + (high
        - low) * U. A leading axis stacks matrices drawn one after another."""
        bound, rng = math.sqrt(6.0 / (shape[-2] + shape[-1])), self.rng

        def draw(out: np.ndarray) -> None:   # holds no reference to the Init
            flat = out.reshape(-1)
            for lo in range(0, flat.size, Init.DRAW_CHUNK):
                part = flat[lo:lo + Init.DRAW_CHUNK]
                rng.random(out=part)
                part *= 2.0 * bound
                part += -bound

        return self._declare(shape, draw)

    def fill(self, shape: tuple[int, ...], value: float) -> Parameter:
        return self._declare(shape, lambda out: out.fill(value))

    def _declare(self, shape: tuple[int, ...], draw: Callable) -> Parameter:
        if not self.defer:
            t = Parameter(np.empty(shape))
            draw(t.data)
            return t
        t = Parameter()
        self.declared[t] = (shape, draw)
        return t

    def place(self, order: Sequence[Parameter]) -> Arena:
        """One arena of every declared parameter, laid out in ``order``."""
        if len(order) != len(self.declared) or set(order) != set(self.declared):
            raise ValueError("place needs every declared parameter exactly once")
        shapes = [self.declared[t][0] for t in order]
        arena = Arena(order, shapes, np.empty(sum(map(math.prod, shapes))))
        if self.rng is not None:
            for t, (_, draw) in self.declared.items():
                draw(t.data)
        return arena


class _Product:
    """The adjoint ``left @ right`` of a matmul operand that is a parameter, left
    for ``Parameter._accumulate`` to compute, so it can write into the buffer.
    Anything else that reads it as an array gets the product computed."""

    __slots__ = ("left", "right")

    def __init__(self, left: np.ndarray, right: np.ndarray):
        self.left, self.right = left, right

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.left @ self.right, dtype=dtype)


class Tape:
    """Execution-ordered record of ops, replayed in reverse by ``backward``."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[tuple[str, tuple[Tensor, ...], Tensor, Callable]] = []

    def record(self, op: str, inputs: tuple[Tensor, ...], output: Tensor, grad_fn: Callable) -> None:
        self.entries.append((op, inputs, output, grad_fn))

    def __len__(self) -> int:
        return len(self.entries)


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be a scalar whose history is fully covered by ``tape``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for _op, inputs, output, grad_fn in reversed(tape.entries):
        d_out = output.grad
        if d_out is None:
            continue
        for t, g in zip(inputs, grad_fn(d_out)):
            if g is None or not t.requires_grad:
                continue
            if type(t) is Parameter:
                t._accumulate(g)
            else:
                t.grad = g if t.grad is None else t.grad + g


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], op: str,
          tape: Tape | None, grad_fn: Callable) -> Tensor:
    if not np.isfinite(out_data).all():
        raise NonFiniteError(f"op '{op}' produced non-finite values")
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    if tape is not None and requires:
        tape.record(op, inputs, out, grad_fn)
    return out


def _check_2d(name: str, *tensors: Tensor) -> None:
    """Each operand is a matrix, or a stack of matrices on one leading axis."""
    for t in tensors:
        if t.data.ndim not in (2, 3):
            raise ShapeError(f"{name} expects (stacked) 2-D operands, got shape {t.shape}")


def _scalar(d: np.ndarray) -> float:
    return float(d.reshape(-1)[0])


# ---------------------------------------------------------------------------
# primitives

def matmul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _check_2d("matmul", a, b)
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if a.data.ndim < b.data.ndim:
        raise ShapeError(f"matmul of a 2-D {a.shape} by a stacked {b.shape}: stack the left one")
    if b.data.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul of stacks of unequal copy counts: {a.shape} x {b.shape}")
    # a 2-D b is shared by every copy: one GEMM over all their rows, forward and for b's adjoint
    a_data, b_data = a.data.reshape(-1, a.shape[-1]) if b.data.ndim == 2 else a.data, b.data
    # An operand that takes no gradient gets no adjoint (None), and a
    # parameter's is deferred so that backward computes it into its buffer.
    # (One closure cell per operand says both: the tape keeps every closure
    # alive until backward, and each extra cell adds to the cyclic
    # collector's work.)
    adj_a = a.requires_grad and (_Product if type(a) is Parameter else np.matmul)
    adj_b = b.requires_grad and (_Product if type(b) is Parameter else np.matmul)

    def grad_fn(d):
        return (adj_a(d, b_data.swapaxes(-1, -2)) if adj_a else None,
                adj_b(a_data.swapaxes(-1, -2), d.reshape(*a_data.shape[:-1], -1)) if adj_b else None)

    out = (a_data @ b_data).reshape(*a.shape[:-1], b.shape[-1])
    return _make(out, (a, b), "matmul", tape, grad_fn)


def _span(flat: np.ndarray, first: Parameter, count: int) -> np.ndarray:
    """The part of ``flat``, laid out like ``first``'s arena, of it and the next count-1."""
    return flat[first._at:first._at + count * first.data.size].reshape(count, *first.shape)


def block_matmul(x: Tensor, weights: Sequence[Tensor], tape: Tape | None = None) -> Tensor:
    """The products ``x @ w`` of one input with P same-shape 2-D weights, stacked
    by rows: a (P*n) x k matrix whose i-th block of n rows is ``x @ weights[i]``.
    One tape op, bit-identical to separate matmuls, over the weights as one
    (P, d, k) array: their view of the arena when they lie end to end in one and
    are each still its view (``t.data is t._view``), else a stacked copy, as for
    a member that a finite-difference probe rebinds. One copy runs one batched
    matmul; B >= 2 stacked copies one GEMM over all B*n rows per weight, reading
    each weight once. Backward runs one batched matmul into ``x``'s adjoint
    (blocks summed last first) and, when the weights are one arena span and none
    has a grad yet, one into that span of the gradient arena (else each
    accumulates its own); a weight's adjoint sums over every copy's rows."""
    _check_2d("block_matmul", x)
    if not weights or any(w.shape != (x.shape[-1], weights[0].shape[-1]) for w in weights):
        raise ShapeError(f"block_matmul needs k >= 1 weights of one 2-D shape with "
                         f"{x.shape[-1]} rows, got {[w.shape for w in weights]}")
    # adjoints as matmul gives them: none, deferred into a parameter's buffer, or computed
    adj_w = [w.requires_grad and (_Product if type(w) is Parameter else np.matmul)
             for w in weights]
    p, (n, d), k = len(weights), x.shape[-2:], weights[0].shape[-1]
    first = weights[0]
    spanned = all(type(w) is Parameter and w.data is w._view and w.arena is first.arena
                  and w._at == first._at + i * first.data.size for i, w in enumerate(weights))
    stack = (_span(first.arena.data, first, p) if spanned
             else np.stack([w.data for w in weights]))
    out, flat = np.empty((*x.shape[:-2], p * n, k)), x.data.reshape(-1, d)
    if len(flat) == n:   # one copy
        np.matmul(flat, stack, out=out.reshape(p, n, k))
    else:
        for i, w in enumerate(weights):
            out[:, i * n:(i + 1) * n] = (flat @ w.data).reshape(-1, n, k)

    def grad_fn(g):
        # weight i's blocks of every copy, (p, B*n, k), against ``flat``, (B*n, d)
        blocks = g.reshape(-1, p, n, k).swapaxes(0, 1).reshape(p, -1, k)
        d_x = None
        if x.requires_grad:   # block i's part in slot p-1-i
            parts = np.matmul(blocks[::-1], stack[::-1].swapaxes(-1, -2))
            d_x = np.add.reduce(parts, axis=0).reshape(x.shape)
        if spanned and all(a is _Product and w.grad is None for a, w in zip(adj_w, weights)):
            np.matmul(flat.T, blocks, out=_span(first.arena.alloc_grad(), first, p))
            for w in weights:
                w.grad = w._buf
            return (d_x, *[None] * p)
        return (d_x, *(adj(flat.T, blk) if adj else None for adj, blk in zip(adj_w, blocks)))

    return _make(out, (x, *weights), "block_matmul", tape, grad_fn)


def relation_matmul(x: Tensor, theta: Tensor, rels: np.ndarray, rows: Sequence[np.ndarray],
                    at: np.ndarray | None = None, tape: Tape | None = None) -> Tensor:
    """Rows of ``x`` times their relation's slice of ``theta``, (R, d, k): block i
    is the rows ``rows[i]`` names, every copy's end to end (copy b's row j is
    b*n + j), times ``theta[rels[i]]``, one GEMM over a view per present relation,
    and the output is the S x k blocks. With ``at``, an int array of shape
    (*lead, M) that names each of those S rows at most once, the output is
    (*lead, M, k): row ``at[..., m]`` of the blocks, or zero where ``at`` holds S.
    The picked rows are gathered in forward and again in backward, so neither the
    tape nor ``at``'s gather holds them. Backward sums their adjoints into ``x``'s
    by one ``bincount``, so a row no block picks gets zero, and writes relation
    r's adjoint straight into slice r of ``theta``'s gradient buffer: a first
    contribution zeroes the absent relations' slices, a later one adds into the
    present slices only. A ``theta`` that takes a gradient is a parameter, and
    ``rels`` increases within [0, R), or a one-line ``ShapeError`` names the id."""
    _check_2d("relation_matmul", x)
    d, k = x.shape[-1], theta.shape[-1]
    if (theta.data.ndim != 3 or theta.shape[1] != d or not len(rels) or len(rows) != len(rels)
            or any(r.ndim != 1 for r in rows) or theta.requires_grad and type(theta) is not Parameter):
        raise ShapeError(f"relation_matmul needs an (R, {d}, k) theta, a parameter if it takes a "
                         f"gradient, and one index array of shape (S,) per relation, got "
                         f"{theta.shape} and {[r.shape for r in rows]} for {len(rels)}")
    if rels[0] < 0 or rels[-1] >= theta.shape[0] or (rels[1:] <= rels[:-1]).any():
        bad = np.flatnonzero(np.diff(rels, prepend=-1, append=theta.shape[0]) <= 0)[0]
        why = "repeats or comes out of order" if 0 < bad < len(rels) else "is out of range"
        raise ShapeError(f"relation id {rels[min(bad, len(rels) - 1)]} {why} "
                         f"(ids must increase within [0, {theta.shape[0]}))")
    ends = np.cumsum([r.size for r in rows]).tolist()
    spans, s = list(zip(rels, [0, *ends], ends)), ends[-1]
    index = np.concatenate(rows)
    prods = np.empty((s + 1, k))
    prods[s] = 0.0   # the zero row of ``at``
    picked = x.data.reshape(-1, d)[index]
    for r, lo, hi in spans:
        np.matmul(picked[lo:hi], theta.data[r], out=prods[lo:hi])
    del picked   # before ``at``'s gather

    def grad_fn(g):
        if at is not None:
            g, g_at = np.zeros((s + 1, k)), g
            g[at] = g_at
        if theta.requires_grad:   # each slice summed as ``Parameter._accumulate`` sums
            picked = x.data.reshape(-1, d)[index]
            theta.arena.alloc_grad()
            buf, grad = theta._buf, theta.grad
            if grad is None:
                buf[np.bincount(rels, minlength=len(buf)) == 0] = 0.0
            elif grad is not buf:   # assigned by hand: read, never written into
                np.copyto(buf, grad)
            for r, lo, hi in spans:
                if grad is None:
                    np.matmul(picked[lo:hi].T, g[lo:hi], out=buf[r])
                else:
                    buf[r] += picked[lo:hi].T @ g[lo:hi]
            theta.grad = buf
        if not x.requires_grad:
            return None, None
        parts = np.empty((s, d))
        for r, lo, hi in spans:
            np.matmul(g[lo:hi], theta.data[r].T, out=parts[lo:hi])
        d_x = np.bincount((index[:, None] * d + np.arange(d)).ravel(), parts.ravel(), x.data.size)
        return d_x.reshape(x.shape), None

    return _make(prods[:s] if at is None else prods[at], (x, theta), "relation_matmul",
                 tape, grad_fn)


def transpose(x: Tensor, tape: Tape | None = None) -> Tensor:
    _check_2d("transpose", x)

    def grad_fn(d):
        return (d.swapaxes(-1, -2),)

    return _make(x.data.swapaxes(-1, -2), (x,), "transpose", tape, grad_fn)


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add needs matching shapes, got {a.shape} and {b.shape}")

    def grad_fn(d):
        return d, d

    return _make(a.data + b.data, (a, b), "add", tape, grad_fn)


def add_bias(x: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Row-broadcast add: (m, n) + (n,)."""
    _check_2d("add_bias", x)
    if b.data.ndim != 1 or b.shape[0] != x.shape[-1]:
        raise ShapeError(f"add_bias needs bias of width {x.shape[-1]}, got shape {b.shape}")

    def grad_fn(d):
        return d, d.reshape(-1, d.shape[-1]).sum(axis=0)

    return _make(x.data + b.data, (x, b), "add_bias", tape, grad_fn)


def mul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul needs matching shapes, got {a.shape} and {b.shape}")
    a_data, b_data = a.data, b.data

    def grad_fn(d):
        return d * b_data, d * a_data

    return _make(a_data * b_data, (a, b), "mul", tape, grad_fn)


def mul_scalar(x: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    def grad_fn(d):
        return (d * c,)

    return _make(x.data * c, (x,), "mul_scalar", tape, grad_fn)


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    gate = x.data > 0

    def grad_fn(d):
        return (d * gate,)

    return _make(np.maximum(x.data, 0.0), (x,), "relu", tape, grad_fn)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, in place in ``x``, stabilized by the row max;
    with a boolean ``mask`` broadcast against ``x``, over its true entries only,
    the others set to -inf first, and a row with none comes out all-zero."""
    if mask is not None:
        x += np.where(mask, 0.0, -np.inf)
    top = x.max(axis=-1, keepdims=True)
    top[top == -np.inf] = 0.0     # a row with no true entry: exp(-inf) is 0 throughout
    x -= top
    np.exp(x, out=x)
    denom = x.sum(axis=-1, keepdims=True)
    denom[denom == 0.0] = 1.0     # only such a row sums to 0, and its zeros stay
    return np.divide(x, denom, out=x)


def softmax_rows(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Row-wise softmax, stabilized by row-max subtraction."""
    _check_2d("softmax_rows", x)
    out = _softmax(x.data.copy())

    def grad_fn(d):
        return (out * (d - (d * out).sum(axis=-1, keepdims=True)),)

    return _make(out, (x,), "softmax_rows", tape, grad_fn)


def attention(proj: Tensor, num_heads: int, scale: float, mask: np.ndarray | None = None,
              tape: Tape | None = None) -> tuple[Tensor, np.ndarray]:
    """Every head of an attention layer in one op. ``proj`` is the ``block_matmul``
    of n rows by the layer's weights, head after head: q, k, v or, with a
    neighbourhood ``mask``, self, msg, key_self, key_nbr. Head h is softmax(q kᵀ
    * scale) v, or self + softmax(key_self key_nbrᵀ * scale) msg, each row's
    softmax over its true entries in ``mask`` ((n, n), or (B, n, n) for a stack,
    one per copy; a row with none gets zero weights). Returns the heads side by
    side, (..., n, H*k), and their weights, (..., H, n, n)."""
    _check_2d("attention", proj)
    parts = 3 if mask is None else 4
    *lead, rows, k = proj.shape
    n = rows // (parts * num_heads)
    if n == 0 or n * parts * num_heads != rows:
        raise ShapeError(f"attention: {rows} rows are not {parts} blocks per head of {num_heads}")
    blocks = proj.data.reshape(*lead, num_heads, parts, n, k)
    iq, ik, iv = (0, 1, 2) if mask is None else (2, 3, 1)   # each role's block in a head
    q, key, v = blocks[..., iq, :, :], blocks[..., ik, :, :], blocks[..., iv, :, :]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (*lead, n, n):
            raise ShapeError(f"mask shape {mask.shape} does not match input {proj.shape}: "
                             "a stack takes one mask per copy")
        mask = mask[..., None, :, :]      # shared by every head
    scores = q @ key.swapaxes(-1, -2)
    scores *= scale
    alpha = _softmax(scores, mask)
    out = np.empty((*lead, n, num_heads, k))
    np.matmul(alpha, v, out=out.swapaxes(-3, -2))
    if mask is not None:
        out += blocks[..., 0, :, :].swapaxes(-3, -2)

    def grad_fn(d):
        d_out = d.reshape(*lead, n, num_heads, k).swapaxes(-3, -2)
        d_blocks = np.empty((*lead, num_heads, parts, n, k))
        np.matmul(alpha.swapaxes(-1, -2), d_out, out=d_blocks[..., iv, :, :])
        d_alpha = d_out @ v.swapaxes(-1, -2)
        d_scores = alpha * (d_alpha - (d_alpha * alpha).sum(axis=-1, keepdims=True)) * scale
        np.matmul(d_scores, key, out=d_blocks[..., iq, :, :])
        np.matmul(d_scores.swapaxes(-1, -2), q, out=d_blocks[..., ik, :, :])
        if mask is not None:
            d_blocks[..., 0, :, :] = d_out
        return (d_blocks.reshape(proj.shape),)

    return _make(out.reshape(*lead, n, num_heads * k), (proj,), "attention", tape, grad_fn), alpha


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5,
               tape: Tape | None = None) -> Tensor:
    """Per-row normalization to mean 0 / variance 1, then affine scale and shift."""
    _check_2d("layer_norm", x)
    d_width = x.shape[-1]
    if gamma.shape != (d_width,) or beta.shape != (d_width,):
        raise ShapeError(f"layer_norm affine params must have shape ({d_width},), "
                         f"got {gamma.shape} and {beta.shape}")
    mu = x.data.sum(axis=-1, keepdims=True) / d_width
    centered = x.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d_width
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma.data + beta.data
    g_data = gamma.data

    def grad_fn(d):
        d_xhat = d * g_data
        d_gamma = (d * xhat).reshape(-1, d_width).sum(axis=0)
        d_beta = d.reshape(-1, d_width).sum(axis=0)
        mean_dxhat = d_xhat.sum(axis=-1, keepdims=True) / d_width
        mean_dxhat_xhat = (d_xhat * xhat).sum(axis=-1, keepdims=True) / d_width
        d_x = inv * (d_xhat - mean_dxhat - xhat * mean_dxhat_xhat)
        return d_x, d_gamma, d_beta

    return _make(out, (x, gamma, beta), "layer_norm", tape, grad_fn)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None,
            tape: Tape | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p) at train time, identity in eval."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    scale = 1.0 / (1.0 - p)
    keep = (rng.random(x.shape) >= p) * scale

    def grad_fn(d):
        return (d * keep,)

    return _make(x.data * keep, (x,), "dropout", tape, grad_fn)


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    shape = x.shape

    def grad_fn(d):
        return (np.full(shape, _scalar(d)),)

    return _make(np.asarray(x.data.sum()), (x,), "sum_all", tape, grad_fn)


# ---------------------------------------------------------------------------
# losses

def cross_entropy_logits(logits: Tensor, labels: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Mean categorical cross-entropy from logits via stabilized log-softmax."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_logits expects 2-D logits, got shape {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"label out of range for {c} classes: {labels.min()}..{labels.max()}")
    z = logits.data
    z_max = z.max(axis=1, keepdims=True)
    lse = z_max + np.log(np.exp(z - z_max).sum(axis=1, keepdims=True))
    log_p = z - lse
    loss = -log_p[np.arange(n), labels].mean()
    soft = np.exp(log_p)

    def grad_fn(d):
        g = soft.copy()
        g[np.arange(n), labels] -= 1.0
        return (g * (_scalar(d) / n),)

    return _make(np.asarray(loss), (logits,), "cross_entropy_logits", tape, grad_fn)


def bce_with_logits(logits: Tensor, targets: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Mean element-wise binary cross-entropy from logits (stabilized)."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeError(f"targets shape {t.shape} does not match logits {logits.shape}")
    z = logits.data
    loss = (np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean()
    sig = _stable_sigmoid(z)
    size = z.size

    def grad_fn(d):
        return ((sig - t) * (_scalar(d) / size),)

    return _make(np.asarray(loss), (logits,), "bce_with_logits", tape, grad_fn)


# ---------------------------------------------------------------------------
# parameter serialization

@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a sibling temp file for writing and, once the block completes,
    ``os.replace`` it onto ``path``: a reader, or a run killed mid-write,
    sees either the old file or the whole new one, never a truncated one."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_params(path, members: Mapping[str, Sequence[np.ndarray]],
                fmt: str, header: dict | None = None) -> None:
    """Write named members as one version-3 container: an uncompressed zip of
    one 1-D float64 ``.npy`` member per name plus a JSON header member carrying
    ``fmt``, the version and ``header``. A member holds its arrays' elements end
    to end, written from each array in turn, so nothing is joined in memory.
    Zip members carry a fixed timestamp, so identical inputs give identical
    bytes. The file is written atomically at exactly ``path``."""
    meta = json.dumps({**(header or {}), "format": fmt, "version": PARAMS_VERSION},
                      sort_keys=True)
    members = {_HEADER: [np.frombuffer(meta.encode(), dtype=np.uint8)], **members}
    with atomic_open(path, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        for name, arrays in members.items():
            dtype = np.dtype(np.uint8 if name == _HEADER else np.float64)
            arrays = [np.ascontiguousarray(a, dtype=dtype) for a in arrays]
            with zf.open(f"{name}.npy", "w", force_zip64=True) as out:
                np.lib.format.write_array_header_1_0(out, {
                    "descr": dtype.str, "fortran_order": False,
                    "shape": (sum(a.size for a in arrays),)})
                for a in arrays:
                    out.write(a.data)


def _damaged(path, fmt: str, why) -> ValueError:
    return ValueError(f"corrupt or truncated {fmt} file {path}: " + " ".join(str(why).split()))


@contextmanager
def open_params(path, fmt: str):
    """Open a container written by ``save_params``; yields its header dict and
    ``read_into(name, out)``, which reads member ``name`` from the file straight
    into ``out``, a C-contiguous float64 array of the member's shape, with no
    copy in between, then checks the member's CRC over what was read. Never
    unpickles. A file that is not a zip, or is damaged, raises a one-line
    ``ValueError`` naming ``path``."""
    with open(path, "rb") as fh:
        if fh.read(2) != b"PK":
            raise ValueError(f"not a {fmt} file: {path}")
        try:
            zf = zipfile.ZipFile(fh)
            with zf.open(f"{_HEADER}.npy") as member:
                header = json.loads(np.lib.format.read_array(member, allow_pickle=False).tobytes())
        except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
            raise _damaged(path, fmt, exc) from None
        if not isinstance(header, dict) or header.get("format") != fmt:
            raise ValueError(f"not a {fmt} file: {path}")
        if header.get("version") != PARAMS_VERSION:
            raise ValueError(f"unsupported {fmt} version {header.get('version')} in {path}")

        def read_into(name: str, out: np.ndarray) -> None:
            try:
                info = zf.getinfo(f"{name}.npy")
                fh.seek(info.header_offset)
                # the local file header: 30 bytes, with the lengths of the name
                # and extra fields that follow it at bytes 26 and 28; then the data
                local = fh.read(30)
                if info.compress_type != zipfile.ZIP_STORED or local[:4] != b"PK\x03\x04":
                    raise ValueError(f"member '{name}' is not stored uncompressed")
                start = fh.seek(info.header_offset + 30 + int.from_bytes(local[26:28], "little")
                                + int.from_bytes(local[28:30], "little"))
                version = np.lib.format.read_magic(fh)
                read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                               else np.lib.format.read_array_header_2_0)
                shape, fortran_order, dtype = read_header(fh)
                head = fh.tell() - start
                if dtype != np.float64 or fortran_order or shape != out.shape:
                    raise ValueError(f"member '{name}' is not a C-ordered float64 array of "
                                     f"shape {out.shape}")
                data = memoryview(out).cast("B")
                if fh.readinto(data) != out.nbytes:
                    raise EOFError(f"member '{name}' ends early")
                fh.seek(start)
                if zlib.crc32(data, zlib.crc32(fh.read(head))) != info.CRC:
                    raise zipfile.BadZipFile(f"bad CRC-32 for member '{name}'")
            except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
                raise _damaged(path, fmt, exc) from None

        yield header, read_into
