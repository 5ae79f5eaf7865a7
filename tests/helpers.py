"""Shared test utilities: finite-difference gradient checking, and
parameters laid out in one arena."""

import numpy as np

from convemo.tensor import Init, Parameter, Tape, Tensor, backward

FD_STEP = 1e-5
FD_TOL = 1e-4


def finite_difference(f, tensors, step=FD_STEP):
    """Central-difference gradients of scalar f() wrt each tensor, elementwise."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        g_flat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f()
            flat[i] = orig - step
            f_minus = f()
            flat[i] = orig
            g_flat[i] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def check_grads(build_loss, params, step=FD_STEP):
    """Worst relative error between tape gradients and finite differences.

    ``build_loss(tape)`` must run the forward pass (deterministically) and
    return the scalar loss tensor; it is re-run with ``tape=None`` for each
    finite-difference probe.
    """
    tape = Tape()
    loss = build_loss(tape)
    for p in params:
        p.grad = None
    backward(loss, tape)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    numeric = finite_difference(lambda: build_loss(None).item(), params, step)
    return max(max_rel_err(a, n) for a, n in zip(analytic, numeric))


def random_tensor(rng, *shape, requires_grad=True, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


def arena_params(arrays: dict[str, np.ndarray]) -> dict[str, Parameter]:
    """Parameters holding copies of ``arrays``, laid out in one arena in the
    map's order, as a model's are."""
    init = Init(None)
    params = {name: init.fill(a.shape, 0.0) for name, a in arrays.items()}
    init.place(list(params.values()))
    for t, a in zip(params.values(), arrays.values()):
        np.copyto(t.data, a)
    return params
