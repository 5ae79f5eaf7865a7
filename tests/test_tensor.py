import inspect
import math

import numpy as np
import pytest

from convemo import tensor as T
from convemo.gnn import (GraphTransformerParams, RgcnParams, graph_transformer_forward,
                         rgcn_forward)
from convemo.graph import graph_from_speakers
from convemo.tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    parameter,
)
from helpers import FD_TOL, arena_params, check_grads, random_tensor


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(eye, m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_projector_zeroes_row():
    p = Tensor([[1.0, 0.0], [0.0, 0.0]])
    m = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = T.matmul(p, m)
    np.testing.assert_array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    expect = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expect[i, j] += a[i, k] * b[k, j]
    out = T.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_matmul_grad_fn_skips_constant_operand():
    rng = np.random.default_rng(9)
    const = Tensor(rng.standard_normal((3, 3)))
    weight = parameter(rng.standard_normal((3, 3)))
    d = rng.standard_normal((3, 3))
    for a, b, slot in ((const, weight, 0), (weight, const, 1)):
        tape = Tape()
        T.matmul(a, b, tape)
        (_op, _inputs, _out, grad_fn), = tape.entries
        grads = grad_fn(d)
        assert grads[slot] is None
        want = a.data.T @ d if slot == 0 else d @ b.data.T
        np.testing.assert_array_equal(grads[1 - slot], want)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_softmax_symmetry_and_shift_invariance():
    np.testing.assert_allclose(T.softmax_rows(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])
    np.testing.assert_allclose(T.softmax_rows(Tensor([[1000.0, 1000.0]])).data, [[0.5, 0.5]])


def test_softmax_matches_high_precision_reference():
    import mpmath

    mpmath.mp.dps = 50
    row = [1.0, 2.0, 3.0]
    exps = [mpmath.exp(v) for v in row]
    total = sum(exps)
    expect = np.array([float(e / total) for e in exps])
    out = T.softmax_rows(Tensor([row]))
    np.testing.assert_allclose(out.data[0], expect, atol=1e-15)
    assert abs(out.data[0].sum() - 1.0) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    out = T.softmax_rows(Tensor(rng.standard_normal((6, 9)) * 5))
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(6), atol=1e-12)
    assert (out.data >= 0).all()


def _where_softmax(x, mask=None):
    """The masked-ufunc softmax that ``_softmax`` replaced, kept as a bit-level
    oracle: max, exp and divide restricted by ``where=``, masked entries zeroed."""
    where = True if mask is None else mask
    x -= x.max(axis=-1, keepdims=True, initial=-np.inf, where=where)
    np.exp(x, out=x, where=where)
    if mask is not None:
        np.copyto(x, 0.0, where=~mask)
    denom = x.sum(axis=-1, keepdims=True)
    return np.divide(x, denom, out=x, where=denom > 0)


def _softmax_cases():
    """(scores, mask) pairs of the attention shape (B, H, n, n) with one mask
    per copy, (B, 1, n, n): rows with no, one and every true entry; rows whose
    largest true score is -0.0; scores near +-1e15 that differ by up to 600,
    and scores near 1e-300."""
    rng = np.random.default_rng(31)
    mask = rng.random((3, 1, 6, 9)) < 0.5
    mask[:, :, 2] = False
    mask[:, :, 3] = True
    mask[:, :, 4] = np.arange(9) == 5
    plain = rng.standard_normal((3, 2, 6, 9)) * 4
    plain[:, :, 0] = -np.abs(plain[:, :, 0])
    plain[:, :, 0, ::2] = -0.0
    mask[:, :, 0, 0] = True
    large = rng.integers(-300, 301, (3, 2, 6, 9)) + np.array([1e15, -1e15, 3e14])[:, None, None, None]
    return [(plain, mask), (large, mask), (plain * 1e-300, mask)]


@pytest.mark.parametrize("masked", [False, True])
def test_softmax_is_bit_identical_to_the_masked_ufunc_form(masked):
    for scores, mask in _softmax_cases():
        mask = mask if masked else None
        with np.errstate(all="raise"):
            got = T._softmax(scores.copy(), mask)
            want = _where_softmax(scores.copy(), mask)
        assert got.tobytes() == want.tobytes()
        if masked:   # a row with no true entry is all +0.0, a row with one is 1 there
            assert got[:, :, 2].tobytes() == np.zeros((3, 2, 9)).tobytes()
            np.testing.assert_array_equal(got[:, :, 4], np.broadcast_to(mask[:, :, 4], (3, 2, 9)))
    with np.errstate(all="raise"):   # the same through softmax_rows, on a 2-D input
        got = T.softmax_rows(Tensor(scores[0, 0])).data
    assert got.tobytes() == _where_softmax(scores[0, 0].copy()).tobytes()


def test_layer_norm_constant_row_collapses_to_beta():
    x = Tensor([[5.0, 5.0, 5.0, 5.0]])
    out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-12)


def test_layer_norm_already_normalized_row():
    x = Tensor([[1.0, -1.0]])
    out = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-14)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_matches_two_pass_reference():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 7)) * 3 + 1
    gamma = rng.standard_normal(7)
    beta = rng.standard_normal(7)
    eps = 1e-5
    expect = np.empty_like(x)
    for i in range(4):
        mu = sum(x[i]) / 7
        var = sum((v - mu) ** 2 for v in x[i]) / 7
        expect[i] = (x[i] - mu) / math.sqrt(var + eps) * gamma + beta
    out = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps=eps)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_layer_norm_pre_affine_moments():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 16)) * 4
    out = T.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)), eps=1e-12)
    assert np.abs(out.data.mean(axis=1)).max() < 1e-10
    assert np.abs(out.data.var(axis=1) - 1.0).max() < 1e-8


def test_relu_values():
    out = T.relu(Tensor([[-1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])
    out = T.relu(Tensor([[-3.0, -0.5]]))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0]])


def test_dropout_identity_cases():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((4, 4)))
    assert T.dropout(x, 0.0, training=True, rng=rng) is x
    assert T.dropout(x, 0.7, training=False) is x


def test_dropout_statistics():
    rng = np.random.default_rng(6)
    x = Tensor(np.ones((500, 200)))
    out = T.dropout(x, 0.5, training=True, rng=rng)
    survivors = (out.data != 0).mean()
    assert abs(survivors - 0.5) < 0.01 * 0.5 + 0.005  # within 1% of 0.5
    assert abs(out.data.mean() - 1.0) < 0.02  # mean preserved within 2%


def test_dropout_rejects_bad_p():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        T.dropout(x, 1.0, training=True, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        T.dropout(x, -0.1, training=True, rng=np.random.default_rng(0))


def test_backward_sum_gives_ones():
    x = parameter(np.arange(6.0).reshape(2, 3))
    tape = Tape()
    loss = T.sum_all(x, tape)
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares():
    x = parameter([[1.0, 2.0]])
    tape = Tape()
    sq = T.mul(x, x, tape)
    loss = T.sum_all(sq, tape)
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, [[2.0, 4.0]])


def test_backward_rejects_non_scalar():
    x = parameter(np.ones((2, 2)))
    tape = Tape()
    y = T.relu(x, tape)
    with pytest.raises(ShapeError):
        backward(y, tape)


def test_adjoint_accumulation_duplicated_input():
    # y = sum(x @ x): both matmul slots feed the same tensor, so the grad is
    # the sum of both branch contributions: (x @ x grads) = x.T @ d + d @ x.T
    rng = np.random.default_rng(7)
    x = parameter(rng.standard_normal((3, 3)))
    tape = Tape()
    loss = T.sum_all(T.matmul(x, x, tape), tape)
    backward(loss, tape)
    ones = np.ones((3, 3))
    expect = ones @ x.data.T + x.data.T @ ones
    np.testing.assert_allclose(x.grad, expect, atol=1e-12)


def test_tensor_reused_across_two_branches():
    # loss = sum(relu(x)) + sum(x * x) exercises cross-op accumulation
    x = parameter([[1.0, -2.0, 3.0]])
    tape = Tape()
    branch_a = T.sum_all(T.relu(x, tape), tape)
    branch_b = T.sum_all(T.mul(x, x, tape), tape)
    loss = T.add(branch_a, branch_b, tape)
    loss_scalar = T.sum_all(loss, tape) if loss.data.ndim else loss
    backward(loss_scalar, tape)
    np.testing.assert_allclose(x.grad, [[1.0 + 2.0, 0.0 - 4.0, 1.0 + 6.0]])


# ---------------------------------------------------------------------------
# owned gradient buffers: each parameter's gradient must equal, bit for bit,
# what an allocating backward (a fresh array per contribution) computes

def _allocating_grads(loss, tape):
    """id(tensor) -> gradient, by a backward that allocates every sum and
    writes no tensor's ``grad``."""
    grads = {id(loss): np.ones_like(loss.data)}
    for _op, inputs, output, grad_fn in reversed(tape.entries):
        d = grads.get(id(output))
        if d is None:
            continue
        for t, g in zip(inputs, grad_fn(d)):
            if g is not None and t.requires_grad:
                g = np.asarray(g)
                grads[id(t)] = g if id(t) not in grads else grads[id(t)] + g
    return grads


def _weighted_sum(y, rng, tape):
    """A scalar whose adjoint of ``y`` is not all ones."""
    return T.sum_all(T.mul(y, Tensor(rng.standard_normal(y.shape)), tape), tape)


@pytest.mark.parametrize("op", [T.add, T.mul, T.matmul])
def test_owned_grad_same_parameter_in_both_slots(op):
    rng = np.random.default_rng(21)
    p = parameter(rng.standard_normal((4, 4)))
    for _ in range(2):   # the first backward allocates the buffer, the second reuses it
        p.grad = None
        tape = Tape()
        loss = _weighted_sum(op(p, p, tape), rng, tape)
        want = _allocating_grads(loss, tape)[id(p)]
        backward(loss, tape)
        np.testing.assert_array_equal(p.grad, want)


def test_owned_grad_parameter_consumed_by_two_ops():
    # p's first contribution comes from add, whose adjoint is also h's
    # gradient; p's second, from the matmul, must not change h's.
    rng = np.random.default_rng(22)
    p = parameter(rng.standard_normal((3, 3)))
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    w = parameter(rng.standard_normal((3, 3)))
    for _ in range(2):
        p.grad = x.grad = w.grad = None
        tape = Tape()
        h = T.relu(T.matmul(x, w, tape), tape)
        q = T.matmul(x, p, tape)
        loss = _weighted_sum(T.add(T.add(p, h, tape), q, tape), rng, tape)
        want = _allocating_grads(loss, tape)
        backward(loss, tape)
        for t in (p, x, w):
            np.testing.assert_array_equal(t.grad, want[id(t)])


def test_owned_grad_accumulates_over_two_backwards():
    # grad_accum: two backwards before one optimizer step sum their gradients
    rng = np.random.default_rng(23)
    w = parameter(rng.standard_normal((3, 2)))
    b = parameter(rng.standard_normal(2))
    wants = []
    for _ in range(2):
        tape = Tape()
        x = Tensor(rng.standard_normal((4, 3)))
        loss = _weighted_sum(T.add_bias(T.matmul(x, w, tape), b, tape), rng, tape)
        wants.append(_allocating_grads(loss, tape))
        backward(loss, tape)
    for t in (w, b):
        np.testing.assert_array_equal(t.grad, wants[0][id(t)] + wants[1][id(t)])


def test_owned_grad_is_one_buffer_across_steps():
    rng = np.random.default_rng(24)
    w = parameter(rng.standard_normal((3, 3)))
    buffers = []
    for _ in range(3):
        w.grad = None
        tape = Tape()
        loss = _weighted_sum(T.matmul(Tensor(rng.standard_normal((2, 3))), w, tape), rng, tape)
        want = _allocating_grads(loss, tape)[id(w)]
        backward(loss, tape)
        np.testing.assert_array_equal(w.grad, want)
        buffers.append(w.grad)
    assert buffers[0] is buffers[1] is buffers[2]
    w.arena.release_grad()
    assert w.grad is None


def test_hand_assigned_grad_is_never_written_into():
    rng = np.random.default_rng(25)
    w = parameter(rng.standard_normal((3, 3)))
    for _ in range(2):   # without and then with a buffer already allocated
        assigned = rng.standard_normal((3, 3))
        kept = assigned.copy()
        w.grad = assigned
        tape = Tape()
        loss = _weighted_sum(T.matmul(Tensor(rng.standard_normal((2, 3))), w, tape), rng, tape)
        want = kept + _allocating_grads(loss, tape)[id(w)]
        backward(loss, tape)
        np.testing.assert_array_equal(assigned, kept)
        assert w.grad is not assigned
        np.testing.assert_array_equal(w.grad, want)


def test_non_finite_forward_raises():
    big = Tensor([[1e308, 1e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            T.mul(big, big)


def test_cross_entropy_uniform_and_perfect():
    logits = Tensor(np.zeros((3, 4)))
    loss = T.cross_entropy_logits(logits, np.array([0, 1, 2]))
    assert abs(loss.item() - math.log(4)) < 1e-12
    sharp = np.full((2, 3), -100.0)
    sharp[0, 1] = 100.0
    sharp[1, 2] = 100.0
    loss = T.cross_entropy_logits(Tensor(sharp), np.array([1, 2]))
    assert loss.item() < 1e-10


def test_cross_entropy_matches_high_precision():
    import mpmath

    mpmath.mp.dps = 50
    rng = np.random.default_rng(8)
    z = rng.standard_normal((4, 5)) * 3
    labels = np.array([0, 4, 2, 1])
    total = mpmath.mpf(0)
    for i in range(4):
        exps = [mpmath.exp(mpmath.mpf(v)) for v in z[i]]
        total += -mpmath.log(exps[labels[i]] / sum(exps))
    expect = float(total / 4)
    loss = T.cross_entropy_logits(Tensor(z), labels)
    assert abs(loss.item() - expect) < 1e-10


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        T.cross_entropy_logits(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_bce_logits_at_zero():
    loss = T.bce_with_logits(Tensor(np.zeros((2, 3))), np.zeros((2, 3)))
    assert abs(loss.item() - math.log(2)) < 1e-12


def test_sigmoid_values():
    out = T.sigmoid(Tensor([[0.0, 100.0, -100.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 1.0, 0.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# gradient checks against finite differences

def _gradcheck_case(op_name, build, params):
    err = check_grads(build, params)
    assert err < FD_TOL, f"{op_name}: rel err {err:.3e}"


@pytest.mark.parametrize("seed", range(5))
def test_grad_matmul(seed):
    rng = np.random.default_rng(100 + seed)
    a = random_tensor(rng, 3, 4)
    b = random_tensor(rng, 4, 2)
    _gradcheck_case("matmul", lambda tape: T.sum_all(T.mul(
        T.matmul(a, b, tape), T.matmul(a, b, tape), tape), tape), [a, b])


@pytest.mark.parametrize("seed", range(5))
def test_grad_softmax(seed):
    rng = np.random.default_rng(200 + seed)
    x = random_tensor(rng, 4, 5)
    w = Tensor(rng.standard_normal((4, 5)))

    def build(tape):
        return T.sum_all(T.mul(T.softmax_rows(x, tape), w, tape), tape)

    _gradcheck_case("softmax_rows", build, [x])


def _attention_inputs(rng, heads, n, k, masked, lead=()):
    """A random ``attention`` projection of n rows and, for the neighbourhood
    form, a mask in which node 1 has no in-neighbours."""
    proj = rng.standard_normal((*lead, (4 if masked else 3) * heads * n, k))
    if not masked:
        return proj, None
    mask = rng.random((*lead, n, n)) < 0.6
    mask[..., 1, :] = False
    return proj, mask


def _attention_gradcheck(rng, heads, masked):
    proj, mask = _attention_inputs(rng, heads, 4, 3, masked)
    x = parameter(proj)
    w = Tensor(rng.standard_normal((4, heads * 3)))

    def build(tape):
        out, _ = T.attention(x, heads, 0.7, mask, tape)
        return T.sum_all(T.mul(out, w, tape), tape)

    _gradcheck_case(f"attention(heads={heads}, masked={masked})", build, [x])


@pytest.mark.parametrize("seed", range(5))
def test_grad_masked_softmax(seed):
    """The neighbourhood-masked softmax, inside ``attention``'s graph form,
    with one node whose neighbourhood is empty."""
    rng = np.random.default_rng(300 + seed)
    for heads in (1, 3):
        _attention_gradcheck(rng, heads, masked=True)


@pytest.mark.parametrize("seed", range(3))
def test_grad_attention(seed):
    rng = np.random.default_rng(350 + seed)
    for heads in (1, 3):
        _attention_gradcheck(rng, heads, masked=False)


@pytest.mark.parametrize("seed", range(5))
def test_grad_layer_norm(seed):
    rng = np.random.default_rng(400 + seed)
    x = random_tensor(rng, 3, 6)
    gamma = random_tensor(rng, 6)
    beta = random_tensor(rng, 6)
    w = Tensor(rng.standard_normal((3, 6)))

    def build(tape):
        return T.sum_all(T.mul(T.layer_norm(x, gamma, beta, tape=tape), w, tape), tape)

    _gradcheck_case("layer_norm", build, [x, gamma, beta])


@pytest.mark.parametrize("seed", range(5))
def test_grad_relu_away_from_kink(seed):
    rng = np.random.default_rng(500 + seed)
    data = rng.standard_normal((3, 4))
    data[np.abs(data) < 1e-2] = 0.5  # keep FD probes off the kink
    x = parameter(data)
    w = Tensor(rng.standard_normal((3, 4)))

    def build(tape):
        return T.sum_all(T.mul(T.relu(x, tape), w, tape), tape)

    _gradcheck_case("relu", build, [x])


@pytest.mark.parametrize("seed", range(3))
def test_grad_concat_add_bias_transpose(seed):
    """The two concatenations left among the ops, each into add_bias and
    transpose: ``block_matmul``'s blocks stacked by rows and ``attention``'s
    heads side by side."""
    rng = np.random.default_rng(600 + seed)
    a = random_tensor(rng, 2, 3)
    ws = [random_tensor(rng, 3, 2) for _ in range(2)]
    proj = random_tensor(rng, 3 * 2 * 2, 3)
    for name, cat, params in (
            ("block_matmul rows", lambda tape: T.block_matmul(a, ws, tape), [a, *ws]),
            ("attention heads", lambda tape: T.attention(proj, 2, 0.5, tape=tape)[0], [proj])):
        rows, cols = cat(None).shape
        bias = random_tensor(rng, cols)
        w = Tensor(rng.standard_normal((rows, 3)))

        def build(tape):
            shifted = T.add_bias(cat(tape), bias, tape)
            return T.sum_all(T.matmul(T.transpose(shifted, tape), w, tape), tape)

        _gradcheck_case(f"{name}/add_bias/transpose", build, [*params, bias])


@pytest.mark.parametrize("seed", range(3))
def test_grad_cross_entropy(seed):
    rng = np.random.default_rng(700 + seed)
    logits = random_tensor(rng, 4, 3)
    labels = rng.integers(0, 3, size=4)

    def build(tape):
        return T.cross_entropy_logits(logits, labels, tape)

    _gradcheck_case("cross_entropy_logits", build, [logits])


@pytest.mark.parametrize("seed", range(3))
def test_grad_bce(seed):
    rng = np.random.default_rng(800 + seed)
    logits = random_tensor(rng, 3, 4)
    targets = (rng.random((3, 4)) < 0.5).astype(float)

    def build(tape):
        return T.bce_with_logits(logits, targets, tape)

    _gradcheck_case("bce_with_logits", build, [logits])


@pytest.mark.parametrize("seed", range(3))
def test_grad_sigmoid_scale(seed):
    rng = np.random.default_rng(900 + seed)
    x = random_tensor(rng, 2, 5)

    def build(tape):
        return T.sum_all(T.sigmoid(T.mul_scalar(x, 1.7, tape), tape), tape)

    _gradcheck_case("sigmoid/mul_scalar", build, [x])


def test_grad_dropout_fixed_mask():
    # dropout is stochastic; check the backward gate against the saved mask
    rng = np.random.default_rng(1000)
    x = parameter(rng.standard_normal((4, 4)))
    tape = Tape()
    out = T.dropout(x, 0.5, training=True, rng=np.random.default_rng(42), tape=tape)
    loss = T.sum_all(out, tape)
    backward(loss, tape)
    gate = (out.data != 0) * 2.0
    np.testing.assert_allclose(x.grad, gate)


# ---------------------------------------------------------------------------
# serialization

def test_params_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    w, b = rng.standard_normal((3, 4)), rng.standard_normal(4)
    path = tmp_path / "params.npz"
    T.save_params(path, {"layer.b": [b], "flat": [w, b[:0], b]}, "convemo-params", {"note": "x"})
    assert path.read_bytes()[:2] == b"PK"
    with T.open_params(path, "convemo-params") as (header, read_into):
        assert header == {"format": "convemo-params", "version": 3, "note": "x"}
        loaded = {"layer.b": np.empty(4), "flat": np.empty(16)}
        for name, out in loaded.items():
            read_into(name, out)
    # a member is one 1-D array, its arrays' elements end to end
    np.testing.assert_array_equal(loaded["layer.b"], b)
    np.testing.assert_array_equal(loaded["flat"], np.concatenate([w.ravel(), b]))
    # members are plain .npy files, and saving what was loaded gives the same bytes
    with np.load(path) as npz:
        assert npz.files == ["__header__", "layer.b", "flat"]
        np.testing.assert_array_equal(npz["flat"], loaded["flat"])
    T.save_params(tmp_path / "again.npz", {k: [v] for k, v in loaded.items()},
                  "convemo-params", {"note": "x"})
    assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again.npz", "params.npz"]


def test_params_damaged_or_pickled_rejected(tmp_path):
    import json

    path = tmp_path / "p.npz"
    T.save_params(path, {"w": [np.arange(6.0)]}, "convemo-params")
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(ValueError, match="corrupt or truncated convemo-params file") as info:
        with T.open_params(path, "convemo-params") as (_, read_into):
            read_into("w", np.empty(6))
    assert str(path) in str(info.value) and "\n" not in str(info.value)
    # a pickled header is never unpickled, and a pickled member never read
    with open(path, "wb") as fh:
        np.savez(fh, __header__=np.array([{"a": 1}], dtype=object))
    with pytest.raises(ValueError, match="allow_pickle=False"):
        with T.open_params(path, "convemo-params"):
            pass
    header = json.dumps({"format": "convemo-params", "version": T.PARAMS_VERSION}).encode()
    with open(path, "wb") as fh:
        np.savez(fh, __header__=np.frombuffer(header, dtype=np.uint8),
                 w=np.array([{"a": 1}], dtype=object))
    with pytest.raises(ValueError, match="member 'w' is not a C-ordered float64 array"):
        with T.open_params(path, "convemo-params") as (_, read_into):
            read_into("w", np.empty(1))


def test_atomic_open_keeps_old_file_on_failure(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with T.atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("killed mid-write")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    with T.atomic_open(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_params_header_validation(tmp_path):
    import json

    path = tmp_path / "bad.npz"
    T.save_params(path, {}, "something-else")
    with pytest.raises(ValueError, match="not a convemo-params file"):
        with T.open_params(path, "convemo-params"):
            pass
    header = json.dumps({"format": "convemo-params", "version": 99}).encode()
    with open(path, "wb") as fh:
        np.savez(fh, __header__=np.frombuffer(header, dtype=np.uint8))
    with pytest.raises(ValueError, match="unsupported convemo-params version 99"):
        with T.open_params(path, "convemo-params"):
            pass


# ---------------------------------------------------------------------------
# stacked operands: a leading axis of B copies, on a tape or not

# ops that take a tape but act on one dialogue's 2-D rows only: a loss
# belongs to one dialogue
TWO_D_ONLY = {"cross_entropy_logits", "bce_with_logits"}


def _stacked_cases(rng):
    """(cases, reseed). Each case is (op, fn(*operands, tape), inputs): float
    inputs of ndim 3 are stacked copies and the rest are shared by every copy;
    a boolean input is a mask and an integer one a row index, each passed as it
    is (one per copy), not as a tensor.
    ``reseed()`` restarts the dropout case's generator, so a stacked dropout and
    a loop over its copies, each run after a reseed, draw the same masks."""
    proj, mask = _attention_inputs(rng, 2, 4, 3, masked=True, lead=(3,))
    drop = {}

    def reseed():
        drop["rng"] = np.random.default_rng(27)

    def stacked(*shape):
        return rng.standard_normal((3, *shape))

    off_kink = stacked(4, 5)
    off_kink[np.abs(off_kink) < 1e-2] = 0.5   # keeps relu's finite differences off its kink
    return [
        ("matmul stacked @ 2-D", T.matmul, [stacked(4, 5), rng.standard_normal((5, 6))]),
        ("matmul stacked @ stacked", T.matmul, [stacked(4, 5), stacked(5, 2)]),
        ("block_matmul", lambda a, b, c, tape: T.block_matmul(a, [b, c], tape),
         [stacked(4, 5), rng.standard_normal((5, 6)), rng.standard_normal((5, 6))]),
        # rows picked per copy, of sizes 3 and 2: repeated in a copy, and some unused
        ("block_matmul, rows", lambda a, b, c, r, s, tape: T.block_matmul(
            a, [b, c], tape, *_flat_picks(a, [[r, s]] if a.data.ndim == 2 else list(zip(r, s)))),
         [stacked(4, 5), rng.standard_normal((5, 6)), rng.standard_normal((5, 6)),
          np.array([[0, 2, 3], [1, 1, 3], [3, 0, 0]]), np.array([[1, 2], [0, 3], [2, 2]])]),
        ("transpose", T.transpose, [stacked(4, 5)]),
        ("add", T.add, [stacked(4, 5), stacked(4, 5)]),
        ("add_bias", T.add_bias, [stacked(4, 5), rng.standard_normal(5)]),
        ("mul", T.mul, [stacked(4, 5), stacked(4, 5)]),
        ("mul_scalar", lambda a, tape: T.mul_scalar(a, 1.7, tape), [stacked(4, 5)]),
        ("relu", T.relu, [off_kink]),
        ("sigmoid", T.sigmoid, [stacked(4, 5)]),
        ("softmax_rows", T.softmax_rows, [stacked(4, 5)]),
        ("attention", lambda a, tape: T.attention(a, 2, 0.5, tape=tape)[0], [stacked(3 * 2 * 4, 3)]),
        ("attention, a mask per copy", lambda a, m, tape: T.attention(a, 2, 0.5, m, tape)[0],
         [proj, mask]),
        ("layer_norm", lambda a, g, b, tape: T.layer_norm(a, g, b, tape=tape),
         [stacked(4, 5), rng.standard_normal(5), rng.standard_normal(5)]),
        ("dropout", lambda a, tape: T.dropout(a, 0.5, True, drop["rng"], tape), [stacked(4, 5)]),
        ("sum_all", T.sum_all, [stacked(4, 5)]),
    ], reseed


def _copy(inputs, b):
    """Copy ``b`` of the inputs: a stacked one's b-th slice, a shared one whole."""
    return [a[b] if a.ndim == 3 or a.dtype.kind == "i" else a for a in inputs]


def _operands(inputs):
    return [Tensor(a) if a.dtype.kind == "f" else a for a in inputs]


def _as_parameters(inputs):
    """(operands, parameters): the float inputs as parameters laid out in one
    arena in order, so that block_matmul reads its weights as one span of it,
    and each mask as it is."""
    floats = {str(i): a for i, a in enumerate(inputs) if a.dtype.kind == "f"}
    params = arena_params(floats)
    return [params.get(str(i), a) for i, a in enumerate(inputs)], list(params.values())


def test_stacked_ops_match_a_loop_over_copies():
    cases, reseed = _stacked_cases(np.random.default_rng(21))
    for op, fn, inputs in cases:
        reseed()
        out = fn(*_operands(inputs), tape=None).data
        reseed()
        ones = [fn(*_operands(_copy(inputs, b)), tape=None).data for b in range(3)]
        if op == "sum_all":   # the one op that also sums over the stack
            assert abs(out - sum(ones)) <= 1e-12 * abs(sum(ones)), op
            continue
        assert out.shape[0] == 3, op
        for b, one in enumerate(ones):
            assert np.abs(out[b] - one).max() <= 1e-12 * np.abs(one).max(), op


def test_stacked_tape_gradients_equal_per_copy_gradients_and_finite_differences():
    """Every op on a stacked tape: the gradients of sum_all(mul(out, probe))
    equal those of a loop over the copies, summed over the copies for an
    operand shared by all of them, and agree with central finite differences."""
    rng = np.random.default_rng(22)
    cases, reseed = _stacked_cases(rng)
    for op, fn, inputs in cases:
        reseed()
        probe = rng.standard_normal(fn(*_operands(inputs), tape=None).shape)

        def loss(operands, probe, tape):
            return T.sum_all(T.mul(fn(*operands, tape=tape), Tensor(probe), tape), tape)

        def taped(operands, probe):
            tape = Tape()
            backward(loss(operands, probe, tape), tape)

        operands, params = _as_parameters(inputs)
        reseed()
        taped(operands, probe)
        floats = [a for a in inputs if a.dtype.kind == "f"]
        want = [np.zeros_like(a) for a in floats]
        reseed()
        for b in range(3):
            mine, mine_params = _as_parameters(_copy(inputs, b))
            taped(mine, probe[b] if probe.ndim == 3 else probe)
            for w, p, a in zip(want, mine_params, floats):
                if a.ndim == 3:
                    w[b] = p.grad
                else:
                    w += p.grad
        for p, w in zip(params, want):
            assert p.grad.shape == w.shape, op
            assert np.abs(p.grad - w).max() <= 1e-12 * np.abs(w).max(), op

        def rerun(tape):
            reseed()
            return loss(operands, probe, tape)

        err = check_grads(rerun, params)
        assert err < FD_TOL, f"{op}: rel err {err:.3e}"


def test_every_taped_op_is_in_the_stacked_table():
    """Every public function of ``tensor`` that takes a tape is in the stacked
    table above, or on the explicit 2-D-only list, so a new op cannot skip the
    stack rule. (``backward`` replays a tape; it is no op.)"""
    taped = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
             if not name.startswith("_") and fn.__module__ == T.__name__
             and "tape" in inspect.signature(fn).parameters}
    table = {op.split()[0].rstrip(",") for op, *_ in _stacked_cases(np.random.default_rng(0))[0]}
    assert taped - TWO_D_ONLY - {"backward"} == table
    assert TWO_D_ONLY | {"backward"} <= taped


def test_a_stack_refuses_a_shared_graph_a_shared_mask_and_a_2d_left_operand():
    rng = np.random.default_rng(28)
    proj, masks = _attention_inputs(rng, 2, 4, 3, masked=True, lead=(3,))
    g = graph_from_speakers([0, 1, 0, 1], 2, 1, 1)
    rgcn = RgcnParams.init(3, 3, g.relation_count, rng)
    gt = GraphTransformerParams.init(3, 3, 1, rng)
    z = rng.standard_normal((3, 4, 3))
    cases = [
        ("matmul of a 2-D", lambda tape: T.matmul(parameter(rng.standard_normal((4, 5))),
                                                  parameter(rng.standard_normal((3, 5, 2))), tape)),
        ("mask shape", lambda tape: T.attention(parameter(proj), 2, 0.5, masks[0], tape)),
        ("rgcn_forward: 1 graph", lambda tape: rgcn_forward(parameter(z), g, rgcn, tape)),
        ("graph_transformer_forward: 1 graph",
         lambda tape: graph_transformer_forward(parameter(z), g, gt, tape)),
    ]
    for match, call in cases:
        for tape in (None, Tape()):
            with pytest.raises(ShapeError, match=match) as info:
                call(tape)
            assert len(str(info.value).splitlines()) == 1
            assert tape is None or len(tape) == 0


def _masked_softmax(x, mask):
    """Row by row: a softmax over the row's masked-in entries, zeros elsewhere."""
    out = np.zeros_like(x)
    for i, (row, keep) in enumerate(zip(x, mask)):
        if keep.any():
            e = np.exp(row[keep] - row[keep].max())
            out[i, keep] = e / e.sum()
    return out


def _attention_per_head(proj, heads, scale, mask):
    """``attention`` of one copy composed head by head from 2-D ops, with the
    masked softmax of ``_masked_softmax``: the heads side by side, and the
    attention weights, (H, n, n)."""
    parts = 3 if mask is None else 4
    n = proj.shape[0] // (parts * heads)
    blocks = [Tensor(proj[i * n:(i + 1) * n]) for i in range(parts * heads)]
    outs, alphas = [], []
    for h in range(heads):
        mine = blocks[h * parts:(h + 1) * parts]
        if mask is None:
            (q, key, v), self_term = mine, None
        else:
            self_term, v, q, key = mine
        scores = T.mul_scalar(T.matmul(q, T.transpose(key)), scale)
        alpha = (T.softmax_rows(scores) if mask is None
                 else Tensor(_masked_softmax(scores.data, mask)))
        out = T.matmul(alpha, v)
        outs.append(out.data if self_term is None else T.add(self_term, out).data)
        alphas.append(alpha.data)
    return np.concatenate(outs, axis=1), np.stack(alphas)


def _assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("heads", [1, 3])
def test_attention_equals_the_per_head_composition(masked, heads):
    rng = np.random.default_rng(26)
    proj, mask = _attention_inputs(rng, heads, 5, 4, masked)
    out, alpha = T.attention(Tensor(proj), heads, 0.6, mask)
    want_out, want_alpha = _attention_per_head(proj, heads, 0.6, mask)
    assert out.shape == (5, heads * 4) and alpha.shape == (heads, 5, 5)
    _assert_close(out.data, want_out)
    _assert_close(alpha, want_alpha)
    if masked:   # a node with no in-neighbours: zero weights, only its self term
        np.testing.assert_array_equal(alpha[:, 1], 0.0)
        np.testing.assert_array_equal(
            out.data[1].reshape(heads, 4), proj.reshape(heads, 4, 5, 4)[:, 0, 1])


def test_masked_softmax_with_a_mask_per_copy_equals_a_loop():
    """Stacked ``attention`` in the neighbourhood form, one mask per copy
    (broadcast over heads), against each copy composed head by head."""
    rng = np.random.default_rng(25)
    proj, masks = _attention_inputs(rng, 3, 4, 2, masked=True, lead=(3,))
    masks[2] = True
    out, alpha = T.attention(Tensor(proj), 3, 0.5, masks)
    assert out.shape == (3, 4, 6) and alpha.shape == (3, 3, 4, 4)
    for b in range(3):
        want_out, want_alpha = _attention_per_head(proj[b], 3, 0.5, masks[b])
        _assert_close(out.data[b], want_out)
        _assert_close(alpha[b], want_alpha)
    # one mask shared by every copy is refused: a stack takes one mask per copy
    for bad in (masks[0], masks[:2], masks[:, :3], masks[0, 0], masks[None]):
        with pytest.raises(ShapeError, match="mask shape"):
            T.attention(Tensor(proj), 3, 0.5, bad)
    with pytest.raises(ShapeError, match="not 4 blocks per head of 5"):
        T.attention(Tensor(proj), 5, 0.5, masks)


def test_block_matmul_equals_concat_of_matmuls_to_the_bit():
    """Forward and every adjoint equal those of separate matmuls, their
    outputs concatenated by rows, with the input's adjoint summed in the
    same order."""
    rng = np.random.default_rng(23)
    x_data, d = rng.standard_normal((4, 5)), rng.standard_normal((12, 6))
    ws_data = [rng.standard_normal((5, 6)) for _ in range(3)]
    grads = []
    for blocked in (True, False):
        x = T.relu(parameter(x_data))     # a non-leaf input, as the RGCN's is
        ws = [parameter(w) for w in ws_data]
        tape = Tape()
        y = T.matmul(x, parameter(np.eye(5)), tape)
        if blocked:
            out = T.block_matmul(y, ws, tape)
            loss = T.sum_all(T.mul(out, Tensor(d), tape), tape)
            out = out.data
        else:
            parts = [T.matmul(y, w, tape) for w in ws]
            losses = [T.sum_all(T.mul(p, Tensor(d[4 * i:4 * (i + 1)]), tape), tape)
                      for i, p in enumerate(parts)]
            loss = T.add(T.add(losses[0], losses[1], tape), losses[2], tape)
            out = np.concatenate([p.data for p in parts])
        backward(loss, tape)
        grads.append((out, y.grad, *(w.grad for w in ws)))
    for got, want in zip(*grads):
        np.testing.assert_array_equal(got, want)


def test_block_matmul_gradients():
    rng = np.random.default_rng(24)
    x = random_tensor(rng, 3, 4)
    ws = [parameter(rng.standard_normal((4, 2))) for _ in range(3)]
    w_out = Tensor(rng.standard_normal((9, 2)))
    err = check_grads(lambda tape: T.sum_all(T.mul(T.block_matmul(x, ws, tape), w_out, tape), tape),
                      [x, *ws])
    assert err < FD_TOL


def _flat_picks(x, picks):
    """``block_matmul``'s ``rows`` and ``at`` from ``picks[b][i]``, copy b's own
    rows for weight i: per weight, every copy's rows in turn, copy b's row j as
    b*n + j; and for a stack, at[b, m], the place among those of copy b's m-th
    row in weight order, or their count past copy b's rows (for 2-D, None)."""
    n = x.shape[-2]
    rows = [np.array([b * n + j for b, p in enumerate(picks) for j in p[i]], dtype=np.intp)
            for i in range(len(picks[0]))]
    if x.data.ndim == 2:
        return rows, None
    place, at = 0, [[] for _ in picks]
    for i in range(len(picks[0])):
        for b, p in enumerate(picks):
            at[b] += range(place, place + len(p[i]))
            place += len(p[i])
    width = max(map(len, at))
    return rows, np.array([a + [place] * (width - len(a)) for a in at])


def _picked_reference(x, ws, picks):
    """``block_matmul`` with ``rows`` by its definition, copy by copy: each
    copy's own rows in weight order, zero past them to the most any copy has."""
    xs = x.reshape(-1, *x.shape[-2:])
    outs = [np.concatenate([xb[p[i]] @ w for i, w in enumerate(ws)]) for xb, p in zip(xs, picks)]
    width = max(len(o) for o in outs)
    out = np.zeros((len(xs), width, ws[0].shape[-1]))
    for o, one in zip(out, outs):
        o[:len(one)] = one
    return out if x.ndim == 3 else out[0]


@pytest.mark.parametrize("stack", [(), (3,)])
def test_block_matmul_with_rows_matches_its_definition_and_finite_differences(stack):
    # three weights, the copies picking different rows, and different numbers of
    # them: 5, 4 and 6, one row twice, and the middle weight only some copies'
    # rows; row 4 of copy 0 is picked by no block
    rng = np.random.default_rng(35)
    x = parameter(rng.standard_normal((*stack, 5, 4)))
    ws = [parameter(rng.standard_normal((4, 3))) for _ in range(3)]
    picks = [[[0, 2], [], [1, 2, 3]], [[1, 4], [2, 0], []], [[3, 3], [1], [4, 1, 0]]]
    picks = picks[:1] if not stack else picks
    rows, at = _flat_picks(x, picks)
    out = T.block_matmul(x, ws, None, rows, at)
    want = _picked_reference(x.data, [w.data for w in ws], picks)
    assert out.shape == (*stack, 5 if not stack else 6, 3)
    assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()
    probe = Tensor(rng.standard_normal(out.shape))

    def loss(tape):
        return T.sum_all(T.mul(T.block_matmul(x, ws, tape, rows, at), probe, tape), tape)

    assert check_grads(loss, [x, *ws]) < FD_TOL
    unused = x.grad[..., 0, 4, :] if stack else x.grad[4]
    assert np.array_equal(unused, np.zeros(4))   # picked by no block: an exact zero
    with pytest.raises(ShapeError, match="one index array"):
        T.block_matmul(x, ws, None, rows[:2], at)
    with pytest.raises(ShapeError, match="one index array"):
        T.block_matmul(x, ws, None, [r[:, None] for r in rows], at)


def test_block_matmul_shape_errors():
    x = Tensor(np.zeros((3, 4)))
    for ws in ([], [Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 3)))], [Tensor(np.zeros((5, 2)))]):
        with pytest.raises(ShapeError, match="block_matmul"):
            T.block_matmul(x, ws)


def _placed(rng, count, shape=(5, 6)):
    """A bias, then ``count`` weights of one shape, laid out by ``Init.place``:
    the weights are adjacent members of one arena. The caller keeps the bias,
    since an arena holds its members weakly."""
    init = T.Init(rng)
    params = [init.fill((2,), 0.5), *(init.xavier(shape) for _ in range(count))]
    init.place(params)
    return params


def _blocked_backward(x_data, ws, d):
    """Output and adjoints of ``block_matmul`` under a loss whose adjoint of
    the output is ``d``: (out, x's adjoint, each weight's grad)."""
    x = Tensor(x_data, requires_grad=True)
    tape = Tape()
    out = T.block_matmul(x, ws, tape)
    backward(T.sum_all(T.mul(out, Tensor(d), tape), tape), tape)
    return out.data, x.grad, [w.grad for w in ws]


def _separate_reference(x_data, ws_data, d):
    """What separate matmuls give: each block, x's adjoint summed last block
    first, and each weight's adjoint."""
    n = x_data.shape[0]
    blocks = [d[i * n:(i + 1) * n] for i in range(len(ws_data))]
    d_x = None
    for blk, w in zip(reversed(blocks), reversed(ws_data)):
        part = blk @ w.T
        d_x = part if d_x is None else np.add(d_x, part, out=d_x)
    return (np.concatenate([x_data @ w for w in ws_data]), d_x,
            [x_data.T @ blk for blk in blocks])


def test_block_matmul_over_a_placed_run_equals_separate_matmuls_to_the_bit(monkeypatch):
    # the weights lie end to end in their arena, so block_matmul reads that
    # span as they are and copies none of them
    rng = np.random.default_rng(31)
    _bias, *ws = _placed(rng, 6)
    monkeypatch.setattr(T.np, "stack", None)
    x_data, d = rng.standard_normal((4, 5)), rng.standard_normal((24, 6))
    out, d_x, d_ws = _blocked_backward(x_data, ws, d)
    want_out, want_x, want_ws = _separate_reference(x_data, [w.data for w in ws], d)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(d_x, want_x)
    for got, want, w in zip(d_ws, want_ws, ws):
        np.testing.assert_array_equal(got, want)
        assert got is w._buf and got.base is w.arena.grad   # written straight into the arena


def test_block_matmul_over_a_gap_leaves_absent_weights_without_grad():
    # weights 0-2 and 5-6 of an arena are not one span of it
    rng = np.random.default_rng(32)
    _bias, *placed = _placed(rng, 7)
    ws = [placed[i] for i in (0, 1, 2, 5, 6)]
    x_data, d = rng.standard_normal((3, 5)), rng.standard_normal((15, 6))
    out, d_x, d_ws = _blocked_backward(x_data, ws, d)
    want_out, want_x, want_ws = _separate_reference(x_data, [w.data for w in ws], d)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(d_x, want_x)
    for got, want in zip(d_ws, want_ws):
        np.testing.assert_array_equal(got, want)
    assert placed[3].grad is None and placed[4].grad is None


def test_block_matmul_reads_a_rebound_member_at_call_time():
    # a finite-difference probe rebinds one weight's data, as the benchmark's
    # gradient check does: the layer is no longer one span, and the loss moves
    rng = np.random.default_rng(33)
    _bias, *ws = _placed(rng, 4)
    x = Tensor(rng.standard_normal((3, 5)))
    d = Tensor(rng.standard_normal((12, 6)))

    def loss(tape=None):
        return T.sum_all(T.mul(T.block_matmul(x, ws, tape), d, tape), tape)

    tape = Tape()
    base_loss = loss(tape)
    backward(base_loss, tape)
    t = ws[2]
    direction = rng.standard_normal(t.shape)
    analytic = float((t.grad * direction).sum())
    base, step = t.data, 1e-5
    t.data = base + step * direction
    f_plus = loss().item()
    t.data = base - step * direction
    f_minus = loss().item()
    t.data = base
    assert loss().item() == base_loss.item()
    assert f_plus != base_loss.item() != f_minus
    numeric = (f_plus - f_minus) / (2 * step)
    assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6) < FD_TOL


def test_block_matmul_grads_accumulate_without_zero_grad_to_the_bit():
    # two backwards, then a third over a layer whose members are half fresh
    # and half holding a gradient: each sum is the allocating ``grad + g``
    rng = np.random.default_rng(34)
    _bias, *ws = _placed(rng, 4)
    want = [None] * 4
    for used in ((0, 1), (0, 1), (0, 1, 2, 3)):
        x_data = rng.standard_normal((3, 5))
        d = rng.standard_normal((3 * len(used), 6))
        _blocked_backward(x_data, [ws[i] for i in used], d)
        _, _, parts = _separate_reference(x_data, [ws[i].data for i in used], d)
        for i, g in zip(used, parts):
            want[i] = g if want[i] is None else want[i] + g
        for w, g in zip(ws, want):
            if g is None:
                assert w.grad is None
            else:
                np.testing.assert_array_equal(w.grad, g)


def test_arena_with_a_freed_member_still_allocates_zeroes_and_releases_grads():
    # the bias, declared and placed with the weight, is dropped: its place in
    # the arena stays, and the weight's backward, zero_grad and release_grad
    # step over it
    init = T.Init(np.random.default_rng(35))
    bias, w = init.fill((2,), 0.5), init.xavier((3, 4))
    arena = init.place([bias, w])
    del bias, init   # the Init holds its declared parameters too
    assert arena.params[0] is None and arena.params[1] is w
    x_data = np.random.default_rng(36).standard_normal((2, 3))
    tape = Tape()
    backward(T.sum_all(T.matmul(Tensor(x_data), w, tape), tape), tape)
    np.testing.assert_array_equal(w.grad, x_data.T @ np.ones((2, 4)))
    assert w.grad.base is arena.grad
    arena.zero_grad()
    assert w.grad is None and w._buf is not None
    arena.release_grad()
    assert w._buf is None and arena.grad is None
