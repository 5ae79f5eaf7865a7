import math

import numpy as np
import pytest

from convemo import tensor as T
from convemo.encoder import EncoderParams, attention_maps, encode, head_width
from convemo.tensor import Tape, Tensor, backward
from helpers import FD_TOL, check_grads


def test_head_width_rule():
    assert head_width(8, 4) == 2
    assert head_width(6, 4) == 2  # ceil when not divisible
    assert head_width(7, 2) == 4


def test_single_utterance_attention_is_one():
    rng = np.random.default_rng(0)
    params = EncoderParams.init(width=5, num_layers=2, num_heads=3, rng=rng)
    x = Tensor(rng.standard_normal((1, 5)))
    maps = attention_maps(x, params)
    assert len(maps) == 2 and len(maps[0]) == 3
    for layer in maps:
        for head in layer:
            assert head.shape == (1, 1)
            assert head.data[0, 0] == 1.0


def test_attention_rows_are_distributions():
    rng = np.random.default_rng(1)
    params = EncoderParams.init(width=6, num_layers=2, num_heads=2, rng=rng)
    x = Tensor(rng.standard_normal((5, 6)) * 3)
    for layer in attention_maps(x, params):
        for head in layer:
            np.testing.assert_allclose(head.data.sum(axis=1), np.ones(5), atol=1e-12)
            assert (head.data >= 0).all()


def test_duplicate_rows_get_identical_attention():
    rng = np.random.default_rng(2)
    params = EncoderParams.init(width=4, num_layers=1, num_heads=2, rng=rng)
    x_data = rng.standard_normal((4, 4))
    x_data[3] = x_data[1]  # rows 1 and 3 identical
    maps = attention_maps(Tensor(x_data), params)
    for head in maps[0]:
        np.testing.assert_allclose(head.data[1], head.data[3], atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(100 + seed)
    params = EncoderParams.init(width=6, num_layers=2, num_heads=2, rng=rng)
    n = int(rng.integers(2, 8))
    x = rng.standard_normal((n, 6))
    perm = rng.permutation(n)
    out = encode(Tensor(x), params).data
    out_perm = encode(Tensor(x[perm]), params).data
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)


def test_hand_unrolled_single_layer_reference():
    """Step-by-step scalar transcription of one encoder layer,
    L=1, H=1, d=k=2."""
    rng = np.random.default_rng(3)
    params = EncoderParams.init(width=2, num_layers=1, num_heads=1, rng=rng, ffn_width=3)
    layer = params.layers[0]
    x = rng.standard_normal((3, 2))

    named = params.named()
    wq, wk, wv = (named[f"encoder.layer0.head0.{w}"].data for w in ("wq", "wk", "wv"))
    wo, w1, w2 = layer.w_o.data, layer.w_ffn1.data, layer.w_ffn2.data
    n, d, k, m = 3, 2, 2, 3
    eps = 1e-5

    def mm(a, b):
        rows, inner, cols = a.shape[0], a.shape[1], b.shape[1]
        out = np.zeros((rows, cols))
        for i in range(rows):
            for j in range(cols):
                for t in range(inner):
                    out[i, j] += a[i, t] * b[t, j]
        return out

    q, kk, v = mm(x, wq), mm(x, wk), mm(x, wv)
    scores = mm(q, kk.T) / math.sqrt(k)
    alpha = np.zeros((n, n))
    for i in range(n):
        row = scores[i] - scores[i].max()
        e = np.array([math.exp(val) for val in row])
        alpha[i] = e / e.sum()
    head = mm(alpha, v)
    u_prime = mm(head, wo)

    def ln(mat, gamma, beta):
        out = np.zeros_like(mat)
        for i in range(mat.shape[0]):
            mu = mat[i].mean()
            var = ((mat[i] - mu) ** 2).mean()
            out[i] = (mat[i] - mu) / math.sqrt(var + eps) * gamma + beta
        return out

    u = ln(x + u_prime, layer.gamma1.data, layer.beta1.data)
    z_prime = mm(np.maximum(mm(u, w1), 0.0), w2)
    want = ln(u + z_prime, layer.gamma2.data, layer.beta2.data)

    got = encode(Tensor(x), params).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_encode_width_mismatch():
    rng = np.random.default_rng(4)
    params = EncoderParams.init(width=4, num_layers=1, num_heads=1, rng=rng)
    with pytest.raises(T.ShapeError):
        encode(Tensor(rng.standard_normal((3, 5))), params)


def test_eval_mode_deterministic_and_dropout_changes_training():
    rng = np.random.default_rng(5)
    params = EncoderParams.init(width=4, num_layers=1, num_heads=2, rng=rng)
    x = Tensor(rng.standard_normal((4, 4)))
    a = encode(x, params).data
    b = encode(x, params).data
    np.testing.assert_array_equal(a, b)
    c = encode(x, params, training=True, dropout_p=0.5,
               rng=np.random.default_rng(0)).data
    assert not np.allclose(a, c)


@pytest.mark.parametrize("seed", range(3))
def test_encoder_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    params = EncoderParams.init(width=4, num_layers=1, num_heads=2, rng=rng)
    x = T.parameter(rng.standard_normal((3, 4)))
    w = Tensor(rng.standard_normal((3, 4)))
    names = params.named()
    groups = [x] + list(names.values())

    def build(tape):
        z = encode(x, params, tape=tape)
        return T.sum_all(T.mul(z, w, tape), tape)

    err = check_grads(build, groups)
    assert err < FD_TOL, f"encoder rel err {err:.3e}"


def test_named_parameter_map_is_complete():
    rng = np.random.default_rng(6)
    params = EncoderParams.init(width=4, num_layers=2, num_heads=3, rng=rng)
    names = params.named()
    # per layer: 3 heads x 3 projections + wo + 2 ffn + 4 layernorm = 16
    assert len(names) == 2 * (9 + 7)
    assert all(v.requires_grad for v in names.values())
