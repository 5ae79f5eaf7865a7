"""Position-free transformer context encoder.

Maps fused utterance features X (n x d) to contextualized features
Z (n x d) over a whole dialogue; a stack of B inputs (B x n x d) runs as
B independent dialogues in one pass, on a tape or not. There is deliberately no
positional signal anywhere: each layer is multi-head scaled dot-product
attention (every head in one ``block_matmul`` projection and one
``attention`` op, then the output projection), residual + LayerNorm, a
ReLU feed-forward block, and a second residual + LayerNorm. The observable
consequence is permutation equivariance over utterance order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tape, Tensor


def head_width(width: int, num_heads: int) -> int:
    """d // H when divisible, else ceil(d / H)."""
    return width // num_heads if width % num_heads == 0 else -(-width // num_heads)


@dataclass
class EncoderLayerParams:
    w_qkv: list[Tensor]  # d x k each: head 0's q, k, v, then head 1's, ... (arena order)
    w_o: Tensor        # (k*H) x d
    w_ffn1: Tensor     # d x m
    w_ffn2: Tensor     # m x d
    gamma1: Tensor
    beta1: Tensor
    gamma2: Tensor
    beta2: Tensor


@dataclass
class EncoderParams:
    layers: list[EncoderLayerParams]
    width: int
    num_heads: int
    head_dim: int

    @classmethod
    def init(cls, width: int, num_layers: int, num_heads: int,
             rng: np.random.Generator | T.Init, ffn_width: int | None = None) -> "EncoderParams":
        if width < 1 or num_layers < 1 or num_heads < 1:
            raise ValueError("encoder sizes must be positive")
        k = head_width(width, num_heads)
        m = ffn_width or 4 * width
        init = T.Init.of(rng)
        layers = []
        for _ in range(num_layers):
            # drawn role by role (every head's q, then k, then v), kept head by head
            qkv = [[init.xavier((width, k)) for _ in range(num_heads)] for _ in range(3)]
            layers.append(EncoderLayerParams(
                w_qkv=[w for head in zip(*qkv) for w in head],
                w_o=init.xavier((k * num_heads, width)),
                w_ffn1=init.xavier((width, m)),
                w_ffn2=init.xavier((m, width)),
                gamma1=init.fill((width,), 1.0),
                beta1=init.fill((width,), 0.0),
                gamma2=init.fill((width,), 1.0),
                beta2=init.fill((width,), 0.0),
            ))
        return cls(layers, width, num_heads, k)

    def named(self, prefix: str = "encoder") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        roles = ("wq", "wk", "wv")
        for li, layer in enumerate(self.layers):
            base = f"{prefix}.layer{li}"
            for i, w in enumerate(layer.w_qkv):
                out[f"{base}.head{i // 3}.{roles[i % 3]}"] = w
            for key, t in zip(("wo", "ffn1", "ffn2", "gamma1", "beta1", "gamma2", "beta2"),
                              (layer.w_o, layer.w_ffn1, layer.w_ffn2, layer.gamma1,
                               layer.beta1, layer.gamma2, layer.beta2)):
                out[f"{base}.{key}"] = t
        return out


def encode(x: Tensor, params: EncoderParams, training: bool = False,
           dropout_p: float = 0.0, rng: np.random.Generator | None = None,
           tape: Tape | None = None, capture: dict | None = None) -> Tensor:
    """Stack of encoder layers; ``capture['attention']`` collects the per
    layer/head attention maps when a dict is supplied."""
    if x.shape[-1] != params.width:
        raise T.ShapeError(f"encoder expects width {params.width}, got {x.shape}")
    scale = 1.0 / math.sqrt(params.head_dim)
    maps: list[list[Tensor]] = []
    for layer in params.layers:
        heads, alpha = T.attention(T.block_matmul(x, layer.w_qkv, tape), params.num_heads,
                                   scale, tape=tape)
        if capture is not None:
            maps.append([Tensor(a) for a in np.moveaxis(alpha, -3, 0)])
        u_prime = T.matmul(heads, layer.w_o, tape)
        u_prime = T.dropout(u_prime, dropout_p, training, rng, tape)
        u = T.layer_norm(T.add(x, u_prime, tape), layer.gamma1, layer.beta1, tape=tape)
        z_prime = T.matmul(T.relu(T.matmul(u, layer.w_ffn1, tape), tape), layer.w_ffn2, tape)
        z_prime = T.dropout(z_prime, dropout_p, training, rng, tape)
        x = T.layer_norm(T.add(u, z_prime, tape), layer.gamma2, layer.beta2, tape=tape)
    if capture is not None:
        capture["attention"] = maps
    return x


def attention_maps(x: Tensor, params: EncoderParams) -> list[list[Tensor]]:
    """Attention maps from an eval-mode forward pass, per layer then head."""
    capture: dict = {}
    encode(x, params, training=False, capture=capture)
    return capture["attention"]
