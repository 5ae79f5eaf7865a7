"""Graph layers over the conversation graph.

``rgcn_forward`` is a plain relational graph convolution: a root
transform of each node plus, for every relation type, the mean of the
type's in-neighbor features pushed through that type's own weight
matrix. It computes one message ``z_j @ theta_r`` per distinct (relation
r, source j) pair that some edge of type r uses, all of them in one
``block_matmul`` op whose block r picks the sources of type r, and one
constant n x M mean matrix over those M message rows, holding
count/|N_r(i)| at [i, row of (r, j)] for each edge j -> i of type r,
averages them for every node at once. Each graph keeps its message rows
and the mean's nonzero entries (``ConversationGraph.rgcn_layout``), and
its neighborhood mask, from its first forward on; a forward only
scatters them. A stack's message rows are every copy's own, with no
padding, as in a disjoint union of its graphs: each relation is one GEMM
over all copies' rows of that type, gathered to a (B, M, k) block whose
copy b holds its own rows, M the most any copy has, zero past them.

``graph_transformer_forward`` then runs dot-product attention restricted
to graph neighborhoods (relation types ignored at this layer), combining
a transformed self term with attention-weighted neighbor messages, every
head in one projection op and one attention op, then an output projection.

Both layers take node features as n x d with one graph, or stacked as
B x n x d with one graph per copy (all of n nodes), on a tape or not.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import head_width
from .graph import ConversationGraph
from .tensor import Tape, Tensor


@dataclass
class RgcnParams:
    theta_root: Tensor          # d x d'
    thetas: list[Tensor]        # one d x d' matrix per relation type

    @property
    def relation_count(self) -> int:
        return len(self.thetas)

    @classmethod
    def init(cls, d_in: int, d_out: int, relation_count: int,
             rng: np.random.Generator | T.Init) -> "RgcnParams":
        if relation_count < 1:
            raise ValueError("need at least one relation type")
        init = T.Init.of(rng)
        return cls(theta_root=init.xavier((d_in, d_out)),
                   thetas=[init.xavier((d_in, d_out)) for _ in range(relation_count)])

    def named(self, prefix: str = "rgcn") -> dict[str, Tensor]:
        out = {f"{prefix}.theta_root": self.theta_root}
        for r, th in enumerate(self.thetas):
            out[f"{prefix}.theta_rel{r}"] = th
        return out


@dataclass
class GraphTransformerParams:
    # d' x k each, per head in turn: w_self (the node's own transform), w_msg (of
    # attended neighbors), w_key_self (query side) and w_key_nbr (key side)
    proj: list[Tensor]
    w_out: Tensor    # (k*H) x d''
    head_dim: int

    @property
    def num_heads(self) -> int:
        return len(self.proj) // 4

    @classmethod
    def init(cls, d_in: int, d_out: int, num_heads: int,
             rng: np.random.Generator | T.Init) -> "GraphTransformerParams":
        if num_heads < 1:
            raise ValueError("need at least one attention head")
        k = head_width(d_out, num_heads)
        init = T.Init.of(rng)
        proj = [init.xavier((d_in, k)) for _ in range(4 * num_heads)]
        return cls(proj, init.xavier((k * num_heads, d_out)), k)

    def named(self, prefix: str = "graph_attention") -> dict[str, Tensor]:
        roles = ("w_self", "w_msg", "w_key_self", "w_key_nbr")
        out = {f"{prefix}.head{i // 4}.{roles[i % 4]}": w for i, w in enumerate(self.proj)}
        out[f"{prefix}.w_out"] = self.w_out
        return out


Graphs = ConversationGraph | Sequence[ConversationGraph]


def _graphs(g: Graphs) -> list[ConversationGraph]:
    return [g] if isinstance(g, ConversationGraph) else list(g)


def _check_nodes(x: Tensor, g: Graphs, name: str) -> list[ConversationGraph]:
    """The graphs of ``x``'s copies: one for a 2-D ``x``, or a sequence of one
    per copy of a stacked ``x``, each with as many nodes as ``x`` has rows."""
    graphs = _graphs(g)
    stacked = x.data.ndim == 3
    if isinstance(g, ConversationGraph) == stacked or stacked and len(graphs) != x.shape[0]:
        raise T.ShapeError(f"{name}: {len(graphs)} graph(s) for input of shape {x.shape}; "
                           "a stack takes a sequence of one per copy")
    for one in graphs:
        if x.shape[-2] != one.num_nodes:
            raise T.ShapeError(f"{name}: {x.shape[-2]} feature rows for "
                               f"{one.num_nodes} graph nodes")
    return graphs


def rgcn_layout(graphs: list[ConversationGraph], relation_count: int, stacked: bool
                ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray | None, np.ndarray]:
    """The message rows of a forward over ``graphs``: every copy's own
    (relation, source) rows from its kept layout, and no others. Returns the
    relation ids present in any copy, sorted; per id, its rows' sources over
    every copy in turn, copy b's node j as b*n + j (``block_matmul``'s
    ``rows``, one GEMM per id); ``at``, the (B, M) gather that hands each copy
    its own rows, M the most any copy has, with zero rows past a copy's own
    (None for a single graph, whose rows are its layout's as they are); and
    each copy's mean over its own rows, (B, n, M) stacked or (n, M) for 2-D."""
    n, copies = graphs[0].num_nodes, len(graphs)
    layouts = [one.rgcn_layout for one in graphs]
    m = [one[2].size for one in layouts]
    rels, counts, sources, dst, row, weights = layouts[0] if copies == 1 else (
        np.concatenate(a) for a in zip(*layouts))
    mean = np.zeros((copies, n, max(m)))
    first = np.repeat(np.arange(copies) * n, [one[3].size for one in layouts])   # copy's row 0
    mean.reshape(-1)[(first + dst) * max(m) + row] = weights   # one flat index: cheapest scatter
    bad = rels[(rels < 0) | (rels >= relation_count)]
    if bad.size:
        raise ValueError(f"graph uses relation id {bad.max()} but parameters "
                         f"cover only {relation_count} types")
    at = None
    if copies > 1:   # each relation's rows of every copy in turn, for one GEMM per relation
        rel, m = np.repeat(rels, counts), np.array(m)
        order = np.argsort(rel, kind="stable")
        place = np.empty_like(order)
        place[order] = np.arange(rel.size)
        at = np.full((copies, m.max()), rel.size)
        at[np.arange(m.max()) < m[:, None]] = place   # row-major: each copy's rows in turn
        sources = (sources + np.repeat(np.arange(copies) * n, m))[order]
        totals = np.bincount(rel)
        rels = np.flatnonzero(totals)
        counts = totals[rels]
    ends = np.cumsum(counts).tolist()
    return (rels, [sources[lo:hi] for lo, hi in zip([0, *ends], ends)], at,
            mean if stacked else mean[0])


def rgcn_forward(z: Tensor, g: Graphs, params: RgcnParams,
                 tape: Tape | None = None) -> Tensor:
    """theta_root z_i plus per-relation mean of transformed in-neighbors.

    The messages are one row per (relation, source) pair an edge uses
    (``rgcn_layout``), and each copy's mean reads only its own rows.
    """
    graphs = _check_nodes(z, g, "rgcn_forward")
    present, rows, at, mean = rgcn_layout(graphs, params.relation_count, z.data.ndim == 3)
    out = T.matmul(z, params.theta_root, tape)
    if not present.size:
        return out
    messages = T.block_matmul(z, [params.thetas[r] for r in present], tape, rows, at)
    return T.add(out, T.matmul(Tensor(mean), messages, tape), tape)


def neighborhood_mask(g: Graphs) -> np.ndarray:
    """mask[i, j] is true when j is an in-neighbor of i (any relation type);
    (B, n, n) for a sequence of B graphs."""
    if isinstance(g, ConversationGraph):
        return g.neighbor_mask
    return np.stack([one.neighbor_mask for one in g])


def graph_transformer_forward(xp: Tensor, g: Graphs,
                              params: GraphTransformerParams,
                              tape: Tape | None = None,
                              capture: dict | None = None) -> Tensor:
    """Self transform plus attention-weighted neighbor messages per head.

    Attention normalizes over each node's in-neighborhood; nodes with no
    in-edges keep only the self term.
    """
    _check_nodes(xp, g, "graph_transformer_forward")
    scale = 1.0 / math.sqrt(params.head_dim)
    heads, alpha = T.attention(T.block_matmul(xp, params.proj, tape), params.num_heads,
                               scale, neighborhood_mask(g), tape)
    if capture is not None:
        capture["graph_attention"] = [Tensor(a) for a in np.moveaxis(alpha, -3, 0)]
    return T.matmul(heads, params.w_out, tape)
