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
scatters them. In a stack of distinct graphs, each relation's rows are
padded to the most sources any copy has, and a copy's mean is zero at
its padding.

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


def _widths(rels: np.ndarray, counts: np.ndarray, relation_count: int) -> np.ndarray:
    """Per relation id, the most message rows any graph gives it, from the
    relation ids and row counts of their layouts end to end."""
    bad = rels[(rels < 0) | (rels >= relation_count)]
    if bad.size:
        raise ValueError(f"graph uses relation id {bad.max()} but parameters "
                         f"cover only {relation_count} types")
    widths = np.zeros(relation_count, np.intp)
    np.maximum.at(widths, rels, counts)
    return widths


def message_rows(graphs: Sequence[ConversationGraph], relation_count: int) -> int:
    """The message rows per copy of an RGCN forward over a stack of any of ``graphs``."""
    rels, counts = (np.concatenate(a) for a in zip(*(g.rgcn_layout[:2] for g in graphs)))
    return int(_widths(rels, counts, relation_count).sum())


def rgcn_layout(graphs: list[ConversationGraph], relation_count: int,
                stack: tuple[int, ...]) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The relation ids present in any of the graphs, sorted; per id, the source
    nodes whose messages it needs, of shape (*stack, S_r); and the mean over
    those M = sum S_r rows, (*stack, n, M). Copies of one graph share its own
    rows; for distinct graphs, each relation's rows are padded to the most any
    copy has, with node 0, whose column of the copy's mean is zero."""
    n = graphs[0].num_nodes
    if all(one is graphs[0] for one in graphs):
        present, counts, index, dst, row, weights = graphs[0].rgcn_layout
        _widths(present, counts, relation_count)   # refuses ids beyond the parameters
        mean = np.zeros((n, index.size))
        mean[dst, row] = weights
        if stack:
            index, mean = (np.broadcast_to(a, (*stack, *a.shape)) for a in (index, mean))
    else:
        layouts = [one.rgcn_layout for one in graphs]
        rels, counts, sources, dst, row, weights = map(np.concatenate, zip(*layouts))
        widths = _widths(rels, counts, relation_count)
        present, copy = np.flatnonzero(widths), np.arange(len(graphs))
        m, e = np.array([(one[2].size, one[5].size) for one in layouts]).T
        # a row's column: its relation's first column plus its rank among the copy's rows of it
        first = np.cumsum(counts) - counts
        col = ((np.cumsum(widths) - widths)[np.repeat(rels, counts)]
               + np.arange(sources.size) - np.repeat(first, counts))
        index = np.zeros((len(graphs), widths.sum()), np.intp)
        index[np.repeat(copy, m), col] = sources
        mean = np.zeros((len(graphs), n, widths.sum()))
        mean[np.repeat(copy, e), dst, col[row + np.repeat(np.cumsum(m) - m, e)]] = weights
        counts = widths[present]
    ends = np.cumsum(counts).tolist()
    return present, [index[..., lo:hi] for lo, hi in zip([0, *ends], ends)], mean


def rgcn_forward(z: Tensor, g: Graphs, params: RgcnParams,
                 tape: Tape | None = None) -> Tensor:
    """theta_root z_i plus per-relation mean of transformed in-neighbors.

    The messages are one row per (relation, source) pair an edge uses
    (``rgcn_layout``), and each copy's mean reads only its own rows.
    """
    graphs = _check_nodes(z, g, "rgcn_forward")
    present, rows, mean = rgcn_layout(graphs, params.relation_count, z.shape[:-2])
    out = T.matmul(z, params.theta_root, tape)
    if not present.size:
        return out
    messages = T.block_matmul(z, [params.thetas[r] for r in present], tape, rows)
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
