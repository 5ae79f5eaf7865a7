import math
from collections import Counter

import numpy as np
import pytest

from convemo import tensor as T
from convemo.gnn import (
    GraphTransformerParams,
    RgcnParams,
    graph_transformer_forward,
    neighborhood_mask,
    rgcn_forward,
    rgcn_layout,
)
from convemo.graph import ConversationGraph, collapse_relations, graph_from_speakers
from convemo.tensor import Tape, Tensor, backward
from helpers import FD_TOL, check_grads


def rgcn_loop_oracle(z, g, theta_root, thetas):
    """Literal per-node, per-relation double sum."""
    n = z.shape[0]
    out = np.zeros((n, theta_root.shape[1]))
    for i in range(n):
        out[i] = z[i] @ theta_root
        for r in range(len(thetas)):
            nbrs = [src for (src, dst, rel) in g.edges if dst == i and rel == r]
            if not nbrs:
                continue
            acc = np.zeros(theta_root.shape[1])
            for j in nbrs:
                acc += z[j] @ thetas[r]
            out[i] += acc / len(nbrs)
    return out


def gt_loop_oracle(x, g, params):
    """Per-node attention over unique in-neighbors, one head at a time."""
    n = x.shape[0]
    head_outs = []
    named = params.named()
    for h in range(params.num_heads):
        w1, w2, w3, w4 = (named[f"graph_attention.head{h}.{w}"].data
                          for w in ("w_self", "w_msg", "w_key_self", "w_key_nbr"))
        out = np.zeros((n, w1.shape[1]))
        for i in range(n):
            out[i] = x[i] @ w1
            nbrs = sorted({src for (src, dst, _) in g.edges if dst == i})
            if not nbrs:
                continue
            scores = np.array([(x[i] @ w3) @ (x[j] @ w4) for j in nbrs])
            scores = scores / math.sqrt(params.head_dim)
            e = np.exp(scores - scores.max())
            alpha = e / e.sum()
            for a, j in zip(alpha, nbrs):
                out[i] += a * (x[j] @ w2)
        head_outs.append(out)
    return np.concatenate(head_outs, axis=1) @ params.w_out.data


def _random_graph(rng, n, m, **kw):
    speakers = rng.integers(0, m, size=n).tolist()
    past = [0, 1, 2, None][rng.integers(0, 4)]
    future = [0, 1, 2, None][rng.integers(0, 4)]
    mode = ("both_directions", "single_direction")[rng.integers(0, 2)]
    loops = bool(rng.integers(0, 2))
    return graph_from_speakers(speakers, m, past, future, mode, loops)


def test_rgcn_edgeless_identity():
    g = ConversationGraph(3, [], 2)
    params = RgcnParams(theta_root=T.parameter(np.eye(4)),
                        thetas=[T.parameter(np.zeros((4, 4))) for _ in range(2)])
    z = np.random.default_rng(0).standard_normal((3, 4))
    out = rgcn_forward(Tensor(z), g, params)
    np.testing.assert_array_equal(out.data, z)


def test_rgcn_single_message():
    g = ConversationGraph(2, [(0, 1, 1)], 3)
    params = RgcnParams(theta_root=T.parameter(np.zeros((3, 3))),
                        thetas=[T.parameter(np.zeros((3, 3))),
                                T.parameter(np.eye(3)),
                                T.parameter(np.zeros((3, 3)))])
    z = np.random.default_rng(1).standard_normal((2, 3))
    out = rgcn_forward(Tensor(z), g, params)
    np.testing.assert_allclose(out.data[1], z[0], atol=1e-15)
    np.testing.assert_array_equal(out.data[0], np.zeros(3))


@pytest.mark.parametrize("seed", range(10))
def test_rgcn_matches_loop_oracle(seed):
    rng = np.random.default_rng(300 + seed)
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    g = _random_graph(rng, n, m)
    params = RgcnParams.init(4, 5, g.relation_count, rng)
    z = rng.standard_normal((n, 4))
    # collapsing a single-direction graph with overlapping windows makes
    # parallel edges, each of which counts in the mean
    single = graph_from_speakers(rng.integers(0, m, size=n).tolist(), m, 2, 2,
                                 "single_direction")
    parallel = collapse_relations(single)
    assert n == 1 or len(set(parallel.edges)) < len(parallel.edges)
    for graph in (g, collapse_relations(g), parallel):
        got = rgcn_forward(Tensor(z), graph, params).data
        want = rgcn_loop_oracle(z, graph, params.theta_root.data,
                                [t.data for t in params.thetas])
        np.testing.assert_allclose(got, want, atol=1e-12)


def dense_layout_oracle(graphs, stacked):
    """The RGCN layout by its definition, from each graph's edge list: each
    copy's own message rows, its distinct (relation, source) pairs sorted; the
    relation ids present in any copy; per id, the sources of its rows over
    every copy in turn, copy b's node j as b*n + j; for two or more copies,
    at[b, m], the place among those of copy b's m-th own row, or their count
    past copy b's rows (else None); and the mean, count/deg at [copy, dst, own
    row of (rel, src)], (B, n, M) for a stack and (n, M) for one 2-D graph."""
    n = graphs[0].num_nodes
    edges = [Counter(one.edges) for one in graphs]
    own = [sorted({(rel, src) for src, _, rel in e}) for e in edges]
    present = sorted({rel for pairs in own for rel, _ in pairs})
    gemm = [(rel, b, src) for rel in present for b, pairs in enumerate(own)
            for r, src in pairs if r == rel]
    rows = [np.array([b * n + src for r, b, src in gemm if r == rel]) for rel in present]
    width = max(map(len, own))
    at = np.full((len(graphs), width), len(gemm))
    mean = np.zeros((len(graphs), n, width))
    for b, e in enumerate(edges):
        for m, (rel, src) in enumerate(own[b]):
            at[b, m] = gemm.index((rel, b, src))
        for (src, dst, rel), count in e.items():
            deg = sum(c for (_, d, r), c in e.items() if d == dst and r == rel)
            mean[b, dst, own[b].index((rel, src))] = count / deg
    return (np.array(present, dtype=np.intp), rows, at if len(graphs) > 1 else None,
            mean if stacked else mean[0])


def _assert_same_layout(got, want):
    (present, rows, at, mean), (want_present, want_rows, want_at, want_mean) = got, want
    assert np.array_equal(present, want_present) and len(rows) == len(want_rows)
    assert all(np.array_equal(r, w) for r, w in zip(rows, want_rows))
    assert (at is None) == (want_at is None) and (at is None or np.array_equal(at, want_at))
    assert mean.shape == want_mean.shape and np.array_equal(mean, want_mean)


def test_kept_rgcn_constants_equal_the_dense_formula_bitwise():
    parallel = collapse_relations(graph_from_speakers([0, 1, 0, 1, 1], 2, 2, 2,
                                                      "single_direction"))
    assert len(set(parallel.edges)) < len(parallel.edges)
    assert parallel.rgcn_layout[5].size == len(set(parallel.edges))   # one weight per distinct edge
    # node 0 has no in-edges: single direction, no past window, no self-loops
    sourceless = graph_from_speakers([0, 1, 0], 2, 0, 1, "single_direction", False)
    assert not (sourceless.edge_arrays[1] == 0).any()
    singles = [graph_from_speakers([0, 1, 1, 0, 2], 3, 2, None), parallel, sourceless,
               ConversationGraph(3, [], 2)]
    for g in singles:
        # one graph, 2-D or a stack of one, is its own layout; copies of it repeat it
        for graphs, stacked in (([g], False), ([g], True), ([g] * 3, True)):
            _assert_same_layout(rgcn_layout(graphs, g.relation_count, stacked),
                                dense_layout_oracle(graphs, stacked))
        rels, _, sources = g.rgcn_layout[:3]
        present, rows, _, _ = rgcn_layout([g], g.relation_count, False)
        assert present is rels and all(r.base is sources for r in rows)
    assert 0.4 in rgcn_layout([parallel], 1, False)[3]   # a parallel pair of a degree-5 node
    # one graph per copy, whose present relation types and source sets differ
    stacks = [[graph_from_speakers(s, 3, 1, None) for s in
               ([0, 1, 2, 0, 1], [1, 1, 1, 1, 1], [2, 0, 2, 0, 2])],
              [graph_from_speakers(s, 2, 1, 1, self_loops=False) for s in ([0, 1, 0], [1, 1, 1])],
              [parallel, collapse_relations(graph_from_speakers([0, 0, 1, 1, 0], 2, 1, 1,
                                                                "single_direction", False))],
              [ConversationGraph(3, [], 8), sourceless, graph_from_speakers([1, 1, 0], 2, 1, 1)]]
    for graphs in stacks:
        layouts = [g.rgcn_layout for g in graphs]
        assert len({(tuple(k[0]), tuple(k[2])) for k in layouts}) == len(graphs)
        got = rgcn_layout(graphs, graphs[0].relation_count, True)
        _assert_same_layout(got, dense_layout_oracle(graphs, True))
        # a stack's GEMM rows are its copies' own rows, with no padding
        assert sum(r.size for r in got[1]) == sum(k[2].size for k in layouts)


def _stacks_of_distinct_graphs():
    """Stacks of 5-node graphs whose copies differ in present relation types,
    source sets and row totals; the middle two have parallel edges (single
    direction), and the last an edgeless copy and relations of one copy only."""
    return [[graph_from_speakers(s, 3, 1, None) for s in
             ([0, 1, 2, 0, 1], [1, 1, 1, 1, 1], [2, 0, 2, 0, 2])],
            [graph_from_speakers(s, 3, 2, 1, "single_direction", False) for s in
             ([0, 1, 2, 0, 1], [2, 2, 0, 1, 0], [1, 0, 1, 0, 1])],
            [collapse_relations(graph_from_speakers([0, 1, 0, 1, 1], 2, 2, 2, "single_direction")),
             collapse_relations(graph_from_speakers([1, 1, 0, 0, 0], 2, 2, 2, "single_direction",
                                                    False))],
            [graph_from_speakers([0, 1, 0, 1, 0], 3, None, None), ConversationGraph(5, [], 18),
             graph_from_speakers([2, 2, 2, 2, 2], 3, 1, 0)]]


@pytest.mark.parametrize("case", range(4))
def test_rgcn_on_a_stack_of_distinct_graphs_matches_the_loop_oracle_and_finite_differences(case):
    graphs = _stacks_of_distinct_graphs()[case]
    rng = np.random.default_rng(40 + case)
    params = RgcnParams.init(3, 4, graphs[0].relation_count, rng)
    z = T.parameter(rng.standard_normal((len(graphs), 5, 3)))
    out = rgcn_forward(z, graphs, params)
    for b, g in enumerate(graphs):
        want = rgcn_loop_oracle(z.data[b], g, params.theta_root.data,
                                [t.data for t in params.thetas])
        np.testing.assert_allclose(out.data[b], want, atol=1e-12)
    probe = Tensor(rng.standard_normal(out.shape))

    def loss(tape):
        return T.sum_all(T.mul(rgcn_forward(z, graphs, params, tape), probe, tape), tape)

    present = sorted({rel for g in graphs for *_, rel in g.edges})
    assert check_grads(loss, [z, params.theta_root, *(params.thetas[r] for r in present)]) < FD_TOL
    # the messages are each copy's own rows, (B, M, k) for M the most any copy
    # has: a copy's rows past its own are zero and read by none of its nodes,
    # so they move no gradient
    tape = Tape()
    backward(loss(tape), tape)
    messages = tape.entries[1][2]
    own = [g.rgcn_layout[2].size for g in graphs]
    assert messages.shape == (len(graphs), max(own), 4)
    for b, m in enumerate(own):
        assert not messages.data[b, m:].any() and not messages.grad[b, m:].any()
    if case == 3:   # row totals that differ, one of them 0, and relations of one copy only
        assert min(own) == 0 and len(set(own)) == 3
        assert any(sum(r in g.rgcn_layout[0] for g in graphs) == 1 for r in present)


def test_rgcn_absent_relations_get_no_gradient():
    rng = np.random.default_rng(9)
    g = graph_from_speakers([0, 0, 1], 3, 1, 1)
    params = RgcnParams.init(3, 3, g.relation_count, rng)
    z = T.parameter(rng.standard_normal((3, 3)))
    tape = Tape()
    backward(T.sum_all(rgcn_forward(z, g, params, tape), tape), tape)
    present = {rel for _, _, rel in g.edges}
    assert 0 < len(present) < g.relation_count
    for r, theta in enumerate(params.thetas):
        assert (theta.grad is not None) == (r in present)
    assert params.theta_root.grad is not None and z.grad is not None


def test_rgcn_records_one_message_op_over_present_relations():
    speakers = [0, 1, 2, 3, 4, 5, 2, 0, 4, 1, 3, 5]
    g = graph_from_speakers(speakers, 6, None, None)
    present = sorted({rel for _, _, rel in g.edges})
    params = RgcnParams.init(4, 4, g.relation_count, np.random.default_rng(10))
    tape = Tape()
    rgcn_forward(T.parameter(np.ones((len(speakers), 4))), g, params, tape)
    # root, the messages of every present type in one op, the mean and the sum
    assert [op for op, *_ in tape.entries] == ["matmul", "block_matmul", "matmul", "add"]
    _op, inputs, out, _fn = tape.entries[1]
    assert inputs[1:] == tuple(params.thetas[r] for r in present)
    # one message row per (relation, source) pair an edge uses
    assert out.shape == (len({(rel, src) for src, _, rel in g.edges}), 4)
    assert len(present) > 40 and out.shape[0] < len(present) * len(speakers)


def test_rgcn_relation_id_beyond_params():
    g = ConversationGraph(2, [(0, 1, 5)], 6)
    rng = np.random.default_rng(2)
    params = RgcnParams.init(3, 3, 2, rng)
    with pytest.raises(ValueError, match="relation id 5"):
        rgcn_forward(Tensor(rng.standard_normal((2, 3))), g, params)
    # a negative id would otherwise index the relation list from its end
    g = ConversationGraph(2, [(0, 1, -1)], 6)
    with pytest.raises(ValueError, match="relation id -1"):
        rgcn_forward(Tensor(rng.standard_normal((2, 3))), g, params)


def test_rgcn_linearity():
    rng = np.random.default_rng(3)
    g = _random_graph(rng, 5, 2)
    params = RgcnParams.init(4, 4, g.relation_count, rng)
    z = rng.standard_normal((5, 4))
    one = rgcn_forward(Tensor(z), g, params).data
    scaled = rgcn_forward(Tensor(3.5 * z), g, params).data
    np.testing.assert_allclose(scaled, 3.5 * one, atol=1e-12)


def test_gt_isolated_node_keeps_self_term():
    g = ConversationGraph(2, [(0, 1, 0)], 1)  # node 0 has no in-edges
    rng = np.random.default_rng(4)
    params = GraphTransformerParams.init(3, 4, 2, rng)
    x = rng.standard_normal((2, 3))
    out = graph_transformer_forward(Tensor(x), g, params).data
    named = params.named()
    per_head = [x[0] @ named[f"graph_attention.head{h}.w_self"].data
                for h in range(params.num_heads)]
    want0 = np.concatenate(per_head) @ params.w_out.data
    np.testing.assert_allclose(out[0], want0, atol=1e-12)


def test_gt_single_neighbor_attention_is_one():
    g = ConversationGraph(2, [(0, 1, 0)], 1)
    rng = np.random.default_rng(5)
    params = GraphTransformerParams.init(3, 3, 1, rng)
    capture = {}
    x = rng.standard_normal((2, 3))
    graph_transformer_forward(Tensor(x), g, params, capture=capture)
    alpha = capture["graph_attention"][0].data
    assert alpha[1, 0] == 1.0
    assert alpha[0].sum() == 0.0  # isolated node row


@pytest.mark.parametrize("seed", range(10))
def test_gt_matches_loop_oracle(seed):
    rng = np.random.default_rng(400 + seed)
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    g = _random_graph(rng, n, m)
    params = GraphTransformerParams.init(4, 6, int(rng.integers(1, 4)), rng)
    x = rng.standard_normal((n, 4))
    got = graph_transformer_forward(Tensor(x), g, params).data
    want = gt_loop_oracle(x, g, params)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_gt_attention_rows_sum_to_one_over_neighborhoods():
    rng = np.random.default_rng(6)
    g = graph_from_speakers(rng.integers(0, 2, size=6).tolist(), 2, 2, 2)
    params = GraphTransformerParams.init(4, 4, 2, rng)
    capture = {}
    graph_transformer_forward(Tensor(rng.standard_normal((6, 4))), g, params,
                              capture=capture)
    mask = neighborhood_mask(g)
    for alpha in capture["graph_attention"]:
        sums = alpha.data.sum(axis=1)
        for i in range(6):
            if mask[i].any():
                assert abs(sums[i] - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_graph_level_permutation_equivariance(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(2, 7))
    speakers = rng.integers(0, 2, size=n).tolist()
    g = graph_from_speakers(speakers, 2, 2, 2)
    rgcn = RgcnParams.init(4, 4, g.relation_count, rng)
    gt = GraphTransformerParams.init(4, 4, 2, rng)
    x = rng.standard_normal((n, 4))

    perm = rng.permutation(n)
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    # relabel node i as inv[i] so row inv[i] of the permuted input is x[i]
    g_perm = ConversationGraph(n, [(int(inv[s]), int(inv[d]), r) for s, d, r in g.edges],
                               g.relation_count)

    def run(feats, graph):
        hid = rgcn_forward(Tensor(feats), graph, rgcn)
        return graph_transformer_forward(hid, graph, gt).data

    out = run(x, g)
    out_perm = run(x[perm], g_perm)
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_gnn_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(600 + seed)
    n = 4
    g = graph_from_speakers(rng.integers(0, 2, size=n).tolist(), 2, 1, 1)
    rgcn = RgcnParams.init(3, 3, g.relation_count, rng)
    gt = GraphTransformerParams.init(3, 3, 2, rng)
    z = T.parameter(rng.standard_normal((n, 3)))
    w = Tensor(rng.standard_normal((n, 3)))
    groups = [z] + list(rgcn.named().values()) + list(gt.named().values())

    def build(tape):
        hid = rgcn_forward(z, g, rgcn, tape)
        out = graph_transformer_forward(hid, g, gt, tape=tape)
        return T.sum_all(T.mul(out, w, tape), tape)

    err = check_grads(build, groups)
    assert err < FD_TOL, f"gnn rel err {err:.3e}"


def test_node_count_mismatch():
    rng = np.random.default_rng(8)
    g = graph_from_speakers([0, 1, 0], 2, 1, 1)
    params = RgcnParams.init(3, 3, g.relation_count, rng)
    with pytest.raises(T.ShapeError):
        rgcn_forward(Tensor(rng.standard_normal((2, 3))), g, params)


def test_graphs_per_copy_match_a_loop_over_copies():
    # three graphs of 5 nodes whose present relation types differ (one has a
    # single speaker), so each copy's mean matrix has zero columns for types
    # that only the others use
    rng = np.random.default_rng(9)
    graphs = [graph_from_speakers(s, 3, 1, None) for s in
              ([0, 1, 2, 0, 1], [1, 1, 1, 1, 1], [2, 0, 2, 0, 2])]
    present = [{rel for *_, rel in g.edges} for g in graphs]
    assert len({frozenset(p) for p in present}) == 3
    rgcn = RgcnParams.init(4, 4, graphs[0].relation_count, rng)
    gt = GraphTransformerParams.init(4, 4, 2, rng)
    z = rng.standard_normal((3, 5, 4))
    hid = rgcn_forward(Tensor(z), graphs, rgcn)
    out = graph_transformer_forward(hid, graphs, gt).data
    mask = neighborhood_mask(graphs)
    assert mask.shape == (3, 5, 5)
    for b, g in enumerate(graphs):
        one = rgcn_forward(Tensor(z[b]), g, rgcn)
        assert np.abs(hid.data[b] - one.data).max() <= 1e-12 * np.abs(one.data).max()
        want = graph_transformer_forward(one, g, gt).data
        assert np.abs(out[b] - want).max() <= 1e-12 * np.abs(want).max()
        np.testing.assert_array_equal(mask[b], neighborhood_mask(g))


def test_graph_count_or_node_count_mismatch_per_copy():
    rng = np.random.default_rng(10)
    graphs = [graph_from_speakers(s, 2, 1, 1) for s in ([0, 1, 0], [1, 1, 0])]
    rgcn = RgcnParams.init(3, 3, graphs[0].relation_count, rng)
    gt = GraphTransformerParams.init(3, 3, 1, rng)
    layers = (lambda x, g: rgcn_forward(x, g, rgcn),
              lambda x, g: graph_transformer_forward(x, g, gt))
    for layer in layers:
        for x, g in ((rng.standard_normal((3, 3, 3)), graphs),     # 2 graphs, 3 copies
                     (rng.standard_normal((3, 3)), graphs),        # graphs for a 2-D input
                     (rng.standard_normal((2, 3, 3)), graphs[0]),  # one graph for a stack
                     (rng.standard_normal((1, 3, 3)), []),
                     (rng.standard_normal((2, 3, 3)),              # a 2-node graph
                      [graphs[0], graph_from_speakers([0, 1], 2, 1, 1)])):
            with pytest.raises(T.ShapeError):
                layer(Tensor(x), g)
