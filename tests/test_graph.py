from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from convemo.dataset import Dialogue, Utterance
from convemo.graph import (
    EDGE_MODES,
    FUTURE,
    PAST,
    ConversationGraph,
    _validate,
    collapse_relations,
    graph_from_speakers,
    num_relation_types,
    relation_type_id,
)


def brute_force_edges(speakers, past, future, edge_mode, self_loops, m):
    """Independent oracle: enumerate all ordered pairs and apply the window
    and typing rules literally."""
    n = len(speakers)
    edges = set()
    if self_loops:
        for i in range(n):
            edges.add((i, i, relation_type_id(speakers[i], speakers[i], PAST, m)))
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            if edge_mode == "both_directions":
                in_past_window = past is None or dst - src <= past
                in_future_window = future is None or src - dst <= future
                if src < dst and in_past_window:
                    edges.add((src, dst, relation_type_id(speakers[src], speakers[dst], PAST, m)))
                if src > dst and in_future_window:
                    edges.add((src, dst, relation_type_id(speakers[src], speakers[dst], FUTURE, m)))
            else:
                if src > dst:
                    continue  # spoken order only
                if past is None or dst - src <= past:
                    edges.add((src, dst, relation_type_id(speakers[src], speakers[dst], PAST, m)))
                if future is None or dst - src <= future:
                    edges.add((src, dst, relation_type_id(speakers[src], speakers[dst], FUTURE, m)))
    return edges


def test_relation_ids_two_speakers_cover_eight():
    ids = {relation_type_id(a, b, d, 2) for a in range(2) for b in range(2) for d in (PAST, FUTURE)}
    assert ids == set(range(8))
    assert num_relation_types(2) == 8


def test_relation_ids_single_speaker():
    assert num_relation_types(1) == 2
    assert {relation_type_id(0, 0, d, 1) for d in (PAST, FUTURE)} == {0, 1}


def test_relation_ids_bijective_three_speakers():
    seen = {}
    for a in range(3):
        for b in range(3):
            for d in (PAST, FUTURE):
                rid = relation_type_id(a, b, d, 3)
                assert 0 <= rid < 18
                assert rid not in seen
                seen[rid] = (a, b, d)
    assert len(seen) == 18


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_relation_count_formula(m):
    assert num_relation_types(m) == 2 * m * m


def test_relation_id_out_of_range():
    with pytest.raises(ValueError):
        relation_type_id(2, 0, PAST, 2)
    with pytest.raises(ValueError):
        relation_type_id(0, 0, 2, 2)


# Worked two-speaker example: seven utterances, speakers alternating
# 0,1,0,1,0,1,0, unbounded windows. Expected per-node relation sets,
# written as (source index, direction) and split intra/inter.
SEVEN_SPEAKERS = [0, 1, 0, 1, 0, 1, 0]
SEVEN_EXPECTED = {
    0: ({(0, PAST), (2, FUTURE), (4, FUTURE), (6, FUTURE)},
        {(1, FUTURE), (3, FUTURE), (5, FUTURE)}),
    1: ({(1, PAST), (3, FUTURE), (5, FUTURE)},
        {(0, PAST), (2, FUTURE), (4, FUTURE), (6, FUTURE)}),
    2: ({(0, PAST), (2, PAST), (4, FUTURE), (6, FUTURE)},
        {(1, PAST), (3, FUTURE), (5, FUTURE)}),
    3: ({(1, PAST), (3, PAST), (5, FUTURE)},
        {(0, PAST), (2, PAST), (4, FUTURE), (6, FUTURE)}),
    4: ({(0, PAST), (2, PAST), (4, PAST), (6, FUTURE)},
        {(1, PAST), (3, PAST), (5, FUTURE)}),
    5: ({(1, PAST), (3, PAST), (5, PAST)},
        {(0, PAST), (2, PAST), (4, PAST), (6, FUTURE)}),
    6: ({(0, PAST), (2, PAST), (4, PAST), (6, PAST)},
        {(1, PAST), (3, PAST), (5, PAST)}),
}


def test_seven_utterance_window_example():
    g = graph_from_speakers(SEVEN_SPEAKERS, num_speakers=2, past=None, future=None)
    assert g.relation_count == 8
    srcs, dsts, rels = g.edge_arrays.tolist()
    for node, (want_intra, want_inter) in SEVEN_EXPECTED.items():
        got_intra, got_inter = set(), set()
        for src, rel in [(s, r) for s, d, r in zip(srcs, dsts, rels) if d == node]:
            direction = rel // 4
            src_spk = (rel % 4) // 2
            dst_spk = rel % 2
            assert src_spk == SEVEN_SPEAKERS[src]
            assert dst_spk == SEVEN_SPEAKERS[node]
            entry = (src, direction)
            if src_spk == dst_spk:
                got_intra.add(entry)
            else:
                got_inter.add(entry)
        assert got_intra == want_intra, f"node {node} intra"
        assert got_inter == want_inter, f"node {node} inter"
    # the central node has 3 intra and 4 inter relations
    assert len(SEVEN_EXPECTED[3][0]) == 3 and len(SEVEN_EXPECTED[3][1]) == 4


def test_single_utterance_dialogue_is_one_self_loop():
    g = graph_from_speakers([0], num_speakers=1)
    assert g.edges == [(0, 0, relation_type_id(0, 0, PAST, 1))]


def test_unbounded_edge_count_formula():
    rng = np.random.default_rng(0)
    for n in range(1, 21):
        speakers = rng.integers(0, 3, size=n).tolist()
        for mode in ("both_directions", "single_direction"):
            g = graph_from_speakers(speakers, 3, None, None, edge_mode=mode)
            assert len(g.edges) == n + n * (n - 1), (n, mode)


@pytest.mark.parametrize("edge_mode", ["both_directions", "single_direction"])
def test_build_matches_brute_force(edge_mode):
    rng = np.random.default_rng(42)
    windows = [0, 1, 2, 3, 4, 5, None]
    for _ in range(150):
        n = int(rng.integers(1, 21))
        m = int(rng.integers(1, 5))
        speakers = rng.integers(0, m, size=n).tolist()
        past = windows[rng.integers(0, len(windows))]
        future = windows[rng.integers(0, len(windows))]
        self_loops = bool(rng.integers(0, 2))
        g = graph_from_speakers(speakers, m, past, future, edge_mode, self_loops)
        want = brute_force_edges(speakers, past, future, edge_mode, self_loops, m)
        assert set(g.edges) == want
        assert len(g.edges) == len(want)  # no duplicates materialized


def test_structure_ignores_features():
    rng = np.random.default_rng(7)
    utts1 = [Utterance(speaker=i % 2, label=0, audio=rng.standard_normal(3)) for i in range(5)]
    utts2 = [Utterance(speaker=i % 2, label=1, audio=rng.standard_normal(3) * 100) for i in range(5)]
    d1 = Dialogue("a", 2, "train", utts1)
    d2 = Dialogue("b", 2, "train", utts2)
    assert (graph_from_speakers(d1.speakers, d1.num_speakers, 2, 2).edges
            == graph_from_speakers(d2.speakers, d2.num_speakers, 2, 2).edges)


def test_num_speakers_override_widens_type_space():
    g = graph_from_speakers([0, 0, 0], num_speakers=4, past=1, future=1)
    assert g.relation_count == 32


def test_collapse_preserves_edges():
    g = graph_from_speakers([0, 1, 0, 1], 2, None, None)
    flat = collapse_relations(g)
    assert len(flat.edges) == len(g.edges)
    assert flat.relation_count == 1
    assert all(rel == 0 for _, _, rel in flat.edges)
    assert [(s, d) for s, d, _ in flat.edges] == [(s, d) for s, d, _ in g.edges]
    again = collapse_relations(flat)
    assert again.edges == flat.edges and again.relation_count == 1


def test_edge_arrays_are_kept_with_the_graph():
    g = graph_from_speakers([0, 1, 1, 0], 2, 1, 1)
    assert g.edge_arrays is g.edge_arrays
    np.testing.assert_array_equal(g.edge_arrays.T, g.edges)
    # a copy made with ``replace`` holds arrays of its own edges
    flat = collapse_relations(g)
    assert flat.edge_arrays is not g.edge_arrays
    np.testing.assert_array_equal(flat.edge_arrays.T, flat.edges)
    assert (g.edge_arrays[2] > 0).any()
    assert ConversationGraph(2, [], 1).edge_arrays.shape == (3, 0)
    # a graph, and the arrays it keeps, cannot be changed in place
    with pytest.raises(FrozenInstanceError):
        g.num_nodes = 5
    for arr in (g.edge_arrays, *g.rgcn_layout, g.neighbor_mask):
        with pytest.raises(ValueError, match="read-only"):
            arr[..., 0] = 0


def loop_edges(speakers, m, past, future, edge_mode, self_loops):
    """The edge list, in order, as a loop over destination nodes builds it."""
    n = len(speakers)
    edges = []
    for i in range(n):
        if self_loops:
            edges.append((i, i, relation_type_id(speakers[i], speakers[i], PAST, m)))
        lo = 0 if past is None else max(0, i - past)
        hi = n - 1 if future is None else min(n - 1, i + future)
        for j in range(lo, hi + 1):
            if j == i:
                continue
            if edge_mode == "both_directions":
                direction = PAST if j < i else FUTURE
                edges.append((j, i, relation_type_id(speakers[j], speakers[i], direction, m)))
            elif j < i:
                edges.append((j, i, relation_type_id(speakers[j], speakers[i], PAST, m)))
            else:
                edges.append((i, j, relation_type_id(speakers[i], speakers[j], FUTURE, m)))
    return edges


def test_edge_order_matches_the_loop_builder():
    rng = np.random.default_rng(11)
    for _ in range(80):
        n, m = int(rng.integers(0, 10)), int(rng.integers(1, 4))
        speakers = rng.integers(0, m, size=n).tolist()
        past, future = ([0, 1, 3, None][k] for k in rng.integers(0, 4, size=2))
        mode = EDGE_MODES[rng.integers(0, 2)]
        loops = bool(rng.integers(0, 2))
        g = graph_from_speakers(speakers, m, past, future, mode, loops)
        assert g.edges == loop_edges(speakers, m, past, future, mode, loops)


@pytest.mark.parametrize("speakers, kwargs, message", [
    ([0, -1, 1], {}, "speaker id -1 out of range for 2 speakers"),
    ([0, 1, 2], {}, "speaker id 2 out of range for 2 speakers"),
    ([0, 1, 0], {"past": -1}, "windows must be >= 0"),
    ([0, 1, 0], {"future": -3}, "windows must be >= 0"),
    ([0, 1, 0], {"edge_mode": "sideways"}, "edge_mode must be one of"),
])
def test_graph_from_speakers_rejects_bad_input(speakers, kwargs, message):
    with pytest.raises(ValueError, match=message) as err:
        graph_from_speakers(speakers, 2, **kwargs)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1, 0), (1, 0, 1), (0, 1, 0)], r"duplicate edge \(0, 1, 0\)"),
    ([(0, 1, 0), (2, 0, 0)], r"edge \(2, 0\) out of range for 2 nodes"),
    ([(0, 1, 0), (0, -1, 0)], r"edge \(0, -1\) out of range for 2 nodes"),
    ([(0, 1, 2)], "relation id 2 out of range for 2 types"),
    ([(0, 2, 0)], r"edge \(0, 2\) out of range for 2 nodes"),
    ([(-1, 1, 0), (0, 1, 0)], r"edge \(-1, 1\) out of range for 2 nodes"),
    ([(0, 1, 0), (1, 0, -1)], "relation id -1 out of range for 2 types"),
    ([(0, 2**32 + 1, 0)], r"edge \(0, 4294967297\) out of range for 2 nodes"),
    ([(0, 1, 2**32)], "relation id 4294967296 out of range for 2 types"),
])
def test_validate_names_the_bad_edge(edges, message):
    # every graph, a user-built one too, refuses out-of-range nodes and relation
    # ids when made, from triples or a 3 x E array; ``_validate`` adds the
    # duplicate-edge rule for the graphs speakers make (a collapsed graph keeps
    # its parallel edges, so construction allows them)
    if message.startswith("duplicate"):
        g = ConversationGraph(2, edges, 2)
        with pytest.raises(ValueError, match=message):
            _validate(g)
        return
    for given in (edges, np.array(edges).T):
        with pytest.raises(ValueError, match=message) as err:
            ConversationGraph(2, given, 2)
        assert "\n" not in str(err.value)


def test_graph_json_dict():
    g = graph_from_speakers([0, 1], 2, 1, 1)
    d = g.to_json_dict()
    assert d["n"] == 2 and d["relation_count"] == 8
    assert sorted(tuple(e) for e in d["edges"]) == sorted(g.edges)
