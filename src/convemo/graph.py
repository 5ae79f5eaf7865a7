"""Typed directed conversation graphs.

Each utterance is a node. Edges connect utterances within a past window
``past`` and a future window ``future`` and carry a relation type that
encodes (source speaker, destination speaker, temporal direction), for
2*M^2 distinct types with M speakers.

Two edge materializations are supported:

* ``both_directions`` (default): every node receives an in-edge from
  each window neighbor, typed Past when the source spoke earlier and
  Future when it spoke later. Messages therefore flow both forward and
  backward in time, which is what lets the graph layers use future
  context in the offline setting.
* ``single_direction``: arrows only point in spoken order. A pair
  (earlier, later) yields the edge earlier->later typed Past when inside
  the later node's past window, and a parallel earlier->later edge typed
  Future when inside the earlier node's future window.

Windows may be ``None`` for unbounded. Every node also gets one
self-loop typed (speaker, speaker, Past); pass ``self_loops=False`` to
drop them (the relational convolution has its own root term, so keeping
them doubles the self contribution, matching the relation listing that
includes the node itself).

A graph stores its edges as one 3 x E int array (rows src, dst,
relation id), built with numpy in the order a loop over destination
nodes would give; the list of (src, dst, rel) triples is derived from it
only when asked for. The graph layers' constants (the relational
convolution's message rows and mean weights, and the neighborhood mask)
are computed once per graph and kept with it, and ``graph_from_speakers``
keeps the ``GRAPH_MEMO`` most recently used graphs, so a dialogue's graph
is built once per process.
Graphs are frozen and their arrays read-only, since callers share them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .dataset import Dialogue

PAST = 0
FUTURE = 1

EDGE_MODES = ("both_directions", "single_direction")


def num_relation_types(num_speakers: int) -> int:
    return 2 * num_speakers * num_speakers


def relation_type_id(src_speaker: int, dst_speaker: int, direction: int,
                     num_speakers: int) -> int:
    """Fixed bijection (src, dst, direction) -> [0, 2*M^2)."""
    if not 0 <= src_speaker < num_speakers or not 0 <= dst_speaker < num_speakers:
        raise ValueError(f"speaker ids ({src_speaker}, {dst_speaker}) out of range "
                         f"for {num_speakers} speakers")
    if direction not in (PAST, FUTURE):
        raise ValueError(f"direction must be PAST(0) or FUTURE(1), got {direction}")
    return direction * num_speakers * num_speakers + src_speaker * num_speakers + dst_speaker


@dataclass(frozen=True, eq=False)
class ConversationGraph:
    """A typed directed graph over ``num_nodes`` utterances.

    ``edge_arrays`` is given as a list of (src, dst, relation_type_id)
    triples or as a 3 x E int array, and stored as a read-only int32
    array: rows src, dst, rel. The graph-layer constants derived from it
    are computed on first use and kept with the graph; a copy made with
    ``replace`` computes its own.
    """
    num_nodes: int
    edge_arrays: np.ndarray
    relation_count: int

    def __post_init__(self):
        arr = self.edge_arrays
        if isinstance(arr, np.ndarray):
            arr = arr.astype(np.int32)
        else:
            arr = np.array(arr, dtype=np.int32).reshape(-1, 3).T
        object.__setattr__(self, "edge_arrays", _read_only(arr))

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """The (src, dst, relation_type_id) triples, built anew on each call."""
        return list(zip(*self.edge_arrays.tolist()))

    @cached_property
    def rgcn_layout(self) -> tuple[np.ndarray, ...]:
        """The relational mean over in-neighbors, over one message row per
        distinct (relation r, source j) pair that an edge uses: the sorted
        relation ids present, each one's row count, and each row's source j,
        grouped by relation and sorted within; then the nonzero entries of the
        n x rows mean, count/deg at [i, row of (r, j)] for edges j -> i of type
        r, deg being i's in-edges of type r (so a pair of parallel edges weighs
        2/deg), as their dst i, row (int32: a graph of 2^31 nodes would not fit
        in memory anyway) and weight."""
        src, dst, rel = self.edge_arrays.astype(np.intp)
        n = self.num_nodes
        pair, row = np.unique(rel * n + src, return_inverse=True)
        rels, slot, counts = np.unique(pair // n, return_inverse=True, return_counts=True)
        entry, count = np.unique(dst * pair.size + row, return_counts=True)
        dst, row = np.divmod(entry, max(pair.size, 1))
        key = dst * rels.size + slot[row]
        weights = count / np.bincount(key, count, n * rels.size)[key]
        return tuple(_read_only(a) for a in (rels, counts, pair % n, dst.astype(np.int32),
                                             row.astype(np.int32), weights))

    @cached_property
    def neighbor_mask(self) -> np.ndarray:
        """mask[i, j] is true when j is an in-neighbor of i (any relation type)."""
        src, dst, _ = self.edge_arrays
        mask = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
        mask[dst, src] = True
        return _read_only(mask)

    def to_json_dict(self) -> dict:
        return {"n": self.num_nodes,
                "edges": self.edge_arrays.T.tolist(),
                "relation_count": self.relation_count}


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _validate(g: ConversationGraph) -> None:
    src, dst, rel = g.edge_arrays.astype(np.intp)
    n, r = g.num_nodes, g.relation_count
    bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    if bad.any():
        k = bad.argmax()
        raise ValueError(f"edge ({src[k]}, {dst[k]}) out of range for {n} nodes")
    bad = (rel < 0) | (rel >= r)
    if bad.any():
        raise ValueError(f"relation id {rel[bad.argmax()]} out of range for {r} types")
    key = np.sort((src * n + dst) * r + rel)
    dup = key[1:][key[1:] == key[:-1]]
    if dup.size:
        triple = tuple(int(v) for v in np.unravel_index(dup[0], (n, n, r)))
        raise ValueError(f"duplicate edge {triple}")


GRAPH_MEMO = 256   # graphs kept by ``speaker_graph``, least recently used dropped first


def graph_from_speakers(speakers: Sequence[int], num_speakers: int | None = None,
                        past: int | None = 10, future: int | None = 10,
                        edge_mode: str = "both_directions", self_loops: bool = True,
                        untyped: bool = False) -> ConversationGraph:
    """The conversation graph of a speaker sequence, with every relation
    type collapsed to one if ``untyped`` (the ``no_relations`` ablation).
    Graphs come from the ``speaker_graph`` memo, so each (speakers, graph
    config) builds its graph, and the graph-layer constants kept with it,
    once per process while it stays among the ``GRAPH_MEMO`` most recently
    used."""
    return speaker_graph(tuple(speakers), num_speakers, past, future, edge_mode,
                         self_loops, untyped)


@lru_cache(maxsize=GRAPH_MEMO)
def speaker_graph(speakers: tuple[int, ...], num_speakers: int | None, past: int | None,
                  future: int | None, edge_mode: str, self_loops: bool,
                  untyped: bool) -> ConversationGraph:
    """``graph_from_speakers``, memoised on all of its arguments."""
    if past is not None and past < 0 or future is not None and future < 0:
        raise ValueError("windows must be >= 0 (None for unbounded)")
    if edge_mode not in EDGE_MODES:
        raise ValueError(f"edge_mode must be one of {EDGE_MODES}, got '{edge_mode}'")
    spk = np.asarray(speakers, dtype=np.intp)
    n = spk.size
    m = num_speakers if num_speakers is not None else int(spk.max()) + 1
    bad = spk[(spk < 0) | (spk >= m)]
    if bad.size:
        raise ValueError(f"speaker id {bad[0]} out of range for {m} speakers")
    # row i lists node i's self-loop, then its window neighbors j in order
    lo = n - 1 if past is None else min(past, n - 1)
    hi = n - 1 if future is None else min(future, n - 1)
    offsets = np.arange(-lo, hi + 1)
    i = np.arange(n)[:, None]
    j = i + offsets[offsets != 0]
    keep = (j >= 0) & (j < n)
    if self_loops:
        j = np.hstack([i, j])
        keep = np.hstack([np.ones((n, 1), dtype=bool), keep])
    i, j = np.broadcast_to(i, j.shape)[keep], j[keep]
    # both directions: every edge ends at i; single direction: in spoken order
    src, dst = (j, i) if edge_mode == "both_directions" else (np.minimum(i, j), np.maximum(i, j))
    direction = np.where(j > i, FUTURE, PAST)
    rel = (direction * m + spk[src]) * m + spk[dst]
    g = ConversationGraph(n, np.stack([src, dst, rel]), num_relation_types(m))
    _validate(g)
    return collapse_relations(g) if untyped else g


def build_graph(dialogue: Dialogue, past: int | None = 10, future: int | None = 10,
                edge_mode: str = "both_directions", self_loops: bool = True,
                num_speakers: int | None = None) -> ConversationGraph:
    """Conversation graph for one dialogue.

    ``num_speakers`` widens the relation id space beyond the dialogue's
    own speaker count so graphs from one corpus share typed parameters.
    """
    return graph_from_speakers(dialogue.speakers,
                               num_speakers or dialogue.num_speakers,
                               past, future, edge_mode, self_loops)


def collapse_relations(g: ConversationGraph) -> ConversationGraph:
    """Map every relation type to 0 (the untyped-relations ablation).

    Edge multiplicity is preserved, so parallel edges of formerly
    distinct types stay parallel.
    """
    src, dst, _ = g.edge_arrays
    return replace(g, edge_arrays=np.stack([src, dst, np.zeros_like(src)]), relation_count=1)
