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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .dataset import Corpus, Dialogue

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


@dataclass
class ConversationGraph:
    num_nodes: int
    edges: list[tuple[int, int, int]]  # (src, dst, relation_type_id)
    relation_count: int

    @cached_property
    def edge_arrays(self) -> np.ndarray:
        """The edge list as a 3 x E int array: rows src, dst, rel. Computed once
        per graph; a copy made with ``replace`` computes its own."""
        return np.array(self.edges, dtype=np.intp).reshape(-1, 3).T

    def in_edges(self) -> list[list[tuple[int, int]]]:
        """Per destination node: list of (src, relation_type_id)."""
        table: list[list[tuple[int, int]]] = [[] for _ in range(self.num_nodes)]
        for src, dst, rel in self.edges:
            table[dst].append((src, rel))
        return table

    def to_json_dict(self) -> dict:
        return {"n": self.num_nodes,
                "edges": [[s, d, r] for s, d, r in self.edges],
                "relation_count": self.relation_count}


def _validate(g: ConversationGraph) -> None:
    seen = set()
    for src, dst, rel in g.edges:
        if not (0 <= src < g.num_nodes and 0 <= dst < g.num_nodes):
            raise ValueError(f"edge ({src}, {dst}) out of range for {g.num_nodes} nodes")
        if not 0 <= rel < g.relation_count:
            raise ValueError(f"relation id {rel} out of range for {g.relation_count} types")
        triple = (src, dst, rel)
        if triple in seen:
            raise ValueError(f"duplicate edge {triple}")
        seen.add(triple)


def graph_from_speakers(speakers: Sequence[int], num_speakers: int | None = None,
                        past: int | None = 10, future: int | None = 10,
                        edge_mode: str = "both_directions",
                        self_loops: bool = True) -> ConversationGraph:
    if past is not None and past < 0 or future is not None and future < 0:
        raise ValueError("windows must be >= 0 (None for unbounded)")
    if edge_mode not in EDGE_MODES:
        raise ValueError(f"edge_mode must be one of {EDGE_MODES}, got '{edge_mode}'")
    n = len(speakers)
    m = num_speakers if num_speakers is not None else max(speakers) + 1
    edges: list[tuple[int, int, int]] = []
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
    g = ConversationGraph(n, edges, num_relation_types(m))
    _validate(g)
    return g


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
    return replace(g, edges=[(s, d, 0) for s, d, _ in g.edges], relation_count=1)


def transition_stats(corpus: Corpus, level: str = "utterance") -> tuple[np.ndarray, np.ndarray]:
    """Label-to-label transition counts over consecutive utterances.

    ``utterance`` level follows the dialogue order regardless of speaker;
    ``speaker`` level follows each speaker's own utterance sequence.
    Returns (counts, row_normalized); zero rows normalize to zero.
    """
    if corpus.task_mode != "single":
        raise ValueError("transition statistics need a single-label corpus")
    if level not in ("utterance", "speaker"):
        raise ValueError(f"level must be 'utterance' or 'speaker', got '{level}'")
    c = corpus.num_classes
    counts = np.zeros((c, c), dtype=np.int64)
    for d in corpus.dialogues:
        if level == "utterance":
            seqs = [[u.label for u in d.utterances]]
        else:
            seqs = [[u.label for u in d.utterances if u.speaker == s]
                    for s in range(d.num_speakers)]
        for seq in seqs:
            for prev, cur in zip(seq, seq[1:]):
                counts[prev, cur] += 1
    row = counts.sum(axis=1, keepdims=True)
    normalized = np.divide(counts, row, out=np.zeros((c, c)), where=row > 0)
    return counts, normalized
