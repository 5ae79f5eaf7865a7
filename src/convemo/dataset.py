"""Corpus ingestion, modality fusion, and synthetic corpora.

A corpus is a JSONL file: the first line is a header declaring label
names, modality dimensions, and the task mode; every following line is
one dialogue. Utterances carry precomputed per-modality feature vectors
(this library never touches raw audio/video/text) and either an integer
class label or a binary label vector in multi-label mode.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .tensor import atomic_open

MODALITIES = ("a", "t", "v")
MODALITY_KEYS = {"a": "audio", "t": "text", "v": "video"}
SPLITS = ("train", "valid", "test")
TASK_MODES = ("single", "multi")
DEPENDENCIES = ("none", "neighbor")   # synth_corpus's labelling rules


class CorpusError(ValueError):
    """Corpus file or content failed validation."""


@dataclass
class Utterance:
    speaker: int
    label: int | np.ndarray  # int class id, or binary vector in multi mode
    audio: np.ndarray | None = None
    text: np.ndarray | None = None
    video: np.ndarray | None = None
    raw_text: str | None = None

    def modality(self, key: str) -> np.ndarray | None:
        return getattr(self, MODALITY_KEYS[key])


@dataclass
class Dialogue:
    dialogue_id: str
    num_speakers: int
    split: str
    utterances: list[Utterance]

    def __len__(self) -> int:
        return len(self.utterances)

    @property
    def speakers(self) -> list[int]:
        return [u.speaker for u in self.utterances]


@dataclass
class Corpus:
    dialogues: list[Dialogue]
    label_names: list[str]
    dims: dict[str, int]  # widths for "a", "t", "v"; 0 when absent corpus-wide
    task_mode: str = "single"  # one of TASK_MODES

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    @property
    def max_speakers(self) -> int:
        return max(d.num_speakers for d in self.dialogues)

    def split(self, name: str) -> list[Dialogue]:
        if name not in SPLITS:
            raise CorpusError(f"unknown split '{name}'")
        return [d for d in self.dialogues if d.split == name]

    def find_dialogue(self, dialogue_id: str) -> Dialogue:
        for d in self.dialogues:
            if d.dialogue_id == dialogue_id:
                return d
        raise CorpusError(f"dialogue id '{dialogue_id}' not in corpus")

    def total_utterances(self) -> int:
        return sum(len(d) for d in self.dialogues)


def fuse_features(utt: Utterance | Sequence[Utterance], active: str = "atv") -> np.ndarray:
    """Concatenate the requested modality vectors in fixed a, t, v order: of
    one utterance, or as the rows of a sequence of N, N x d, each modality
    gathered from all N at once.

    ``active`` is any subset of "atv"; request order never matters.
    """
    utts = [utt] if isinstance(utt, Utterance) else utt
    columns = []
    for key in MODALITIES:
        if key not in active:
            continue
        vecs = [u.modality(key) for u in utts]
        if any(vec is None for vec in vecs):
            raise CorpusError(f"utterance is missing requested modality '{key}'")
        columns.append(vecs)
    if not columns:
        raise CorpusError("at least one modality must be active")
    ends = np.cumsum([len(vecs[0]) for vecs in columns]).tolist()
    fused = np.empty((len(utts), ends[-1]))
    for lo, hi, vecs in zip([0, *ends], ends, columns):
        fused[:, lo:hi] = vecs   # filled in place, not concatenated from per-modality copies
    return fused[0] if isinstance(utt, Utterance) else fused


def fused_dim(dims: dict[str, int], active: str = "atv") -> int:
    return sum(dims[k] for k in MODALITIES if k in active)


def normalize_modalities(active: str) -> str:
    """Canonical 'atv'-ordered form of a modality subset spec."""
    chosen = set(active)
    unknown = chosen - set(MODALITIES)
    if unknown:
        raise CorpusError(f"unknown modalities: {sorted(unknown)}")
    if not chosen:
        raise CorpusError("empty modality set")
    return "".join(k for k in MODALITIES if k in chosen)


# ---------------------------------------------------------------------------
# JSONL load / save

def _parse_label(raw, num_classes: int, task_mode: str, where: str):
    if task_mode == "single":
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise CorpusError(f"{where}: single-label corpus needs integer labels")
        if not 0 <= raw < num_classes:
            raise CorpusError(f"{where}: label {raw} out of range for {num_classes} classes")
        return raw
    if not isinstance(raw, list) or len(raw) != num_classes:
        raise CorpusError(f"{where}: multi-label corpus needs a length-{num_classes} 0/1 vector")
    if any(v not in (0, 1) for v in raw):
        raise CorpusError(f"{where}: multi-label vector entries must be 0 or 1")
    return np.asarray(raw, dtype=np.float64)


def _parse_vector(raw, want_dim: int, key: str, where: str) -> np.ndarray | None:
    if want_dim == 0:
        if raw is not None:
            raise CorpusError(f"{where}: modality '{key}' not declared in header")
        return None
    if raw is None:
        raise CorpusError(f"{where}: missing modality '{key}' (declared width {want_dim})")
    try:
        vec = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError):
        raise CorpusError(f"{where}: modality '{key}' must be a list of numbers") from None
    except OverflowError:   # an integer literal beyond float64's range
        raise CorpusError(f"{where}: modality '{key}' holds a number beyond "
                          "float64's range") from None
    if vec.shape != (want_dim,):
        raise CorpusError(f"{where}: modality '{key}' has width {vec.shape}, expected ({want_dim},)")
    return vec


def load_corpus(path) -> Corpus:
    """Load and eagerly validate a JSONL corpus file. Every malformed record,
    a NaN or Infinity literal anywhere, and a feature beyond float64's range
    fail with one ``path:line`` diagnostic."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CorpusError(f"{path}: empty corpus file")

    def no_constant(name: str):   # NaN, Infinity or -Infinity
        raise ValueError(f"non-finite number {name} is not allowed")

    decode = json.JSONDecoder(parse_constant=no_constant).decode
    try:
        header = decode(lines[0])
    except ValueError as exc:
        raise CorpusError(f"{path}:1: header parse failure: {exc}") from exc
    for key in ("label_names", "dims", "task_mode"):
        if not isinstance(header, dict) or key not in header:
            raise CorpusError(f"{path}:1: header missing '{key}'")
    label_names, dims = header["label_names"], header["dims"]
    if not isinstance(label_names, list) or not all(isinstance(n, str) for n in label_names):
        raise CorpusError(f"{path}:1: label_names must be a list of strings")
    dims = {k: dims.get(k, 0) for k in MODALITIES} if isinstance(dims, dict) else None
    if dims is None or any(type(v) is not int or v < 0 for v in dims.values()):
        raise CorpusError(f"{path}:1: dims must map 'a', 't' and 'v' to widths >= 0")
    task_mode = header["task_mode"]
    if task_mode not in TASK_MODES:
        raise CorpusError(f"{path}:1: task_mode must be 'single' or 'multi'")
    if all(v == 0 for v in dims.values()):
        raise CorpusError(f"{path}:1: at least one modality dimension must be positive")

    dialogues = []
    first_line: dict[str, int] = {}  # dialogue_id -> line it was defined on
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = decode(line)
        except ValueError as exc:
            raise CorpusError(f"{path}:{lineno}: parse failure: {exc}") from exc
        where = f"{path}:{lineno}"
        if not isinstance(rec, dict):
            raise CorpusError(f"{where}: a dialogue must be a JSON object")
        did = rec.get("dialogue_id")
        if not did or not isinstance(did, str):
            raise CorpusError(f"{where}: missing or non-string dialogue_id")
        if did in first_line:
            raise CorpusError(f"{where}: duplicate dialogue_id '{did}' "
                              f"(first at line {first_line[did]})")
        first_line[did] = lineno
        num_speakers = rec.get("num_speakers")
        if type(num_speakers) is not int or num_speakers < 1:
            raise CorpusError(f"{where}: dialogue '{did}' needs a positive num_speakers")
        split = rec.get("split")
        if split not in SPLITS:
            raise CorpusError(f"{where}: dialogue '{did}' has invalid split {split!r}")
        raw_utts = rec.get("utterances")
        if not raw_utts or not isinstance(raw_utts, list):
            raise CorpusError(f"{where}: dialogue '{did}' needs a non-empty list of utterances")
        utterances = []
        for idx, u in enumerate(raw_utts):
            spot = f"{where}: dialogue '{did}' utterance {idx}"
            if not isinstance(u, dict):
                raise CorpusError(f"{spot}: an utterance must be a JSON object")
            speaker = u.get("speaker")
            if type(speaker) is not int or not 0 <= speaker < num_speakers:
                raise CorpusError(f"{spot}: speaker index {speaker!r} not in [0, {num_speakers})")
            utterances.append(Utterance(
                speaker=speaker,
                label=_parse_label(u.get("label"), len(label_names), task_mode, spot),
                audio=_parse_vector(u.get("audio"), dims["a"], "a", spot),
                text=_parse_vector(u.get("text"), dims["t"], "t", spot),
                video=_parse_vector(u.get("video"), dims["v"], "v", spot),
                raw_text=u.get("raw_text"),
            ))
        # once per dialogue: json decodes a literal such as 1e999 as inf
        features = [v for u in utterances for v in (u.audio, u.text, u.video) if v is not None]
        if not np.isfinite(np.concatenate(features)).all():
            idx, key = next((i, k) for i, u in enumerate(utterances) for k in MODALITIES
                            if dims[k] and not np.isfinite(u.modality(k)).all())
            raise CorpusError(f"{where}: dialogue '{did}' utterance {idx}: "
                              f"modality '{key}' holds a number beyond float64's range")
        dialogues.append(Dialogue(did, num_speakers, split, utterances))
    if not dialogues:
        raise CorpusError(f"{path}: corpus has no dialogues")
    return Corpus(dialogues, label_names, dims, task_mode)


def save_corpus(path, corpus: Corpus) -> None:
    def utt_record(u: Utterance) -> dict:
        rec: dict = {"speaker": u.speaker}
        rec["label"] = (int(u.label) if corpus.task_mode == "single"
                        else [int(v) for v in u.label])
        for key in MODALITIES:
            vec = u.modality(key)
            if vec is not None:
                rec[MODALITY_KEYS[key]] = vec.tolist()
        if u.raw_text is not None:
            rec["raw_text"] = u.raw_text
        return rec

    with atomic_open(path) as fh:
        header = {"label_names": corpus.label_names, "dims": corpus.dims,
                  "task_mode": corpus.task_mode}
        fh.write(json.dumps(header) + "\n")
        for d in corpus.dialogues:
            fh.write(json.dumps({
                "dialogue_id": d.dialogue_id,
                "num_speakers": d.num_speakers,
                "split": d.split,
                "utterances": [utt_record(u) for u in d.utterances],
            }) + "\n")


# ---------------------------------------------------------------------------
# synthetic corpora

@dataclass
class SynthSpec:
    num_dialogues: int = 200
    utterances_per_dialogue: int = 8
    num_speakers: int = 2
    num_classes: int = 4
    dims: dict[str, int] = field(default_factory=lambda: {"a": 8, "t": 16, "v": 8})
    dependency: str = "none"  # one of DEPENDENCIES
    seed: int = 0
    center_scale: float = 2.0
    noise: float = 0.25
    split_fractions: tuple[float, float] = (0.7, 0.15)  # train, valid; rest is test


def synth_corpus(spec: SynthSpec) -> Corpus:
    """Deterministic synthetic corpus of well-separated feature clusters.

    ``none`` mode labels each utterance by its own cluster, so features
    alone solve the task. ``neighbor`` mode labels each utterance by the
    PREVIOUS utterance's cluster (first utterance: own cluster), which no
    feature-only model can recover; solving it requires the conversation
    structure.
    """
    sizes = ("num_dialogues", "utterances_per_dialogue", "num_speakers", "num_classes")
    bad = [f"{name} {getattr(spec, name)}" for name in sizes if getattr(spec, name) < 1]
    if bad:
        raise ValueError(f"synthetic corpus sizes must be positive, got {', '.join(bad)}")
    widths = [spec.dims.get(k, 0) for k in MODALITIES]
    if min(widths) < 0 or max(widths) < 1:
        raise ValueError(f"synthetic corpus widths must be >= 0, one of them positive, "
                         f"got {spec.dims}")
    if spec.dependency not in DEPENDENCIES:
        raise ValueError(f"unknown dependency mode '{spec.dependency}'")
    rng = np.random.default_rng(spec.seed)
    active_dims = {k: int(spec.dims.get(k, 0)) for k in MODALITIES}
    centers = {}
    for key, width in active_dims.items():
        if width == 0:
            continue
        c = rng.standard_normal((spec.num_classes, width))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        centers[key] = c * spec.center_scale

    n_train = int(round(spec.num_dialogues * spec.split_fractions[0]))
    n_valid = int(round(spec.num_dialogues * spec.split_fractions[1]))
    dialogues = []
    for di in range(spec.num_dialogues):
        split = ("train" if di < n_train
                 else "valid" if di < n_train + n_valid else "test")
        clusters = rng.integers(0, spec.num_classes, size=spec.utterances_per_dialogue)
        speakers = rng.integers(0, spec.num_speakers, size=spec.utterances_per_dialogue)
        utterances = []
        for ui in range(spec.utterances_per_dialogue):
            c = int(clusters[ui])
            if spec.dependency == "neighbor" and ui > 0:
                label = int(clusters[ui - 1])
            else:
                label = c
            fields: dict = {}
            for key, width in active_dims.items():
                if width == 0:
                    continue
                vec = centers[key][c] + rng.standard_normal(width) * spec.noise
                fields[MODALITY_KEYS[key]] = vec
            utterances.append(Utterance(speaker=int(speakers[ui]), label=label, **fields))
        dialogues.append(Dialogue(f"synth-{di:04d}", spec.num_speakers, split, utterances))
    label_names = [f"class{c}" for c in range(spec.num_classes)]
    return Corpus(dialogues, label_names, active_dims, "single")


def truncate_context(corpus: Corpus, n: int) -> Corpus:
    """Split every dialogue into consecutive chunks of at most ``n`` utterances.

    Each chunk becomes an independent dialogue; order and labels untouched.
    """
    if n < 1:
        raise ValueError(f"chunk size must be >= 1, got {n}")
    dialogues = []
    for d in corpus.dialogues:
        if len(d) <= n:
            dialogues.append(d)
            continue
        for ci, start in enumerate(range(0, len(d), n)):
            chunk = d.utterances[start:start + n]
            dialogues.append(Dialogue(f"{d.dialogue_id}#{ci}", d.num_speakers, d.split, chunk))
    return replace(corpus, dialogues=dialogues)
