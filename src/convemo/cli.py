"""Command-line entry point.

Subcommands: ``train``, ``eval``, ``graph``, ``mask``, ``study``, and
``synth``. Every run writes a manifest (resolved config, corpus
fingerprint, seed, artifact paths, tool version) next to its outputs so
it can be reproduced exactly. Exit codes: 0 success, 1 configuration or
corpus errors, 2 numerical abort during training.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .analysis import (EMBED_STAGES, dump_embeddings, run_ablation, run_context_sweep,
                       run_window_sweep)
from .config import ABLATIONS, ConfigError, TrainConfig
from .dataset import (DEPENDENCIES, SPLITS, CorpusError, SynthSpec, load_corpus, save_corpus,
                      synth_corpus)
from .graph import EDGE_MODES, build_graph
from .metrics import SHIFT_LEVELS
from .tensor import NonFiniteError, atomic_open
from .training import (
    TrainingAbort,
    evaluate_model,
    evaluate_multilabel,
    load_checkpoint,
    mask_importance,
    save_checkpoint,
    train,
)


def _fingerprint(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("CONVEMO_OUT", "runs"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_window(value: str, flag: str) -> int | None:
    if value.lower() in ("inf", "none", "all"):
        return None
    if not value.strip().isdecimal():
        raise ConfigError(f"{flag} takes a non-negative integer or inf/none/all, not '{value}'")
    return int(value)


def _resolve_config(args) -> TrainConfig:
    values: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            values = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError(f"config file {path} must hold a flat JSON object")
    overrides = {
        "seed": getattr(args, "seed", None),
        "epochs": getattr(args, "epochs", None),
        "ablation": getattr(args, "ablation", None),
        "active_modalities": getattr(args, "modalities", None),
        "learning_rate": getattr(args, "lr", None),
    }
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    if getattr(args, "past", None) is not None:
        values["window_past"] = _parse_window(args.past, "--past")
    if getattr(args, "future", None) is not None:
        values["window_future"] = _parse_window(args.future, "--future")
    return TrainConfig.from_dict(values)


def _numeric_environment() -> dict:
    """What a run's last bits depend on beyond its inputs: the numpy and BLAS
    builds, the CPUs the process may use and the BLAS thread-count variables."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):   # numpy before 1.26 has no mode="dicts"
        blas = "unknown"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"numpy": np.__version__, "blas": blas, "cpus": cpus,
            **{k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _write_manifest(out: Path, command: str, config: TrainConfig | None,
                    corpus_path, fingerprint: str, artifacts: dict) -> Path:
    manifest = {
        "tool_version": __version__,
        "numeric_environment": _numeric_environment(),
        "command": command,
        "corpus": str(corpus_path),
        "corpus_fingerprint": fingerprint,
        "seed": config.seed if config else None,
        "resolved_config": config.to_dict() if config else None,
        "artifacts": {k: str(v) for k, v in artifacts.items()},
    }
    path = out / "manifest.json"
    _write(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _require_corpus(path_str: str):
    path = Path(path_str)
    if not path.exists():
        raise CorpusError(f"corpus file not found: {path}")
    return load_corpus(path), _fingerprint(path), path


def _checkpoint_for(corpus, args):
    """The checkpoint named by ``--checkpoint``, checked to fit ``corpus``."""
    ckpt = load_checkpoint(args.checkpoint)
    ckpt.check_fits(corpus)
    return ckpt


def cmd_train(args) -> int:
    config = _resolve_config(args)
    corpus, fingerprint, corpus_path = _require_corpus(args.corpus)
    out = _out_dir(args)
    result = train(corpus, config)
    ckpt_path = out / "checkpoint.json"
    save_checkpoint(ckpt_path, result.model, config, result.best_optimizer_state,
                    result.best_epoch, result.best_valid_wf1, result.label_names,
                    corpus_fingerprint=fingerprint)
    history_path = out / "history.csv"
    _write(history_path, result.history_csv())
    _write_manifest(out, "train", config, corpus_path, fingerprint,
                    {"checkpoint": ckpt_path, "history": history_path})
    print(f"trained {len(result.history)} epochs; best epoch {result.best_epoch} "
          f"valid wF1 {result.best_valid_wf1:.4f}; checkpoint at {ckpt_path}")
    return 0


def cmd_eval(args) -> int:
    corpus, fingerprint, corpus_path = _require_corpus(args.corpus)
    ckpt = _checkpoint_for(corpus, args)
    if ckpt.corpus_fingerprint and ckpt.corpus_fingerprint != fingerprint and not args.force:
        print(f"error: corpus fingerprint mismatch: checkpoint was trained on "
              f"{ckpt.corpus_fingerprint}, this file is {fingerprint} "
              f"(use --force to evaluate anyway)", file=sys.stderr)
        return 1
    out = _out_dir(args)
    report_path = out / f"report_{args.split}.json"
    if corpus.task_mode == "multi":
        report = evaluate_multilabel(corpus, ckpt.model, ckpt.config, args.split)
        _write(report_path, json.dumps(report, sort_keys=True, indent=2) + "\n")
        for name, value in report["per_class_f1"].items():
            print(f"{name:>16s}  wF1 {value * 100:.1f}")
        print(f"{'mean':>16s}  wF1 {report['mean_f1'] * 100:.1f}  "
              f"exact match {report['exact_match_accuracy'] * 100:.1f}")
    else:
        report = evaluate_model(corpus, ckpt.model, ckpt.config, args.split,
                                args.shift_level)
        _write(report_path, report.to_json())
        print(report.format_table())
    _write_manifest(out, "eval", ckpt.config, corpus_path, fingerprint,
                    {"report": report_path, "checkpoint": args.checkpoint})
    return 0


def cmd_graph(args) -> int:
    corpus, _, _ = _require_corpus(args.corpus)
    dialogue = corpus.find_dialogue(args.dialogue_id)
    g = build_graph(dialogue, _parse_window(args.past, "--past"),
                    _parse_window(args.future, "--future"),
                    edge_mode=args.edge_mode, self_loops=not args.no_self_loops)
    payload = json.dumps(g.to_json_dict(), sort_keys=True) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _write(args.out, payload)
        print(f"graph for '{args.dialogue_id}' written to {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def cmd_mask(args) -> int:
    corpus, fingerprint, corpus_path = _require_corpus(args.corpus)
    ckpt = _checkpoint_for(corpus, args)
    dialogue = corpus.find_dialogue(args.dialogue_id)
    report = mask_importance(dialogue, ckpt.model, ckpt.config)
    lines = ["masked_utterance,weighted_f1",
             f"baseline,{report.baseline_f1!r}"]
    for idx, value in enumerate(report.masked_f1):
        lines.append(f"{idx},{value!r}")
    text = "\n".join(lines) + "\n"
    out = _out_dir(args)
    csv_path = out / f"mask_{args.dialogue_id}.csv"
    _write(csv_path, text)
    _write_manifest(out, "mask", ckpt.config, corpus_path, fingerprint,
                    {"mask_csv": csv_path, "checkpoint": args.checkpoint})
    sys.stdout.write(text)
    return 0


def _parse_ints(raw: str, flag: str) -> list[int]:
    """Comma-separated non-negative integers; empty entries are skipped."""
    values = [v for v in raw.split(",") if v != ""]
    if not all(v.strip().isdecimal() for v in values):
        raise ConfigError(f"{flag} takes comma-separated non-negative integers, not '{raw}'")
    return [int(v) for v in values]


def cmd_study(args) -> int:
    config = _resolve_config(args)
    corpus, fingerprint, corpus_path = _require_corpus(args.corpus)
    seeds = _parse_ints(args.seeds, "--seeds")
    if not seeds:
        raise ConfigError("study needs at least one seed")
    if args.kind == "ablation":
        result = run_ablation(corpus, config, seeds)
    elif args.kind == "context":
        if not args.grid:
            raise ConfigError("context study needs --grid, e.g. '1,3,10,all'")
        n_values = [_parse_window(v, "--grid") for v in args.grid.split(",")]
        if 0 in n_values:
            raise ConfigError(f"--grid takes context sizes >= 1 or all, not '{args.grid}'")
        result = run_context_sweep(corpus, config, n_values, seeds)
    else:
        if not args.grid:
            raise ConfigError("window study needs --grid, e.g. '1:1,10:10,inf:inf'")
        pf_values = []
        for cell in args.grid.split(","):
            p, _, f = cell.partition(":")
            pf_values.append((_parse_window(p, "--grid"), _parse_window(f or p, "--grid")))
        result = run_window_sweep(corpus, config, pf_values, seeds)
    out = _out_dir(args)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    csv_path = out / f"{args.kind}_{stamp}.csv"
    _write(csv_path, result.to_csv())
    _write_manifest(out, f"study:{args.kind}", config, corpus_path, fingerprint,
                    {"table": csv_path})
    print(result.format_table())
    print(f"table written to {csv_path}")
    return 0


def cmd_embed(args) -> int:
    corpus, fingerprint, corpus_path = _require_corpus(args.corpus)
    ckpt = _checkpoint_for(corpus, args)
    text = dump_embeddings(corpus, ckpt.model, ckpt.config, args.stage, args.split)
    out = _out_dir(args)
    csv_path = out / f"embeddings_{args.stage}.csv"
    _write(csv_path, text)
    _write_manifest(out, "embed", ckpt.config, corpus_path, fingerprint,
                    {"embeddings": csv_path, "checkpoint": args.checkpoint})
    print(f"embeddings ({args.stage}, {args.split} split) written to {csv_path}")
    return 0


def cmd_synth(args) -> int:
    dims = _parse_ints(args.dims, "--dims")
    if len(dims) != 3 or not any(dims):
        raise ConfigError(f"--dims needs three comma-separated widths, one of them positive, "
                          f"e.g. 8,16,8, not '{args.dims}'")
    spec = SynthSpec(num_dialogues=args.dialogues,
                     utterances_per_dialogue=args.utterances,
                     num_speakers=args.speakers, num_classes=args.classes,
                     dims={"a": dims[0], "t": dims[1], "v": dims[2]},
                     dependency=args.dependency, seed=args.seed)
    corpus = synth_corpus(spec)
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_corpus(path, corpus)
    print(f"wrote {len(corpus.dialogues)} dialogues "
          f"({corpus.total_utterances()} utterances) to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convemo",
        description="Conversation-level multimodal emotion recognition")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        p.add_argument("--corpus", required=True, help="JSONL corpus path")
        p.add_argument("--out", default=None,
                       help="output directory (default $CONVEMO_OUT or ./runs)")
        if config:
            p.add_argument("--config", default=None, help="flat JSON config file")
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--epochs", type=int, default=None)
            p.add_argument("--ablation", choices=ABLATIONS, default=None)
            p.add_argument("--modalities", default=None, help="subset of 'atv'")
            p.add_argument("--lr", type=float, default=None)
            p.add_argument("--past", default=None, help="past window (int or 'inf')")
            p.add_argument("--future", default=None, help="future window (int or 'inf')")

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus split")
    add_common(p, config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--shift-level", dest="shift_level", default="utterance",
                   choices=SHIFT_LEVELS)
    p.add_argument("--force", action="store_true",
                   help="evaluate even if the corpus fingerprint differs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("graph", help="export one dialogue's conversation graph as JSON")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dialogue-id", dest="dialogue_id", required=True)
    p.add_argument("--past", default="10")
    p.add_argument("--future", default="10")
    p.add_argument("--edge-mode", dest="edge_mode", default="both_directions",
                   choices=EDGE_MODES)
    p.add_argument("--no-self-loops", dest="no_self_loops", action="store_true")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("mask", help="per-utterance masking importance for a dialogue")
    add_common(p, config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dialogue-id", dest="dialogue_id", required=True)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("study", help="run an ablation/context/window study")
    add_common(p)
    p.add_argument("--kind", required=True, choices=("ablation", "context", "window"))
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--grid", default=None,
                   help="context: '1,3,10,all'; window: '1:1,10:10,inf:inf'")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("embed", help="dump per-utterance embeddings to CSV")
    add_common(p, config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stage", default="after_gnn", choices=EMBED_STAGES)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("synth", help="generate a synthetic corpus file")
    p.add_argument("--out", required=True)
    p.add_argument("--dialogues", type=int, default=200)
    p.add_argument("--utterances", type=int, default=8)
    p.add_argument("--speakers", type=int, default=2)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--dims", default="8,16,8")
    p.add_argument("--dependency", default="none", choices=DEPENDENCIES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrainingAbort, NonFiniteError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
