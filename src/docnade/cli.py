"""Command-line front end: train, eval, annotate, retrieve, inspect, grid.

Every command is reproducible from its manifest: all outputs land in a run
directory named by the manifest hash, and all randomness derives from the
single --seed flag.  Exit codes: 0 success, 2 usage error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from dataclasses import asdict, fields

from . import __version__
from . import evaluate as eval_mod
from .corpus import FORMATS, Corpus, CorpusFormatError, is_json_int, parse_corpus
from .model_io import MODEL_KINDS, ModelMeta, load_model, save_model
from .numerics import HEADS
from .trainer import (TrainConfig, TrainingDivergedError, build_meta, pretrain_config,
                      train_model, training_stages)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _parse_hidden(spec: str, layers: int | None) -> tuple[int, ...]:
    sizes = tuple(int(tok) for tok in spec.split(","))
    if layers is not None:
        if len(sizes) == 1:
            sizes = sizes * layers
        elif len(sizes) != layers:
            raise ValueError("--layers disagrees with the --hidden list")
    return sizes


def _config_from_args(args) -> TrainConfig:
    """The config of the train flags, whose dests are `TrainConfig`'s fields."""
    values = {f.name: getattr(args, f.name) for f in fields(TrainConfig)}
    return TrainConfig(**{**values, "hidden_sizes": _parse_hidden(args.hidden, args.layers)})


def _manifest(command: str, config: TrainConfig, args) -> dict:
    return {
        "command": command,
        "config": asdict(config),
        "corpus": str(args.corpus),
        "format": args.format,
        "pretrain_corpus": str(args.pretrain_corpus or ""),
        "seed": config.seed,
        "artifact_format_version": 1,
        "package_version": __version__,
    }


def _manifest_hash(manifest: dict) -> str:
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _check_compat(meta: ModelMeta, corpus: Corpus) -> None:
    eval_mod.check_sizes(meta, corpus)  # and so n_annotation, from Q and the visual block
    vocab = corpus.vocabulary
    eval_mod.require_same([("n_visual", meta.n_visual, vocab.n_visual),
                           ("n_regions", meta.n_regions, vocab.n_regions),
                           ("class count C", meta.n_classes, corpus.n_classes)])


def _load_corpus(path, format: str) -> Corpus:
    if not os.path.exists(path):
        raise FileNotFoundError(f"corpus file not found: {path}")
    return parse_corpus(path, format)


def _check_regions(args, corpus: Corpus) -> None:
    if args.regions is not None and corpus.vocabulary.n_regions != args.regions:
        raise ValueError(
            f"--regions {args.regions} disagrees with corpus header "
            f"({corpus.vocabulary.n_regions})"
        )


def _load_model(path):
    if not os.path.exists(path):
        raise FileNotFoundError(f"model file not found: {path}")
    return load_model(path)


def _write_records(path, records) -> None:
    """One JSON object per line, to the file `path` or else to stdout."""
    out = open(path, "w") if path else sys.stdout
    try:
        for record in records:
            out.write(json.dumps(record) + "\n")
    finally:
        if path:
            out.close()


def _emit_report(metrics, split: str, out_path=None) -> None:
    width = max(len(name) for name, _ in metrics)
    print(f"{'metric':<{width}}  split  value")
    for name, value in metrics:
        print(f"{name:<{width}}  {split}  {value:.6f}")
    if out_path:
        _write_records(out_path, (
            {"metric": name, "split": split, "value": value} for name, value in metrics
        ))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    corpus = _load_corpus(args.corpus, args.format)
    unlabeled = _load_corpus(args.pretrain_corpus, args.format) if args.pretrain_corpus else None
    _check_regions(args, corpus)
    config = _config_from_args(args)
    training_stages(corpus, config, unlabeled)  # every input check, before the run dir
    manifest = _manifest("train", config, args)
    run_dir = os.path.join(args.out, f"run-{_manifest_hash(manifest)}")
    ckpt_dir = os.path.join(run_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")

    log_file = os.path.join(run_dir, "train.log")
    if os.path.exists(log_file):
        os.remove(log_file)

    model_path = os.path.join(run_dir, "model.bin")

    def write_model(averaged, meta):
        save_model(model_path, averaged, meta)

    train_model(corpus, config, pretrain=unlabeled, checkpoint_dir=ckpt_dir, log_file=log_file,
                write_model=write_model)
    print(f"run directory: {run_dir}")
    print(f"model: {model_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params, meta = _load_model(args.model_file)
    corpus = _load_corpus(args.corpus, args.format)
    _check_compat(meta, corpus)
    metrics = eval_mod.evaluation_metrics(
        corpus, params, meta,
        top_k=args.k, orderings=args.orderings, eval_seed=args.eval_seed, curves_dir=args.curves,
    )
    _emit_report(metrics, args.split, args.out)
    return EXIT_OK


def cmd_annotate(args) -> int:
    params, meta = _load_model(args.model_file)
    corpus = _load_corpus(args.corpus, args.format)
    _check_compat(meta, corpus)
    ids, scores = eval_mod.generate_text(corpus, params, meta, args.k)
    _write_records(args.out, (
        {"doc": index, "annotations": doc_ids.tolist(), "scores": doc_scores.tolist()}
        for index, (doc_ids, doc_scores) in enumerate(zip(ids, scores))
    ))
    return EXIT_OK


def cmd_retrieve(args) -> int:
    params, meta = _load_model(args.model_file)
    corpus = _load_corpus(args.corpus, args.format)
    _check_compat(meta, corpus)
    if not (0 <= args.query < len(corpus)):
        raise ValueError(f"query index {args.query} out of range (corpus size {len(corpus)})")
    reps = eval_mod.extract_representations(corpus, params, meta)
    ranked = eval_mod.cosine_retrieve(reps[args.query], reps, args.k)
    _write_records(args.out, (
        {"query": args.query, "rank": rank, "doc": int(doc_id), "score": float(score)}
        for rank, (doc_id, score) in enumerate(zip(ranked.ids, ranked.scores), start=1)
    ))
    return EXIT_OK


def cmd_inspect(args) -> int:
    params, meta = _load_model(args.model_file)
    record = eval_mod.class_report(params, meta, args.class_index, args.topics, args.words)
    _write_records(args.out, [record])
    return EXIT_OK


def _grid_int(value) -> int:
    """A grid value that must be a JSON integer (not a boolean)."""
    if not is_json_int(value):
        raise TypeError("not an integer")
    return value


def _grid_number(value) -> float:
    """A grid value that must be a JSON number (not a boolean or a string)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("not a number")
    return float(value)


# grid key -> (the train flag's dest, the check and conversion of a JSON value)
_GRID_KEYS = {
    "lambda": ("unsup_weight", _grid_number),
    "anno-weight": ("anno_weight", _grid_number),
    "lr": ("learning_rate", _grid_number),
    "dropout": ("dropout_rate", _grid_number),
    "avg-decay": ("averaging_decay", _grid_number),
    "epochs": ("epochs", _grid_int),
    "batch-size": ("batch_size", _grid_int),
    "hidden": ("hidden", str),  # parsed as --hidden is: str(8.0) or str(True) fails
    "seed": ("seed", _grid_int),
}


def cmd_grid(args) -> int:
    try:
        with open(args.grid) as fh:
            grid_spec = json.load(fh)
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise ValueError(f"grid file {args.grid} is not valid JSON: {exc}") from None
    if (not isinstance(grid_spec, dict) or not grid_spec
            or any(not isinstance(values, list) or not values for values in grid_spec.values())):
        raise ValueError("grid file must map hyperparameter names to nonempty lists")
    for key in grid_spec:
        if key not in _GRID_KEYS:
            raise ValueError(f"unknown grid key {key!r} (known: {sorted(_GRID_KEYS)})")

    train_corpus = _load_corpus(args.corpus, args.format)
    val_corpus = _load_corpus(args.val, args.format)
    _check_regions(args, train_corpus)
    # every grid point's config is built from the train flags and checked
    # before any work, and so is the validation corpus
    keys = list(grid_spec.keys())
    points = []
    for combo in itertools.product(*(grid_spec[k] for k in keys)):
        try:
            overrides = {_GRID_KEYS[key][0]: _GRID_KEYS[key][1](raw)
                         for key, raw in zip(keys, combo)}
            config = _config_from_args(argparse.Namespace(**{**vars(args), **overrides}))
            config.validate()
        except (TypeError, ValueError) as exc:  # a value of the wrong type or out of range
            raise ValueError(f"malformed grid point {dict(zip(keys, combo))}: {exc}") from None
        training_stages(train_corpus, config)
        points.append((combo, config))
    meta = build_meta(train_corpus, config)  # the model kind, head and corpus fields of any point
    _check_compat(meta, val_corpus)
    eval_mod.check_eval_corpus(val_corpus, meta)

    best = None
    os.makedirs(args.out, exist_ok=True)
    for combo, config in points:
        result = train_model(train_corpus, config)
        metrics = eval_mod.evaluation_metrics(
            val_corpus, result.averaged, result.meta,
            top_k=args.k, orderings=args.orderings, eval_seed=args.eval_seed,
        )
        metric_name, value = metrics[0]
        print(f"grid point {dict(zip(keys, combo))}: {metric_name}={value:.6f}")
        lower = metric_name in eval_mod.LOWER_IS_BETTER
        if best is None or (value < best[0] if lower else value > best[0]):
            best = (value, config, dict(zip(keys, combo)))

    value, config, combo = best
    manifest = {
        "command": "grid",
        "selected": combo,
        "metric": metric_name,
        "value": value,
        "config": asdict(config),
        "corpus": str(args.corpus),
        "validation": str(args.val),
        "package_version": __version__,
    }
    out_path = os.path.join(args.out, "best_manifest.json")
    with open(out_path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"best {metric_name}={value:.6f} with {combo}")
    print(f"manifest: {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_common_model_flags(sub):
    sub.add_argument("--model", dest="model_file", required=True, help="model file")
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--format", choices=FORMATS, default=FORMATS[0])
    sub.add_argument("--out", default=None, help="output file, one JSON record per line")


def _add_train_flags(sub, with_grid: bool = False):
    """The flags of `train` and `grid` (which has no pretraining flags).  A
    flag that sets a `TrainConfig` field has the field as its dest and the
    field's default as its default; --hidden and --layers set hidden_sizes."""
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--format", choices=FORMATS, default=FORMATS[0])
    sub.add_argument("--model", dest="model_kind", choices=MODEL_KINDS)
    sub.add_argument("--hidden", default=",".join(map(str, TrainConfig.hidden_sizes)),
                     help="hidden size, or comma list for deep stacks")
    sub.add_argument("--layers", type=int, default=None, help="layer count (replicates --hidden)")
    sub.add_argument("--lambda", dest="unsup_weight", type=float, help="generative-term weight")
    sub.add_argument("--anno-weight", dest="anno_weight", type=float,
                     help="annotation word weight")
    sub.add_argument("--dropout", dest="dropout_rate", type=float)
    sub.add_argument("--avg-decay", dest="averaging_decay", type=float)
    sub.add_argument("--lr", dest="learning_rate", type=float)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--head", choices=HEADS)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--workers", type=_positive_int, default=1,
                     help="accepted for compatibility and ignored")
    sub.add_argument("--regions", type=int, default=None,
                     help="expected region count (validated against the corpus header)")
    if not with_grid:
        sub.add_argument("--pretrain-corpus", dest="pretrain_corpus")
        sub.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int)
    sub.set_defaults(**asdict(TrainConfig()), pretrain_corpus=None)  # also grid's


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docnade",
        description="Autoregressive neural topic models for multimodal bag-of-words data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train a model")
    _add_train_flags(train)
    train.add_argument("--out", default="runs", help="output root directory")
    train.set_defaults(func=cmd_train)

    ev = commands.add_parser("eval", help="evaluate a model on a corpus")
    _add_common_model_flags(ev)
    ev.add_argument("--split", default="test", help="split name for the report")
    ev.add_argument("--k", type=_positive_int, default=5, help="top-K for annotation prediction")
    ev.add_argument("--orderings", type=_positive_int, default=1,
                    help="sampled orderings/splits per document")
    ev.add_argument("--eval-seed", dest="eval_seed", type=int, default=0)
    ev.add_argument("--curves", default=None,
                    help="directory for per-class precision-recall point files")
    ev.set_defaults(func=cmd_eval)

    annotate = commands.add_parser("annotate", help="predict annotation words")
    _add_common_model_flags(annotate)
    annotate.add_argument("--k", type=_positive_int, default=5)
    annotate.set_defaults(func=cmd_annotate)

    retrieve = commands.add_parser("retrieve", help="cosine retrieval by document index")
    _add_common_model_flags(retrieve)
    retrieve.add_argument("--query", type=int, required=True)
    retrieve.add_argument("--k", type=_positive_int, default=5)
    retrieve.set_defaults(func=cmd_retrieve)

    inspect = commands.add_parser("inspect", help="class/topic/word associations")
    inspect.add_argument("--model", dest="model_file", required=True)
    inspect.add_argument("--class-index", dest="class_index", type=int, required=True)
    inspect.add_argument("--topics", type=_positive_int, default=3)
    inspect.add_argument("--words", type=_positive_int, default=10)
    inspect.add_argument("--out", default=None)
    inspect.set_defaults(func=cmd_inspect)

    grid = commands.add_parser("grid", help="grid search over hyperparameters")
    _add_train_flags(grid, with_grid=True)
    grid.add_argument("--grid", required=True, help="JSON file of hyperparameter lists")
    grid.add_argument("--val", required=True, help="validation corpus")
    grid.add_argument("--out", default="runs", help="output directory")
    grid.add_argument("--k", type=_positive_int, default=5)
    grid.add_argument("--orderings", type=_positive_int, default=1)
    grid.add_argument("--eval-seed", dest="eval_seed", type=int, default=0)
    grid.set_defaults(func=cmd_grid)

    return parser


def _validate_usage(parser: argparse.ArgumentParser, args) -> None:
    if args.command in ("train", "grid"):
        try:
            config = _config_from_args(args)
            config.validate()
            if args.pretrain_corpus:
                pretrain_config(config)
        except ValueError as exc:
            parser.error(str(exc))
        if config.pretrain_epochs > 0 and not args.pretrain_corpus:
            parser.error("--pretrain-epochs requires --pretrain-corpus")
    if getattr(args, "eval_seed", 0) < 0:
        parser.error("--eval-seed must be >= 0")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_usage(parser, args)
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CorpusFormatError, FileNotFoundError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
