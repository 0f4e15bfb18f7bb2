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
from dataclasses import asdict

import numpy as np

from . import __version__
from . import deep as deep_mod
from . import evaluate as eval_mod
from .corpus import (
    Corpus,
    CorpusFormatError,
    build_vocabulary,
    parse_corpus,
    weight_vector,
)
from .model_io import (
    DEEP_KINDS,
    MODEL_KINDS,
    SUPERVISED_KINDS,
    ModelMeta,
    load_model,
    save_model,
)
from .rng import named_stream
from .trainer import (
    TrainConfig,
    TrainingDivergedError,
    pretrain_then_finetune,
    train_model,
)
from .wordtree import build_tree

EXIT_OK = 0
EXIT_USAGE = 2
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
    return TrainConfig(
        model_kind=args.model,
        hidden_sizes=_parse_hidden(args.hidden, getattr(args, "layers", None)),
        learning_rate=args.lr,
        unsup_weight=getattr(args, "unsup_weight", 1.0),
        anno_weight=getattr(args, "anno_weight", 1.0),
        dropout_rate=args.dropout,
        epochs=args.epochs,
        batch_size=args.batch_size,
        averaging_decay=args.avg_decay,
        head=args.head,
        seed=args.seed,
        pretrain_epochs=getattr(args, "pretrain_epochs", 0),
        split_mode=getattr(args, "split_mode", "prefix"),
        workers=args.workers,
    )


def _manifest(command: str, config: TrainConfig, args) -> dict:
    return {
        "command": command,
        "config": asdict(config),
        "corpus": str(args.corpus),
        "format": args.format,
        "pretrain_corpus": str(getattr(args, "pretrain_corpus", None) or ""),
        "seed": config.seed,
        "artifact_format_version": 1,
        "package_version": __version__,
    }


def _manifest_hash(manifest: dict) -> str:
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _check_compat(meta: ModelMeta, corpus: Corpus) -> None:
    vocab = corpus.vocabulary
    pairs = [
        ("vocabulary size Q", meta.vocab_size, vocab.size),
        ("n_visual", meta.n_visual, vocab.n_visual),
        ("n_regions", meta.n_regions, vocab.n_regions),
        ("n_annotation", meta.n_annotation, vocab.n_annotation),
        ("class count C", meta.n_classes, corpus.n_classes),
        ("feature length N_f", meta.n_features, corpus.n_features),
    ]
    for name, model_value, corpus_value in pairs:
        if model_value != corpus_value:
            raise ValueError(
                f"model/corpus mismatch on {name}: model has {model_value}, "
                f"corpus has {corpus_value}"
            )


def _load_corpus(args) -> Corpus:
    if not os.path.exists(args.corpus):
        raise FileNotFoundError(f"corpus file not found: {args.corpus}")
    return parse_corpus(args.corpus, args.format)


def _load_model(path):
    if not os.path.exists(path):
        raise FileNotFoundError(f"model file not found: {path}")
    return load_model(path)


def _class_scores(corpus: Corpus, params, meta: ModelMeta) -> np.ndarray:
    """Per-document class confidences from the model's own head.

    Shallow models predict from visual words only (annotations are withheld
    at test time); deep models condition on the full document.
    """
    reps = eval_mod.extract_representations(corpus, params, meta, restrict="visual-only")
    logits = reps @ params.U.T + params.d
    if meta.head == "sigmoid":
        return np.exp(-np.logaddexp(0.0, -logits))
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    return probs / probs.sum(axis=1, keepdims=True)


def _annotation_predictions(corpus: Corpus, params, meta: ModelMeta, tree, top_k: int):
    vocab = corpus.vocabulary
    omega = weight_vector(vocab, meta.anno_weight).omega if meta.kind in DEEP_KINDS else None
    for doc in corpus.documents:
        ranked = eval_mod.generate_text(
            doc, params, vocab, top_k,
            tree=tree, meta_dropout=meta.dropout_rate, omega=omega,
        )
        yield doc, ranked


def _deep_perplexity_estimate(
    corpus: Corpus, params, meta: ModelMeta, samples: int, rng
) -> float:
    """Per-token perplexity from sampled-split estimator losses."""
    vocab = corpus.vocabulary
    omega = weight_vector(vocab, meta.anno_weight).omega
    keep = 1.0 - meta.dropout_rate if meta.dropout_rate > 0 else None
    total_loss, total_tokens = 0.0, 0
    for doc in corpus.documents:
        counts = doc.dense_counts(vocab.size)
        if counts.sum() == 0:
            continue
        draws = []
        for _ in range(samples):
            split = deep_mod.split_histogram(counts, rng)
            x = deep_mod.prepare_histogram(split.input_hist, omega)
            hs, _ = deep_mod.deep_forward(x, params, doc.features, keep_scale=keep)
            loss, _ = deep_mod.generative_loss(
                hs[-1], split.output_hist, omega, split.d, split.total_tokens, params
            )
            draws.append(loss)
        total_loss += float(np.mean(draws))
        total_tokens += int(counts.sum())
    if total_tokens == 0:
        raise ValueError("corpus has no tokens")
    return float(np.exp(total_loss / total_tokens))


def _compute_metrics(
    corpus: Corpus, params, meta: ModelMeta, tree, args, curves_dir=None
) -> list[tuple[str, float]]:
    metrics: list[tuple[str, float]] = []
    rng = named_stream(args.eval_seed, "eval")
    supervised = meta.kind in SUPERVISED_KINDS

    if not supervised:
        if meta.kind == "docnade":
            metrics.append((
                "perplexity",
                eval_mod.perplexity(corpus, params, tree, args.orderings, rng),
            ))
        else:
            metrics.append((
                "perplexity_estimate",
                _deep_perplexity_estimate(corpus, params, meta, args.orderings, rng),
            ))
        return metrics

    scores = _class_scores(corpus, params, meta)
    if meta.head == "sigmoid":
        relevance = np.zeros(scores.shape, dtype=bool)
        for i, doc in enumerate(corpus.documents):
            for label in doc.labels:
                relevance[i, label] = True
        mean_ap, skipped = eval_mod.mean_average_precision(scores, relevance)
        metrics.append(("map", mean_ap))
        if skipped:
            metrics.append(("map_classes_excluded", float(skipped)))
        if curves_dir is not None:
            eval_mod.write_pr_curves(curves_dir, scores, relevance)
    else:
        labeled = [i for i, doc in enumerate(corpus.documents) if doc.labels]
        predicted = scores.argmax(axis=1)[labeled]
        truth = np.array([next(iter(corpus.documents[i].labels)) for i in labeled])
        metrics.append(("accuracy", eval_mod.accuracy(predicted, truth)))

    if corpus.vocabulary.n_annotation > 0:
        vocab = corpus.vocabulary
        pairs = []
        for doc, ranked in _annotation_predictions(corpus, params, meta, tree, args.k):
            truth = {i for i in doc.counts if vocab.is_annotation(i)}
            pairs.append((set(int(i) for i in ranked.ids), truth))
        mean_f, skipped = eval_mod.mean_f_measure(pairs)
        metrics.append((f"f_measure_top{args.k}", mean_f))
        if skipped:
            metrics.append(("f_measure_docs_excluded", float(skipped)))
    return metrics


def _emit_report(metrics, split: str, out_path=None) -> None:
    width = max(len(name) for name, _ in metrics)
    print(f"{'metric':<{width}}  split  value")
    for name, value in metrics:
        print(f"{name:<{width}}  {split}  {value:.6f}")
    if out_path:
        with open(out_path, "w") as fh:
            for name, value in metrics:
                fh.write(json.dumps({"metric": name, "split": split, "value": value}) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    corpus = _load_corpus(args)
    if args.regions is not None and corpus.vocabulary.n_regions != args.regions:
        raise ValueError(
            f"--regions {args.regions} disagrees with corpus header "
            f"({corpus.vocabulary.n_regions})"
        )
    config = _config_from_args(args)
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

    if args.pretrain_corpus:
        unlabeled = parse_corpus(args.pretrain_corpus, args.format)
        result = pretrain_then_finetune(
            unlabeled, corpus, config, checkpoint_dir=ckpt_dir, log_file=log_file
        )
    else:
        result = train_model(corpus, config, checkpoint_dir=ckpt_dir, log_file=log_file)

    model_path = os.path.join(run_dir, "model.bin")
    save_model(model_path, result.averaged, result.meta)
    print(f"run directory: {run_dir}")
    print(f"model: {model_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params, meta = _load_model(args.model_file)
    corpus = _load_corpus(args)
    _check_compat(meta, corpus)
    tree = build_tree(meta.vocab_size, meta.tree_seed) if meta.tree_seed is not None else None
    metrics = _compute_metrics(corpus, params, meta, tree, args, curves_dir=args.curves)
    _emit_report(metrics, args.split, args.out)
    return EXIT_OK


def cmd_annotate(args) -> int:
    params, meta = _load_model(args.model_file)
    corpus = _load_corpus(args)
    _check_compat(meta, corpus)
    tree = build_tree(meta.vocab_size, meta.tree_seed) if meta.tree_seed is not None else None
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for index, (_, ranked) in enumerate(
            _annotation_predictions(corpus, params, meta, tree, args.k)
        ):
            record = {
                "doc": index,
                "annotations": [int(i) for i in ranked.ids],
                "scores": [float(s) for s in ranked.scores],
            }
            out.write(json.dumps(record) + "\n")
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_retrieve(args) -> int:
    params, meta = _load_model(args.model_file)
    corpus = _load_corpus(args)
    _check_compat(meta, corpus)
    reps = eval_mod.extract_representations(corpus, params, meta)
    if not (0 <= args.query < len(reps)):
        raise ValueError(f"query index {args.query} out of range (corpus size {len(reps)})")
    ranked = eval_mod.cosine_retrieve(reps[args.query], reps, args.k)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for rank, (doc_id, score) in enumerate(zip(ranked.ids, ranked.scores), start=1):
            out.write(json.dumps(
                {"query": args.query, "rank": rank, "doc": int(doc_id), "score": float(score)}
            ) + "\n")
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_inspect(args) -> int:
    params, meta = _load_model(args.model_file)
    if meta.kind not in ("supdocnade",):
        raise ValueError("inspect requires a supervised shallow model")
    vocab = build_vocabulary(
        meta.n_visual, meta.n_regions, [f"anno{i}" for i in range(meta.n_annotation)]
    )
    topics, visual_ids, anno_ids = eval_mod.class_word_associations(
        params, vocab, args.class_index, args.topics, args.words
    )
    record = {
        "class": args.class_index,
        "topics": [int(t) for t in topics],
        "visual_words": [int(i) for i in visual_ids],
        "annotation_words": [int(i) for i in anno_ids],
    }
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write(json.dumps(record) + "\n")
    finally:
        if args.out:
            out.close()
    return EXIT_OK


_GRID_KEYS = {
    "lambda": ("unsup_weight", float),
    "anno-weight": ("anno_weight", float),
    "lr": ("learning_rate", float),
    "dropout": ("dropout_rate", float),
    "avg-decay": ("averaging_decay", float),
    "epochs": ("epochs", int),
    "batch-size": ("batch_size", int),
    "hidden": ("hidden_sizes", lambda s: _parse_hidden(str(s), None)),
    "seed": ("seed", int),
}


def _selection_metric(meta_kind: str, head: str) -> tuple[str, bool]:
    """(metric name, higher_is_better) used to pick the best grid point."""
    if meta_kind in SUPERVISED_KINDS:
        return ("map", True) if head == "sigmoid" else ("accuracy", True)
    return ("perplexity" if meta_kind == "docnade" else "perplexity_estimate", False)


def cmd_grid(args) -> int:
    with open(args.grid) as fh:
        grid_spec = json.load(fh)
    if not grid_spec or any(not values for values in grid_spec.values()):
        raise ValueError("grid file must map hyperparameter names to nonempty lists")
    for key in grid_spec:
        if key not in _GRID_KEYS:
            raise ValueError(f"unknown grid key {key!r} (known: {sorted(_GRID_KEYS)})")

    train_corpus = parse_corpus(args.corpus, args.format)
    val_corpus = parse_corpus(args.val, args.format)
    base_config = _config_from_args(args)
    metric_name, higher_better = _selection_metric(base_config.model_kind, base_config.head)

    keys = list(grid_spec.keys())
    best = None
    os.makedirs(args.out, exist_ok=True)
    for combo in itertools.product(*(grid_spec[k] for k in keys)):
        overrides = {}
        for key, raw in zip(keys, combo):
            field_name, cast = _GRID_KEYS[key]
            overrides[field_name] = cast(raw)
        config = TrainConfig(**{**asdict(base_config), **overrides})
        config.hidden_sizes = tuple(config.hidden_sizes)
        result = train_model(train_corpus, config)
        eval_args = argparse.Namespace(
            eval_seed=args.eval_seed, orderings=args.orderings, k=args.k
        )
        metrics = dict(_compute_metrics(val_corpus, result.averaged, result.meta, result.tree, eval_args))
        value = metrics[metric_name]
        print(f"grid point {dict(zip(keys, combo))}: {metric_name}={value:.6f}")
        better = best is None or (value > best[0] if higher_better else value < best[0])
        if better:
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


def _add_common_model_flags(sub):
    sub.add_argument("--model", dest="model_file", required=True, help="model file")
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--format", choices=("text-sparse", "record-lines"), default="text-sparse")
    sub.add_argument("--out", default=None, help="record-lines output file")


def _add_train_flags(sub, with_grid: bool = False):
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--format", choices=("text-sparse", "record-lines"), default="text-sparse")
    sub.add_argument("--model", choices=MODEL_KINDS, default="docnade")
    sub.add_argument("--hidden", default="64", help="hidden size, or comma list for deep stacks")
    sub.add_argument("--layers", type=int, default=None, help="layer count (replicates --hidden)")
    sub.add_argument("--lambda", dest="unsup_weight", type=float, default=1.0,
                     help="generative-term weight")
    sub.add_argument("--anno-weight", dest="anno_weight", type=float, default=1.0,
                     help="annotation word weight")
    sub.add_argument("--dropout", type=float, default=0.0)
    sub.add_argument("--avg-decay", dest="avg_decay", type=float, default=0.999)
    sub.add_argument("--lr", type=float, default=0.01)
    sub.add_argument("--epochs", type=int, default=10)
    sub.add_argument("--batch-size", dest="batch_size", type=int, default=1)
    sub.add_argument("--head", choices=("softmax", "sigmoid"), default="softmax")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--workers", type=int, default=1,
                     help="threads per mini-batch (shallow models only)")
    sub.add_argument("--split-mode", dest="split_mode", choices=("prefix", "per-word"),
                     default="prefix")
    sub.add_argument("--regions", type=int, default=None,
                     help="expected region count (validated against the corpus header)")
    if not with_grid:
        sub.add_argument("--pretrain-corpus", dest="pretrain_corpus", default=None)
        sub.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int, default=0)


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
    ev.add_argument("--k", type=int, default=5, help="top-K for annotation prediction")
    ev.add_argument("--orderings", type=int, default=1,
                    help="sampled orderings/splits per document")
    ev.add_argument("--eval-seed", dest="eval_seed", type=int, default=0)
    ev.add_argument("--curves", default=None,
                    help="directory for per-class precision-recall point files")
    ev.set_defaults(func=cmd_eval)

    annotate = commands.add_parser("annotate", help="predict annotation words")
    _add_common_model_flags(annotate)
    annotate.add_argument("--k", type=int, default=5)
    annotate.set_defaults(func=cmd_annotate)

    retrieve = commands.add_parser("retrieve", help="cosine retrieval by document index")
    _add_common_model_flags(retrieve)
    retrieve.add_argument("--query", type=int, required=True)
    retrieve.add_argument("--k", type=int, default=5)
    retrieve.set_defaults(func=cmd_retrieve)

    inspect = commands.add_parser("inspect", help="class/topic/word associations")
    inspect.add_argument("--model", dest="model_file", required=True)
    inspect.add_argument("--class-index", dest="class_index", type=int, required=True)
    inspect.add_argument("--topics", type=int, default=3)
    inspect.add_argument("--words", type=int, default=10)
    inspect.add_argument("--out", default=None)
    inspect.set_defaults(func=cmd_inspect)

    grid = commands.add_parser("grid", help="grid search over hyperparameters")
    _add_train_flags(grid, with_grid=True)
    grid.add_argument("--grid", required=True, help="JSON file of hyperparameter lists")
    grid.add_argument("--val", required=True, help="validation corpus")
    grid.add_argument("--out", default="runs", help="output directory")
    grid.add_argument("--k", type=int, default=5)
    grid.add_argument("--orderings", type=int, default=1)
    grid.add_argument("--eval-seed", dest="eval_seed", type=int, default=0)
    grid.set_defaults(func=cmd_grid)

    return parser


def _validate_usage(parser: argparse.ArgumentParser, args) -> None:
    if args.command in ("train", "grid"):
        if args.head == "sigmoid" and args.model != "supdeepdocnade":
            parser.error(f"--head sigmoid is not available for --model {args.model}")
        if args.model not in DEEP_KINDS:
            try:
                sizes = _parse_hidden(args.hidden, args.layers)
            except ValueError as exc:
                parser.error(str(exc))
            if len(sizes) != 1:
                parser.error(f"--model {args.model} takes exactly one hidden layer")
        if getattr(args, "pretrain_epochs", 0) > 0 and not getattr(args, "pretrain_corpus", None):
            parser.error("--pretrain-epochs requires --pretrain-corpus")


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
