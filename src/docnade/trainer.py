"""Stochastic-gradient training: init, epochs, parameter averaging, checkpoints.

All randomness flows from a single seed expanded into named streams (tree,
init, shuffle, split, dropout), so identical configurations give bit-identical
runs and checkpoint-resume equals an uninterrupted run.  Inference uses an
exponentially decaying average of the parameters, advanced after every
update step.  Shallow kinds keep that average lazily: an entry a step does
not touch catches up in closed form when it is next touched, and every
entry is flushed at the end of each epoch, so the average that logs,
checkpoints and epoch callbacks see is the per-step one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import deep as deep_mod
from . import shallow as shallow_mod
from .corpus import Corpus, weight_vector
from .model_io import (
    DEEP_KINDS,
    MODEL_KINDS,
    SUPERVISED_KINDS,
    ModelMeta,
    load_checkpoint,
    save_checkpoint,
)
from .rng import named_stream
from .wordtree import WordTree, build_tree


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss becomes non-finite."""

    def __init__(self, doc_index: int, value: float):
        super().__init__(f"non-finite loss {value!r} at document {doc_index}")
        self.doc_index = doc_index


@dataclass
class TrainConfig:
    model_kind: str = "docnade"
    hidden_sizes: tuple[int, ...] = (64,)
    learning_rate: float = 0.01
    unsup_weight: float = 1.0  # generative-term weight (lambda)
    anno_weight: float = 1.0  # annotation histogram/loss weight (rho)
    dropout_rate: float = 0.0
    epochs: int = 10
    batch_size: int = 1
    averaging_decay: float = 0.999
    head: str = "softmax"
    seed: int = 0
    pretrain_epochs: int = 0

    def validate(self) -> None:
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.head not in deep_mod.HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.head == "sigmoid" and self.model_kind != "supdeepdocnade":
            raise ValueError("sigmoid head is only available for supdeepdocnade")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.unsup_weight < 0 or self.anno_weight < 0:
            raise ValueError("unsup_weight and anno_weight must be >= 0")
        if not (0 <= self.dropout_rate < 1):
            raise ValueError("dropout_rate must be in [0, 1)")
        if not (0 <= self.averaging_decay < 1):
            raise ValueError("averaging_decay must be in [0, 1)")
        if self.epochs < 0 or self.pretrain_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be positive")
        if self.model_kind not in DEEP_KINDS and len(self.hidden_sizes) != 1:
            raise ValueError("shallow models take exactly one hidden layer size")

    @property
    def is_deep(self) -> bool:
        return self.model_kind in DEEP_KINDS

    @property
    def is_supervised(self) -> bool:
        return self.model_kind in SUPERVISED_KINDS


def glorot_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform on [-sqrt(6)/sqrt(rows+cols), +sqrt(6)/sqrt(rows+cols)]."""
    if rows < 1 or cols < 1:
        raise ValueError("glorot_init needs at least a 1x1 matrix")
    bound = np.sqrt(6.0) / np.sqrt(rows + cols)
    return rng.uniform(-bound, bound, size=(rows, cols))


def _maybe_glorot(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return glorot_init(rows, cols, rng) if rows and cols else np.zeros((rows, cols))


def init_params(
    vocab_size: int,
    n_classes: int,
    n_features: int,
    config: TrainConfig,
    rng: np.random.Generator,
):
    """Glorot-initialized weights, zero biases; draw order is fixed."""
    if config.is_deep:
        sizes = (vocab_size,) + tuple(config.hidden_sizes)
        weights = [_maybe_glorot(sizes[i + 1], sizes[i], rng) for i in range(len(sizes) - 1)]
        biases = [np.zeros(h) for h in config.hidden_sizes]
        P = _maybe_glorot(n_features, config.hidden_sizes[0], rng) if n_features else None
        V_out = _maybe_glorot(vocab_size, config.hidden_sizes[-1], rng)
        U = _maybe_glorot(n_classes, config.hidden_sizes[-1], rng)
        return deep_mod.DeepParams(
            weights, biases, P, V_out, np.zeros(vocab_size), U, np.zeros(n_classes)
        )
    hidden = config.hidden_sizes[0]
    n_internal = vocab_size - 1
    W = _maybe_glorot(hidden, vocab_size, rng)
    V = _maybe_glorot(n_internal, hidden, rng)
    U = _maybe_glorot(n_classes, hidden, rng)
    return shallow_mod.ShallowParams(
        W, np.zeros(hidden), V, np.zeros(n_internal), U, np.zeros(n_classes)
    )


@dataclass
class AveragedParams:
    """Current parameters plus their exponentially decayed running average."""

    current: object
    averaged: object
    decay: float


def init_averaged(params, decay: float) -> AveragedParams:
    return AveragedParams(current=params, averaged=params.copy(), decay=decay)


def _average_step(cur: np.ndarray, a: np.ndarray, decay: float) -> None:
    """a <- decay * a + (1 - decay) * cur, in place.

    Computed in the fixed-point-exact form a += (1-decay) * (cur - a) so
    that an unchanged `cur` leaves `a` bit-identical; decay 0 copies.
    """
    if decay == 0.0:
        a[...] = cur
    else:
        a += (1.0 - decay) * (cur - a)


def polyak_update(avg: AveragedParams) -> AveragedParams:
    """averaged <- decay * averaged + (1 - decay) * current, in place."""
    for (_, cur), (_, a) in zip(avg.current.arrays(), avg.averaged.arrays()):
        _average_step(cur, a, avg.decay)
    return avg


class _LazyAverage:
    """SGD steps on a shallow model with its average kept lazily.

    A step changes only the W columns of its documents' words and the V rows
    and b entries on their tree paths.  Between two steps that touch an
    entry its current value is constant, so each step in between only
    contracted the entry's average toward it: after k of them the average is
    cur + r**k * (a - cur), with r = 1 - (1 - decay) the contraction of one
    `_average_step`.  That is applied as a += (1 - r**k) * (cur - a), which
    leaves `a` bit-identical for k = 0.  Each W column and tree node records
    the step its average was last brought up to date at; a step catches up
    the entries it touches before changing them, and `flush` catches up all
    of them.  c, U and d are small and averaged densely on every step.
    """

    def __init__(self, avg: AveragedParams):
        self.avg = avg
        self.steps = 0
        self.ratio = 1.0 - (1.0 - avg.decay)
        self.col_synced = np.zeros(avg.current.vocab_size, dtype=np.int64)
        self.row_synced = np.zeros(len(avg.current.b), dtype=np.int64)

    def _groups(self):
        """Each step record with the (current, averaged) arrays it covers; W
        is viewed transposed so that a word's column is a row."""
        cur, a = self.avg.current, self.avg.averaged
        return (
            (self.col_synced, ((cur.W.T, a.W.T),)),
            (self.row_synced, ((cur.V, a.V), (cur.b, a.b))),
        )

    def _catch_up(self, cur: np.ndarray, a: np.ndarray, missed: np.ndarray) -> None:
        """Moves the averages `a` of rows whose current values `cur` stayed
        put on by `missed` steps, in place."""
        if self.avg.decay == 0.0:
            stale = missed > 0
            a[stale] = cur[stale]
        else:
            gap = cur - a
            gap *= (1.0 - self.ratio ** missed).reshape((-1,) + (1,) * (a.ndim - 1))
            a += gap

    def step(self, grads: shallow_mod.SparseGrads, scale: float) -> None:
        """current -= scale * grads on the entries grads covers (none if
        scale is 0), then one average step."""
        blocks = ((grads.cols, (grads.W,)), (grads.rows, (grads.V, grads.b)))
        for (synced, arrays), (idx, grad_blocks) in zip(self._groups(), blocks):
            missed = self.steps - synced[idx]
            for (cur_arr, a_arr), g in zip(arrays, grad_blocks):
                cur, a = cur_arr[idx], a_arr[idx]
                self._catch_up(cur, a, missed)
                if scale != 0.0:
                    cur -= scale * g
                    cur_arr[idx] = cur
                _average_step(cur, a, self.avg.decay)
                a_arr[idx] = a
            synced[idx] = self.steps + 1
        self.steps += 1
        for name in ("c", "U", "d"):
            cur = getattr(self.avg.current, name)
            if scale != 0.0:
                cur -= scale * getattr(grads, name)
            _average_step(cur, getattr(self.avg.averaged, name), self.avg.decay)

    def flush(self) -> None:
        """Brings every entry's average up to the latest step."""
        for synced, arrays in self._groups():
            for cur_arr, a_arr in arrays:
                self._catch_up(cur_arr, a_arr, self.steps - synced)
            synced[:] = self.steps


@dataclass
class RngStreams:
    shuffle: np.random.Generator
    split: np.random.Generator
    dropout: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        return cls(
            shuffle=named_stream(seed, "shuffle"),
            split=named_stream(seed, "split"),
            dropout=named_stream(seed, "dropout"),
        )

    def states(self) -> dict:
        return {
            name: getattr(self, name).bit_generator.state
            for name in ("shuffle", "split", "dropout")
        }

    def restore(self, states: dict) -> None:
        for name, state in states.items():
            getattr(self, name).bit_generator.state = state


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    n_documents: int
    n_skipped: int
    wall_time: float


@dataclass
class _DocCache:
    """Per-document arrays materialized once per training run.

    Deep kinds keep each document as sparse (ids, counts); the dense count
    rows are built per mini-batch.
    """

    tokens: list[np.ndarray] | None = None
    counts: list[tuple[np.ndarray, np.ndarray]] | None = None
    labels: list[frozenset] = field(default_factory=list)
    features: list[np.ndarray | None] = field(default_factory=list)


def _build_cache(corpus: Corpus, config: TrainConfig) -> _DocCache:
    cache = _DocCache()
    if config.is_deep:
        cache.counts = [
            (np.fromiter(doc.counts, dtype=np.int64, count=len(doc.counts)),
             np.fromiter(doc.counts.values(), dtype=np.int64, count=len(doc.counts)))
            for doc in corpus.documents
        ]
    else:
        cache.tokens = [doc.token_array() for doc in corpus.documents]
    cache.labels = [doc.labels for doc in corpus.documents]
    cache.features = [doc.features for doc in corpus.documents]
    return cache


def _draw_masks(sizes, keep: float, rng: np.random.Generator) -> list[np.ndarray]:
    return [(rng.random(h) < keep).astype(float) for h in sizes]


def _deep_batch(batch, params, config, streams, cache, omega):
    """Splits and masks drawn in batch order, then one batched step.

    Returns (documents kept, their losses, summed gradients, W1 columns).
    """
    counts = np.zeros((len(batch), params.vocab_size), dtype=np.int64)
    for row, doc_idx in enumerate(batch):
        ids, values = cache.counts[doc_idx]
        counts[row, ids] = values
    keep = 1.0 - config.dropout_rate
    kept, splits, gen_masks, sup_masks = [], [], [], []
    for row in range(len(batch)):
        split = deep_mod.split_histogram(counts[row], streams.split)
        if split is None and not config.is_supervised:
            continue
        gen = sup = None
        if config.dropout_rate > 0:
            gen = _draw_masks(config.hidden_sizes, keep, streams.dropout)
            if config.is_supervised:
                sup = _draw_masks(config.hidden_sizes, keep, streams.dropout)
        kept.append(row)
        splits.append(split)
        gen_masks.append(gen)
        sup_masks.append(sup)
    docs = [batch[row] for row in kept]
    labels = [cache.labels[i] if config.is_supervised else None for i in docs]
    unsup = config.unsup_weight if config.is_supervised else 1.0
    losses, grads, cols = deep_mod.batch_loss_gradients(
        counts[kept], labels, [cache.features[i] for i in docs], params, unsup,
        omega, omega, splits, gen_masks, sup_masks, head=config.head,
    )
    return docs, losses.tolist(), grads, cols


def _shallow_batch(batch, params, config, streams, cache, tree):
    """Per-document orderings and sparse gradients, in batch order.

    Returns (documents kept, their losses, the gradients summed in
    document order).
    """
    docs, losses, grads = [], [], []
    for doc_idx in batch:
        tokens = cache.tokens[doc_idx]
        label, unsup = None, 1.0
        if config.is_supervised:
            labels = cache.labels[doc_idx]
            if len(labels) != 1:
                raise ValueError(
                    f"document {doc_idx} needs exactly one label for supervised training"
                )
            label, unsup = next(iter(labels)), config.unsup_weight
        elif len(tokens) == 0:
            continue
        ordering = tokens[streams.shuffle.permutation(len(tokens))] if len(tokens) else tokens
        loss, doc_grads = shallow_mod.sparse_gradients(ordering, params, tree, unsup, label)
        docs.append(doc_idx)
        losses.append(loss)
        grads.append(doc_grads)
    return docs, losses, shallow_mod.sum_gradients(grads) if grads else None


def sgd_epoch(
    corpus: Corpus,
    avg: AveragedParams,
    config: TrainConfig,
    streams: RngStreams,
    *,
    epoch: int = 0,
    tree: WordTree | None = None,
    cache: _DocCache | None = None,
) -> EpochStats:
    """One pass over the corpus in a freshly shuffled order.

    Per mini-batch, per-document gradients are averaged and applied with the
    learning rate, then the parameter average is updated.  Stochastic inputs
    (token orderings, splits, dropout masks) are drawn, and gradients summed,
    in document order.

    Shallow kinds update only the W columns of the batch's words and the V
    rows and b entries on their tree paths, and keep the average lazily
    (`_LazyAverage`), flushed before this function returns.  Deep kinds run
    each mini-batch as one batched step (`deep.batch_loss_gradients`),
    update W1 only on the columns of the words the batch contains and
    average densely.
    """
    started = time.perf_counter()
    if cache is None:
        cache = _build_cache(corpus, config)
    params = avg.current
    omega = _omega_for(corpus, config)
    losses = []
    skipped = 0
    lazy = None if config.is_deep else _LazyAverage(avg)

    order = streams.shuffle.permutation(len(corpus.documents))
    try:
        for start in range(0, len(order), config.batch_size):
            batch = [int(doc_idx) for doc_idx in order[start : start + config.batch_size]]
            if config.is_deep:
                docs, batch_losses, grads, cols = _deep_batch(
                    batch, params, config, streams, cache, omega
                )
            else:
                docs, batch_losses, grads = _shallow_batch(
                    batch, params, config, streams, cache, tree
                )
            skipped += len(batch) - len(docs)
            if not docs:
                continue
            for doc_idx, loss in zip(docs, batch_losses):
                if not np.isfinite(loss):
                    raise TrainingDivergedError(doc_idx, loss)
                losses.append(loss)

            scale = config.learning_rate / len(docs)
            if lazy is not None:
                lazy.step(grads, scale)
                continue
            if scale != 0.0:
                for name, arr in params.arrays():
                    if name == "W1":
                        arr[:, cols] -= scale * grads[name]
                    else:
                        arr -= scale * grads[name]
            polyak_update(avg)
    finally:
        if lazy is not None:
            lazy.flush()

    mean_loss = float(np.mean(losses)) if losses else 0.0
    return EpochStats(
        epoch=epoch,
        mean_loss=mean_loss,
        n_documents=len(losses),
        n_skipped=skipped,
        wall_time=time.perf_counter() - started,
    )


def _omega_for(corpus: Corpus, config: TrainConfig) -> np.ndarray | None:
    return weight_vector(corpus.vocabulary, config.anno_weight).omega if config.is_deep else None


@dataclass
class TrainResult:
    params: object  # final current parameters
    averaged: object  # what inference should use
    meta: ModelMeta
    tree: WordTree | None
    stats: list[EpochStats]


def build_meta(corpus: Corpus, config: TrainConfig) -> ModelMeta:
    vocab = corpus.vocabulary
    return ModelMeta(
        kind=config.model_kind,
        head=config.head,
        n_visual=vocab.n_visual,
        n_regions=vocab.n_regions,
        n_annotation=vocab.n_annotation,
        n_classes=corpus.n_classes,
        n_features=corpus.n_features,
        hidden_sizes=tuple(config.hidden_sizes),
        tree_seed=None if config.is_deep else config.seed,
        anno_weight=config.anno_weight,
        dropout_rate=config.dropout_rate,
    )


def train_model(
    corpus: Corpus,
    config: TrainConfig,
    *,
    start: AveragedParams | None = None,
    start_epoch: int = 0,
    stream_states: dict | None = None,
    checkpoint_dir=None,
    log_file=None,
    on_epoch=None,
) -> TrainResult:
    """Train one configuration from scratch or from a restored state."""
    config.validate()
    corpus.validate()
    vocab = corpus.vocabulary
    meta = build_meta(corpus, config)

    tree = None if config.is_deep else build_tree(vocab.size, config.seed)

    if start is None:
        init_rng = named_stream(config.seed, "init")
        params = init_params(vocab.size, corpus.n_classes, corpus.n_features, config, init_rng)
        avg = init_averaged(params, config.averaging_decay)
    else:
        avg = start
        avg.decay = config.averaging_decay

    streams = RngStreams.from_seed(config.seed)
    if stream_states is not None:
        streams.restore(stream_states)

    cache = _build_cache(corpus, config)
    stats: list[EpochStats] = []
    for epoch in range(start_epoch + 1, config.epochs + 1):
        epoch_stats = sgd_epoch(
            corpus, avg, config, streams, epoch=epoch, tree=tree, cache=cache
        )
        stats.append(epoch_stats)
        if log_file is not None:
            with open(log_file, "a") as fh:
                fh.write(
                    f"{epoch_stats.epoch}\t{epoch_stats.mean_loss:.6f}"
                    f"\t{epoch_stats.wall_time:.3f}\n"
                )
        if checkpoint_dir is not None:
            ckpt = f"{checkpoint_dir}/epoch_{epoch:04d}.ckpt"
            save_checkpoint(ckpt, avg.current, avg.averaged, meta, epoch, streams.states())
        if on_epoch is not None:
            on_epoch(epoch_stats, avg)

    return TrainResult(params=avg.current, averaged=avg.averaged, meta=meta, tree=tree, stats=stats)


def resume_training(
    checkpoint_path, corpus: Corpus, config: TrainConfig, **kwargs
) -> TrainResult:
    """Continue a run from a checkpoint; equals the uninterrupted run."""
    params, averaged, meta, epoch, rng_states = load_checkpoint(checkpoint_path)
    if meta.kind != config.model_kind or tuple(meta.hidden_sizes) != tuple(config.hidden_sizes):
        raise ValueError("checkpoint does not match the requested configuration")
    avg = AveragedParams(current=params, averaged=averaged, decay=config.averaging_decay)
    return train_model(
        corpus, config,
        start=avg, start_epoch=epoch, stream_states=rng_states, **kwargs,
    )


def pretrain_then_finetune(
    unlabeled: Corpus,
    labeled: Corpus,
    config: TrainConfig,
    *,
    checkpoint_dir=None,
    log_file=None,
) -> TrainResult:
    """Unsupervised pretraining followed by supervised fine-tuning.

    Pretraining runs the unsupervised counterpart of the configured model
    kind; the supervised head is freshly initialized when fine-tuning starts.
    """
    if unlabeled.vocabulary != labeled.vocabulary:
        raise ValueError("pretraining and fine-tuning corpora use different vocabularies")
    if unlabeled.n_features != labeled.n_features:
        raise ValueError("pretraining and fine-tuning corpora disagree on feature length")
    config.validate()

    unsupervised = config.model_kind.removeprefix("sup")
    pre_config = replace(config, model_kind=unsupervised, epochs=config.pretrain_epochs)
    pre_dir = None
    if checkpoint_dir is not None:
        pre_dir = f"{checkpoint_dir}/pretrain"
        os.makedirs(pre_dir, exist_ok=True)
    pre = train_model(unlabeled, pre_config, checkpoint_dir=pre_dir, log_file=log_file)

    params = pre.params
    head_rng = named_stream(config.seed, "init_finetune")
    n_classes = labeled.n_classes
    top = config.hidden_sizes[-1]
    params.U = _maybe_glorot(n_classes, top, head_rng)
    params.d = np.zeros(n_classes)

    avg = init_averaged(params, config.averaging_decay)
    return train_model(
        labeled, config,
        start=avg, checkpoint_dir=checkpoint_dir, log_file=log_file,
    )
