"""Stochastic-gradient training: init, epochs, parameter averaging, checkpoints.

All randomness flows from a single seed expanded into named streams (`rng`),
so identical configurations give bit-identical runs and checkpoint-resume
equals an uninterrupted run.  Inference uses an
exponentially decaying average of the parameters, advanced after every
update step.  Both model families update it the same way: their gradients
come as blocks (`numerics.along`; a whole-array gradient is one block over
the array), a step (`polyak_update`) changes only the entries its blocks
cover, the average is kept lazily in a rescaled gap form for the whole
epoch (an entry a step does not touch needs no work; see `_LazyAverage`),
and every entry is flushed at the end of each epoch, so the average that
logs and checkpoints see is the per-step one.

A run is a list of stages (`training_stages`) that `train_model` trains in
one loop: optional unsupervised pretraining, then the configured stage,
which starts from the previous stage's arrays with a fresh class head.  A
checkpoint's meta names its stage, so a run resumes from any checkpoint.

The bulk, order-free parts of a training call run on two threads
(`numerics.call_all`), with the same bytes as on one: `init_params` draws
its Glorot arrays concurrently; `polyak_update`'s blocks and the deep
output layer run on fixed row parts when they have at least
`numerics.PART_MIN` entries (`numerics.on_rows`); and the last epoch's
checkpoint is written alongside the model file (the caller's
`write_model`).  Earlier checkpoints are written in sequence, between
epochs.  `train_model` runs with BLAS on one thread
(`numerics.one_blas_thread`), so that no byte depends on a thread count.

The model kind is looked up once in `model_io.FAMILIES`.  Its family module
(`shallow` or `deep`) declares the model's arrays (`array_shapes`), builds
its context (the word tree, or omega and the dropout rate) and the per-run
document cache, and takes each mini-batch step; supervision is resolved
once, into the cache, so no code here branches on the kind.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .corpus import Corpus
from .model_io import (FAMILIES, ModelMeta, check_settings, load_checkpoint, params_of,
                       save_checkpoint)
from .numerics import PART_MIN, Params, along, call_all, glorot_arrays, on_rows, one_blas_thread
from .rng import named_stream, stream_states, training_streams


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
        if self.model_kind not in FAMILIES:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        check_settings(FAMILIES[self.model_kind], self)
        # written so that NaN fails each comparison
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0 <= self.unsup_weight < np.inf:
            raise ValueError("unsup_weight must be finite and >= 0")
        if not (0 <= self.averaging_decay < 1):
            raise ValueError("averaging_decay must be in [0, 1)")
        if self.epochs < 0 or self.pretrain_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def init_params(meta: ModelMeta, rng: np.random.Generator) -> Params:
    """The arrays the meta's family declares (`array_shapes`): every matrix
    Glorot-initialized, drawn from `rng` in file order (`glorot_arrays`;
    an empty one draws nothing), and every vector zero."""
    shapes = meta.family[0].array_shapes(meta)
    names, dims = zip(*[(name, shape) for name, shape in shapes if len(shape) == 2])
    drawn = dict(zip(names, glorot_arrays(dims, rng)))
    return params_of(meta, {name: drawn[name] if name in drawn else np.zeros(shape)
                            for name, shape in shapes})


@dataclass
class AveragedParams:
    """Current parameters plus their exponentially decayed running average."""

    current: object
    averaged: object
    decay: float


def init_averaged(params, decay: float) -> AveragedParams:
    return AveragedParams(current=params, averaged=params.copy(), decay=decay)


# How far r**-t may grow before `_LazyAverage` refolds its scaled gaps, so
# that the scale stays well inside float range.
_MAX_GAP_SCALE = 2.0**64


class _LazyAverage:
    """The parameter average of an epoch's SGD steps (`polyak_update`),
    kept lazily (the rescaled form of sparse averaged SGD, Xu 2011).

    For an epoch, every averaged array a holds the scaled gap
    z = (a - cur) / r**t in its place, with t the steps taken since the gap
    was last refolded and r = 1 - (1 - decay) the contraction of one
    average step.  An average step leaves z unchanged where cur stays
    put, so a step touches only the entries its gradient blocks cover
    (`numerics.along`): cur -= delta moves z by delta / r**t, which
    folds the update and the average step into one pass over each block.
    A step first refolds (z *= r**t, t = 0) when r**-t has grown past
    `_MAX_GAP_SCALE`; `flush` turns z back into a = cur + r**t * z (for
    decay 0 after a step, a = cur).
    """

    def __init__(self, avg: AveragedParams):
        self.steps = 0
        self.ratio = 1.0 - (1.0 - avg.decay)
        self.current = dict(avg.current.arrays())
        self.gaps = dict(avg.averaged.arrays())
        for name, gap in self.gaps.items():
            gap -= self.current[name]

    def flush(self) -> None:
        """Turns every gap back into its average, as of the latest step."""
        contraction = self.ratio ** self.steps  # 0 only for decay 0, after a step
        for name, gap in self.gaps.items():
            if contraction == 0.0:
                gap[...] = self.current[name]
            else:
                gap *= contraction
                gap += self.current[name]


def polyak_update(lazy: _LazyAverage, grads: list[dict], scale: float) -> None:
    """One SGD step and one average step on `lazy`: current -= scale * each
    of `grads` in turn, on the entries its blocks cover (none if scale is
    0), then averaged <- decay * averaged + (1 - decay) * current.  The step
    owns the gradients: it scales each block in place.  A block of at least
    `numerics.PART_MIN` entries is applied on row parts (`numerics.on_rows`);
    a smaller one keeps the four passes inline, as a shallow step's blocks
    are small and many, and a call per block slowed shallow training."""
    gain = lazy.ratio ** -lazy.steps if lazy.ratio != 0.0 else 0.0  # decay 0 keeps no gap
    if gain > _MAX_GAP_SCALE:
        for gap in lazy.gaps.values():
            gap *= lazy.ratio ** lazy.steps
        lazy.steps, gain = 0, 1.0
    if scale != 0.0:
        for grad in grads:
            for name, (axis, idx, block) in grad.items():
                if block.size >= PART_MIN:
                    on_rows(partial(_apply_rows, lazy.current[name], lazy.gaps[name], axis, idx,
                                    block, scale, gain), block)
                    continue
                at = along(axis, idx)
                block *= scale
                lazy.current[name][at] -= block
                block *= gain
                lazy.gaps[name][at] += block
    lazy.steps += 1


def _apply_rows(cur: np.ndarray, gap: np.ndarray, axis: int, idx, block: np.ndarray,
                scale: float, gain: float, rows: slice) -> None:
    """`polyak_update`'s four passes over the rows `rows` of a block."""
    part = block[rows]
    part *= scale
    target, at = _block_rows(cur, axis, idx, rows)
    target[at] -= part
    part *= gain
    target, at = _block_rows(gap, axis, idx, rows)
    target[at] += part


def _block_rows(arr: np.ndarray, axis: int, idx, rows: slice) -> tuple[np.ndarray, object]:
    """An array and a subscript of it that select the rows `rows` of the
    (axis, idx) block of `arr`.  A column block (axis 1) is selected by
    flat positions in a flat view of `arr`'s memory, which is several times
    faster than `arr[rows][:, idx]`, a strided fancy index."""
    if isinstance(idx, slice):  # the whole array
        return arr, rows
    if axis == 0:
        return arr, idx[rows]
    if not arr.flags.forc:  # else ravel would copy, and the writes would be lost
        raise ValueError("a column block needs a C- or F-contiguous array")
    row_step, col_step = (stride // arr.itemsize for stride in arr.strides)
    starts = np.arange(len(arr))[rows] * row_step
    return arr.ravel(order="K"), starts[:, None] + idx * col_step


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    n_documents: int
    n_skipped: int
    wall_time: float


class _DocCache(NamedTuple):
    """A training run's documents, built once per run: the family's data of
    them (`doc_data`: the shallow family's layout of each one, the deep
    family's corpus itself), each one's labels (None in an unsupervised
    run), the weight of the generative term (1 without a class term) and
    the family's context."""

    docs: object
    labels: list
    unsup_weight: float
    context: object


def _doc_cache(corpus: Corpus, config: TrainConfig) -> _DocCache:
    family, supervised = FAMILIES[config.model_kind]
    context = family.context(build_meta(corpus, config), corpus.vocabulary)
    return _DocCache(
        family.doc_data(corpus, context),
        [corpus.row_labels(i) if supervised else None for i in range(len(corpus))],
        config.unsup_weight if supervised else 1.0,
        context,
    )


def sgd_epoch(
    corpus: Corpus,
    avg: AveragedParams,
    config: TrainConfig,
    streams: dict[str, np.random.Generator],
    cache: _DocCache,
    *,
    epoch: int = 0,
) -> EpochStats:
    """One pass over the corpus in a freshly shuffled order.

    Each mini-batch is one `batch_step` of the model's family over the run's
    document `cache` (`_doc_cache`) and `streams` (`rng.training_streams`),
    then one `polyak_update`: the gradients of the documents it kept (one
    per document for the shallow family, one summed gradient for the deep
    one) are applied in order, with the learning rate divided by the number
    of documents, to the entries their blocks cover, then the parameter
    average takes one step.  The average is kept lazily (`_LazyAverage`)
    and flushed before this function returns.  Stochastic inputs (token
    orderings, splits, dropout masks) are drawn in document order.
    """
    started = time.perf_counter()
    batch_step = FAMILIES[config.model_kind][0].batch_step
    params = avg.current
    losses = []
    skipped = 0
    lazy = _LazyAverage(avg)

    order = streams["shuffle"].permutation(len(corpus))
    try:
        for start in range(0, len(order), config.batch_size):
            batch = [int(doc_idx) for doc_idx in order[start : start + config.batch_size]]
            docs, batch_losses, grads = batch_step(batch, params, config, streams, cache)
            skipped += len(batch) - len(docs)
            if not docs:
                continue
            for doc_idx, loss in zip(docs, batch_losses):
                if not np.isfinite(loss):
                    raise TrainingDivergedError(doc_idx, loss)
                losses.append(loss)
            polyak_update(lazy, grads, config.learning_rate / len(docs))
    finally:
        lazy.flush()

    mean_loss = float(np.mean(losses)) if losses else 0.0
    return EpochStats(
        epoch=epoch,
        mean_loss=mean_loss,
        n_documents=len(losses),
        n_skipped=skipped,
        wall_time=time.perf_counter() - started,
    )


@dataclass
class TrainResult:
    params: object  # final current parameters
    averaged: object  # what inference should use
    meta: ModelMeta
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
        tree_seed=FAMILIES[config.model_kind][0].tree_seed(config.seed),
        anno_weight=config.anno_weight,
        dropout_rate=config.dropout_rate,
    )


def pretrain_config(config: TrainConfig) -> TrainConfig:
    """The pretraining stage's configuration: the unsupervised counterpart of
    the kind, which has no class head, for `pretrain_epochs` epochs.
    ValueError for an unsupervised kind, which has nothing to fine-tune."""
    if not FAMILIES[config.model_kind][1]:
        raise ValueError(f"pretraining needs a supervised model kind, not {config.model_kind!r}")
    return replace(config, model_kind=config.model_kind.removeprefix("sup"),
                   epochs=config.pretrain_epochs, head="softmax")


def training_stages(corpus: Corpus, config: TrainConfig, pretrain: Corpus | None = None,
                    checkpoint_dir=None) -> list[tuple]:
    """The (corpus, config, checkpoint dir) of each stage `train_model` runs:
    with a `pretrain` corpus, pretraining (`pretrain_config`, checkpoints in
    `checkpoint_dir/pretrain`), then the configured stage.  It makes every
    input check, so a caller can make them before it writes: ValueError for
    an invalid configuration, a pretraining corpus with another vocabulary or
    feature length, or a document without exactly one label for a softmax head."""
    config.validate()
    stages = []
    if pretrain is not None:
        stages.append((pretrain, pretrain_config(config),
                       None if checkpoint_dir is None else f"{checkpoint_dir}/pretrain"))
        if pretrain.vocabulary != corpus.vocabulary:
            raise ValueError("pretraining and fine-tuning corpora use different vocabularies")
        if pretrain.n_features != corpus.n_features:
            raise ValueError("pretraining and fine-tuning corpora disagree on feature length")
    wrong = np.flatnonzero(np.diff(corpus.label_ptr) != 1)
    if FAMILIES[config.model_kind][1] and config.head == "softmax" and len(wrong):
        raise ValueError(f"document {wrong[0]} needs exactly one label for the softmax head")
    return stages + [(corpus, config, checkpoint_dir)]


def _train_stage(stage: tuple, meta: ModelMeta, avg: AveragedParams, done: int, states,
                 log_file, write_model) -> list[EpochStats]:
    """The epochs after the `done`th of one of `training_stages`, on `avg`
    in place, from the seed's streams (restored to `states`, if given)."""
    corpus, config, checkpoint_dir = stage
    streams = training_streams(config.seed, states)
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    cache = _doc_cache(corpus, config)
    stats, final_writes = [], []
    for epoch in range(done + 1, config.epochs + 1):
        epoch_stats = sgd_epoch(corpus, avg, config, streams, cache, epoch=epoch)
        stats.append(epoch_stats)
        if log_file is not None:
            with open(log_file, "a") as fh:
                fh.write(f"{epoch}\t{epoch_stats.mean_loss:.6f}\t{epoch_stats.wall_time:.3f}\n")
        if checkpoint_dir is not None:
            write = partial(save_checkpoint, f"{checkpoint_dir}/epoch_{epoch:04d}.ckpt",
                            avg.current, avg.averaged, meta, epoch, stream_states(streams))
            if epoch < config.epochs:
                write()
            else:
                final_writes.append(write)
    if write_model is not None:
        final_writes.append(partial(write_model, avg.averaged, meta))
    call_all(final_writes)
    return stats


@one_blas_thread()
def train_model(corpus: Corpus, config: TrainConfig, *, pretrain: Corpus | None = None,
                resume=None, checkpoint_dir=None, log_file=None, write_model=None) -> TrainResult:
    """Train the `training_stages` in one loop; the result is the last one's.

    The first stage starts from `init_params`, a later one from the previous
    stage's current arrays with a fresh class head (`U` drawn from the
    stream "init_finetune", `d` zero).  `resume`, a checkpoint path,
    continues the stage whose `build_meta` is the checkpoint's meta from its
    arrays, epoch and stream states (ValueError, naming the fields that
    differ from the last stage's meta, if none is, or naming both epochs if
    the checkpoint's is past the stage's `epochs`).  Every epoch appends a
    line to `log_file` and writes a checkpoint to its stage's directory;
    `write_model(averaged, meta)` writes the model alongside the last one
    (`call_all`), and both have ended when this returns or raises."""
    stages = training_stages(corpus, config, pretrain, checkpoint_dir)
    metas = [build_meta(stage_corpus, stage_config) for stage_corpus, stage_config, _ in stages]
    first, done, states = 0, 0, None
    if resume is None:
        avg = init_averaged(init_params(metas[0], named_stream(config.seed, "init")),
                            config.averaging_decay)
    else:
        current, averaged, meta, done, states = load_checkpoint(resume)
        if meta not in metas:
            differ = [f.name for f in fields(ModelMeta)
                      if getattr(meta, f.name) != getattr(metas[-1], f.name)]
            raise ValueError(f"checkpoint does not match the requested configuration: {differ}")
        first = metas.index(meta)
        epochs = stages[first][1].epochs
        if done > epochs:
            raise ValueError(f"checkpoint is of epoch {done}, past the {epochs} epochs of its stage")
        avg = AveragedParams(current=current, averaged=averaged, decay=config.averaging_decay)
    for index in range(first, len(stages)):
        meta = metas[index]
        if index > first:
            (avg.current.U,) = glorot_arrays([(meta.n_classes, meta.hidden_sizes[-1])],
                                             named_stream(config.seed, "init_finetune"))
            avg.current.d = np.zeros(meta.n_classes)
            avg, done, states = init_averaged(avg.current, config.averaging_decay), 0, None
        stats = _train_stage(stages[index], meta, avg, done, states, log_file,
                             write_model if index == len(stages) - 1 else None)
    return TrainResult(params=avg.current, averaged=avg.averaged, meta=metas[-1], stats=stats)
