"""The benchmark's span tracer (perfbench/spans.py) patches library
functions by module and attribute name; a rename there would silently drop
a span from the per-layer trace.  This keeps every wrap point resolvable,
and checks that training runs through the traced names."""

import importlib
import types
from pathlib import Path

import pytest

from docnade.cli import main
from gen import make_corpus, write_corpus

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    """spans.py executed from its source, so no bytecode is written next to it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_wrap_point_resolves():
    wrap_points = _load_spans().WRAP_POINTS
    assert wrap_points
    missing = [
        f"{module_name}.{attr}"
        for _, module_name, attr in wrap_points
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("kind,pretrain_epochs", [
    ("docnade", 0), ("supdocnade", 0), ("supdeepdocnade", 0), ("supdocnade", 3),
], ids=["docnade", "supdocnade", "supdeepdocnade", "supdocnade-pretrained"])
def test_training_fires_the_training_spans(tmp_path, kind, pretrain_epochs):
    """One CLI train: the entry span fires once, also for a run with a
    pretraining stage; the shallow gradient span once per document stepped,
    the apply-and-average span once per mini-batch, the epoch and checkpoint
    spans once per epoch of either stage and the model span once, though the
    last checkpoint and the model are written on two threads."""
    dims = dict(n_classes=2, n_visual=4, n_regions=2, anno_per_class=2, docs_per_class=4,
                doc_len=10)
    corpus, _ = make_corpus(3, **dims)
    path = tmp_path / "train.corpus"
    write_corpus(corpus, path)
    pretrain = []
    if pretrain_epochs:
        write_corpus(make_corpus(4, **dims, labeled=False)[0], tmp_path / "unlabelled.corpus")
        pretrain = ["--pretrain-corpus", str(tmp_path / "unlabelled.corpus"),
                    "--pretrain-epochs", str(pretrain_epochs)]
    epochs, batch = 2, 3
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert main(["train", "--corpus", str(path), "--out", str(tmp_path / "runs"),
                     "--model", kind, "--hidden", "4", "--epochs", str(epochs),
                     "--batch-size", str(batch), "--seed", "1", *pretrain]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    n_docs, all_epochs = len(corpus), pretrain_epochs + epochs  # the same size both stages
    assert tracer.calls["trainer.train_model"] == 1
    assert tracer.calls["trainer.sgd_epoch"] == all_epochs
    assert tracer.calls["trainer.polyak_update"] == all_epochs * -(-n_docs // batch)
    stepped = 0 if kind.endswith("deepdocnade") else all_epochs * n_docs
    assert tracer.calls["shallow.gradients"] == stepped
    assert tracer.calls["model_io.save_checkpoint"] == all_epochs
    assert tracer.calls["model_io.save_model"] == 1
