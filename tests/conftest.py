import numpy as np
import pytest

from docnade import deep as deep_mod
from docnade import shallow as shallow_mod
from docnade.model_io import ModelMeta
from docnade.numerics import Params
from docnade.trainer import init_params
from docnade.wordtree import build_tree


def random_shallow_params(rng, vocab_size, hidden, n_classes, scale=1.0):
    return Params(dict(
        W=rng.uniform(-scale, scale, (hidden, vocab_size)),
        c=rng.uniform(-scale, scale, hidden),
        V=rng.uniform(-scale, scale, (vocab_size - 1, hidden)),
        b=rng.uniform(-scale, scale, vocab_size - 1),
        U=rng.uniform(-scale, scale, (n_classes, hidden)),
        d=rng.uniform(-scale, scale, n_classes),
    ))


def zero_shallow_params(vocab_size, hidden, n_classes):
    return Params(dict(
        W=np.zeros((hidden, vocab_size)),
        c=np.zeros(hidden),
        V=np.zeros((vocab_size - 1, hidden)),
        b=np.zeros(vocab_size - 1),
        U=np.zeros((n_classes, hidden)),
        d=np.zeros(n_classes),
    ))


def random_deep_params(rng, vocab_size, hidden_sizes, n_classes, n_features=0, scale=1.0):
    arrays = {}
    prev = vocab_size
    for n, h in enumerate(hidden_sizes, start=1):
        arrays[f"W{n}"] = rng.uniform(-scale, scale, (h, prev))
        arrays[f"c{n}"] = rng.uniform(-scale, scale, h)
        prev = h
    if n_features:
        arrays["P"] = rng.uniform(-scale, scale, (n_features, hidden_sizes[0]))
    arrays["V_out"] = rng.uniform(-scale, scale, (vocab_size, hidden_sizes[-1]))
    arrays["b_out"] = rng.uniform(-scale, scale, vocab_size)
    arrays["U"] = rng.uniform(-scale, scale, (n_classes, hidden_sizes[-1]))
    arrays["d"] = rng.uniform(-scale, scale, n_classes)
    return Params(arrays)


def zero_deep_params(vocab_size, hidden_sizes, n_classes, n_features=0):
    return Params({name: np.zeros(shape) for name, shape in deep_mod.array_shapes(
        sized_meta(vocab_size, n_classes, n_features, hidden_sizes, kind="deepdocnade"))})


def sized_meta(vocab_size, n_classes, n_features, hidden_sizes, kind="docnade", head="softmax"):
    """The meta of a model of these sizes, on a vocabulary of `vocab_size`
    visual words in one region (its tree seed is the shallow family's 0)."""
    deep = kind.endswith("deepdocnade")
    return ModelMeta(kind=kind, head=head, n_visual=vocab_size, n_regions=1, n_annotation=0,
                     n_classes=n_classes, n_features=n_features,
                     hidden_sizes=tuple(hidden_sizes), tree_seed=None if deep else 0)


def init_sized(vocab_size, n_classes, n_features, config, rng):
    """`trainer.init_params` of the configured model of these sizes."""
    meta = sized_meta(vocab_size, n_classes, n_features, config.hidden_sizes,
                      kind=config.model_kind, head=config.head)
    return init_params(meta, rng)


def shallow_instance_off_kink(rng, vocab_size, hidden, n_classes, doc_len, margin=1e-3):
    """Random (tree, params, tokens) whose relu pre-activations avoid the kink."""
    tree = build_tree(vocab_size, int(rng.integers(10_000)))
    while True:
        params = random_shallow_params(rng, vocab_size, hidden, n_classes)
        tokens = rng.integers(0, vocab_size, doc_len)
        pre = shallow_mod._preactivations(tokens, params)
        if np.abs(pre).min() > margin:
            return tree, params, tokens


def fd_gradient(loss_fn, arr, step=1e-4):
    """Central finite differences of loss_fn w.r.t. every entry of arr."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        plus = loss_fn()
        arr[idx] = orig - step
        minus = loss_fn()
        arr[idx] = orig
        grad[idx] = (plus - minus) / (2 * step)
    return grad


def max_rel_error(analytic, numeric, floor=1e-3):
    """Worst relative error with an absolute floor guarding tiny entries."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
