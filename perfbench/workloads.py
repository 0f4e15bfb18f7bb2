"""The four benchmark workloads: inputs, timed rounds and output checks.

Every workload is a closed loop of one client: one ``docnade`` CLI call at a
time, in this process, through ``docnade.cli.main``.  A *round* is the unit
that is timed and repeated: one ``docnade train`` call for the train
workloads; one ``docnade eval`` of each model plus a few ``docnade
retrieve`` queries against each model for ``infer-q3k``.  A round returns
one (kind, documents processed, seconds) sample per CLI call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from corpora import Vocab, World, describe, read_docs, write_corpus

# Hyperparameters shared by every shallow and every deep model.
SHALLOW_HIDDEN = (100,)
DEEP_HIDDEN = (128, 128)
DEEP_BATCH = 32
SHALLOW_FLAGS = ["--hidden", str(SHALLOW_HIDDEN[0])]
DEEP_FLAGS = [
    "--hidden", ",".join(map(str, DEEP_HIDDEN)), "--head", "sigmoid", "--dropout", "0.5",
    "--anno-weight", "12", "--batch-size", str(DEEP_BATCH),
]
VISUAL_TOKENS = 40  # per document, plus ANNOTATIONS_PER_DOC annotation words
ANNOTATIONS_PER_DOC = 5


@dataclass
class Call:
    code: object  # exit code, or "exception" when main() raised
    seconds: float
    out: str


def run_cli(main, argv: list[str]) -> Call:
    """One CLI call with its output captured; the clock covers only main()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed operation, not a crash of the run
            code = "exception"
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
    if code != 0:
        print(f"docnade {argv[0]} exited with {code}: {err.getvalue().strip()[-500:]}")
    return Call(code, seconds, out.getvalue())


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def shallow_param_count(v: Vocab, hidden: int) -> int:
    """W, c, V, b, U, d of the shallow models."""
    return hidden * v.size + hidden + (v.size - 1) * (hidden + 1) + v.n_classes * (hidden + 1)


def deep_param_count(v: Vocab, hidden: tuple[int, ...]) -> int:
    """Layer weights and biases, feature map P, output softmax and class head."""
    sizes = (v.size,) + hidden
    layers = sum(sizes[i + 1] * (sizes[i] + 1) for i in range(len(hidden)))
    heads = (v.size + v.n_classes) * (hidden[-1] + 1)
    return layers + v.n_features * hidden[0] + heads


def tree_leaves(q: int, seed: int) -> np.ndarray | None:
    """Heap-layout leaf of every word in the shallow models' tree, or None
    (reported) if the library no longer builds it this way."""
    try:
        from docnade.wordtree import build_tree

        return build_tree(q, seed).leaf_of_word
    except (ImportError, AttributeError, TypeError) as exc:
        print(f"tree layout unavailable, tree counts left at 0: {exc!r}")
        return None


def path_lengths(leaves: np.ndarray) -> np.ndarray:
    """Root-to-leaf path length: the depth of the leaf in the heap layout."""
    return np.floor(np.log2(leaves + 1)).astype(np.int64)


def path_nodes(leaves: np.ndarray) -> set[int]:
    """Internal nodes on the root paths of the given heap-layout leaves."""
    nodes = set()
    for node in leaves.tolist():
        while node:
            node = (node - 1) // 2
            if node in nodes:
                break
            nodes.add(node)
    return nodes


TRAIN_SPANS = (
    "cli.main", "corpus.parse_corpus", "trainer.train_model", "trainer.sgd_epoch",
    "trainer.polyak_update", "model_io.save_checkpoint", "model_io.save_model",
)
SHALLOW_TRAIN_SPANS = TRAIN_SPANS + ("shallow.gradients",)
DEEP_TRAIN_SPANS = TRAIN_SPANS + (
    "deep.split_histogram", "deep.prepare_histogram", "deep.deep_forward",
    "deep.generative_loss", "deep.supervised_loss", "deep.hybrid_loss_gradients",
)
INFER_SPANS = (
    "cli.main", "corpus.parse_corpus", "model_io.load_model", "wordtree.words_log_prob",
    "shallow.represent", "shallow.predict_annotations", "deep.prepare_histogram",
    "deep.deep_forward", "deep.output_log_probs", "deep.deep_represent",
    "evaluate.extract_representations", "evaluate.generate_text",
    "evaluate.cosine_retrieve", "evaluate.mean_average_precision",
    "evaluate.mean_f_measure",
)


class Workload:
    """Base: subclasses define setup(), describe_inputs(), round() and
    computed_counts(), and name the spans a traced round must fire."""

    expected_spans: tuple[str, ...] = ()

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed_ops: set[int] = set()  # numbers of the CLI calls that failed a check
        self.errors: list[str] = []
        self.corpus_stats: dict[str, dict] = {}
        self.losses: dict[str, float] = {}
        self.model_shas: dict[str, str] = {}

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, message: str) -> None:
        """Marks the latest CLI call as failed; its checks run right after it."""
        self.failed_ops.add(self.attempted)
        self.errors.append(message)

    def cli(self, main, argv: list[str]) -> Call:
        self.attempted += 1
        call = run_cli(main, argv)
        if call.code != 0:
            self.fail(f"{argv[0]} exited with {call.code}")
        return call

    def rng(self, purpose: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, purpose])

    def make_corpus(self, name: str, vocab: Vocab, world: World, rng, n_docs: int,
                    multi_label: bool) -> str:
        path = os.path.join(self.work, name)
        anno = ANNOTATIONS_PER_DOC if vocab.n_annotation else 0
        visual = VISUAL_TOKENS if anno else VISUAL_TOKENS + ANNOTATIONS_PER_DOC
        write_corpus(path, vocab, world.draw(rng, n_docs, visual, anno, multi_label))
        return path

    def train(self, main, corpus: str, model: str, flags: list[str], epochs: int,
              out: str) -> tuple[Call, str | None]:
        """One `docnade train` call; checks its loss and model determinism."""
        call = self.cli(main, [
            "train", "--corpus", corpus, "--model", model, *flags,
            "--epochs", str(epochs), "--seed", str(self.seed), "--workers", "1",
            "--out", out,
        ])
        if call.code != 0:
            return call, None
        lines = [line for line in call.out.splitlines() if line.startswith("model: ")]
        model_path = lines[-1][len("model: "):] if lines else ""
        log = os.path.join(os.path.dirname(model_path), "train.log")
        if not (os.path.isfile(model_path) and os.path.isfile(log)):
            self.fail(f"{model}: train reported no model.bin and train.log")
            return call, None
        with open(log) as fh:
            loss = float(fh.read().split()[-2])
        sha = sha256(model_path)
        if not math.isfinite(loss):
            self.fail(f"{model}: non-finite train loss {loss}")
        if self.losses.setdefault(model, loss) != loss:
            self.fail(f"{model}: train loss {loss} differs from {self.losses[model]} for one seed")
        if self.model_shas.setdefault(model, sha) != sha:
            self.fail(f"{model}: model.bin sha256 differs between runs of one seed")
        return call, model_path

    def train_loss(self) -> float:
        """Mean last-epoch loss of the models this workload trains (0 when
        every train call failed, which the failure count already shows)."""
        return float(np.mean(list(self.losses.values()))) if self.losses else 0.0


class TrainWorkload(Workload):
    """Timed `docnade train` calls on one generated corpus."""

    def __init__(self, work, seed, *, vocab, n_docs, model, flags, epochs, batch_size,
                 multi_label, hidden):
        super().__init__(work, seed)
        self.vocab, self.n_docs, self.model = vocab, n_docs, model
        self.flags, self.epochs, self.batch_size = flags, epochs, batch_size
        self.multi_label, self.hidden = multi_label, hidden
        self.out = os.path.join(work, "runs")
        self.deep = model.endswith("deepdocnade")
        self.expected_spans = DEEP_TRAIN_SPANS if self.deep else SHALLOW_TRAIN_SPANS

    def setup(self, main) -> None:
        world_rng = self.rng(0)
        self.corpus = self.make_corpus(
            "train.txt", self.vocab, World(self.vocab, world_rng), world_rng,
            self.n_docs, self.multi_label,
        )

    def round(self, main) -> list[tuple[str, int, float]]:
        call, model_path = self.train(main, self.corpus, self.model, self.flags, self.epochs,
                                      self.out)
        if model_path and self.uniform_loss is not None:
            loss = self.losses[self.model]
            if not loss < self.uniform_loss:
                self.fail(f"train loss {loss} is not below the uniform-predictor "
                          f"loss {self.uniform_loss}")
        return [("train", self.n_docs * self.epochs, call.seconds)]

    def describe_inputs(self) -> None:
        stats = self.corpus_stats["train"] = describe(self.corpus, self.vocab)
        self.uniform_loss = None
        if not self.deep:
            # every conditional uniform over Q words, and the class head over C
            self.uniform_loss = stats["mean_tokens"] * math.log(self.vocab.size)
            if self.model == "supdocnade":
                self.uniform_loss += math.log(self.vocab.n_classes)

    def computed_counts(self) -> dict[str, float]:
        docs = read_docs(self.corpus)
        q = self.vocab.size
        counts = {}
        if self.deep:
            params = deep_param_count(self.vocab, self.hidden)
            counts["deep.input_density"] = float(np.mean([len(c) for _, c in docs])) / q
            counts["deep.softmax_entries"] = q * len(docs) * self.epochs
        else:
            params = shallow_param_count(self.vocab, self.hidden[0])
            counts["shallow.tokens"] = sum(sum(c.values()) for _, c in docs) * self.epochs
            leaves = tree_leaves(q, self.seed)
            if leaves is not None:
                lengths = path_lengths(leaves)
                counts["wordtree.path_entries"] = self.epochs * sum(
                    int(lengths[i]) * n for _, c in docs for i, n in c.items()
                )
                useful = [len(c) + len(path_nodes(leaves[list(c)])) for _, c in docs]
                counts["shallow.grad_density"] = float(np.mean(useful)) / (2 * q - 1)
        # one dense gradient per document, then the dense SGD apply and average
        counts["trainer.dense_bytes_per_update"] = 8 * params * (self.batch_size + 2)
        counts["model_io.save_checkpoint.bytes"] = 16 * params * self.epochs
        counts["model_io.save_model.bytes"] = 8 * params
        return counts


class InferWorkload(Workload):
    """Read-only use of two trained models: eval of each, then retrieve queries."""

    N_TRAIN = 200
    N_EVAL = 500
    QUERIES = 2  # retrieve calls per model per round
    expected_spans = INFER_SPANS

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.shallow_vocab = Vocab(240, 4, 2000, 8)
        self.deep_vocab = Vocab(240, 4, 2000, 8, 64)
        self.query_rng = self.rng(9)

    def setup(self, main) -> None:
        self.corpora, self.models = {}, {}
        for family, vocab, model, flags, multi in (
            ("shallow", self.shallow_vocab, "supdocnade", SHALLOW_FLAGS, False),
            ("deep", self.deep_vocab, "supdeepdocnade", DEEP_FLAGS, True),
        ):
            world_rng = self.rng(1 if family == "shallow" else 2)
            world = World(vocab, world_rng)
            train = self.make_corpus(f"{family}-train.txt", vocab, world, world_rng,
                                     self.N_TRAIN, multi)
            self.corpora[family] = self.make_corpus(f"{family}-eval.txt", vocab, world,
                                                    world_rng, self.N_EVAL, multi)
            _, self.models[family] = self.train(main, train, model, flags, 1,
                                                os.path.join(self.work, "runs"))

    def describe_inputs(self) -> None:
        for family, vocab in (("shallow", self.shallow_vocab), ("deep", self.deep_vocab)):
            self.corpus_stats[f"{family}-eval"] = describe(self.corpora[family], vocab)

    def evaluate(self, main, family: str) -> float:
        report = os.path.join(self.work, f"{family}-report.jsonl")
        call = self.cli(main, ["eval", "--model", self.models[family],
                               "--corpus", self.corpora[family], "--out", report])
        if call.code == 0:
            with open(report) as fh:
                values = {r["metric"]: r["value"] for r in map(json.loads, fh)}
            wanted = ("accuracy" if family == "shallow" else "map", "f_measure_top5")
            for name in wanted:
                value = values.get(name)
                if value is None or not (math.isfinite(value) and 0.0 <= value <= 1.0):
                    self.fail(f"{family} eval: {name} = {value} is not in [0, 1]")
        return call.seconds

    def retrieve(self, main, family: str, query: int) -> float:
        hits = os.path.join(self.work, f"{family}-hits.jsonl")
        call = self.cli(main, ["retrieve", "--model", self.models[family],
                               "--corpus", self.corpora[family], "--query", str(query),
                               "--k", "5", "--out", hits])
        if call.code == 0:
            with open(hits) as fh:
                top = json.loads(fh.readline())
            if top["doc"] != query or abs(top["score"] - 1.0) > 1e-9:
                self.fail(f"{family} retrieve: query {query} top hit is {top}")
        return call.seconds

    def round(self, main) -> list[tuple[str, int, float]]:
        if not self.models.get("shallow") or not self.models.get("deep"):
            return []
        # every call reads and represents the whole held-out corpus
        samples = [(f"eval-{family}", self.N_EVAL, self.evaluate(main, family))
                   for family in ("shallow", "deep")]
        for family in ("shallow", "deep"):
            for query in self.query_rng.choice(self.N_EVAL, self.QUERIES, replace=False):
                samples.append((f"retrieve-{family}", self.N_EVAL,
                                self.retrieve(main, family, int(query))))
        return samples

    def computed_counts(self) -> dict[str, float]:
        counts = {}
        deep_docs = read_docs(self.corpora["deep"])
        q = self.deep_vocab.size
        counts["deep.input_density"] = float(np.mean([len(c) for _, c in deep_docs])) / q
        # eval ranks annotations with one output softmax per document
        counts["deep.softmax_entries"] = q * len(deep_docs)
        leaves = tree_leaves(self.shallow_vocab.size, self.seed)
        if leaves is not None:
            # eval scores every annotation word's path for every document
            anno = path_lengths(leaves[self.shallow_vocab.visual_size:])
            counts["wordtree.path_entries"] = self.N_EVAL * int(anno.sum())
        return counts


def make(name: str, work: str, seed: int) -> Workload:
    # The dense-update shallow workload runs at Q = 2960, not 20,000: at Q = 20,000
    # its ~100 MB of dense per-document updates are bound by memory bandwidth, and
    # on a shared 2-core host that drifted by about 20% over minutes, as wide as the
    # 25% bound.  At Q = 2960 the dense apply and average are still about 44% of
    # a call and the drift about half as wide.
    if name == "train-shallow-q3k":
        return TrainWorkload(work, seed, vocab=Vocab(240, 4, 2000, 8), n_docs=100,
                             model="supdocnade", flags=SHALLOW_FLAGS, epochs=2, batch_size=1,
                             multi_label=False, hidden=SHALLOW_HIDDEN)
    if name == "train-shallow-q240":
        return TrainWorkload(work, seed, vocab=Vocab(60, 4, 0, 8), n_docs=400,
                             model="docnade", flags=SHALLOW_FLAGS, epochs=2, batch_size=1,
                             multi_label=False, hidden=SHALLOW_HIDDEN)
    if name == "train-deep-q20k":
        return TrainWorkload(work, seed, vocab=Vocab(1000, 16, 4000, 8, 64), n_docs=32,
                             model="supdeepdocnade", flags=DEEP_FLAGS, epochs=1,
                             batch_size=DEEP_BATCH, multi_label=True, hidden=DEEP_HIDDEN)
    if name == "infer-q3k":
        return InferWorkload(work, seed)
    raise ValueError(f"unknown workload {name!r}")
