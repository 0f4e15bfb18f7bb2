"""Same behaviour, measured: fifteen fixed-seed CLI manifests and a grid search, hashed.

Writes the corpora of fifteen fixed-seed training manifests once (from
`tests/gen.py` and `perfbench/corpora.py`), one of them at every default but
the model and the epoch count, trains each manifest through the `docnade`
CLI, then runs `eval --orderings 3 --eval-seed 2`, `annotate --k 3`,
`retrieve --query 2 --k 5` and `inspect --class-index 0` on its model, and
on a supervised model `eval --curves`, whose every PR curve file it hashes.
Last it runs one `grid` search over two learning rates and hashes its output
and `best_manifest.json`.  It records the sha256 of every file a run writes
(the loss columns of `train.log`, whose third column is a wall time) and of
every call's output and exit code, with the numpy version and BLAS build
that ran them.

With `--against COMMIT`, it repeats every call from an extracted copy of
that commit (`git archive`) on the same corpus files, and prints per item
whether it is identical.  For a model file or checkpoint that differs, it
prints each array's largest relative difference, max |a - b| / max |a|,
read with the small container reader below.  A call that fails on either
side is reported, not raised, and a manifest that does not train on either
side counts as a difference.

    python tools/same_behaviour.py                      # hashes of this tree
    python tools/same_behaviour.py --against HEAD^      # this tree vs HEAD^
    python tools/same_behaviour.py --at 5db6f24 --against 97ef3e7

The report is a Markdown table on stdout; corpora and runs go to a
temporary directory, removed afterwards.  Exit status: 0 when every
manifest trained and every item is identical (or nothing was compared),
1 otherwise, 2 when a commit cannot be extracted or would import docnade
from outside its own tree.  Every call runs with one BLAS thread.  Needs
numpy, git and the repository's `src/`, `tests/` and `perfbench/`; no
other package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import struct
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 3 epochs, seed 3, lr 0.05, avg-decay 0.9 for every manifest but DEFAULTS
COMMON = ["--epochs", "3", "--seed", "3", "--lr", "0.05", "--avg-decay", "0.9"]

# name -> (corpus, train flags, to which `run_side` appends COMMON); the
# corpora are written by `write_corpora`, and a `.records` corpus is read as
# record-lines
PRETRAIN = ["--pretrain-corpus", "unlabelled.txt", "--pretrain-epochs", "2"]
MANIFESTS = {
    "docnade": ("gen.txt", ["--model", "docnade", "--hidden", "6"]),
    "supdocnade-records": ("gen.records", ["--model", "supdocnade", "--hidden", "6",
                                           "--lambda", "0.5", "--batch-size", "3"]),
    "deepdocnade": ("gen.txt", ["--model", "deepdocnade", "--hidden", "8,6",
                                "--batch-size", "4", "--dropout", "0.3"]),
    "supdeepdocnade": ("gen.txt", ["--model", "supdeepdocnade", "--hidden", "8,6",
                                   "--anno-weight", "3", "--lambda", "0.7"]),
    "supdeepdocnade-sigmoid": ("gen-multi.txt", ["--model", "supdeepdocnade", "--hidden", "8,6",
                                                 "--head", "sigmoid", "--dropout", "0.3",
                                                 "--anno-weight", "2", "--batch-size", "5"]),
    "supdeepdocnade-pretrained": ("gen.txt", ["--model", "supdeepdocnade", "--hidden", "8",
                                              "--dropout", "0.2", *PRETRAIN]),
    "supdocnade-pretrained": ("gen.txt", ["--model", "supdocnade", "--hidden", "6", *PRETRAIN]),
    # a pretraining stage of no epochs: fine-tuning starts from the unsupervised init
    "supdocnade-pretrain0": ("gen.txt", ["--model", "supdocnade", "--hidden", "6",
                                         "--pretrain-corpus", "unlabelled.txt",
                                         "--pretrain-epochs", "0"]),
    "docnade-q2960": ("q2960.txt", ["--model", "docnade", "--hidden", "100"]),
    "supdocnade-q2960": ("q2960.txt", ["--model", "supdocnade", "--hidden", "100",
                                       "--lambda", "0.5"]),
    # the only manifest whose arrays (V_out: 379k entries) reach the deep
    # step's row parts (`numerics.on_rows`)
    "supdeepdocnade-q2960": ("q2960.txt", ["--model", "supdeepdocnade", "--hidden", "128,128",
                                           "--batch-size", "32", "--dropout", "0.5",
                                           "--anno-weight", "12"]),
    # the perplexity estimate on row parts with non-integer weighted targets:
    # `eval --orderings 3` scores chunks of 63 rows x 2,960 words
    "deepdocnade-q2960": ("q2960.txt", ["--model", "deepdocnade", "--hidden", "32,32",
                                        "--batch-size", "16", "--dropout", "0.3",
                                        "--anno-weight", "0.3"]),
    # documents of 150 tokens, three blocks of the shallow step, which
    # compacts each block's words and tree nodes (`shallow._compact`)
    "docnade-long": ("long.txt", ["--model", "docnade", "--hidden", "20"]),
    "supdocnade-long": ("long.txt", ["--model", "supdocnade", "--hidden", "20",
                                     "--lambda", "0.5"]),
}
# the one manifest that trains at the parser's defaults (`TrainConfig`'s) of
# every flag but the model and the epoch count
DEFAULTS = {"supdocnade-defaults": ("gen.txt", ["--model", "supdocnade", "--epochs", "2"])}

# the flags of one grid search over the lr values of `grid.json`, on gen.txt
GRID = ["--model", "supdocnade", "--hidden", "6", *COMMON]

CALLS = {
    "eval": ["eval", "--orderings", "3", "--eval-seed", "2"],
    "annotate": ["annotate", "--k", "3"],
    "retrieve": ["retrieve", "--query", "2", "--k", "5"],
    "inspect": ["inspect", "--class-index", "0"],
}


def write_corpora(directory: str) -> None:
    """The manifests' corpora: 24 labelled documents at Q = 20 with 3
    features (text-sparse, a record-lines copy and a copy whose every other
    document has a second label), 24 unlabelled ones for pretraining,
    100 `perfbench/corpora.py` documents of 45 tokens at Q = 2,960 and 40
    of 150 tokens; and the grid file."""
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench")]
    import corpora
    from gen import make_corpus, write_corpus
    from oracles import Document, corpus_of, documents

    dims = dict(n_classes=4, n_visual=4, n_regions=3, anno_per_class=2, docs_per_class=6,
                doc_len=10, n_features=3)
    corpus, _ = make_corpus(3, **dims)
    write_corpus(corpus, os.path.join(directory, "gen.txt"))
    write_corpus(corpus, os.path.join(directory, "gen.records"), "record-lines")
    multi = [Document(doc.counts, doc.labels | {(min(doc.labels) + 1) % 4} if i % 2 else
                      doc.labels, doc.features) for i, doc in enumerate(documents(corpus))]
    write_corpus(corpus_of(corpus.vocabulary, multi, 4, 3),
                 os.path.join(directory, "gen-multi.txt"))
    write_corpus(make_corpus(4, **dims, labeled=False)[0],
                 os.path.join(directory, "unlabelled.txt"))
    vocab, rng = corpora.Vocab(240, 4, 2000, 8), np.random.default_rng(5)
    lines = corpora.World(vocab, rng).draw(rng, 100, 40, 5, False)
    corpora.write_corpus(os.path.join(directory, "q2960.txt"), vocab, lines)
    rng = np.random.default_rng(6)
    lines = corpora.World(vocab, rng).draw(rng, 40, 145, 5, False)
    corpora.write_corpus(os.path.join(directory, "long.txt"), vocab, lines)
    with open(os.path.join(directory, "grid.json"), "w") as fh:
        json.dump({"lr": [0.01, 0.05]}, fh)


def read_arrays(path: str) -> dict[str, np.ndarray]:
    """The arrays of a model container by manifest name; a checkpoint's
    second block (the average) as 'avg.<name>'."""
    with open(path, "rb") as fh:
        data = fh.read()
    (length,) = struct.unpack_from("<Q", data, 12)  # after the magic and the version
    header = json.loads(data[20 : 20 + length])
    arrays, pos = {}, 20 + length
    for prefix in ["", "avg."][: 2 if "state" in header else 1]:
        pos += 8  # the block's length
        for name, shape in header["manifest"]:
            n = int(np.prod(shape, dtype=np.int64))
            arrays[prefix + name] = np.frombuffer(data, "<f8", n, pos).reshape(shape)
            pos += 8 * n
    return arrays


def array_differences(a: str, b: str) -> str:
    """Each differing array's largest relative difference, worst first."""
    try:
        mine, theirs = read_arrays(a), read_arrays(b)
    except (ValueError, KeyError, IndexError, TypeError, struct.error) as exc:
        return f"unreadable container: {exc}"
    notes = []
    for name in sorted(mine.keys() | theirs.keys()):
        x, y = mine.get(name), theirs.get(name)
        if x is None or y is None or x.shape != y.shape:
            notes.append((np.inf, f"{name} shape {getattr(x, 'shape', None)} vs "
                                  f"{getattr(y, 'shape', None)}"))
        elif not np.array_equal(x, y):
            scale = np.abs(x).max() or 1.0
            rel = float(np.abs(x - y).max() / scale)
            notes.append((rel, f"{name} {rel:.2g}"))
    return ", ".join(note for _, note in sorted(notes, reverse=True)) or "arrays equal"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment(tree: str) -> dict:
    return {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def imported_from(tree: str) -> str:
    """The directory the package is imported from when running `tree`,
    which an installed copy of docnade could otherwise shadow."""
    done = subprocess.run([sys.executable, "-c", "import docnade; print(docnade.__file__)"],
                          env=environment(tree), capture_output=True, text=True)
    return os.path.dirname(done.stdout.strip()) if done.returncode == 0 else done.stderr.strip()


def run_cli(tree: str, cwd: str, argv: list[str]) -> dict:
    try:
        done = subprocess.run([sys.executable, "-m", "docnade.cli", *argv], cwd=cwd,
                              env=environment(tree), capture_output=True, timeout=600)
    except subprocess.TimeoutExpired:
        return {"exit": "timeout", "stdout": "", "stderr": ""}
    return {"exit": done.returncode, "stdout": sha256(done.stdout),
            "stderr": sha256(done.stderr)}


def run_side(tree: str, work: str, corpora_dir: str) -> dict[str, dict]:
    """Every manifest's items on the source tree `tree`, each manifest run
    in its own directory under `work` with relative paths, so that both
    sides print the same paths: {item: record}, a record holding sha256
    values and exit codes, a file's path as 'path', and 'failed' on a
    manifest that did not train."""
    items = {}
    manifests = {**{name: (corpus, [*flags, *COMMON])
                    for name, (corpus, flags) in MANIFESTS.items()}, **DEFAULTS}
    for name, (corpus, flags) in manifests.items():
        cwd = os.path.join(work, name)
        os.makedirs(cwd)
        corpus_args = ["--corpus", os.path.join(corpora_dir, corpus)]
        if corpus.endswith(".records"):
            corpus_args += ["--format", "record-lines"]
        flags = [os.path.join(corpora_dir, f) if f == PRETRAIN[1] else f for f in flags]
        train = items[f"{name} train"] = run_cli(tree, cwd, ["train", *corpus_args, *flags,
                                                             "--out", "runs"])
        runs = os.path.join(cwd, "runs")
        found = os.listdir(runs) if os.path.isdir(runs) else []
        if train["exit"] != 0 or len(found) != 1:
            train["failed"] = f"exit {train['exit']}, {len(found)} run directories"
            continue
        run = os.path.join("runs", found[0])
        for base, _, files in sorted(os.walk(os.path.join(cwd, run))):
            for file in sorted(files):
                path = os.path.join(base, file)
                rel = os.path.relpath(path, os.path.join(cwd, run))
                with open(path, "rb") as fh:
                    data = fh.read()
                if file == "train.log":  # epoch and loss; the third column is a wall time
                    data = b"\n".join(b"\t".join(line.split(b"\t")[:2])
                                      for line in data.splitlines())
                    rel = "train.log losses"
                items[f"{name} {rel}"] = {"sha256": sha256(data), "path": path}
        model = ["--model", os.path.join(run, "model.bin")]
        for call, argv in CALLS.items():
            items[f"{name} {call}"] = run_cli(tree, cwd, [*argv, *model, *(
                [] if call == "inspect" else corpus_args)])
        if flags[flags.index("--model") + 1].startswith("sup"):
            items[f"{name} eval --curves"] = run_cli(
                tree, cwd, [*CALLS["eval"], *model, *corpus_args, "--curves", "curves"])
            curves = os.path.join(cwd, "curves")
            for file in sorted(os.listdir(curves)) if os.path.isdir(curves) else []:
                with open(os.path.join(curves, file), "rb") as fh:
                    items[f"{name} curves/{file}"] = {"sha256": sha256(fh.read())}
    cwd = os.path.join(work, "grid")
    os.makedirs(cwd)
    gen = os.path.join(corpora_dir, "gen.txt")
    grid = items["grid"] = run_cli(tree, cwd, [
        "grid", "--grid", os.path.join(corpora_dir, "grid.json"), "--corpus", gen, "--val", gen,
        *GRID, "--out", "out"])
    best = os.path.join(cwd, "out", "best_manifest.json")
    if grid["exit"] != 0 or not os.path.exists(best):
        grid["failed"] = f"exit {grid['exit']}, no best_manifest.json"
    else:
        with open(best, "rb") as fh:
            items["grid best_manifest.json"] = {"sha256": sha256(fh.read()), "path": best}
    return items


def numeric_environment() -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "machine": platform.machine(), "blas_threads": 1}


def extract(commit: str, directory: str) -> str:
    """The source tree of `commit`, from `git archive` (which, unlike a
    worktree, leaves nothing in the repository); returns its path."""
    os.makedirs(directory)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", directory], input=archive, check=True)
    return directory


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="commit to compare with")
    parser.add_argument("--at", help="commit to run instead of this working tree")
    args = parser.parse_args(argv)

    work = tempfile.mkdtemp(prefix="same-behaviour-")
    try:
        commits = {"tree": args.at, **({"against": args.against} if args.against else {})}
        trees = {}
        for label, commit in commits.items():
            try:
                trees[label] = (ROOT if commit is None
                                else extract(commit, os.path.join(work, label + "-src")))
            except subprocess.CalledProcessError as exc:
                print(f"error: cannot extract {commit}: {exc.stderr.decode().strip()}",
                      file=sys.stderr)
                return 2
            source = imported_from(trees[label])
            if source != os.path.join(trees[label], "src", "docnade"):
                print(f"error: {commit or 'the working tree'} imports docnade from {source}",
                      file=sys.stderr)
                return 2
        corpora_dir = os.path.join(work, "corpora")
        os.makedirs(corpora_dir)
        write_corpora(corpora_dir)
        sides = {label: run_side(tree, os.path.join(work, label), corpora_dir)
                 for label, tree in trees.items()}
        return report({"environment": numeric_environment(), "at": args.at or "working tree",
                       "against": args.against, "sides": sides})
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _value(entry: dict | None) -> dict | None:
    return None if entry is None else {k: v for k, v in entry.items() if k != "path"}


def report(record: dict) -> int:
    env, sides = record["environment"], record["sides"]
    print(f"### Same behaviour: {record['at']} against {record['against'] or '(nothing)'}\n")
    print(f"python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']} "
          f"({env['machine']}, one BLAS thread)\n")
    mine, theirs = sides["tree"], sides.get("against")
    if theirs is None:
        print("| item | sha256 or exit code |\n|---|---|")
        for item, entry in mine.items():
            print(f"| {item} | {json.dumps(_value(entry))} |")
        return 1 if any("failed" in entry for entry in mine.values()) else 0
    print("| item | result |\n|---|---|")
    n_same = 0
    for item in list(dict.fromkeys([*mine, *theirs])):
        a, b = mine.get(item), theirs.get(item)
        failed = [side for side, entry in (("the tree", a), ("the other commit", b))
                  if entry is not None and "failed" in entry]
        if failed:
            result = (f"did not train on {' and '.join(failed)}: "
                      f"{json.dumps(_value(a))} vs {json.dumps(_value(b))}")
        elif _value(a) == _value(b):
            n_same += 1
            result = "identical"
        elif a is None or b is None:
            result = f"only in {'the tree' if b is None else 'the other commit'}"
        elif "path" in a and "path" in b and item.endswith((".bin", ".ckpt")):
            result = f"different: {array_differences(a['path'], b['path'])}"
        else:
            result = f"different: {json.dumps(_value(a))} vs {json.dumps(_value(b))}"
        print(f"| {item} | {result} |")
    total = len(set(mine) | set(theirs))
    print(f"\n{n_same} of {total} items identical.")
    return 0 if n_same == total else 1


if __name__ == "__main__":
    sys.exit(main())
