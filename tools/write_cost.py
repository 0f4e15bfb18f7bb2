"""The cost of a training call's two final writes, measured round by round.

Writes the last checkpoint and `model.bin` of a supdeepdocnade model at the
`train-deep-q20k` shape (Q = 1000 * 16 + 4000 = 20000, 8 classes, 64
features, hidden 128,128: 82.7 MB per checkpoint and 41.3 MB per model
file) the way `train_model` writes them, both through `call_all`,
into the same two paths for --rounds rounds, as a rerun into one run dir
does.  It prints the median, first and third quartile of the milliseconds
per round and, where `/proc/self/io` is readable, the bytes per round this
process caused to be written to the storage device (`write_bytes`) and
cancelled before they were (`cancelled_write_bytes`).

    python tools/write_cost.py                    # 10 rounds in a new dir under .
    python tools/write_cost.py --rounds 20 --dir /some/dir/on/the/run/filesystem

The files go to a new temporary directory under --dir (by default the
current directory, so that they are on the file system the runs are),
removed afterwards.  It imports docnade from the `src/` of the checkout it
sits in, so a copy of another commit measures that commit's writer.  Needs
numpy; no other package.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile
import time
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from docnade.model_io import ModelMeta, save_checkpoint, save_model  # noqa: E402
from docnade.numerics import call_all  # noqa: E402
from docnade.rng import named_stream, stream_states, training_streams  # noqa: E402
from docnade.trainer import init_params  # noqa: E402

IO_FIELDS = ("write_bytes", "cancelled_write_bytes")


def io_counters() -> dict | None:
    """This process's storage write counters, or None where unreadable."""
    try:
        with open("/proc/self/io") as fh:
            lines = dict(line.split(": ") for line in fh.read().splitlines())
        return {name: int(lines[name]) for name in IO_FIELDS}
    except (OSError, KeyError, ValueError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--dir", default=".", help="where the temporary directory is made")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    meta = ModelMeta(kind="supdeepdocnade", head="sigmoid", n_visual=1000, n_regions=16,
                     n_annotation=4000, n_classes=8, n_features=64, hidden_sizes=(128, 128),
                     anno_weight=12.0, dropout_rate=0.5)
    params = init_params(meta, named_stream(0, "init"))
    averaged = params.copy()
    states = stream_states(training_streams(0))

    work = tempfile.mkdtemp(prefix="write-cost-", dir=args.dir)
    try:
        ckpt, model = os.path.join(work, "epoch_0001.ckpt"), os.path.join(work, "model.bin")
        writes = [partial(save_checkpoint, ckpt, params, averaged, meta, 1, states),
                  partial(save_model, model, averaged, meta)]
        call_all(writes)  # untimed: the first round makes the files a rerun finds
        before, times = io_counters(), []
        for _ in range(args.rounds):
            start = time.perf_counter()
            call_all(writes)
            times.append(1e3 * (time.perf_counter() - start))
        after = io_counters()
        sizes = os.path.getsize(ckpt) + os.path.getsize(model)
    finally:
        shutil.rmtree(work)

    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    print(f"rounds: {args.rounds}, bytes per round: {sizes / 1e6:.1f} MB")
    print(f"ms per round: median {median:.1f}, quartiles {q1:.1f} to {q3:.1f}")
    if before is None or after is None:
        print("/proc/self/io: not readable")
    else:
        for name in IO_FIELDS:
            print(f"{name} per round: {(after[name] - before[name]) / args.rounds / 1e6:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
