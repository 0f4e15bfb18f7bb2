"""docnade benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-shallow-q3k --seed 1 --seconds 20 --trace 0

It generates the workload's corpora from --seed, drives ``docnade.cli.main``
in this process for --seconds of timed rounds (after one untimed warm-up
round), checks every output, prints the metrics with their units and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 splits
--seconds into an untraced window and a window with the library's layers
wrapped (see spans.py), so it takes as long as an untraced run.  It reports
the per-layer metrics: self time and calls per round of every span, exact
counts computed from the inputs and the parameter shapes, and the tracing
overhead.  Spans are written to
perfbench/.out/trace-<workload>-seed<seed>.json.
"""

import os
import sys

# Fixed before numpy loads: OpenBLAS otherwise picks its own thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

WORKLOADS = ("train-shallow-q3k", "train-shallow-q240", "train-deep-q20k", "infer-q3k")
# setup runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS have
# passed, so that a millisecond setup still gives a steady median
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 200
MIN_ROUNDS = 3
MAX_WINDOW_FACTOR = 4  # a window stops after this many --seconds even below MIN_ROUNDS

# Exact counts computed from the generated inputs and the parameter shapes
# (workloads.py); 0 where a workload does not run that layer.
COMPUTED_UNITS = {
    "shallow.tokens": "count",
    "shallow.grad_density": "ratio",
    "wordtree.path_entries": "count",
    "deep.input_density": "ratio",
    "deep.softmax_entries": "count",
    "trainer.dense_bytes_per_update": "bytes",
    "model_io.save_checkpoint.bytes": "bytes",
    "model_io.save_model.bytes": "bytes",
}


def import_cli():
    """docnade.cli from this checkout's src/; exits nonzero, printing no
    result, if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import docnade
        import docnade.cli
    except ImportError as exc:
        sys.exit(f"cannot import docnade from {SRC}: {exc}")
    if not os.path.abspath(docnade.__file__).startswith(SRC + os.sep):
        sys.exit(f"docnade was imported from {docnade.__file__}, not from {SRC}")
    return docnade.cli


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def measure(workload, main, seconds: float) -> list[list[tuple[str, int, float]]]:
    """The rounds of one window, each a list of (kind, docs, seconds) samples."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.round(main))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(rounds) >= MIN_ROUNDS:
            return rounds
        if elapsed >= MAX_WINDOW_FACTOR * seconds:
            return rounds


def docs_per_s(rounds) -> float:
    """Documents per second of one round's call mix, taking each kind of
    call at its median duration over the window."""
    by_kind: dict[str, list[tuple[int, float]]] = {}
    for samples in rounds:
        for kind, docs, secs in samples:
            by_kind.setdefault(kind, []).append((docs, secs))
    docs = sum(d for samples in by_kind.values() for d, _ in samples)
    secs = sum(len(samples) * statistics.median(s for _, s in samples)
               for samples in by_kind.values())
    return docs / secs if secs > 0 else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, setup_times, rounds) -> dict:
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "docs_per_s": metric(docs_per_s(rounds), "docs/s"),
        "train_loss": metric(workload.train_loss(), "nats"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, tracer, untraced, traced) -> dict:
    from spans import SPAN_NAMES

    n = len(traced)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = metric(tracer.self_s.get(name, 0.0) / n, "s")
        metrics[f"{name}.calls"] = metric(tracer.calls.get(name, 0) / n, "count")
    counts = workload.computed_counts()
    for name, unit in COMPUTED_UNITS.items():
        metrics[name] = metric(counts.get(name, 0), unit)
    total = sum(secs for samples in traced for _, _, secs in samples)
    metrics["trace.round_s"] = metric(total / n, "s")
    metrics["trace.rounds"] = metric(n, "count")
    metrics["trace.overhead"] = metric(docs_per_s(untraced) / docs_per_s(traced), "ratio")
    metrics["trace.missing"] = metric(len(tracer.missing), "count")
    metrics["trace.silent"] = metric(len(tracer.silent(workload.expected_spans)), "count")
    return metrics


def write_trace(path, tracer, workload, env) -> None:
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    record = {
        "environment": env,
        "corpora": workload.corpus_stats,
        "missing": tracer.missing,
        "silent": tracer.silent(workload.expected_spans),
        "spans": [[name, round(start - origin, 7), round(end - origin, 7), parent]
                  for name, start, end, parent in tracer.spans],
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = import_cli()
    sys.path.insert(0, HERE)
    import workloads

    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        workload = workloads.make(args.workload, work, args.seed)
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
        ):
            start = time.perf_counter()
            workload.setup(cli.main)
            setup_times.append(time.perf_counter() - start)
        workload.describe_inputs()
        env = environment()
        print("environment:", json.dumps(env))
        print("corpora:", json.dumps(workload.corpus_stats))

        workload.round(cli.main)  # warm-up: lazy tables, allocator, first-touch pages
        window = args.seconds / 2 if args.trace else args.seconds
        rounds = measure(workload, cli.main, window)
        if args.trace:
            from spans import ENTRY_SPAN, Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, tracer.wrap(ENTRY_SPAN, cli.main), window)
            finally:
                tracer.uninstall()
            metrics = per_layer(workload, tracer, rounds, traced)
            print("trace missing wrap points:", tracer.missing or "none")
            print("trace spans that never fired:",
                  tracer.silent(workload.expected_spans) or "none")
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            write_trace(trace_path, tracer, workload, env)
            print("spans written to", os.path.relpath(trace_path, ROOT))
        else:
            metrics = end_to_end(workload, setup_times, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in workload.errors:
        print("check failed:", error)
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
