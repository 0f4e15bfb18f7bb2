"""In-memory span tracing of the library's layers, installed from outside.

Each wrap point names the module attribute a caller looks up at call time, so
a function imported by name (``from .model_io import save_model``) is wrapped
where it is used.  Spans nest: a span's self time is its duration minus the
durations of the wrapped calls made under it.  A wrap point whose module or
attribute is missing is recorded as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (span name, module the caller looks the name up in, attribute)
WRAP_POINTS = [
    ("corpus.parse_corpus", "docnade.cli", "parse_corpus"),
    ("wordtree.words_log_prob", "docnade.shallow", "words_log_prob"),
    ("shallow.gradients", "docnade.shallow", "docnade_gradients"),
    ("shallow.gradients", "docnade.shallow", "supdocnade_gradients"),
    ("shallow.represent", "docnade.shallow", "represent"),
    ("shallow.predict_annotations", "docnade.shallow", "predict_annotations"),
    ("deep.split_histogram", "docnade.deep", "split_histogram"),
    ("deep.prepare_histogram", "docnade.deep", "prepare_histogram"),
    ("deep.deep_forward", "docnade.deep", "deep_forward"),
    ("deep.generative_loss", "docnade.deep", "generative_loss"),
    ("deep.supervised_loss", "docnade.deep", "supervised_loss"),
    ("deep.hybrid_loss_gradients", "docnade.deep", "hybrid_loss_gradients"),
    ("deep.output_log_probs", "docnade.deep", "output_log_probs"),
    ("deep.deep_represent", "docnade.deep", "deep_represent"),
    ("trainer.train_model", "docnade.cli", "train_model"),
    ("trainer.sgd_epoch", "docnade.trainer", "sgd_epoch"),
    ("trainer.polyak_update", "docnade.trainer", "polyak_update"),
    ("model_io.save_checkpoint", "docnade.trainer", "save_checkpoint"),
    ("model_io.save_model", "docnade.cli", "save_model"),
    ("model_io.load_model", "docnade.cli", "load_model"),
    ("evaluate.extract_representations", "docnade.evaluate", "extract_representations"),
    ("evaluate.generate_text", "docnade.evaluate", "generate_text"),
    ("evaluate.cosine_retrieve", "docnade.evaluate", "cosine_retrieve"),
    ("evaluate.mean_average_precision", "docnade.evaluate", "mean_average_precision"),
    ("evaluate.mean_f_measure", "docnade.evaluate", "mean_f_measure"),
]

# The benchmark wraps the entry point itself, around each CLI call.
ENTRY_SPAN = "cli.main"

SPAN_NAMES = [ENTRY_SPAN] + list(dict.fromkeys(name for name, _, _ in WRAP_POINTS))


class Tracer:
    """Records nested spans; install() patches the wrap points, uninstall()
    puts the original functions back."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._open: list[list] = []  # [span index, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            frame = [index, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                duration = end - start
                self.spans[index] = (name, start, end, parent)
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if self._open:
                    self._open[-1][1] += duration

        return traced

    def install(self) -> None:
        for name, module_name, attr in WRAP_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def silent(self, expected) -> list[str]:
        """Expected spans that never fired."""
        return [name for name in expected if self.calls.get(name, 0) == 0]
