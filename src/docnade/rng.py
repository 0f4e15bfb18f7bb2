"""Named deterministic random streams derived from a single master seed.

Every source of randomness in the package (tree layout, parameter init,
document shuffling, histogram splits, dropout masks) draws from its own
named stream so that, e.g., changing the number of training epochs never
shifts the tree layout.
"""

import zlib

import numpy as np

# The streams of a training stage, whose states a checkpoint keeps: document and
# shallow token orders, deep histogram splits and dropout masks.
TRAINING_STREAMS = ("shuffle", "split", "dropout")


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Return a generator for `name` that depends only on (seed, name)."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def training_streams(seed: int, states: dict | None = None) -> dict[str, np.random.Generator]:
    """The `TRAINING_STREAMS` of `seed` by name, each set to its entry of
    `states` (a checkpoint's `stream_states`), if given."""
    streams = {name: named_stream(seed, name) for name in TRAINING_STREAMS}
    for name, state in (states or {}).items():
        streams[name].bit_generator.state = state
    return streams


def stream_states(streams: dict[str, np.random.Generator]) -> dict:
    """The state of each stream by name, as a checkpoint keeps it."""
    return {name: stream.bit_generator.state for name, stream in streams.items()}
