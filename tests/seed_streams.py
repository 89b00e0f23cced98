"""numpy's own per-stream generators: the reference that the library's
vectorised stream derivation (pointprocess._stream_states) must reproduce."""

import numpy as np


def seed_sequence_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator of stream `stream` of `seed`, built by numpy's SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
