"""Deterministic per-component random number streams.

Every stochastic element (sensor noise, workload burstiness, ambient
fluctuation) draws from its own named stream derived from a single root
seed.  This gives two properties experiments rely on:

* **Reproducibility** — a run is a pure function of (platform, seed).
* **Isolation** — adding a new noisy component does not perturb the
  random sequence seen by existing components, so calibrated experiment
  outputs stay stable as the library grows.

Streams are spawned with :class:`numpy.random.SeedSequence` keyed by the
stream name, which is the numpy-recommended way to build independent
generators.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RngStreams"]


class RngStreams:
    """Factory of named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed.  Two :class:`RngStreams` with the same seed hand out
        identical streams for identical names.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The same name always returns the *same generator object*, so a
        component may call this repeatedly without resetting its
        sequence.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Hash the name to a stable integer (crc32 is deterministic
            # across processes, unlike hash()) and mix with the root seed.
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen
