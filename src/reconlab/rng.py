"""Splittable, counter-based random number generation.

Every source of randomness in the library (init, shuffling, DP noise,
Monte-Carlo trials) flows through an Rng so that experiments are exactly
reproducible and independent child streams can be derived by label.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["Rng"]

_MASK64 = (1 << 64) - 1


def _derive(seed: int, label) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed & _MASK64).to_bytes(8, "little"))
    h.update(repr(label).encode())
    return int.from_bytes(h.digest(), "little")


class _PhiloxKey(ISeedSequence):
    """Seeds Philox with the 128-bit key (key, 0), the state ``Philox(key=key)``
    builds, without first drawing OS entropy into a SeedSequence."""

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array([self.key, 0], dtype=np.uint64)


class Rng:
    """Seeded wrapper around a Philox counter-based generator.

    Identical seeds produce identical streams. ``child(label)`` derives an
    independent stream deterministically from (seed, label), so work split
    across processes draws the same numbers as a serial run. The generator
    is built on first use, so a stream used only to derive children costs
    one hash per child.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = None

    def child(self, label) -> "Rng":
        """Derive an independent, reproducible stream labeled by ``label``."""
        return Rng(_derive(self.seed, label))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(self.seed)))
        return self._gen

    # Convenience passthroughs.
    def normal(self, *args, **kwargs):
        return self.generator.normal(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self.generator.uniform(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self.generator.integers(*args, **kwargs)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)
