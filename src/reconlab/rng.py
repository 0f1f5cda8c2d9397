"""Splittable, counter-based random number generation.

Every source of randomness in the library (init, shuffling, DP noise,
Monte-Carlo trials) flows through an Rng so that experiments are exactly
reproducible and independent child streams can be derived by label.

A stream is drawn from in one of two ways. ``Rng.generator`` is the stream's
own Generator, built on first use; later draws continue where earlier ones
stopped. ``Rng.once()`` is for a stream that is drawn from at one place
only: it returns a Generator at the start of the stream that is shared by
every ``once()`` call in the thread. A Philox stream is its 128-bit key, so
moving the shared Generator to another stream only loads a new key and
clears the counter and buffer, which costs a fraction of building a
Generator. The shared Generator stays valid until the next ``once()`` call
in the same thread, and the Rng is then spent: a later ``generator`` or
``once()`` on it raises ``RuntimeError`` rather than repeat its draws.
"""

from __future__ import annotations

import hashlib
import threading

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


class _Shared(threading.local):
    """One Philox Generator per thread, and the state dict that moves it to
    the start of the stream keyed by ``key[0]``: counter 0, empty buffer,
    no spare 32-bit word, the state ``Philox(key=key)`` starts in."""

    def __init__(self):
        self.key = [0, 0]
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self.key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.generator = np.random.Generator(np.random.Philox(_PhiloxKey(0)))
        self.bit_generator = self.generator.bit_generator


_shared = _Shared()
_SPENT = object()  # Rng._gen after once() has handed out the stream


class Rng:
    """Seeded wrapper around a Philox counter-based generator.

    Identical seeds produce identical streams. ``child(label)`` derives an
    independent stream deterministically from (seed, label), so work split
    across processes draws the same numbers as a serial run. The generator
    is built on first use, so a stream used only to derive children costs
    one hash per child. ``once()`` draws from the stream without building
    one (see the module docstring).
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
        """This stream's own Generator; draws continue across calls."""
        gen = self._gen
        if gen is None:
            gen = self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(self.seed)))
        elif gen is _SPENT:
            raise RuntimeError("stream already drawn through once()")
        return gen

    def once(self) -> np.random.Generator:
        """The thread's shared Generator, moved to the start of this stream.

        It makes the draws ``generator`` would, and stays valid until the
        next ``once()`` call in this thread. Spends the Rng: a later
        ``generator`` or ``once()`` on it raises ``RuntimeError``.
        """
        if self._gen is not None:
            raise RuntimeError("stream already drawn from")
        self._gen = _SPENT
        shared = _shared
        shared.key[0] = self.seed
        shared.bit_generator.state = shared.state
        return shared.generator

    # Convenience passthroughs.
    def normal(self, *args, **kwargs):
        return self.generator.normal(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self.generator.uniform(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self.generator.integers(*args, **kwargs)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)
