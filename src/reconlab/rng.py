"""Splittable, counter-based random number generation.

Every source of randomness in the library (init, shuffling, DP noise,
Monte-Carlo trials) flows through an Rng so that experiments are exactly
reproducible and independent child streams can be derived by label.

An Rng is drawn from once, through ``Rng.once()``, and ``Rng(seed)`` makes
the draws ``Generator(Philox(key=seed))`` would. ``once()`` returns a
Generator at the start of the stream that is shared by every ``once()`` call
in the thread. A Philox stream is its 128-bit key, so moving the shared
Generator to another stream only loads a new key and clears the counter and
buffer, which costs a fraction of building a Generator. The shared Generator
stays valid until the next ``once()`` call in the same thread, and the Rng is
then spent: a second ``once()`` on it raises ``RuntimeError`` rather than
repeat its draws. Its children stay usable.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

__all__ = ["Rng"]

_MASK64 = (1 << 64) - 1
_new = object.__new__


def _key(seed: int, label) -> int:
    """The key of the child labelled ``label`` of the stream keyed by seed, a
    key in [0, 2**64): the 64-bit blake2b digest of the seed's 8
    little-endian bytes followed by ``repr(label)``, read little-endian."""
    data = seed.to_bytes(8, "little") + repr(label).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _derive(seed: int, label) -> int:
    """``Rng(seed).child(label).seed``, for callers that need a child's key
    as the seed of a config rather than as a stream."""
    return _key(int(seed & _MASK64), label)


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
        self.generator = np.random.Generator(np.random.Philox(key=0))
        self.bit_generator = self.generator.bit_generator


_shared = _Shared()


class Rng:
    """A labelled Philox stream.

    Identical seeds produce identical streams. ``child(label)`` derives an
    independent stream deterministically from (seed, label), so work split
    across processes draws the same numbers as a serial run; deriving a
    child costs one hash. ``once()`` draws from the stream (see the module
    docstring).
    """

    __slots__ = ("seed", "_spent")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._spent = False

    def child(self, label) -> "Rng":
        """Derive an independent, reproducible stream labeled by ``label``."""
        # self.seed is already a 64-bit key, so the child is built without
        # Rng.__init__ and its re-masking: a ReRo trial derives three streams
        child = _new(Rng)
        child.seed = _key(self.seed, label)
        child._spent = False
        return child

    def once(self) -> np.random.Generator:
        """The thread's shared Generator, moved to the start of this stream.

        It makes the draws ``Generator(Philox(key=self.seed))`` would, and
        stays valid until the next ``once()`` call in this thread. Spends the
        Rng: a second ``once()`` on it raises ``RuntimeError``.
        """
        if self._spent:
            raise RuntimeError("stream already drawn from")
        self._spent = True
        shared = _shared
        shared.key[0] = self.seed
        shared.bit_generator.state = shared.state
        return shared.generator
