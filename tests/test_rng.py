import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconlab.rng import Rng, _derive

EDGE_KEYS = [0, 1, 2 ** 63, 2 ** 64 - 1]


def _philox(key):
    """The generator an Rng must match: Philox keyed directly."""
    return np.random.Generator(np.random.Philox(key=key))


def _draws(g):
    """Consecutive draws from a Generator."""
    return [g.normal(size=7), g.permutation(11), g.integers(0, 1000, size=5)]


def test_same_seed_same_stream():
    a = Rng(42).once().normal(size=100)
    b = Rng(42).once().normal(size=100)
    assert np.array_equal(a, b)


def test_child_streams_reproducible():
    a = Rng(7).child(("shadow", 3)).once().uniform(size=50)
    b = Rng(7).child(("shadow", 3)).once().uniform(size=50)
    assert np.array_equal(a, b)


def test_child_streams_differ_by_label():
    a = Rng(7).child("x").once().normal(size=50)
    b = Rng(7).child("y").once().normal(size=50)
    assert not np.array_equal(a, b)


def test_children_independent_of_parent_consumption():
    r1 = Rng(9)
    r1.once().normal(size=1000)  # consume from the parent
    a = r1.child("k").once().normal(size=10)
    b = Rng(9).child("k").once().normal(size=10)
    assert np.array_equal(a, b)


def test_derive_is_stable_64bit():
    s = _derive(123, ("label", 4))
    assert s == _derive(123, ("label", 4))
    assert 0 <= s < 2 ** 64
    assert s != _derive(123, ("label", 5))
    assert s != _derive(124, ("label", 4))


_LABELS = st.one_of(
    st.text(max_size=12),
    st.floats(allow_nan=False),
    st.tuples(st.text(max_size=6), st.integers(-2 ** 70, 2 ** 70)),
    st.tuples(st.text(max_size=6), st.floats(allow_nan=False), st.integers(0, 4)),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(st.integers(-2 ** 80, -1), st.integers(0, 2 ** 64 - 1),
                      st.integers(2 ** 64, 2 ** 80)),
       label=_LABELS)
def test_child_key_is_blake2b_of_seed_bytes_and_label_repr(seed, label):
    # the stream layout written out independently of the library: every
    # stream of every experiment is keyed this way
    data = (seed & 2 ** 64 - 1).to_bytes(8, "little") + repr(label).encode()
    want = int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")
    assert Rng(seed).child(label).seed == want
    assert _derive(seed, label) == want
    grandchild = Rng(seed).child(label).child(label).seed
    assert grandchild == int.from_bytes(hashlib.blake2b(
        want.to_bytes(8, "little") + repr(label).encode(), digest_size=8).digest(), "little")


def test_permutation_is_permutation():
    p = Rng(1).once().permutation(100)
    assert sorted(p.tolist()) == list(range(100))


@pytest.mark.parametrize("key", EDGE_KEYS)
def test_child_matches_philox_keyed_by_derived_seed(key):
    got = _draws(Rng(key).child(("trial", 3)).once())
    for a, b in zip(got, _draws(_philox(_derive(key, ("trial", 3))))):
        assert np.array_equal(a, b)


# one draw of each kind; "uint32" draws one 32-bit word, which leaves the
# other half of a 64-bit output buffered (Philox's has_uint32)
_DRAW = {
    "normal": lambda g: g.normal(size=3),
    "random": lambda g: g.random(2),
    "uniform": lambda g: g.uniform(-1.0, 1.0, size=5),
    "integers": lambda g: g.integers(0, 1000, size=3),
    "uint32": lambda g: g.integers(0, 7, size=1, dtype=np.uint32),
    "permutation": lambda g: g.permutation(11),
}


def _assert_once_matches_philox(key, ops):
    g = Rng(key).once()
    got = [_DRAW[op](g) for op in ops]
    want = _philox(key)
    for op, a in zip(ops, got):
        assert np.array_equal(a, _DRAW[op](want))


@pytest.mark.parametrize("key", EDGE_KEYS)
def test_once_draws_equal_generator_draws(key):
    _assert_once_matches_philox(key, ["normal", "uint32", "random", "uniform",
                                      "integers", "uint32", "permutation"])


@settings(max_examples=200, deadline=None)
@given(key=st.integers(0, 2 ** 64 - 1), other=st.integers(0, 2 ** 64 - 1),
       left=st.lists(st.sampled_from(sorted(_DRAW)), max_size=4),
       ops=st.lists(st.sampled_from(sorted(_DRAW)), min_size=1, max_size=6))
def test_once_starts_the_stream_wherever_the_last_stream_stopped(key, other, left, ops):
    g = Rng(other).once()
    for op in left:  # leave the shared generator mid-buffer, maybe with a spare uint32
        _DRAW[op](g)
    _assert_once_matches_philox(key, ops)


def test_once_spends_the_rng():
    spent = Rng(3)
    spent.once().normal()
    with pytest.raises(RuntimeError):
        spent.once()
    # its children are other streams, and stay usable
    assert np.array_equal(spent.child("k").once().normal(size=2),
                          _philox(_derive(3, "k")).normal(size=2))


def test_each_thread_has_its_own_once_generator():
    # the thread moves its generator to stream 1, the main thread then moves
    # its own to stream 2; neither move disturbs the other's draws
    ready, drawn = threading.Event(), threading.Event()
    seen = {}

    def worker():
        g = Rng(1).once()
        seen["gen"] = g
        ready.set()
        if drawn.wait(timeout=10):
            seen["draws"] = g.normal(size=4)

    t = threading.Thread(target=worker)
    t.start()
    assert ready.wait(timeout=10)
    g = Rng(2).once()
    main_draws = g.normal(size=4)
    drawn.set()
    t.join(timeout=10)
    assert not t.is_alive()
    assert seen["gen"] is not g
    assert np.array_equal(seen["draws"], _philox(1).normal(size=4))
    assert np.array_equal(main_draws, _philox(2).normal(size=4))
