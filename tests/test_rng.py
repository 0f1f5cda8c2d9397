import numpy as np
import pytest

from reconlab.rng import Rng, _derive

EDGE_KEYS = [0, 1, 2 ** 63, 2 ** 64 - 1]


def _philox(key):
    """The generator an Rng must match: Philox keyed directly."""
    return np.random.Generator(np.random.Philox(key=key))


def _draws(g):
    """Consecutive draws from a Generator or an Rng."""
    return [g.normal(size=7), g.permutation(11), g.integers(0, 1000, size=5)]


def test_same_seed_same_stream():
    a = Rng(42).normal(size=100)
    b = Rng(42).normal(size=100)
    assert np.array_equal(a, b)


def test_child_streams_reproducible():
    a = Rng(7).child(("shadow", 3)).uniform(size=50)
    b = Rng(7).child(("shadow", 3)).uniform(size=50)
    assert np.array_equal(a, b)


def test_child_streams_differ_by_label():
    a = Rng(7).child("x").normal(size=50)
    b = Rng(7).child("y").normal(size=50)
    assert not np.array_equal(a, b)


def test_children_independent_of_parent_consumption():
    r1 = Rng(9)
    r1.normal(size=1000)  # consume from the parent
    a = r1.child("k").normal(size=10)
    b = Rng(9).child("k").normal(size=10)
    assert np.array_equal(a, b)


def test_derive_is_stable_64bit():
    s = _derive(123, ("label", 4))
    assert s == _derive(123, ("label", 4))
    assert 0 <= s < 2 ** 64
    assert s != _derive(123, ("label", 5))
    assert s != _derive(124, ("label", 4))


def test_permutation_is_permutation():
    p = Rng(1).permutation(100)
    assert sorted(p.tolist()) == list(range(100))


@pytest.mark.parametrize("key", EDGE_KEYS)
def test_generator_matches_philox_keyed_directly(key):
    for got, want in zip(_draws(Rng(key).generator), _draws(_philox(key))):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("key", EDGE_KEYS)
def test_child_matches_philox_keyed_by_derived_seed(key):
    got = _draws(Rng(key).child(("trial", 3)))
    for a, b in zip(got, _draws(_philox(_derive(key, ("trial", 3))))):
        assert np.array_equal(a, b)


def test_parent_stream_continues_across_child_calls():
    parent = Rng(9)
    parent.child("before-first-draw")
    first = parent.normal(size=3)
    parent.child("k").normal(size=10)
    rest = parent.normal(size=3)
    assert np.array_equal(np.concatenate([first, rest]), _philox(9).normal(size=6))
