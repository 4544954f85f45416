"""Stream derivation against numpy's SeedSequence."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabletree import rng
from stabletree.rng import substream

from oracles import substream_reference

# last key words at byte and word edges, and integers that fold mod 2^32
EDGES = [0, 255, 256, 511, 2**32 - 1, 2**32, 2**32 + 256, -1, -256]
key_parts = st.one_of(
    st.integers(-(2**40), 2**40),
    st.sampled_from(EDGES),
    st.sampled_from(["maxima", "pp", "laplace", "nstar", "lemma", ""]),
)
seeds = st.one_of(st.integers(0, 2**200 - 1), st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**128]))


def assert_same_stream(got, ref):
    assert repr(got.bit_generator.state) == repr(ref.bit_generator.state)
    assert got.random(20).tobytes() == ref.random(20).tobytes()


@settings(max_examples=300, deadline=None)
@given(seeds, st.lists(key_parts, max_size=5))
def test_substream_matches_seed_sequence(seed, key):
    assert_same_stream(substream(seed, *key), substream_reference(seed, *key))


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**96 + 5, 2**200 - 1])
@pytest.mark.parametrize("key", [(), ("maxima",), ("maxima", 0), (3, "pp", 2**31)])
def test_substream_last_word_edges(seed, key):
    # every edge as the last word, consecutive replications through one cached
    # pool, and the same stream again after other prefixes were derived
    for last in (None, *EDGES):
        full = key if last is None else (*key, last)
        assert_same_stream(substream(seed, *full), substream_reference(seed, *full))
    for rep in range(253, 259):
        assert_same_stream(substream(seed, *key, rep), substream_reference(seed, *key, rep))


@pytest.mark.parametrize("seed,key", [(5, ("x", 3)), (1, ()), (2**70, (1, "pp", -1, 4, 5))])
def test_substream_pickles_and_spawns_as_its_seed_sequence(seed, key):
    # a stream pickles mid-way and spawns the children its SeedSequence spawns,
    # the next batch of children after the first
    got, ref = substream(seed, *key), substream_reference(seed, *key)
    got.random(7), ref.random(7)
    assert_same_stream(pickle.loads(pickle.dumps(got)), ref)
    for _ in range(2):
        for child, ref_child in zip(got.spawn(2), ref.spawn(2), strict=True):
            assert_same_stream(child, ref_child)
    state = got.bit_generator.seed_seq.generate_state(8)
    assert state.tobytes() == ref.bit_generator.seed_seq.generate_state(8).tobytes()


@pytest.mark.parametrize("key", [(), (1,), ("maxima", 5)])
def test_substream_negative_seed_raises(key):
    with pytest.raises(ValueError):
        substream_reference(-1, *key)
    with pytest.raises(ValueError):
        substream(-1, *key)
    with pytest.raises(ValueError):
        substream(-(2**70), *key)


def test_substream_keys_are_not_shared():
    # generators of one pool each hold their own key and state
    a, b = substream(5, "x", 0), substream(5, "x", 0)
    a.random(3)
    assert b.random(3).tobytes() == substream(5, "x", 0).random(3).tobytes()
    assert substream(5, "x", 0).random() != substream(5, "x", 1).random()
    assert isinstance(a, np.random.Generator)
    # Philox takes the derived key; no SeedSequence is built for it
    assert a.bit_generator.seed_seq._sequence is None


def test_substream_after_its_pool_left_the_cache():
    # more (seed, key prefix) pools than the cache holds, then the first again, rebuilt
    first = (3, "maxima", 0)
    assert_same_stream(substream(*first), substream_reference(*first))
    for i in range(rng._prefix_pool.cache_info().maxsize + 5):
        key = (3 + i % 2, "pp", i, 7)
        assert_same_stream(substream(*key), substream_reference(*key))
    misses = rng._prefix_pool.cache_info().misses
    assert_same_stream(substream(*first), substream_reference(*first))
    assert rng._prefix_pool.cache_info().misses == misses + 1
