"""The seeding oracle: ``rng.episode_generators`` against numpy's ``default_rng``.

``episode_generators`` re-implements SeedSequence's hash, so these tests pin
it to the numpy they run on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leoho.rng import episode_generators

# Key entries at the edges of SeedSequence's 32-bit words, or random ones of
# up to three words.  A key is an int or a tuple of 1-8 entries, so keys run
# from one word to well past the pool's four.
SEED_ENTRIES = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5]), st.integers(0, 2**96 - 1)
)
SEED_KEYS = st.one_of(SEED_ENTRIES, st.lists(SEED_ENTRIES, min_size=1, max_size=8).map(tuple))


def assert_same_generator(got: np.random.Generator, key) -> None:
    want = np.random.default_rng(key)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(5).tobytes() == want.random(5).tobytes()
    assert np.array_equal(got.integers(1, 51, size=(3, 4)), want.integers(1, 51, size=(3, 4)))
    assert got.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(SEED_KEYS, min_size=1, max_size=6))
def test_episode_generators_match_default_rng(keys):
    generators = list(episode_generators(keys))
    assert len(generators) == len(keys)
    for got, key in zip(generators, keys):
        assert_same_generator(got, key)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 2**32 - 1)] * n), min_size=1, max_size=70)
    )
)
def test_episode_generators_match_default_rng_for_a_chunk_of_word_keys(keys):
    # Keys of one length, every entry one word: the chunk is hashed in one pass.
    for got, key in zip(episode_generators(keys), keys, strict=True):
        assert_same_generator(got, key)


@pytest.mark.parametrize("bad", [-1, (-1,), (3, -1), (2**40, -(2**70)), (2**64 + 5, 2, 1, 0, -7)])
def test_episode_generators_reject_negative_entries(bad):
    with pytest.raises(ValueError):
        np.random.default_rng(bad)
    with pytest.raises(ValueError):
        list(episode_generators([5, bad]))

