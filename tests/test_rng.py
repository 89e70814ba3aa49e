"""The seeding and drawing oracles: ``rng`` against numpy's ``default_rng``.

``episode_generators`` re-implements SeedSequence's hash, and
``uniform_from_raw`` and ``integers_from_raw`` numpy's conversions of raw
PCG64 words, so these tests pin them to the numpy they run on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import leoho.rng as rng_module
from leoho.rng import (
    episode_generators,
    integer_words,
    integers_by_rows,
    integers_from_raw,
    uniform_from_raw,
)

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
    with pytest.raises(ValueError):
        list(episode_generators([(5, 1)] * 3 + [bad]))


# Keys numpy reads in one block (ints, or tuples of one length, of one-word
# entries), and calls that mix them with keys split one at a time: a longer
# or shorter tuple, an entry of two words, an int past the fast path.
WORD_CHUNKS = [[0, 7, 2**32 - 1], [(5, 101), (6, 101), (2**32 - 1, 0)], [(1, 2, 3, 4, 5)] * 2]
MIXED_CHUNKS = [
    [(5, 101), (6, 101), (7,)],
    [(5, 101), (2**32, 101), (7, 202)],
    [3, (3, 0x4D53), 2**40],
    [(5, 101, 0x4D53), [6, 101, 0x4D53], (7, 101, 0x4D53, 1, 2)],
]


@pytest.mark.parametrize("keys", WORD_CHUNKS + MIXED_CHUNKS)
def test_episode_generators_read_one_word_chunks_at_once(keys, monkeypatch):
    split = []

    def counted(key, inner=rng_module._entropy_words):
        split.append(key)
        return inner(key)

    monkeypatch.setattr(rng_module, "_entropy_words", counted)
    for got, key in zip(episode_generators(keys), keys, strict=True):
        assert_same_generator(got, key)
    assert len(split) == (0 if keys in WORD_CHUNKS else len(keys))


# --- conversions of raw words -------------------------------------------------

# Ranges of numpy's 32-bit Lemire path, with its edges: one value (no words
# read), powers of two (nothing redrawn) and REDRAW_HEAVY, where a value is
# redrawn with probability ((2**32 - span) mod span) / 2**32 = 0.195 %, so
# about 32 % of 200-value rows take the redraw path.
REDRAW_HEAVY = 2**23 + 1
SPANS = st.one_of(st.sampled_from([1, 2, 3, 50, 2**16, REDRAW_HEAVY, 2**24]), st.integers(2, 2**24))
RAW_KEYS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8)


def raw_words(keys, count: int) -> np.ndarray:
    return np.stack([np.random.default_rng(key).bit_generator.random_raw(count) for key in keys])


@settings(max_examples=150, deadline=None)
@given(keys=RAW_KEYS, count=st.integers(1, 41), high=st.floats(1e-3, 1e7))
def test_uniform_from_raw_matches_numpy(keys, count, high):
    got = np.empty((len(keys), count))
    uniform_from_raw(raw_words(keys, count), high, out=got)
    want = np.stack([np.random.default_rng(key).uniform(0.0, high, size=count) for key in keys])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(keys=RAW_KEYS, count=st.integers(1, 240), span=SPANS, low=st.integers(0, 2**40))
def test_integers_from_raw_flags_exactly_the_rows_numpy_redraws(keys, count, span, low):
    # An unflagged row is numpy's; a flagged one read a half numpy rejected.
    got = np.empty((len(keys), count), dtype=np.int64)
    redraw = integers_from_raw(raw_words(keys, integer_words(count, span)), low, span, got)
    for row, flagged, key in zip(got, redraw, keys, strict=True):
        want = np.random.default_rng(key).integers(low, low + span, size=count)
        assert flagged == (row.tobytes() != want.tobytes())


@pytest.mark.parametrize("count", [199, 200])
def test_integers_from_raw_at_a_redraw_heavy_range(count):
    keys = range(64)
    got = np.empty((len(keys), count), dtype=np.int64)
    redraw = integers_from_raw(raw_words(keys, integer_words(count, REDRAW_HEAVY)), 1, REDRAW_HEAVY, got)
    assert 5 < redraw.sum() < 40  # about a third of the rows
    for row, flagged, key in zip(got, redraw, keys):
        want = np.random.default_rng(key).integers(1, REDRAW_HEAVY + 1, size=count)
        assert flagged == (row.tobytes() != want.tobytes())


def test_integers_from_raw_refuses_ranges_past_32_bits():
    with pytest.raises(ValueError):
        integers_from_raw(np.zeros((1, 1), np.uint64), 0, 2**32, np.empty((1, 2), np.int64))


@settings(max_examples=150, deadline=None)
@given(
    keys=RAW_KEYS,
    shape=st.lists(st.integers(1, 15), min_size=1, max_size=2).map(tuple),
    span=SPANS,
    before=st.integers(0, 7),
)
def test_integers_by_rows_matches_numpy(keys, shape, span, before):
    # Words drawn before the block stay drawn when a flagged row is redone.
    generators = list(episode_generators(keys))
    for generator in generators:
        generator.random(before)
    got = np.empty((len(keys),) + shape, dtype=np.int64)
    integers_by_rows(generators, 1, span + 1, got)
    for row, generator, key in zip(got, generators, keys, strict=True):
        want_generator = np.random.default_rng(key)
        want_generator.random(before)
        want = want_generator.integers(1, span + 1, size=shape)
        assert row.tobytes() == want.tobytes()
        assert generator.bit_generator.state["state"] == want_generator.bit_generator.state["state"]


@pytest.mark.parametrize("shape", [(20, 10), (9, 11)])  # 19 and 5 rows redrawn
def test_integers_by_rows_redraws_at_a_redraw_heavy_range(shape):
    keys = list(range(100, 164))
    got = np.empty((len(keys),) + shape, dtype=np.int64)
    integers_by_rows(list(episode_generators(keys)), 1, REDRAW_HEAVY + 1, got)
    want = np.stack([np.random.default_rng(key).integers(1, REDRAW_HEAVY + 1, size=shape) for key in keys])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("prefix", [0, 7, 320])
@pytest.mark.parametrize("span, shape", [(50, (20, 10)), (REDRAW_HEAVY, (20, 10)), (REDRAW_HEAVY, (9, 11))])
def test_integers_by_rows_converts_the_tail_of_a_longer_block(prefix, span, shape):
    # Each key's words are the tail of one random_raw call, as reset draws
    # its signatures after the positions and keys; a flagged row steps its
    # generator back over the tail only.
    keys = list(range(100, 164))
    generators = list(episode_generators(keys))
    width = integer_words(math.prod(shape), span)
    block = np.stack([g.bit_generator.random_raw(prefix + width) for g in generators])
    got = np.empty((len(keys),) + shape, dtype=np.int64)
    flagged = integers_from_raw(block[:, prefix:], 1, span, np.empty((len(keys), math.prod(shape)), np.int64))
    assert flagged.any() == (span == REDRAW_HEAVY)
    integers_by_rows(generators, 1, span + 1, got, words=block[:, prefix:])
    for row, generator, key in zip(got, generators, keys, strict=True):
        want_generator = np.random.default_rng(key)
        want_generator.random(prefix)  # one raw word per double
        want = want_generator.integers(1, span + 1, size=shape)
        assert row.tobytes() == want.tobytes()
        assert generator.bit_generator.state["state"] == want_generator.bit_generator.state["state"]


def test_integers_by_rows_of_no_generators():
    out = np.empty((0, 3, 4), dtype=np.int64)
    integers_by_rows([], 1, 51, out)
    assert out.shape == (0, 3, 4)
