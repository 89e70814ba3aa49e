"""Per-episode random generators, hashed and drawn for a whole chunk at once.

An episode's randomness comes from ``np.random.default_rng(key)`` for its
seed key.  :func:`episode_generators` builds the generators of many keys
with numpy's SeedSequence hash run once, vectorised over the keys, and
gives generators bit-identical to ``default_rng``'s.  :func:`uniform_from_raw`
and :func:`integers_from_raw` apply the conversions numpy's ``Generator``
makes of PCG64's raw 64-bit words to a whole chunk's words at once, so an
episode pays one ``random_raw`` call, for blocks drawn one after another,
instead of a ``uniform``, ``random`` or ``integers`` call per block, and the
values keep their bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np


def seed_key(seed) -> tuple[int, ...]:
    """A seed, an int or a sequence of ints, as a tuple of ints."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(v) for v in seed)


# numpy's SeedSequence, as ``default_rng(key)`` runs it, for many keys at
# once.  Its hash constants do not depend on the data, so every mixing round
# is a few ufuncs over a (4, E) pool of uint32 words, one column per key.
_MASK32 = 0xFFFFFFFF
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """(calls, 1) xor and multiplier columns of ``calls`` successive hash calls."""
    c = [init]
    for _ in range(calls):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


_POOL_HASH = (0x43B0D7E5, 0x931E8875)  # initial value and multiplier of the pool's hash
_POOL_XOR, _POOL_MUL = _hash_constants(*_POOL_HASH, 16)
# Pool word s hashes into the other three in turn: calls 4 + 3s .. 6 + 3s,
# with a dummy call for the word itself, which keeps its value.
_CROSS_CALLS = [[4 + 3 * s + d - (d > s) if d != s else 0 for d in range(4)] for s in range(4)]
_CROSS_ROUNDS = [(_POOL_XOR[calls], _POOL_MUL[calls]) for calls in _CROSS_CALLS]
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = values ^ xor
    values *= mul
    values ^= values >> 16
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of ``y`` into ``x``; ``y`` is overwritten."""
    y *= _MIX_MULT_R
    out = _MIX_MULT_L * x
    out -= y
    out ^= out >> 16
    return out


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """(E, 4) uint64 PCG64 seeding words of (W, E) uint32 entropy words, W >= 4.

    The pool absorbs the first four words, mixes every word into the other
    three, then absorbs the rest a word at a time; ``generate_state(4,
    np.uint64)`` then hashes the pool, cycled twice, into eight words.
    """
    pool = _hashmix(entropy[:4], _POOL_XOR[:4], _POOL_MUL[:4])
    for s, (xor, mul) in enumerate(_CROSS_ROUNDS):
        mixed = _mix(pool, _hashmix(pool[s], xor, mul))
        mixed[s] = pool[s]
        pool = mixed
    if len(entropy) > 4:
        # Each word past the fourth hashes into the four pool words in turn.
        xor, mul = (c[16:].reshape(-1, 4, 1) for c in _hash_constants(*_POOL_HASH, 4 * len(entropy)))
        for word, word_xor, word_mul in zip(entropy[4:], xor, mul):
            pool = _mix(pool, _hashmix(word, word_xor, word_mul))
    state = _hashmix(np.concatenate((pool, pool)), _STATE_XOR, _STATE_MUL)
    # Word pairs read as little-endian uint64, whatever the host's byte order.
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


def _entropy_words(key: tuple[int, ...]) -> list[int]:
    """The uint32 words SeedSequence reads from a key: each entry little-endian."""
    words = []
    for value in key:
        if value < 0:
            raise ValueError("expected non-negative integer")
        while True:
            words.append(value & _MASK32)
            value >>= 32
            if not value:
                break
    return words


def _word_block(keys: list) -> np.ndarray | None:
    """(W, E) uint32 entropy words of E keys read by numpy in one pass, or None.

    The keys must all be ints, or all sequences of one length, with every
    entry in [0, 2**32): each entry is then one word.  W is at least 4,
    padded with zeros.
    """
    try:
        entries = np.array(keys)
    except ValueError:  # sequences of different lengths
        return None
    if entries.dtype.kind not in "iu" or entries.ndim not in (1, 2):
        return None
    if not ((entries >= 0) & (entries <= _MASK32)).all():
        return None
    entries = entries.reshape(len(keys), -1)
    block = np.zeros((max(4, entries.shape[1]), len(keys)), dtype=np.uint32)
    block[: entries.shape[1]] = entries.T
    return block


def _entropy_groups(keys: list) -> list[tuple[list[int] | slice, np.ndarray]]:
    """(rows, (W, E') uint32 entropy words) of the keys with each word count W >= 4.

    Keys shorter than four words are padded with zeros, which SeedSequence
    hashes the same as no words.  Keys that :func:`_word_block` reads make
    one group; the others are normalised by :func:`seed_key` and split into
    words one key at a time.
    """
    block = _word_block(keys)
    if block is not None:
        return [(slice(None), block)]
    words = [_entropy_words(seed_key(key)) for key in keys]
    by_count: dict[int, list[int]] = {}
    for i, w in enumerate(words):
        by_count.setdefault(max(4, len(w)), []).append(i)
    return [
        (rows, np.array([words[i] + [0] * (count - len(words[i])) for i in rows], dtype=np.uint32).T)
        for count, rows in by_count.items()
    ]


class _PoolSeed(np.random.bit_generator.ISeedSequence):
    """A key's PCG64 seeding words, hashed ahead with the rest of its chunk.

    PCG64 asks its seed sequence for ``generate_state(4, np.uint64)``.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def episode_generators(keys: Iterable) -> Iterator[np.random.Generator]:
    """One generator per key, bit-identical to ``np.random.default_rng(key)``.

    A key is an int or a sequence of ints.  The first ``next`` hashes every
    key's SeedSequence pool in one vectorised pass, grouping keys by their
    number of 32-bit words; PCG64 then seeds each generator from its words,
    one per ``next``.  When every key is an int, or every key a sequence of
    the same length, with entries in [0, 2**32), numpy reads the words of
    all of them at once.  Negative entries raise ``ValueError``, as in numpy.
    """
    keys = list(keys)
    seeds = np.empty((len(keys), 4), dtype=np.uint64)
    for rows, entropy in _entropy_groups(keys):
        seeds[rows] = _pcg64_seeds(entropy)
    for words in seeds:
        yield np.random.Generator(np.random.PCG64(_PoolSeed(words)))


# numpy's conversions of raw PCG64 words.  A double takes one word, as
# ``(w >> 11) * 2**-53``; a bounded integer over a range below 2**32 takes a
# 32-bit half of a word, low half first, by Lemire's method.
_PCG64_PERIOD = 2**128


def uniform_from_raw(words: np.ndarray, high: float, out: np.ndarray) -> None:
    """numpy's ``uniform(0, high)`` of raw PCG64 words, one value per word, into ``out``.

    Each value is ``0.0 + high * ((w >> 11) * 2**-53)``: at ``high`` 1.0
    that is ``(w >> 11) * 2**-53``, numpy's ``random()``, and the scaling
    is skipped.  ``words`` is shifted in place; ``out`` may share its
    memory.
    """
    np.right_shift(words, 11, out=words)
    np.multiply(words, 2.0**-53, out=out)
    if high != 1.0:
        out *= high
        out += 0.0


def integer_words(count: int, span: int) -> int:
    """Raw words numpy's ``integers`` reads for ``count`` values over ``span`` < 2**32 values.

    Each value reads a 32-bit half, so ``ceil(count / 2)`` words, unless one
    is redrawn; a single value (``span == 1``) reads none.
    """
    return 0 if span == 1 else (count + 1) // 2


def integers_from_raw(words: np.ndarray, low: int, span: int, out: np.ndarray) -> np.ndarray:
    """numpy's ``integers(low, low + span)`` of rows of raw PCG64 words, into ``out``.

    ``words`` (..., W) holds each row's :func:`integer_words` words and
    ``out`` (..., C) int64 its C values.  numpy's Lemire method reads the
    32-bit halves x of the words, low half first, and gives
    ``low + (x * span >> 32)`` unless ``(x * span) mod 2**32`` falls below
    ``(2**32 - span) mod span``: then it redraws from the next half, and the
    rest of the row shifts.  Returns the (...,) mask of such rows; their
    values in ``out`` are not numpy's (see :func:`integers_by_rows`).
    """
    if not 1 <= span < 2**32:
        raise ValueError(f"span must lie in [1, 2**32), got {span}")
    if span == 1:
        out[...] = low
        return np.zeros(out.shape[:-1], dtype=bool)
    # The halves as numpy reads them, whatever the host's byte order.
    halves = words.astype("<u8", copy=False).view("<u4")[..., : out.shape[-1]]
    values = out.view(np.uint64)
    np.multiply(halves, span, out=values, dtype=np.uint64)
    leftover = np.multiply(halves, span, dtype=np.uint32)
    redraw = (leftover < (2**32 - span) % span).any(axis=-1)
    np.right_shift(values, 32, out=values)
    out += low
    return redraw


def integers_by_rows(
    generators: list, low: int, high: int, out: np.ndarray, words: np.ndarray | None = None
) -> None:
    """``generators[i].integers(low, high, size=out.shape[1:])`` into each ``out[i]``, bit for bit.

    ``out`` is a C-contiguous int64 array with one row per generator.  Each
    generator gives one ``random_raw`` block of :func:`integer_words`
    words, and one :func:`integers_from_raw` converts them all.  ``words``,
    (rows, W) uint64 with a contiguous last axis, passes blocks already
    drawn instead: each row the last W words its generator drew, such as
    the tail of a longer ``random_raw`` call.  A row the conversion flags
    is drawn again by numpy's own ``integers``, after stepping its
    generator back over the block: PCG64 advances modulo 2**128, so
    advancing by 2**128 - W undoes W words and leaves the generator where a
    fresh one for its key stands once advanced past the words drawn before.
    """
    rows, count = len(generators), math.prod(out.shape[1:])
    if words is None:
        words = np.empty((rows, integer_words(count, high - low)), dtype=np.uint64)
        for i, generator in enumerate(generators):
            words[i] = generator.bit_generator.random_raw(words.shape[1])
    for i in np.flatnonzero(integers_from_raw(words, low, high - low, out.reshape(rows, count))):
        generator = generators[i]
        generator.bit_generator.advance(_PCG64_PERIOD - words.shape[1])
        out[i] = generator.integers(low, high, size=out.shape[1:])
