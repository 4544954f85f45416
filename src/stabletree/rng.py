"""Deterministic random-number streams.

Every stochastic routine in the package takes an explicit numpy
``Generator``.  Streams are derived from a global seed plus a structured
key (replication index, role name, ...) through a counter-based Philox
generator, so results depend only on (seed, key) and never on scheduling
or worker count.

The stream of (seed, key) is ``Philox(SeedSequence(seed, spawn_key=key
words))``.  Its Philox key is derived here, bit for bit as numpy's
``SeedSequence`` derives it (whose output numpy keeps stable across
releases), without building one per stream: the entropy pool before the
last key word is kept once per (seed, other key words), and each stream
mixes in its last word.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from itertools import islice

import numpy as np

# the constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
_MASK = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _key_word(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf8")) & 0xFFFFFFFF
    return int(part) % (1 << 32)


def _seed_words(seed: int) -> list:
    """The seed as SeedSequence entropy: its 32-bit words, least significant first."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK]
    while seed > _MASK:
        seed >>= 32
        words.append(seed & _MASK)
    return words


def _hash_steps(const: int, mult: int):
    """SeedSequence's hash constants as (xor, multiplier) steps; a multiplier is the next xor."""
    while True:
        nxt = const * mult & _MASK
        yield const, nxt
        const = nxt


def _hash(value: int, step: tuple) -> int:
    """One hashmix: xor, multiply mod 2^32, fold the high half in."""
    xor, mult = step
    value = (value ^ xor) * mult & _MASK
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _MASK
    return r ^ r >> 16


# the steps that hash the pool words in generate_state
_KEY_STEPS = tuple(islice(_hash_steps(_INIT_B, _MULT_B), _POOL_SIZE))


@lru_cache(maxsize=64)
def _mixed(words: tuple) -> tuple:
    """SeedSequence's mix_entropy of ``words``.

    Each pool word comes with the hash step that mixes a further entropy
    word into it.
    """
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hash(words[i] if i < len(words) else 0, next(steps)) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(steps)))
    for word in words[_POOL_SIZE:]:  # each word past the pool size goes into every pool word
        pool = [_mix(x, _hash(word, next(steps))) for x in pool]
    return tuple(zip(pool, steps))


def _philox_key(mixed: tuple, word=None) -> tuple:
    """generate_state(2, uint64) of the pool, after mixing in ``word`` past the pool size if given.

    The four pool words, hashed, are read as two little-endian uint64.
    """
    state = [
        _hash(x if word is None else _mix(x, _hash(word, step)), key_step)
        for (x, step), key_step in zip(mixed, _KEY_STEPS)
    ]
    return state[0] | state[1] << 32, state[2] | state[3] << 32


@lru_cache(maxsize=1)
def _keyed_seed_class():
    # numpy.random is imported on the first stream, not with the package
    from numpy.random.bit_generator import ISpawnableSeedSequence, SeedSequence

    class _PhiloxKey(ISpawnableSeedSequence):
        """The seed sequence of a stream, which hands Philox the key derived in advance.

        Anything else it is asked (other state, spawning, pickling) goes to
        the stream's ``SeedSequence``, built on the first such request.
        """

        __slots__ = ("key", "entropy", "spawn_key", "_sequence")

        def __init__(self, key, entropy, spawn_key):
            self.key, self.entropy, self.spawn_key, self._sequence = key, entropy, spawn_key, None

        def sequence(self):
            if self._sequence is None:
                self._sequence = SeedSequence(self.entropy, spawn_key=self.spawn_key)
            return self._sequence

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 2 and dtype is np.uint64:  # what Philox asks for
                return np.array(self.key, dtype=np.uint64)
            return self.sequence().generate_state(n_words, dtype)

        def spawn(self, n_children):
            return self.sequence().spawn(n_children)

        def __reduce__(self):
            return self.sequence().__reduce__()

    return _PhiloxKey


def substream(seed: int, *key) -> np.random.Generator:
    """Generator for the stream identified by ``(seed, *key)``.

    Key parts may be integers (negative values are folded mod 2^32) or
    short role strings.  Distinct keys give statistically independent
    streams; equal keys give bit-identical streams.  The stream is that of
    ``Philox(SeedSequence(seed, spawn_key=key words))``, and a negative
    seed is a ``ValueError``, as there; the generator pickles and spawns
    as that one does.
    """
    seed = int(seed)
    words = _seed_words(seed)
    spawn_key = tuple(map(_key_word, key))
    if key:
        words += [0] * (_POOL_SIZE - len(words))  # SeedSequence pads the seed before a spawn key
        words += spawn_key
    split = max(_POOL_SIZE, len(words) - 1)  # the pool before the last word past the pool size
    philox_key = _philox_key(_mixed(tuple(words[:split])), *words[split:])
    seed_seq = _keyed_seed_class()(philox_key, seed, spawn_key)
    return np.random.Generator(np.random.Philox(seed_seq))
