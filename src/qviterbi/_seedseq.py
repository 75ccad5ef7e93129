"""numpy's ``SeedSequence`` hash, vectorised over the last entropy word.

This is O'Neill's seed_seq hash as ``numpy.random.SeedSequence`` implements
it, with a pool of four uint32 words: the entropy is hashed into the pool,
the pool words are mixed with each other, any entropy beyond the pool is
mixed into every pool word, and ``generate_state`` hashes the pool out again.
Every array here holds one row per counter, and uint32 arithmetic wraps
modulo 2^32 as the hash requires. ``pcg64_seed_words`` derives, for many
counters at once, the words numpy's own chain would hand to ``PCG64``.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _entropy_words(value: int) -> list[int]:
    """A non-negative int as numpy coerces seed entropy: little-endian 32-bit words, 0 -> [0]."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence.mix_entropy`` on one uint32 column per entropy word."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """``SeedSequence.generate_state(n_words)``: n_words uint32 columns."""
    hash_const = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out.append(value ^ (value >> np.uint32(16)))
    return out


def pcg64_seed_words(prefix: Sequence[int], counters: np.ndarray) -> np.ndarray:
    """Row c: ``SeedSequence(SeedSequence([*prefix, c]).generate_state(1)).generate_state(4, uint64)``.

    ``prefix`` holds non-negative ints of any size. ``counters`` holds ints in
    [0, 2^32), which numpy coerces to one 32-bit word each. Returns a
    C-contiguous (len(counters), 4) uint64 array.
    """
    column = np.asarray(counters).astype(np.uint32)
    head = [np.full_like(column, w) for v in prefix for w in _entropy_words(int(v))]
    (child,) = _generate_state(_pool([*head, column]), 1)
    state = np.stack(_generate_state(_pool([child]), 8), axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)
