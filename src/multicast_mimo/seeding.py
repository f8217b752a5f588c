"""Deterministic random streams keyed by master seed, stream and realization.

Realization t of stream s draws from numpy's ``np.random.default_rng(
[master_seed, s, t])`` and from nothing else.  So any single realization can
be regenerated in isolation, without replaying the ones before it, and no
execution order or parallel split can reorder the streams.

``make_rngs`` gives those generators for a whole array of realizations at
once, state for state.  It runs ``SeedSequence``'s ``mix_entropy`` and
``generate_state`` (numpy/random/bit_generator.pyx) over an array of entropy
columns, one column per realization, in numpy's own order of hashmix calls.
No call's constants depend on the data, only on how many calls came before
it, and each realization index is one entropy word, so every column makes the
same calls.  It builds no ``SeedSequence``.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF

# uint32 words of generator state a PCG64 reads: generate_state(4, uint64).
_PCG64_WORDS = 8


def make_rngs(master_seed: int, stream: int, indices) -> list:
    """Generators ``[np.random.default_rng([master_seed, stream, t]) for t in
    indices]``, state for state.

    ``master_seed`` and ``stream`` are non-negative ints; ``indices`` is a
    1-D array of integers in [0, 2**32), one entropy word each.
    """
    t = np.asarray(indices)
    if t.dtype.kind not in "iu":
        raise TypeError("realization indices must be integers")
    if t.size and not (t.min() >= 0 and t.max() <= _MASK32):
        raise ValueError("realization indices must lie in [0, 2**32)")
    prefix = _int_words(int(master_seed)) + _int_words(int(stream))
    entropy = np.empty((len(prefix) + 1, t.size), dtype=np.uint32)
    entropy[:-1] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[-1] = t.reshape(-1)
    words = np.ascontiguousarray(_hash(entropy).T)
    # generate_state(n, uint64) reads the uint32 words as little-endian pairs
    wide = words.astype("<u4").view("<u8").astype(np.uint64)
    return [
        np.random.Generator(np.random.PCG64(_PresetState(*state)))
        for state in zip(words, wide)
    ]


class _PresetState(ISeedSequence):
    """The first uint32 words of a ``SeedSequence``'s state, computed in
    advance by ``_hash``.  Each word of ``generate_state`` depends
    only on its position, so any shorter request is answered exactly, and a
    bit generator seeded with this gets the state that ``SeedSequence``
    would give it."""

    __slots__ = ("_words", "_wide")

    def __init__(self, words: np.ndarray, wide: np.ndarray):
        self._words = words  # uint32
        self._wide = wide  # the same words as uint64

    def generate_state(self, n_words, dtype=np.uint32):
        dtype = np.dtype(dtype)
        if dtype not in (np.uint32, np.uint64):
            raise ValueError("only support uint32 or uint64")  # numpy's own error
        state = self._wide if dtype == np.uint64 else self._words
        if n_words > state.size:
            raise ValueError(f"only {state.size} words of {state.dtype} state are held")
        return state[:n_words].copy()


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count, 1) uint32 chain of hash constants ``init * mult**c``: hashmix
    call c xors with entry c and multiplies by entry c + 1."""
    chain = [init]
    for _ in range(count - 1):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, chain: np.ndarray, c: int, n: int) -> np.ndarray:
    """numpy's hashmix calls c, ..., c + n - 1 of ``value``: call c + i gives
    ``xorshift((value ^ chain[c + i]) * chain[c + i + 1])`` as row i."""
    h = (value ^ chain[c : c + n]) * chain[c + 1 : c + n + 1]
    return h ^ (h >> 16)


def _mix(pool: np.ndarray, h: np.ndarray) -> np.ndarray:
    """numpy's ``mix(p, h) = xorshift(p * MIX_MULT_L - h * MIX_MULT_R)``."""
    mixed = pool * _MIX_MULT_L - h * _MIX_MULT_R
    return mixed ^ (mixed >> 16)


def _hash(entropy: np.ndarray) -> np.ndarray:
    """(8, rows) uint32 ``SeedSequence(entropy[:, r]).generate_state(8)`` for
    an (L, rows) uint32 entropy array; row i of the pool is pool word i."""
    length, rows = entropy.shape
    # 4 hashmix calls per entropy word, and at least 16 to fill and mix the pool
    a = _constants(_INIT_A, _MULT_A, _POOL_SIZE * max(length, _POOL_SIZE) + 1)
    # fill the pool, running the hash out over zeros past the entropy
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[: min(length, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, a, 0, _POOL_SIZE)
    c = _POOL_SIZE
    # mix each pool word into every other one, so late bits reach early ones
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a, c, _POOL_SIZE - 1))
        c += _POOL_SIZE - 1
    # mix each further entropy word into every pool word
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, a, c, _POOL_SIZE))
        c += _POOL_SIZE
    # generate_state: pool words in cycle, hashed along the second chain
    b = _constants(_INIT_B, _MULT_B, _PCG64_WORDS + 1)
    return _hashmix(pool[np.arange(_PCG64_WORDS) % _POOL_SIZE], b, 0, _PCG64_WORDS)


def _int_words(value: int) -> list:
    """The uint32 words numpy's ``SeedSequence`` takes from an int: little
    endian, one word for zero."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words
