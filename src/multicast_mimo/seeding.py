"""Deterministic random streams keyed by master seed, stream and realization.

Realization t of stream s draws from numpy's ``np.random.default_rng(
[master_seed, s, t])`` and from nothing else.  So any single realization can
be regenerated in isolation, without replaying the ones before it, and no
execution order or parallel split can reorder the streams.

``make_rngs`` gives those generators for a whole array of realizations at
once, state for state: ``SeedSequence``'s entropy mix and ``generate_state``
are a fixed chain of uint32 multiply, xor and shift steps, whose constants
depend only on the step, so the chain runs as array operations over every
realization.  Each realization index is one entropy word, so every row hashes
the same number of words.  It builds no ``SeedSequence``.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
# hashmix calls that fill and mix the pool, before any further entropy word
_POOL_CALLS = _POOL_SIZE * _POOL_SIZE

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
    words = np.ascontiguousarray(_hash(entropy, _PCG64_WORDS).T)
    return [
        np.random.Generator(np.random.PCG64(_PresetState(*state)))
        for state in zip(words, _as_uint64(words))
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
        state = self._wide if np.dtype(dtype) == np.uint64 else self._words
        if n_words > state.size:
            raise ValueError(f"only {state.size} words of {state.dtype} state are held")
        return state[:n_words].copy()


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count, 1) uint32 hash constants ``init * mult**i`` for i < count."""
    chain = [init]
    for _ in range(count - 1):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


def _pool_schedule():
    """(xor, mult) constants of the hashmix calls that mix the pool, as
    (k, 1) arrays: call c uses entries c and c + 1 of ``SeedSequence``'s
    constant chain, whatever the data.  First one call per pool word, then,
    for each source word, one per other word; that source word's own row is
    unused."""
    a = _constants(_INIT_A, _MULT_A, _POOL_CALLS + 1)
    first = (a[:_POOL_SIZE], a[1 : _POOL_SIZE + 1])
    sources, step = [], _POOL_SIZE
    for src in range(_POOL_SIZE):
        others = [dst - (dst > src) if dst != src else 0 for dst in range(_POOL_SIZE)]
        index = step + np.array(others)
        sources.append((a[index], a[index + 1]))
        step += _POOL_SIZE - 1
    return first, sources


_POOL_FIRST, _POOL_SOURCES = _pool_schedule()


def _xorshift(h: np.ndarray) -> None:
    h ^= h >> 16


def _mix_in(pool: np.ndarray, value: np.ndarray, x, m, scratch: np.ndarray) -> None:
    """``pool[i] = mix(pool[i], hashmix(value))`` for every pool word i, the
    hashmix of row i using the constants ``x[i]`` and ``m[i]``."""
    np.bitwise_xor(value, x, out=scratch)
    scratch *= m
    _xorshift(scratch)
    scratch *= _MIX_MULT_R
    pool *= _MIX_MULT_L
    pool -= scratch
    _xorshift(pool)


def _hash(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """(n_words, rows) uint32 ``SeedSequence(entropy[:, r]).generate_state(
    n_words)`` for an (L, rows) uint32 entropy array.

    Row i is pool word i, and each loop of ``SeedSequence.mix_entropy`` over
    the pool is one array step: hashmix(v) is ``xorshift((v ^ x) * m)`` and
    mix(p, h) is ``xorshift(p * MIX_MULT_L - h * MIX_MULT_R)``.
    """
    length, rows = entropy.shape
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[: min(length, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool ^= _POOL_FIRST[0]
    pool *= _POOL_FIRST[1]
    _xorshift(pool)
    scratch = np.empty_like(pool)
    for src, (x, m) in enumerate(_POOL_SOURCES):
        kept = pool[src].copy()  # mixed into every other pool word
        _mix_in(pool, kept, x, m, scratch)
        pool[src] = kept
    if length > _POOL_SIZE:
        # each further entropy word is mixed into every pool word
        extra = _POOL_SIZE * (length - _POOL_SIZE)
        a = _constants(_INIT_A, _MULT_A, _POOL_CALLS + extra + 1)[_POOL_CALLS:]
        for i, word in enumerate(entropy[_POOL_SIZE:]):
            calls = slice(_POOL_SIZE * i, _POOL_SIZE * (i + 1))
            _mix_in(pool, word, a[calls], a[calls.start + 1 : calls.stop + 1], scratch)
    b = _constants(_INIT_B, _MULT_B, n_words + 1)
    state = pool[np.arange(n_words) % _POOL_SIZE]
    state ^= b[:n_words]
    state *= b[1:]
    _xorshift(state)
    return state


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


def _as_uint64(words: np.ndarray) -> np.ndarray:
    """(rows, 2n) little-endian uint32 words as (rows, n) uint64, as numpy
    assembles ``generate_state(n, np.uint64)``."""
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)
