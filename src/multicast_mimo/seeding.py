"""Deterministic seed derivation for reproducible, trial-isolated randomness.

Every random draw in the simulator is keyed by an integer seed derived from a
master seed and an index path, so any single trial can be regenerated without
replaying the ones before it, and parallel trial execution cannot reorder the
streams.

``child_seed`` and ``make_rng`` define the streams, one seed or generator at
a time, through ``np.random.SeedSequence``.  ``child_seeds`` and
``make_rngs`` give the same seeds and generators for a whole array of index
paths at once: ``SeedSequence``'s entropy mix and ``generate_state`` are a
fixed chain of uint32 multiply, xor and shift steps, whose constants depend
only on the step, so the chain runs as array operations over every path with
the same number of entropy words.  They build no ``SeedSequence``.
"""

import math

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


def child_seed(root_seed: int, *path: int) -> int:
    """Derive a decorrelated child seed from ``root_seed`` and an index path."""
    ss = np.random.SeedSequence((int(root_seed),) + tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed) -> np.random.Generator:
    """Return ``seed`` itself if it is already a Generator, else a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def child_seeds(root, *path) -> np.ndarray:
    """uint64 array of ``child_seed`` over broadcast index paths.

    ``root`` and each ``path`` entry are a non-negative int or an array of
    them below 2**64; element i of the result is ``child_seed(root[i],
    *(p[i] for p in path))``, exactly.
    """
    return _as_uint64(_generate_state((root,) + path, 2))[..., 0]


def make_rngs(seeds) -> list:
    """Generators ``[make_rng(int(s)) for s in seeds]``, state for state."""
    words = _generate_state((seeds,), _PCG64_WORDS).reshape(-1, _PCG64_WORDS)
    return [
        np.random.Generator(np.random.PCG64(_PresetState(*state)))
        for state in zip(words, _as_uint64(words))
    ]


class _PresetState(ISeedSequence):
    """The first uint32 words of a ``SeedSequence``'s state, computed in
    advance by ``_generate_state``.  Each word of ``generate_state`` depends
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


def _seed_array(value) -> np.ndarray:
    """``value`` as a uint64 array, rejecting what ``SeedSequence`` rejects."""
    v = np.asarray(value)
    if v.dtype == np.uint64:
        return v
    if v.dtype.kind not in "iu":
        raise TypeError("seeds must be integers")
    if v.dtype.kind == "i" and v.size and v.min() < 0:
        raise ValueError("expected non-negative integer")
    return v.astype(np.uint64)


def _generate_state(entropy, n_words: int) -> np.ndarray:
    """(*shape, n_words) uint32 states of ``SeedSequence(entropy)`` broadcast
    over the entries of ``entropy``.

    A scalar entry gives the same words to every row, whatever its size; an
    array entry is below 2**64, so it gives each row one word or two.  Rows
    with the same word counts hash together.
    """
    entries, shape = [], ()
    for value in entropy:
        if isinstance(value, (int, np.integer)):
            entries.append(_int_words(int(value)))
        else:
            entries.append(_seed_array(value))
            shape = np.broadcast_shapes(shape, entries[-1].shape)
    size = math.prod(shape)
    pattern = np.zeros(size, dtype=np.intp)  # bit i: entry i gives two words
    for i, v in enumerate(entries):
        if isinstance(v, np.ndarray):
            v = (v if v.shape == shape else np.broadcast_to(v, shape)).reshape(size)
            entries[i] = (v.astype(np.uint32), (v >> 32).astype(np.uint32))
            pattern += (entries[i][1] != 0) * (1 << i)
    out = np.empty((n_words, size), dtype=np.uint32)
    keys = np.flatnonzero(np.bincount(pattern))
    for key in keys:
        rows = np.flatnonzero(pattern == key) if len(keys) > 1 else slice(None)
        count = size if len(keys) == 1 else rows.size
        columns = []
        for i, words in enumerate(entries):
            columns += words[: 1 + (key >> i & 1)] if isinstance(words, tuple) else words
        group = np.empty((len(columns), count), dtype=np.uint32)
        for row, column in zip(group, columns):
            row[...] = column if isinstance(column, int) else column[rows]
        out[:, rows] = _hash(group, n_words)
    return np.ascontiguousarray(out.T).reshape(shape + (n_words,))


def _as_uint64(words: np.ndarray) -> np.ndarray:
    """Pairs of little-endian uint32 words as uint64, as numpy assembles
    ``generate_state(n, np.uint64)``."""
    pairs = np.ascontiguousarray(words, dtype="<u4")
    return pairs.view("<u8").astype(np.uint64).reshape(words.shape[:-1] + (-1,))
