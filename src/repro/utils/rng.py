"""Random-number-generator plumbing.

Every stochastic component in the library accepts a ``seed`` argument that is
threaded through :func:`default_rng`, so experiments are reproducible
bit-for-bit.  Independent streams for parallel or repeated sub-experiments
are derived with :func:`spawn_rngs`, which uses NumPy's ``SeedSequence``
spawning so the streams are statistically independent (never correlated the
way naive ``seed + i`` offsets can be).

Stateless per-cell streams, one per spawn key ``(k0, k1, ...)`` under a
shared entropy, come from :func:`spawn_key_rngs`: it runs NumPy's
``SeedSequence`` pool mixing for a whole array of keys at once and hands
the words to NumPy's own ``PCG64``, so every generator equals
``np.random.default_rng(SeedSequence(entropy, spawn_key=key))`` bit for
bit at a fraction of the construction cost.  Where a cell needs only its
first uniform draw, :func:`first_randoms` computes it from those words
with ``PCG64``'s own arithmetic and builds no generator at all.
"""

from __future__ import annotations

import operator
from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.exceptions import SpecificationError

__all__ = ["check_seed", "default_rng", "first_randoms", "spawn_key_rngs",
           "spawn_key_states", "spawn_rngs", "state_rng"]

RngLike = "int | np.random.Generator | np.random.SeedSequence | None"


def check_seed(seed, *, name: str = "seed") -> int:
    """``seed`` as a non-negative ``int``, the entropy ``SeedSequence``
    takes; :class:`~repro.exceptions.SpecificationError` otherwise."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise SpecificationError(
            f"{name} must be an integer, got {seed!r}") from None
    if value < 0:
        raise SpecificationError(f"{name} must be non-negative, got {value}")
    return value


def default_rng(seed=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh entropy), an ``int``, a ``SeedSequence``, or an
    existing ``Generator`` (returned unchanged so callers can share streams).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed, n: int) -> Sequence[np.random.Generator]:
    """Create ``n`` statistically independent generators from one seed.

    Parameters
    ----------
    seed:
        Anything accepted by :func:`default_rng`.  If a ``Generator`` is
        passed, its internal bit generator's seed sequence is spawned.
    n:
        Number of independent streams required.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        ss = seed.bit_generator.seed_seq
    elif isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


# ----------------------------------------------------------------------
# SeedSequence in arrays
# ----------------------------------------------------------------------
# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), with its
# default pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
#: Words ``PCG64`` asks of its seed: ``generate_state(4, np.uint64)``.
_PCG64_WORDS = 4
#: Each spawn-key entry must fit one 32-bit word, so every cell's
#: assembled entropy has the same length.
KEY_ENTRY_LIMIT = 2**32


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """The ``(xor, multiplier)`` pair of each successive hash call."""
    const = init
    while True:
        following = const * mult & _MASK32
        yield const, following
        const = following


def _key_words(spawn_key) -> list[np.ndarray]:
    """One uint32 column per key entry: ints stay shape ``(1,)`` and
    broadcast against the per-cell arrays."""
    words = []
    for entry in spawn_key:
        column = np.atleast_1d(np.asarray(entry))
        if column.ndim != 1 or column.dtype.kind not in "iu":
            raise SpecificationError(
                "spawn-key entries must be integers or 1-d integer arrays, "
                f"got {entry!r}")
        if column.size and (column.min() < 0
                            or column.max() >= KEY_ENTRY_LIMIT):
            raise SpecificationError(
                f"spawn-key entries must be in [0, 2**32), got values in "
                f"[{column.min()}, {column.max()}]")
        words.append(column.astype(np.uint32))
    return words


def spawn_key_states(entropy: int, spawn_key) -> np.ndarray:
    """``PCG64`` seed words of a whole array of spawn keys at once.

    Row ``i`` equals ``SeedSequence(entropy=entropy,
    spawn_key=key_i).generate_state(4, np.uint64)``, where ``key_i``
    takes entry ``j`` from ``spawn_key[j]``: an ``int`` shared by every
    cell or a 1-d integer array with one value per cell (the entries
    broadcast together).  The hash is NumPy's, run as uint32 array
    arithmetic; the entries before the first per-cell array are mixed
    once for all cells.

    Raises
    ------
    SpecificationError
        For a negative or non-integer ``entropy``, or a key entry outside
        ``[0, 2**32)``: a wider entry would take two words in
        ``SeedSequence``'s entropy and give cells unequal layouts.
    """
    entropy = check_seed(entropy, name="entropy")
    run = [entropy & _MASK32]
    entropy >>= 32
    while entropy:
        run.append(entropy & _MASK32)
        entropy >>= 32
    # SeedSequence zero-pads a spawned seed's entropy to the pool size;
    # without a key the padding hashes as the pool's own zero fill.
    run += [0] * (_POOL - len(run))
    words = [np.array([w], dtype=np.uint32) for w in run]
    words += _key_words(spawn_key)
    cells = np.broadcast_shapes(*(w.shape for w in words))

    consts = _hash_constants(_INIT_A, _MULT_A)

    def hashmix(value):
        xor, mult = next(consts)
        value = (value ^ xor) * mult
        return value ^ (value >> 16)

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    consts = _hash_constants(_INIT_B, _MULT_B)
    state = np.empty(cells + (2 * _PCG64_WORDS,), dtype="<u4")
    for i in range(2 * _PCG64_WORDS):
        state[:, i] = hashmix(pool[i % _POOL])
    # Little-endian pairs of words, as generate_state(..., np.uint64).
    return state.view("<u8").astype(np.uint64)


class _StateWords(ISeedSequence):
    """A seed whose ``PCG64`` words are already generated."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _PCG64_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"holds only generate_state({_PCG64_WORDS}, np.uint64)")
        return self.words


def state_rng(words: np.ndarray) -> np.random.Generator:
    """NumPy's ``Generator(PCG64)`` seeded with one row of
    :func:`spawn_key_states`, through NumPy's ``ISeedSequence``
    interface: PCG64's seeding and every draw stay NumPy's code."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


def spawn_key_rngs(entropy: int, spawn_key) -> Iterator[np.random.Generator]:
    """Yield one ``Generator`` per cell of :func:`spawn_key_states`.

    Each equals ``np.random.default_rng(np.random.SeedSequence(entropy,
    spawn_key=key_i))`` bit for bit (see :func:`state_rng`).  Generators
    are built as the iteration reaches them, so a consumer that draws
    from each in turn holds one at a time.
    """
    for words in spawn_key_states(entropy, spawn_key):
        yield state_rng(words)


# ----------------------------------------------------------------------
# PCG64's first draw in arrays
# ----------------------------------------------------------------------
# NumPy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG with the XSL-RR
# output.  A 128-bit value is a (high, low) pair of uint64 arrays, which
# wrap on overflow as the C code's integers do.
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_PCG_MULT_HI, _PCG_MULT_LO = _U64(0x2360ED051FC65DA4), _U64(0x4385DF649FCCF645)


def _mul_high(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * b``, from four 32-bit
    partial products."""
    a_lo, a_hi = a & _LOW32, a >> _U64(32)
    b_lo, b_hi = b & _LOW32, b >> _U64(32)
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    carry = ((lo_lo >> _U64(32)) + (lo_hi & _LOW32)
             + (hi_lo & _LOW32)) >> _U64(32)
    return a_hi * b_hi + (lo_hi >> _U64(32)) + (hi_lo >> _U64(32)) + carry


def _add128(a_hi, a_lo, b_hi, b_lo):
    """``a + b`` modulo ``2**128``."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _step128(hi, lo, inc_hi, inc_lo):
    """One LCG step, ``state * multiplier + inc`` modulo ``2**128``."""
    prod_hi = (_mul_high(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI
               + hi * _PCG_MULT_LO)
    return _add128(prod_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def first_randoms(states: np.ndarray) -> np.ndarray:
    """Each row's first ``Generator.random()``, with no generator built.

    ``states`` holds rows of :func:`spawn_key_states` words; entry ``i``
    equals ``state_rng(states[i]).random()`` bit for bit.  It follows
    NumPy's PCG64 in uint64 array arithmetic: the seeding (``state = 0``,
    ``inc = (initseq << 1) | 1``, a step, ``state += initstate``, a
    step), one more step for the draw, the XSL-RR output
    ``rotr64(high ^ low, high >> 58)``, and the double ``(out >> 11) *
    2**-53``.
    """
    words = np.asarray(states, dtype=np.uint64).reshape(-1, _PCG64_WORDS)
    init_hi, init_lo, seq_hi, seq_lo = words.T
    inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
    inc_lo = (seq_lo << _U64(1)) | _U64(1)
    hi, lo = _add128(inc_hi, inc_lo, init_hi, init_lo)
    hi, lo = _step128(hi, lo, inc_hi, inc_lo)
    hi, lo = _step128(hi, lo, inc_hi, inc_lo)
    mixed, rot = hi ^ lo, hi >> _U64(58)
    out = (mixed >> rot) | (mixed << ((_U64(64) - rot) & _U64(63)))
    return (out >> _U64(11)).astype(np.float64) * 2.0**-53
