"""numpy's ``default_rng(seed).uniform`` in pure Python, draw for draw.

The package draws a few uniforms per episode from seeded streams, and
importing numpy for them cost more than the rest of start-up. This module
reproduces numpy's ``SeedSequence`` seeding and its PCG64 bit generator
(O'Neill, HMC-CS-2014-0905, 2014) with Python ints, so every draw equals
numpy's bit for bit for an int seed or a list of them.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's pool size and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG's default 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _entropy_words(seed) -> list[int]:
    """The seed as numpy coerces it: uint32 words, least significant first,
    and for a list each int's words in turn."""
    if isinstance(seed, (list, tuple)):
        return [word for s in seed for word in _entropy_words(s)]
    if not isinstance(seed, int):
        raise TypeError(f"seed must be an int or a list of ints (got {seed!r})")
    if seed < 0:
        raise ValueError(f"seed must be non-negative (got {seed})")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def _pool(words: list[int]) -> list[int]:
    """SeedSequence's entropy pool, mixed from the seed's words."""
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


class Generator:
    """A PCG64 stream (XSL-RR 128/64) drawing uniform floats as numpy does."""

    __slots__ = ("_state", "_inc")

    def __init__(self, state: int, inc: int):
        self._state = state
        self._inc = inc

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """One draw in [low, high), or a list of ``size`` draws in order."""
        if size is None:
            return low + (high - low) * self._next_double()
        return [low + (high - low) * self._next_double() for _ in range(size)]

    def _next_double(self) -> float:
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        rot = state >> 122
        word = ((state >> 64) ^ state) & _MASK64
        word = ((word >> rot) | (word << (64 - rot))) & _MASK64
        return (word >> 11) * 2.0 ** -53


def default_rng(seed) -> Generator:
    """numpy's ``default_rng(seed)`` for a non-negative int or a list of them:
    SeedSequence's state of four uint64 words seeds PCG64."""
    pool = _pool(_entropy_words(seed))
    const, halves = _INIT_B, []
    for i in range(2 * 4):
        value = pool[i % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        halves.append(value ^ (value >> 16))
    # uint32 pairs read as little-endian uint64 words
    s0, s1, s2, s3 = (halves[i] | (halves[i + 1] << 32) for i in range(0, 8, 2))
    # PCG seeding: state 0 steps once, adds the initial state, steps again
    inc = (((s2 << 64) | s3) << 1 | 1) & _MASK128
    return Generator(((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128, inc)
