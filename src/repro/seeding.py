"""NumPy's seeding, in pure Python: ``SeedSequence`` and PCG64's seed.

Every generator this package draws from is a ``PCG64`` seeded the way
``numpy.random.default_rng(seed)`` seeds one: a ``SeedSequence`` over
the seed's 32-bit words gives four 64-bit words, and those set the
128-bit LCG's state and increment.  The compiled library steps that
LCG itself (:mod:`repro.sim.library`), so a run that generates its
traces and flips its sampler's coins in C needs the seed words without
importing NumPy; these functions give them (and a workload mix its
per-core seeds, :func:`repro.workloads.mix.core_seed`).
``tests/test_seeding.py`` holds them to NumPy's own.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
#: SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
#: PCG64's 128-bit LCG multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128).
PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy: "int | list[int] | tuple[int, ...]") -> "list[int]":
    """The 32-bit words ``SeedSequence`` assembles from ``entropy``: an
    int's words least significant first (one zero word for 0), a
    sequence's ints' words back to back."""
    if isinstance(entropy, (list, tuple)):
        return [word for value in entropy for word in _words(value)]
    value = int(entropy)
    if value < 0:
        raise ValueError("seed entropy must be non-negative")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def generate_state(
    entropy: "int | list[int] | tuple[int, ...]", n_words: int
) -> "list[int]":
    """``SeedSequence(entropy).generate_state(n_words)``: 32-bit words."""
    entropy_words = _words(entropy)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [
        hashmix(entropy_words[i] if i < len(entropy_words) else 0)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy_words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = []
    hash_const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> _XSHIFT)
    return state


def generate_state64(
    entropy: "int | list[int] | tuple[int, ...]", n_words: int
) -> "list[int]":
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)``."""
    words = generate_state(entropy, 2 * n_words)
    return [words[2 * i] | words[2 * i + 1] << 32 for i in range(n_words)]


def pcg64_state(seed: int) -> "tuple[int, int]":
    """The 128-bit ``(state, inc)`` of ``numpy.random.PCG64(seed)``
    (``pcg64_set_seed``: the LCG stepped from zero, the seed's state
    word added, stepped again)."""
    high, low, seq_high, seq_low = generate_state64(seed, 4)
    inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
    state = (inc + (high << 64 | low)) & _MASK128
    return (state * PCG_MULTIPLIER + inc) & _MASK128, inc

