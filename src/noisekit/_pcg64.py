"""numpy's `default_rng(seed).permutation(n)` stream in pure Python.

`_sgd` visits its rows in the order that successive calls of
``np.random.default_rng(seed).permutation(n)`` give. This module draws the
same orders without importing `numpy.random`, which is several MB of memory
for one shuffle per epoch, and without depending on numpy's Generator, whose
stream NEP 19 leaves free to change between releases. The parts:

* `SeedSequence(seed)`: the seed's 32-bit words are hashed into a 4-word
  pool, which gives the 128-bit PCG64 state and increment.
* PCG64: a 128-bit LCG with XSL-RR output. It steps the state, then outputs.
* `next_uint32`: the low half of a 64-bit output, keeping the high half for
  the next call.
* `Generator.shuffle`: for i from n-1 down to 1, j is drawn by masked
  rejection (``next_uint32() & mask`` until j <= i, mask the smallest
  2^b - 1 >= i) and a[i] and a[j] are swapped.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants and pool size.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _seed_words(seed: int) -> list[int]:
    """The seed as 32-bit words, least significant first; 0 is one word."""
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _pool(seed: int) -> list[int]:
    """SeedSequence's 4-word entropy pool for an int seed and no spawn key."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    entropy = _seed_words(seed)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    # Mix every word into every other, so late words affect early ones.
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # Mix in the entropy words beyond the pool size.
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state64(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``."""
    pool = _pool(seed)
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> _XSHIFT)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def permutations(seed: int, n: int):
    """Yield, without end, the lists that successive calls of
    ``np.random.default_rng(seed).permutation(n)`` return, for n <= 2**32
    (a larger n would make numpy draw 64-bit words).
    """
    s0, s1, s2, s3 = _state64(seed)
    # PCG64's srandom: inc = initseq << 1 | 1, then state = (inc + initstate) * M + inc.
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULTIPLIER + inc) & _MASK128
    held = None  # the high half of the last 64-bit output, not yet drawn
    # Locals, which the loop below reads faster than globals.
    multiplier, mask32, mask64, mask128 = _PCG_MULTIPLIER, _MASK32, _MASK64, _MASK128
    while True:
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if held is None:
                    state = (state * multiplier + inc) & mask128
                    x = (state >> 64 ^ state) & mask64
                    rot = state >> 122
                    out = (x >> rot | x << (64 - rot)) & mask64
                    value, held = out & mask32, out >> 32
                else:
                    value, held = held, None
                j = value & mask
                if j <= i:
                    break
            order[i], order[j] = order[j], order[i]
        yield order
