"""Portable seeded RNG for data-level noise and corpus synthesis.

xorshift64* with the canonical state transition

    s ^= s >> 12
    s ^= (s << 25) mod 2^64
    s ^= s >> 27
    output = (s * 0x2545F4914F6CDD1D) mod 2^64

so a seeded trace can be reproduced exactly from this comment alone, in any
language. Weight initialisation and batch sampling use numpy generators
instead; only corpus-facing noise needs cross-implementation portability.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_SEED_FILL = 0x9E3779B97F4A7C15  # used when the seed is 0 (xorshift state must be nonzero)


class Xorshift64Star:
    def __init__(self, seed):
        self.state = int(seed) & _MASK64
        if self.state == 0:
            self.state = _SEED_FILL

    def next_u64(self):
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        self.state = s
        return (s * _MULT) & _MASK64

    def uniform(self):
        """Float in [0, 1) from the top 53 bits of the next output."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def randint(self, n):
        """Int in [0, n)."""
        if n <= 0:
            raise ValueError(f"randint needs n >= 1, got {n}")
        return int(self.uniform() * n)

    def shuffle(self, items):
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]
