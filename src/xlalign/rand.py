"""Portable seeded RNG for data-level noise and corpus synthesis.

xorshift64* with the canonical state transition

    s ^= s >> 12
    s ^= (s << 25) mod 2^64
    s ^= s >> 27
    output = (s * 0x2545F4914F6CDD1D) mod 2^64

so a seeded trace can be reproduced exactly from this comment alone, in any
language. A uniform draw is the top 53 bits of an output over 2^53.
Weight initialisation and batch sampling use numpy generators instead; only
corpus-facing noise needs cross-implementation portability.

`Xorshift64Star.uniforms(n)` draws the same documented stream in bulk, bit
for bit equal to n `uniform()` calls. The transition is linear over GF(2),
so m steps are one 64×64 bit matrix Tᵐ, whose columns are the 64 unit
vectors run through m steps. The n states are cut into about √(2n) lanes,
one per block of m consecutive states; lane j starts at the state Tᵐ takes
lane j - 1's start to (jump-ahead, applied as one table lookup per byte of
the state; the tables of the last few m are kept). numpy then advances all
lanes together, m steps of uint64 shifts and xors, and the output multiply
and shift run on the whole array.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_SEED_FILL = 0x9E3779B97F4A7C15  # used when the seed is 0 (xorshift state must be nonzero)


def _steps(s, m, out=None):
    """Advance the uint64 array `s` in place by m transitions, writing the
    state after step t into `out[t]` when `out` is given."""
    tmp = np.empty_like(s)
    for t in range(m):
        s ^= np.right_shift(s, 12, out=tmp)
        s ^= np.left_shift(s, 25, out=tmp)
        s ^= np.right_shift(s, 27, out=tmp)
        if out is not None:
            out[t] = s
    return s


@functools.lru_cache(maxsize=8)
def _jump_tables(m):
    """Tᵐ as 8 lookups: per byte of a state, the xor of the columns its set
    bits select, for all 256 byte values. Kept for the last few m as one
    (8, 256) uint64 array: 16 KiB, where Python ints would take 90 KiB."""
    columns = _steps(np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64)), m).tolist()
    tables = []
    for b in range(0, 64, 8):
        table = [0]
        for col in columns[b:b + 8]:
            table += [x ^ col for x in table]
        tables.append(table)
    return np.array(tables, dtype=np.uint64)


def _jump(tables, s):
    """The bit matrix of `_jump_tables` applied to the 64-bit state s."""
    out = 0
    for table in tables:
        out ^= table[s & 0xFF]
        s >>= 8
    return out


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

    def uniforms(self, n):
        """The next n `uniform()` values as a float64 array, and the state
        after each draw as a uint64 array. The generator moves past all n; a
        caller that uses only the first k draws sets `state = int(states[k - 1])`.
        """
        if n < 1:
            raise ValueError(f"uniforms needs n >= 1, got {n}")
        lanes = max(1, math.isqrt(2 * n))
        m = -(-n // lanes)
        starts = [self.state]
        if lanes > 1:
            tables = _jump_tables(m).tolist()
            for _ in range(lanes - 1):
                starts.append(_jump(tables, starts[-1]))
        states = np.empty((lanes, m), dtype=np.uint64)
        _steps(np.array(starts, dtype=np.uint64), m, states.T)
        states = states.reshape(-1)[:n]
        self.state = int(states[-1])
        out = states * np.uint64(_MULT)
        out >>= np.uint64(11)
        u = out.astype(np.float64)
        u /= float(1 << 53)
        return u, states

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
