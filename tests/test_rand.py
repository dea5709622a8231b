import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlalign.rand import Xorshift64Star

MASK = (1 << 64) - 1


def reference_stream(seed, n):
    """Independent re-implementation of the documented state transition."""
    s = seed & MASK
    if s == 0:
        s = 0x9E3779B97F4A7C15
    out = []
    for _ in range(n):
        s ^= s >> 12
        s = (s ^ (s << 25)) & MASK
        s ^= s >> 27
        out.append((s * 0x2545F4914F6CDD1D) & MASK)
    return out


def test_matches_reference_trace():
    rng = Xorshift64Star(42)
    assert [rng.next_u64() for _ in range(50)] == reference_stream(42, 50)


def test_zero_seed_is_valid():
    rng = Xorshift64Star(0)
    assert [rng.next_u64() for _ in range(5)] == reference_stream(0, 5)


def test_uniform_range_and_mean():
    rng = Xorshift64Star(7)
    xs = [rng.uniform() for _ in range(20000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(np.mean(xs) - 0.5) < 0.01


def test_randint_bounds():
    rng = Xorshift64Star(3)
    draws = [rng.randint(10) for _ in range(1000)]
    assert min(draws) >= 0 and max(draws) <= 9
    assert len(set(draws)) == 10
    with pytest.raises(ValueError):
        rng.randint(0)


def test_shuffle_deterministic():
    a = list(range(20))
    b = list(range(20))
    Xorshift64Star(11).shuffle(a)
    Xorshift64Star(11).shuffle(b)
    assert a == b and sorted(a) == list(range(20)) and a != list(range(20))


def scalar_uniforms(seed, n):
    rng = Xorshift64Star(seed)
    return [rng.uniform() for _ in range(n)], rng.state


# n = 1 runs one lane and n = 2 two lanes of one draw; 49/50/51, 71/72/73
# and 97/98/99 sit on and beside a change of lane count (about sqrt(2n)
# lanes), and 50, 72 and 98 fill their last lane exactly
@pytest.mark.parametrize("n", [1, 2, 3, 4, 49, 50, 51, 71, 72, 73, 97, 98, 99, 100_000])
@pytest.mark.parametrize("seed", [0, 42, MASK])
def test_bulk_draw_is_the_scalar_stream(seed, n):
    rng = Xorshift64Star(seed)
    u, states = rng.uniforms(n)
    expected, end = scalar_uniforms(seed, n)
    assert u.dtype == np.float64 and u.shape == (n,) and states.shape == (n,)
    assert u.tolist() == expected
    assert rng.state == end == int(states[-1])


def test_bulk_draw_needs_a_draw():
    with pytest.raises(ValueError):
        Xorshift64Star(1).uniforms(0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, MASK), n=st.integers(1, 3000), data=st.data())
def test_bulk_draw_prefix_resumes_the_scalar_stream(seed, n, data):
    """Setting the state after a used prefix of k draws continues the stream
    exactly where k scalar draws would."""
    k = data.draw(st.integers(1, n))
    rng = Xorshift64Star(seed)
    u, states = rng.uniforms(n)
    expected, _ = scalar_uniforms(seed, n + 5)
    assert u.tolist() == expected[:n]
    rng.state = int(states[k - 1])
    assert [rng.uniform() for _ in range(5)] == expected[k:k + 5]
