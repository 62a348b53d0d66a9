"""``floattext.g17`` spells every float64 exactly as ``"%.17g" % v``."""
import math
from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entroflux import floattext


def _spelled(values) -> list:
    return [row.tobytes().replace(b"\0", b"").decode()
            for row in floattext.g17(values)]


def _assert_spelled(values) -> None:
    values = np.asarray(values, dtype=float)
    expected = ["%.17g" % v for v in values.tolist()]
    got = _spelled(values)
    assert len(got) == len(expected)
    wrong = [(v.hex(), g, e) for v, g, e in zip(values.tolist(), got, expected)
             if g != e]
    assert not wrong, f"{len(wrong)} of {len(values)} differ, e.g. {wrong[:5]}"


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
def test_hypothesis_arrays(values):
    _assert_spelled(values)


def test_special_values_and_subnormals():
    tiny = np.nextafter(0.0, 1.0)
    smallest_normal = 2.0 ** -1022
    values = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, tiny,
              -tiny, 2 * tiny, 3 * tiny, smallest_normal,
              np.nextafter(smallest_normal, 0.0), np.finfo(float).max,
              -np.finfo(float).max, 1.0, -1.0, 0.5, 0.1, 1 / 3, 100.0]
    _assert_spelled(values)
    _assert_spelled(np.array(values[::-1]))
    assert floattext.g17(np.array([])).shape == (0, floattext.WIDTH)


def test_random_bit_patterns():
    rng = np.random.default_rng(20261020)
    for _ in range(16):         # 16 * 65536 > 10^6 patterns
        bits = rng.integers(0, 2 ** 64, size=65536, dtype=np.uint64,
                            endpoint=False)
        _assert_spelled(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    for values in (powers, np.nextafter(powers, 0.0),
                   np.nextafter(powers, math.inf)):
        _assert_spelled(values)
        _assert_spelled(-values)
    # the last k written without an exponent is 16, and 17 digits round up
    # to the next power of ten just below each
    edges = [1e16, 1e16 - 2, 1e16 + 2, 1e17, 1e17 - 16, 1e17 + 16,
             99999999999999999.0, 9999999999999999.0, 99999999999999990.0,
             9.9999999999999995e16, 9.99999999999999999e22, 1e-4, 1e-5,
             9.99999999999999995e-5, 0.000099999999999999991]
    _assert_spelled(edges)
    assert _spelled([1e16, 1e17]) == ["10000000000000000", "1e+17"]


def _ties(rng, count):
    """Doubles whose decimal expansion has 18 significant digits, the last
    a 5: odd multiples of 2^-(18 - d) with d digits before the point."""
    values = []
    for d in range(1, 4):
        scale = 2 ** (18 - d)
        odd = 2 * rng.integers(10 ** (d - 1) * scale // 2,
                               10 ** d * scale // 2, size=count) + 1
        values.append(odd * 2.0 ** -(18 - d))
    return np.concatenate(values)


def test_exact_ties_round_half_even():
    rng = np.random.default_rng(7)
    values = np.concatenate([_ties(rng, 4000),
                             [1000000000000000.25, 1000000000000000.75]])
    digits = [Decimal(v).as_tuple().digits for v in values.tolist()]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    # half-even rounding takes an odd 17th digit up and an even one down
    assert {d[16] % 2 for d in digits} == {0, 1}
    _assert_spelled(values)
    _assert_spelled(-values)
    assert _spelled([1000000000000000.25, 1000000000000000.75]) == \
        ["1000000000000000.2", "1000000000000000.8"]
