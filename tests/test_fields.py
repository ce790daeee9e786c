import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from srlnc import FieldSpec
from srlnc.fields import is_prime, smallest_prime_greater_than

from helpers import GF3, GF5


@pytest.mark.parametrize("n", [-3, 0, 1, 4, 6, 9, 15, 21])
def test_nonprime_order_rejected(n):
    with pytest.raises(ValueError):
        FieldSpec(n)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(-7)


@given(st.integers(-10, 10**6) | st.integers(10**6, 3 * 10**24))
@settings(max_examples=400)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


@given(st.integers(2, 10**12), st.integers(2, 10**12))
@settings(max_examples=200)
def test_is_prime_on_primes_and_semiprimes(a, b):
    p, q = sympy.nextprime(a), sympy.nextprime(b)
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q)


# the least odd composites that are strong probable primes to the first n
# prime bases, n = 1, 2, 3, 4, 5, 6, 7, 9, 12 (the last fools all of 2..37,
# so only base 41 catches it), then three Carmichael numbers
@pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751, 2152302898747,
                               3474749660383, 341550071728321, 3825123056546413051,
                               318665857834031151167461, 561, 41041, 825265])
def test_strong_pseudoprimes_are_composite(n):
    assert not is_prime(n)


def test_large_orders_are_fast_or_rejected():
    t0 = time.perf_counter()
    assert FieldSpec(2**61 - 1).p == 2**61 - 1
    assert FieldSpec(2**31 - 1).p == 2**31 - 1
    assert time.perf_counter() - t0 < 0.5
    for n in (2**89 - 1, 3317044064679887385961981):
        with pytest.raises(ValueError):
            FieldSpec(n)


def test_smallest_prime_greater_than():
    assert smallest_prime_greater_than(1) == 2
    assert smallest_prime_greater_than(2) == 3
    assert smallest_prime_greater_than(3) == 5
    assert smallest_prime_greater_than(7) == 11
    assert smallest_prime_greater_than(13) == 17
    with pytest.raises(ValueError):
        smallest_prime_greater_than(0)


def test_fieldspec_equality():
    assert FieldSpec(3) == GF3
    assert hash(FieldSpec(3)) == hash(GF3)
    assert GF3 != GF5
    assert repr(GF3) == "GF(3)"
