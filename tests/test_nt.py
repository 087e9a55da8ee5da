from math import gcd, prod

import pytest

from forms4d.errors import CapExceededError
from forms4d.nt import euler_phi, factorize, is_prime, mobius, ramanujan_sum


def test_factorize_small_numbers():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    for n in range(1, 2000):
        factors = factorize(n)
        assert prod(p**e for p, e in factors) == n
        assert all(is_prime(p) and e >= 1 for p, e in factors)
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_is_bounded():
    # the largest prime below 2^20 squared, and a prime cofactor just under 2^40
    assert factorize(1048573**2) == ((1048573, 2),)
    assert factorize(2 * 1099511627689) == ((2, 1), (1099511627689, 1))
    with pytest.raises(CapExceededError, match="cap 2\\^20"):
        factorize(1048583 * 1048589)  # both primes above 2^20


def test_is_prime_matches_divisor_count():
    for n in range(-3, 500):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, n))), n


def test_phi_and_mobius_match_definitions():
    for n in range(1, 300):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        # sum of mu(d) over d | n vanishes except at n = 1
        assert sum(mobius(d) for d in range(1, n + 1) if n % d == 0) == (n == 1)


def test_ramanujan_sum_small_cases():
    assert [ramanujan_sum(12, k) for k in range(6)] == [4, 0, 2, 0, -2, 0]
    assert ramanujan_sum(7, 1) == -1 and ramanujan_sum(7, 7) == 6
