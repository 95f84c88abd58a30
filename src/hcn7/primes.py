"""Primes: every prime the package handles comes out of one sieve,
primes_up_to."""

from math import isqrt


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes, inclusive of n."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start::p] = bytearray(len(sieve[start::p]))
    return [i for i, v in enumerate(sieve) if v]
