"""Small prime utilities: every prime the package handles comes out of
primes_up_to, and prime_factors is its one trial division."""

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


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    phi = n
    for p in prime_factors(n):
        phi = phi // p * (p - 1)
    return phi
