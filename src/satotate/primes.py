"""Primes and prime counts.

``sieve`` lists the primes up to 10^8 (Eratosthenes) and ``prime_count``
counts them up to 10^11 without listing them (Lucy's form of Legendre's
recursion).  Coefficient tables are checked over the sieve's primes, the
pair frame runs over them, and the error envelopes divide by pi(x).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BudgetError, InvariantError
from .records import Record


class PrimeSieve(Record):
    """All primes up to ``bound`` (Eratosthenes, exact)."""

    bound: int
    primes: np.ndarray

    def _check(self):
        if self.bound >= 10 and int(np.searchsorted(self.primes, 10, "right")) != 4:
            raise InvariantError("sieve self-check failed at pi(10) = 4")
        if self.bound >= 100 and int(np.searchsorted(self.primes, 100, "right")) != 25:
            raise InvariantError("sieve self-check failed at pi(100) = 25")


#: largest bound that sieve accepts
SIEVE_MAX = 10**8


@functools.lru_cache(maxsize=1)
def sieve(bound):
    """Primes <= bound; bounded at SIEVE_MAX.

    The last bound is memoised: a run sieves each table's bound on ingest,
    and its pair frame sieves the same x again.  Every caller shares the
    primes array, so it is read-only.
    """
    if bound > SIEVE_MAX:
        raise BudgetError(f"sieve bound {bound} exceeds the 10^8 budget")
    if bound < 2:
        primes = np.empty(0, dtype=np.int64)
    else:
        mask = np.ones(bound + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, int(bound**0.5) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        primes = np.flatnonzero(mask).astype(np.int64)
    primes.flags.writeable = False
    return PrimeSieve(bound, primes)


#: largest x that prime_count accepts; its cost grows like x^(3/4)
PRIME_COUNT_MAX = 10**11


def prime_count(x):
    """pi(x), exact, for integers 0 <= x <= 10^11, without listing the primes.

    Lucy's form of Legendre's recursion (Lagarias, Miller & Odlyzko, 1985):
    S(v) counts the integers in [2, v] with no prime factor below p, for
    every v among the values floor(x/k).  Sieving by each prime p <= sqrt(x)
    updates S(v) -= S(v//p) - S(p-1) for all v >= p^2 at once.  The values
    floor(x/k) for k <= sqrt(x) live in ``large[k]``, the rest in
    ``small[v]``; every update reads only values from before the current p,
    so one vectorised step per prime is exact.  O(x^(3/4)) time and
    O(sqrt(x)) memory.
    """
    x = int(x)
    if x > PRIME_COUNT_MAX:
        raise BudgetError(f"prime_count bound {x} exceeds the 10^11 budget")
    if x < 2:
        return 0
    r = math.isqrt(x)
    small = np.arange(-1, r, dtype=np.int64)  # small[v] = S(v) = v - 1
    ks = np.arange(1, r + 1, dtype=np.int64)
    large = np.empty(r + 1, dtype=np.int64)  # large[k] = S(x // k)
    large[1:] = x // ks - 1
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite
        below = small[p - 1]
        p2 = p * p
        k_max = min(r, x // p2)  # large[k] changes while x // k >= p^2
        k_in = min(k_max, r // p)  # x // (k p) is in large[] while k p <= r
        large[1 : k_in + 1] -= large[p : p * k_in + 1 : p] - below
        large[k_in + 1 : k_max + 1] -= small[x // (ks[k_in:k_max] * p)] - below
        if p2 <= r:
            small[p2:] -= small[np.arange(p2, r + 1) // p] - below
    return int(large[1])
