"""Seeded synthetic coefficient tables that satisfy the Hecke relations.

A table is built the way a newform's q-expansion is structured:

* at each prime p not dividing the level, an angle is drawn from the
  Sato-Tate law (2/pi) sin^2(t) dt and A(p) is the nonzero integer nearest
  to 2 cos(t) p^((k-1)/2), pulled inside the Deligne bound
  A(p)^2 <= 4 p^(k-1).  A(p) = 0 at a small prime would zero a fixed share
  of the table (a third of it for A(2) = 0) and change the work and memory
  of a run by 15 %, so no seed draws it;
* at each prime exactly dividing the (squarefree) level, A(p) = +-p^((k-2)/2);
* prime powers follow A(p^(r+1)) = A(p) A(p^r) - p^(k-1) A(p^(r-1)), or
  A(p^r) = A(p)^r when p divides the level;
* every other A(n) is the product over the prime powers exactly dividing n.

The same seed always gives the same tables.  ``lift_signs`` is the exact
integer oracle the density check compares against: for p coprime to the
level, sign(a(p^m)) = sign(U_m(a(p)/2)) is the sign of the integer A(p^m)
given by the recursion above.
"""

from __future__ import annotations

import math

import numpy as np

#: (label, weight k, squarefree level N).  The labels are not bundled with
#: the package, so the CLI serves them from the coefficient cache.
FORMS = (("11.4.syn.a", 4, 11), ("14.6.syn.a", 6, 14))


def primes_upto(n):
    """All primes <= n as an int64 array (sieve of Eratosthenes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _squarefree_primes(level):
    out, rest = [], level
    for p in range(2, level + 1):
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                raise ValueError(f"level {level} is not squarefree")
            out.append(p)
    return out


def sato_tate_angles(rng, size):
    """Angles in [0, pi] with density (2/pi) sin^2 t, by rejection sampling."""
    out = np.empty(0)
    while out.size < size:
        t = rng.uniform(0.0, math.pi, 2 * (size - out.size) + 16)
        keep = rng.uniform(0.0, 1.0, t.size) < np.sin(t) ** 2
        out = np.concatenate([out, t[keep]])
    return out[:size]


def prime_coefficients(rng, primes, k, level):
    """Integer A(p) for every prime in ``primes`` (a list of Python ints)."""
    ramified = set(_squarefree_primes(level))
    angles = sato_tate_angles(rng, len(primes))
    signs = rng.integers(0, 2, len(primes))
    out = []
    for p, t, s in zip(primes, angles, signs):
        if p in ramified:
            out.append((1 if s else -1) * p ** ((k - 2) // 2))
            continue
        x = 2.0 * math.cos(float(t)) * p ** ((k - 1) / 2)
        A = int(round(x)) or (1 if x >= 0 else -1)
        while A * A > 4 * p ** (k - 1):
            A -= 1 if A > 0 else -1
        out.append(A)
    return out


def hecke_table(seed, k, level, n_max):
    """A(1..n_max) as a list of Python ints, generated from ``seed``."""
    # |A(n)| <= d(n) n^((k-1)/2) <= 2 sqrt(n) n^((k-1)/2) keeps int64 exact
    if 2 * n_max ** (k / 2) >= 2**62:
        raise ValueError(f"n_max={n_max} at weight {k} overflows int64")
    rng = np.random.default_rng([seed, k, level])
    primes = [int(p) for p in primes_upto(n_max)]
    a_p = prime_coefficients(rng, primes, k, level)
    table = np.ones(n_max + 1, dtype=np.int64)
    table[0] = 0
    for p, A in zip(primes, a_p):
        powers = [1, A]  # A(p^0), A(p^1)
        q = p
        while q <= n_max:
            idx = np.arange(q, n_max + 1, q)
            idx = idx[(idx // q) % p != 0]
            table[idx] *= powers[-1]
            q *= p
            if level % p == 0:
                powers.append(A * powers[-1])
            else:
                powers.append(A * powers[-1] - p ** (k - 1) * powers[-2])
    return [int(c) for c in table[1:]]


def coefficient_file_text(label, k, level, coeffs):
    """The package's coefficient file format: a header, then ``n A(n)`` lines."""
    lines = [f"label={label} k={k} N={level}"]
    lines.extend(f"{n} {c}" for n, c in enumerate(coeffs, start=1))
    return "\n".join(lines) + "\n"


def lift_signs(a_p, primes, k, m):
    """Exact sign of a(p^m) for p coprime to the level, from integer A(p).

    ``a_p`` and ``primes`` are equal-length sequences of Python ints.
    """
    A = np.array(a_p, dtype=object)
    pk = np.array([p ** (k - 1) for p in primes], dtype=object)
    prev = np.ones(len(A), dtype=object)
    cur = A if m >= 1 else prev
    for _ in range(m - 1):
        prev, cur = cur, A * cur - pk * prev
    return np.array([(c > 0) - (c < 0) for c in cur], dtype=np.int8)
