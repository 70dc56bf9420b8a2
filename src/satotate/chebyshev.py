"""Chebyshev polynomials of the second kind and the symmetric-power lift.

U_m satisfies U_0 = 1, U_1 = 2u, U_{m+1} = 2u U_m - U_{m-1}, and
U_m(cos t) = sin((m+1)t)/sin t.  The normalized prime coefficient a(p) of a
newform lifts to its m-th symmetric power via a(p^m) = U_m(a(p)/2) whenever
p does not divide the level; ``eval_u`` evaluates it, and
``counting.PairFrame.lift`` applies it over a command's primes.

The monic integer variant S_m(u) = U_m(u/2) satisfies
S_{m+1} = u S_m - S_{m-1} (U_m's coefficient of u^k is S_m's times 2^k);
composing with S keeps all coefficients integral, which the region and
counting machinery relies on for exact composition; ``counting`` makes the
exact sign decisions.
"""

from __future__ import annotations

import numpy as np

from .errors import CapError, DomainError

#: Degree cap keeping U_m coefficients comfortably inside exact 64-bit range
#: (the leading coefficient is 2^m).  Adjustable if a caller truly needs more.
DEGREE_CAP = 64


def check_degree(m):
    if m < 0:
        raise CapError(f"degree must be nonnegative, got {m}")
    if m > DEGREE_CAP:
        raise CapError(f"degree {m} exceeds cap {DEGREE_CAP}")


def check_pair(m, n):
    """The one rule of an (m, n) statistic or region: each degree in
    [0, DEGREE_CAP], and not both 0, where both lifts are U_0 = 1."""
    check_degree(m)
    check_degree(n)
    if m == 0 and n == 0:
        raise DomainError("(m, n) = (0, 0) lifts both coefficients to the constant 1")


def s_poly(m):
    """Monic integer coefficients of S_m(u) = U_m(u/2), ascending powers."""
    check_degree(m)
    prev, cur = [1], [0, 1]
    if m == 0:
        return (1,)
    for _ in range(m - 1):
        nxt = [0] + list(cur)
        for k, c in enumerate(prev):
            nxt[k] -= c
        prev, cur = cur, nxt
    return tuple(cur)


def eval_u(m, u):
    """Value of U_m at u via the forward recurrence (stable for m ~ 64).

    Accepts scalars or numpy arrays.
    """
    check_degree(m)
    u_arr = np.asarray(u, dtype=float)
    prev = np.ones_like(u_arr)
    if m == 0:
        return float(prev) if prev.shape == () else prev
    cur = 2.0 * u_arr
    for _ in range(m - 1):
        prev, cur = cur, 2.0 * u_arr * cur - prev
    return float(cur) if cur.shape == () else cur
