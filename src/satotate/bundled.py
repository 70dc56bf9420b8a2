"""Offline constructors for the bundled newforms.

``BUNDLED_FORMS`` is the one registry of the bundled labels.  Two forms carry
eta recipes (5.4.a.a and the discriminant form 1.12.a.a).  The weight-6
level-6 form 6.6.a.a has no single-eta-quotient expression; it is the fixed
integer combination ``_LEVEL6_TERMS``

    eta(z)^6 eta(3z)^6 - 8 eta(2z)^6 eta(6z)^6
    + 18 eta(z) eta(2z) eta(3z)^5 eta(6z)^5

of holomorphic eta-quotient cusp forms of the same weight and level.  It
equals -eta(z)^6 eta(3z)^6 + 8 eta(2z)^6 eta(6z)^6
+ 2 eta(z)^5 eta(2z)^5 eta(3z) eta(6z), but the fifth powers sit on
eta(3z) and eta(6z), whose sparse passes have fewer terms, so its dense
passes add 2,082 shifted rows at n = 10^5 instead of 2,789.  Every
build checks it against the shipped nine-coefficient snapshot; since
agreement through q^9 exceeds the Sturm bound (6) for weight 6 on
Gamma_0(6) (J. Sturm, "On the congruence of modular forms", LNM 1240,
1987), the match proves the combination equal to the newform, not merely
an approximation.  Every full-table invariant (Deligne bound, ramified-prime
values) is checked again on construction.  ``cli.resolve_table`` caches them.
"""

from __future__ import annotations

from .coeffs import (
    CoefficientTable,
    NewformDescriptor,
    eta_bound,
    eta_combination,
    expand_eta_quotient,
)
from .errors import InvariantError, NotFoundError

#: label -> (weight, level, eta recipe or None) of every bundled newform.
BUNDLED_FORMS = {
    "1.12.a.a": (12, 1, ((1, 24),)),
    "5.4.a.a": (4, 5, ((1, 4), (5, 4))),
    "6.6.a.a": (6, 6, None),
}

#: First nine coefficients of 6.6.a.a, shipped as an offline snapshot.
SNAPSHOT_6_6_A_A = (1, 4, -9, 16, -66, -36, 176, 64, 81)

#: The (integer weight, eta recipe) terms whose sum is 6.6.a.a.
_LEVEL6_TERMS = (
    (1, ((1, 6), (3, 6))),
    (-8, ((2, 6), (6, 6))),
    (18, ((1, 1), (2, 1), (3, 5), (6, 5))),
)


def descriptor_for(label):
    if label not in BUNDLED_FORMS:
        raise NotFoundError(f"no bundled data for label {label!r}")
    k, N, recipe = BUNDLED_FORMS[label]
    return NewformDescriptor(label=label, weight=k, level=N, eta_recipe=recipe)


def newform_bound(weight, n_max):
    """2 n_max^(k/2): a bound on |A(n)| for n <= n_max and any newform of
    weight k, by Deligne's bound |A(n)| <= d(n) n^((k-1)/2) and
    d(n) <= 2 sqrt(n) (divisors pair off around sqrt(n))."""
    return 2 * n_max ** (weight // 2)


def build_6_6_a_a(n_max):
    """Reconstruct 6.6.a.a up to n_max; exact integers, fully re-verified.

    Its moduli cover the newform bound, not the l1 bound of the eta
    factors.  That is sound: the coefficients of q^1..q^9 obey the l1 bound
    through q^9, which the moduli also cover, so they lift exactly; their
    match with the snapshot goes past the Sturm bound (6), so it proves the
    combination equal to 6.6.a.a; hence every coefficient obeys Deligne's
    bound and lifts exactly too.  A failed match raises before any
    coefficient beyond q^9 is used.  The newform bound 2 n_max^3 stays
    below 2^63 up to n_max of about 1.6e6 (2e15 at 1e5), so the combination
    runs in the 64-bit word, one uint64 row that wraps modulo 2^64 (see
    ``coeffs``), where the l1 bound would ask for three primes."""
    length = max(n_max, 9)
    sturm = sum(abs(c) * eta_bound(recipe, 9) for c, recipe in _LEVEL6_TERMS)
    bound = max(newform_bound(6, length), sturm)
    combo = eta_combination(_LEVEL6_TERMS, length, bound)[1:]
    if tuple(combo[:9].tolist()) != SNAPSHOT_6_6_A_A:
        raise InvariantError("level-6 combination does not match the snapshot expansion")
    return CoefficientTable(descriptor_for("6.6.a.a"), combo[:n_max])


def bundled_table(label, n_max):
    """Coefficient table for a bundled label, computed entirely offline.
    5.4.a.a and 1.12.a.a are their eta quotients, each the one normalized
    cusp form of a space of dimension 1 (S_4(Gamma_0(5)) and S_12(SL_2(Z))),
    so the newform bound sizes their moduli: the 64-bit word for 5.4.a.a
    (2 n_max^2) and for 1.12.a.a below n_max = 1291, primes for 1.12.a.a
    from there, where 2 n_max^6 passes 2^63."""
    descriptor = descriptor_for(label)
    if descriptor.eta_recipe is None:
        return build_6_6_a_a(n_max)
    return expand_eta_quotient(descriptor, n_max, newform_bound(descriptor.weight, n_max))
