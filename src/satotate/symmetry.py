"""The symmetries of the square and their action on polynomials and regions.

The joint Sato-Tate measure on [-2, 2]^2 is a product of two equal
measures, each even, so it is invariant under the order-8 group G of the
square, generated by u -> -u, v -> -v and u <-> v.  An element g = (a, b,
swap) maps (u, v) to (a*x, b*y), where (x, y) is (v, u) if swap and (u, v)
otherwise; it acts on a polynomial P by composition, P o g.  Every decision
here compares exact coefficients.

A region (a tree of sign constraints, see ``region.PolynomialRegion``) is
mapped by g onto itself, or onto its complement, up to a null set, when the
tree of the composed leaves P o g has the same canonical form as the region's
own tree: each leaf is read as the positive set of an oriented polynomial,
normalised up to sign, so that a leaf that g maps onto another leaf's
complement carries a sign -1; a sign node multiplies its children's signs,
and "and"/"or" nodes compare their children as multisets.  If g maps the
region onto its complement, the region's measure is exactly 1/2.
"""

from __future__ import annotations

import math
from collections import Counter

from .records import Record


class SquareSymmetry(Record):
    """(u, v) -> (a*x, b*y) with (x, y) = (v, u) if ``swap`` else (u, v)."""

    a: int
    b: int
    swap: bool

    def act(self, poly):
        """The composition P o g, i.e. P(a*x, b*y), computed exactly."""
        image = poly.sign_flip(self.a, self.b)
        return image.swap_vars() if self.swap else image

    def quadrants(self):
        """Where g sends the four children of a cell it fixes.

        A cell of the angle quadtree (u = 2 cos t, v = 2 cos s) has children
        q = di + 2*dj, the halves di of its t-range and dj of its s-range.
        u -> -u is t -> pi - t, so on the children of a fixed cell g
        permutes (di, dj) exactly as it permutes the four quarters of the
        square; the permutation is returned as a tuple indexed by q.
        """
        out = []
        for q in range(4):
            di, dj = q & 1, q >> 1
            if self.swap:
                di, dj = dj, di
            out.append((di if self.a > 0 else 1 - di) + 2 * (dj if self.b > 0 else 1 - dj))
        return tuple(out)


#: The group G of the square; the identity comes first.
SQUARE_GROUP = tuple(
    SquareSymmetry(a, b, swap) for swap in (False, True) for a in (1, -1) for b in (1, -1)
)


def _multiset(items):
    return frozenset(Counter(items).items())


def _canonical(node, polys):
    """(form, sign): the node's set is the set of ``form`` if sign = +1 and
    its complement if sign = -1, up to null sets.  ``polys[i]`` is leaf i's
    polynomial, oriented so that the leaf is its positive set."""
    kind = node[0]
    if kind == "leaf":
        poly = polys[node[1]]
        sign = 1 if poly.coeffs[max(poly.coeffs)] > 0 else -1
        return ("leaf", poly if sign > 0 else -poly), sign
    if kind == "sign":
        parts = [_canonical(child, polys) for child in node[2]]
        return ("sign", _multiset(form for form, _ in parts)), node[1] * math.prod(s for _, s in parts)
    parts = [_canonical(child, polys) for child in node[1]]
    if len(parts) == 1:
        return parts[0]
    return (kind, _multiset(parts)), 1


def region_symmetries(polys, tree):
    """(fixing, flipping): the elements of SQUARE_GROUP that map the region
    of ``tree`` onto itself, resp. onto its complement, up to null sets.

    ``polys[i]`` is leaf i's polynomial, oriented so that the leaf is the
    set where it is positive.  ``fixing`` is a subgroup, identity first.
    """
    form, sign = _canonical(tree, polys)
    fixing, flipping = [], []
    for g in SQUARE_GROUP:
        g_form, g_sign = _canonical(tree, [g.act(p) for p in polys])
        if g_form == form:
            (fixing if g_sign == sign else flipping).append(g)
    return tuple(fixing), tuple(flipping)
