"""Polynomial regions of [-2,2]^2 and the certified grid approximation.

A region is a tree of polynomial sign constraints, evaluated in three-valued
logic: "and" is the minimum, "or" the maximum, and a sign pattern the product
of its factors' signs.
The grid engine partitions the square into m^2 boxes along lines at
-2 + 4*tau*i/m (tau slightly above 1 so that the boxes are marginally wider
than 4/m), classifies every box by interval arithmetic as interior/exterior/
boundary, and returns the measure bracket

    mu(S) <= mu(E) <= mu(S) + mu(T),

S the union of definitely-interior boxes and T the undecided ones.  The
boundary-box count N is compared against the explicit area bound
(m^2/4) (4 pi L delta + 8 pi alpha delta^2) with delta = 4 sqrt(2) tau / m,
and a strip-merge pass checks that each vertical strip of S splits into at
most 1 + alpha*beta rectangles, where alpha counts boundary curves and beta
bounds intersections of a boundary curve with a vertical line (for an
algebraic curve, its degree; vertical lines are exempt).
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

import numpy as np

from . import measures, primes, symmetry
from .bipoly import Poly2, compose_bivariate, poly1_primitive, poly1_root_count
from .chebyshev import check_pair, s_poly
from .errors import (
    BudgetError,
    DegenerateError,
    DomainError,
    HypothesisError,
    InvariantError,
    ParseError,
)
from .records import Record

_HOLDS = {">": np.greater, ">=": np.greater_equal, "<": np.less, "<=": np.less_equal}
_OP_COMPLEMENT = {">": "<=", ">=": "<", "<": ">=", "<=": ">"}


class Constraint(Record):
    """A sign condition 'poly op 0' (any bound is folded into the polynomial)."""

    poly: Poly2
    op: str

    def _check(self):
        if self.op not in _HOLDS:
            raise DomainError(f"unknown comparison {self.op!r}")
        if self.poly.is_zero:
            raise DegenerateError("constraint polynomial is identically zero")
        if sum(abs(c) * 2 ** (i + j) for (i, j), c in self.poly.coeffs.items()) >= 2**500:
            raise DomainError("constraint too large for float evaluation: |P| may reach 2^500")

    def status(self, value):
        """int8 status of the polynomial's point values: +1 where the
        constraint holds, 0 where it fails at an exact zero, -1 elsewhere.

        A sign node needs the 0.  Under "and" and "or" it changes no
        membership: whether a node is +1 depends only on which leaves are +1.
        """
        value = np.asarray(value)
        one, zero, minus = np.int8(1), np.int8(0), np.int8(-1)
        return np.where(_HOLDS[self.op](value, 0), one, np.where(value == 0, zero, minus))

    @property
    def direction(self):
        """The sign the polynomial must have: +1 for > and >=, -1 for < and <=."""
        return 1 if self.op in (">", ">=") else -1

    def box_status(self, lo, hi):
        """int8 status of boxes where the polynomial's enclosure is [lo, hi]:
        +1 definitely satisfied, -1 definitely violated, 0 unknown; strict
        and non-strict ops classify alike, as boundary sets are null.  Where
        both masks hold (ends crossed in rounding) +1 wins."""
        yes, no = (lo > 0, hi < 0) if self.direction > 0 else (hi < 0, lo > 0)
        return yes.view(np.int8) - (no > yes).view(np.int8)


class PolynomialRegion:
    """A subset of [-2,2]^2 cut out by polynomial constraints.

    ``tree`` nodes are ("leaf", index), ("and", children), ("or", children)
    or ("sign", target, children) with target +1 or -1.
    """

    def __init__(self, constraints, tree=None, label="region"):
        self.leaves = tuple(constraints)
        if tree is None:
            tree = ("and", tuple(("leaf", i) for i in range(len(self.leaves))))
        self.tree = tree
        self.label = label
        self._axes = tuple(self._leaf_axis(c.poly) for c in self.leaves)
        self.is_separable = all(ax in ("u", "v") for ax in self._axes)
        # distinct boundary curves: one per distinct constraint polynomial
        curves = []
        for c in self.leaves:
            if c.poly not in curves:
                curves.append(c.poly)
        self.curves = tuple(curves)
        self.alpha = len(self.curves) + 4  # four square edges always counted
        beta = 1  # horizontal edges meet a vertical line once
        for poly in self.curves:
            if not poly.depends_on_v():
                continue  # components lie on vertical lines; exempt
            beta = max(beta, poly.total_degree())
        self.beta = beta

    @staticmethod
    def _leaf_axis(poly):
        dep_u, dep_v = poly.depends_on_u(), poly.depends_on_v()
        if dep_u and dep_v:
            return "uv"
        return "v" if dep_v else "u"

    def leaf_axes(self):
        return self._axes

    @functools.cached_property
    def symmetries(self):
        """(fixing, flipping): the elements of ``symmetry.SQUARE_GROUP`` that
        map the region onto itself, resp. onto its complement, up to null
        sets (see ``symmetry.region_symmetries``)."""
        return symmetry.region_symmetries([c.poly * c.direction for c in self.leaves], self.tree)

    # -- membership -------------------------------------------------------------

    def tree_status(self, statuses, shape):
        """Three-valued tree evaluation over int8 status arrays that
        broadcast to ``shape``.

        Statuses are +1 (true), -1 (false) and 0 (undecided).  In Kleene's
        strong logic "and" is the minimum and "or" the maximum; a sign node
        is its target times the product of its children's statuses.
        """

        def rec(node):
            kind = node[0]
            if kind == "leaf":
                return np.broadcast_to(statuses[node[1]], shape)
            if kind == "sign":
                return node[1] * functools.reduce(np.multiply, map(rec, node[2]))
            parts = [rec(child) for child in node[1]]
            if not parts:
                return np.full(shape, 1 if kind == "and" else -1, dtype=np.int8)
            return functools.reduce(np.minimum if kind == "and" else np.maximum, parts)

        return rec(self.tree)

    def contains_many(self, u, v):
        """Vectorized float membership (no guard band)."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        statuses = [leaf.status(leaf.poly.eval_float(u, v)) for leaf in self.leaves]
        return self.tree_status(statuses, shape=np.broadcast(u, v).shape) == 1

    def complement(self):
        """Region with the complementary membership (boundary excluded).

        "and" and "or" swap and their leaves flip; a sign node keeps its
        factors and negates its target.
        """
        flipped = set()

        def flip(node):
            if node[0] == "leaf":
                flipped.add(node[1])
                return node
            if node[0] == "sign":
                return ("sign", -node[1], node[2])
            return ("or" if node[0] == "and" else "and", tuple(flip(c) for c in node[1]))

        tree = flip(self.tree)
        leaves = tuple(
            Constraint(c.poly, _OP_COMPLEMENT[c.op]) if i in flipped else c
            for i, c in enumerate(self.leaves)
        )
        return PolynomialRegion(leaves, tree, label=f"not({self.label})")

    # -- boundary bookkeeping -----------------------------------------------------

    @functools.cached_property
    def traced_boundary(self):
        """(total length, component count) of the constraint curves, from
        ``trace_boundary``: an upper length estimate, the four square edges
        not included."""
        total, comps = 0.0, 0
        for poly in self.curves:
            length, ncomp = trace_boundary(poly)
            total += length
            comps += ncomp
        return total, comps

    def envelope_params(self):
        """(L, alpha, beta) for the effective error envelopes: L is the
        curves' estimated length (``traced_boundary``) plus the four square
        edges (total length 16)."""
        length, _ = self.traced_boundary
        return (length + 16.0, self.alpha, self.beta)

    def __repr__(self):
        return f"PolynomialRegion({self.label!r}, leaves={len(self.leaves)})"


# -- constructors ---------------------------------------------------------------


def full_square():
    return PolynomialRegion((), ("and", ()), label="full-square")


def rect(u_lo, u_hi, v_lo, v_hi):
    """Axis-aligned rectangle [u_lo, u_hi] x [v_lo, v_hi]; DomainError when
    an end is reversed, as for ``measures.Interval``."""
    if u_lo > u_hi or v_lo > v_hi:
        raise DomainError(f"rectangle ends out of order: [{u_lo}, {u_hi}] x [{v_lo}, {v_hi}]")
    cons = []
    for key, lo, hi in (((1, 0), u_lo, u_hi), ((0, 1), v_lo, v_hi)):
        if lo > -2:
            cons.append(Constraint(Poly2({key: 1, (0, 0): -Fraction(lo)}), ">="))
        if hi < 2:
            cons.append(Constraint(Poly2({key: 1, (0, 0): -Fraction(hi)}), "<="))
    if not cons:
        return full_square()
    return PolynomialRegion(tuple(cons), label=f"rect[{u_lo},{u_hi}]x[{v_lo},{v_hi}]")


def disk(radius=1):
    """The open disk u^2 + v^2 < radius^2; the radius must be finite and
    positive (a zero radius gives the empty region, a negative one the
    disk of its absolute value)."""
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"disk radius must be finite and positive, got {radius}")
    p = Poly2({(2, 0): 1, (0, 2): 1, (0, 0): -Fraction(radius) ** 2})
    return PolynomialRegion((Constraint(p, "<"),), label=f"disk(r={radius})")


def sign_product(m, n):
    """Region where U_m(u/2) * U_n(v/2) is positive.

    Built from univariate factors, so its measure is exact up to rounding
    (see ``measures.mu_jst_region``).  Index 0 contributes the constant
    factor 1 and is dropped.
    """
    check_pair(m, n)
    factors = [Poly2.from_univariate(s_poly(ell), axis) for ell, axis in ((m, "u"), (n, "v")) if ell > 0]
    return _sign_pattern(factors, 1, f"sign[{m},{n}]+")


def region_from_poly_interval(P, interval, m, n):
    """The region {(u,v) : P(U_m(u/2), U_n(v/2)) in I}.

    P is a Poly2 in the lifted coordinates; the composition with the monic
    integer polynomials S_m, S_n is exact, and the resulting degree feeds the
    vertical-line intersection bound beta.
    """
    check_pair(m, n)
    if P.is_constant():
        raise DomainError("P must be non-constant")
    composed = compose_bivariate(P, list(s_poly(m)), list(s_poly(n)))
    if composed.is_constant():
        raise DomainError("composed polynomial is constant on the square")
    label = f"poly-interval[{interval.lo},{interval.hi}]({m},{n})"
    if interval.lo == math.inf or interval.hi == -math.inf:
        return _null_region(composed, label)  # no real value lies in I
    cons = []
    if math.isfinite(interval.lo):
        cons.append(
            Constraint(
                composed - Poly2.constant(Fraction(interval.lo)),
                ">=" if interval.lo_closed else ">",
            )
        )
    if math.isfinite(interval.hi):
        cons.append(
            Constraint(
                composed - Poly2.constant(Fraction(interval.hi)),
                "<=" if interval.hi_closed else "<",
            )
        )
    if not cons:
        return full_square()
    return PolynomialRegion(tuple(cons), label=label)


def _null_region(poly, label):
    """The empty region: an "or" over no children, beside one leaf on
    ``poly`` that keeps its curve in the boundary bookkeeping."""
    return PolynomialRegion((Constraint(poly, ">"),), ("or", ()), label=label)


def _factors(poly):
    """Exact irreducible factorization of a Poly2 over the rationals:
    (constant_sign, [(factor_poly2, multiplicity), ...]) in the
    normalization of ``sympy.factor_list(expr, u, v)``.

    The Newton-polygon certificate decides most boundary curves without
    sympy; sympy factors whatever the certificate cannot decide.
    """
    return _newton_certificate(poly) or _sympy_factors(poly)


def _newton_certificate(poly):
    """(csign, [(primitive poly, 1)]) when the Newton polygon proves ``poly``
    irreducible over Q, else None.

    By Ostrowski's theorem Newt(gh) = Newt(g) + Newt(h).  A factor whose
    polygon is a single point is a monomial, which a polynomial with a term
    free of u and a term free of v does not have; so such a polynomial is
    irreducible when its polygon is integrally indecomposable (S. Gao,
    J. Algebra 237 (2001)).  The factor is returned primitive over Z with a
    positive lex-leading coefficient (u before v), its terms in descending
    lex order, exactly as sympy returns them; csign is the sign of that
    coefficient in ``poly``.
    """
    keys = poly.coeffs
    if not (any(i == 0 for i, _ in keys) and any(j == 0 for _, j in keys)):
        return None
    if not _integrally_indecomposable(_convex_hull(keys)):
        return None
    order = sorted(keys, reverse=True)
    ints = poly1_primitive([poly.coeffs[key] for key in order])
    csign = 1 if ints[0] > 0 else -1
    return csign, [(Poly2({key: Fraction(csign * c) for key, c in zip(order, ints)}), 1)]


def _convex_hull(points):
    """Vertices of the convex hull of integer points, counter-clockwise and
    without collinear points (Andrew's monotone chain); a segment gives its
    two ends."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and (
                (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])
            ) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(pts) + half(reversed(pts))


def _integrally_indecomposable(hull):
    """Whether the lattice polygon with these vertices is not a Minkowski
    sum of two lattice polygons, neither a point.

    Its boundary is a cycle of primitive steps: each edge is its primitive
    vector repeated lattice-length times.  A summand's edges would be a
    proper, non-empty sub-selection of these steps summing to zero; the
    search for one runs over the set of partial sums.  A selection or its
    complement holds the first step, so the first step is taken and only
    "some step left out" is tracked.  A segment is two opposite edges, so it
    is indecomposable exactly when its lattice length is 1.
    """
    if len(hull) < 2:
        return False
    edges = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        length = math.gcd(x1 - x0, y1 - y0)
        edges.append(((x1 - x0) // length, (y1 - y0) // length, length))
    (dx, dy, length), rest = edges[0], edges[1:]
    sums = {(c * dx, c * dy, c < length) for c in range(1, length + 1)}
    for dx, dy, length in rest:
        sums = {
            (x + c * dx, y + c * dy, left_out or c < length)
            for x, y, left_out in sums
            for c in range(length + 1)
        }
    return (0, 0, True) not in sums


def _sympy_factors(poly):
    """Exact irreducible factorization of a Poly2 over the rationals by
    sympy.  Returns (constant_sign, [(factor_poly2, multiplicity), ...]).
    """
    import sympy

    u_sym, v_sym = sympy.symbols("u v")
    expr = sympy.Integer(0)
    for (i, j), c in poly.coeffs.items():
        expr += sympy.Rational(Fraction(c)) * u_sym**i * v_sym**j
    const, factors = sympy.factor_list(expr, u_sym, v_sym)
    out = []
    for f, mult in factors:
        sp = sympy.Poly(f, u_sym, v_sym)
        coeffs = {}
        for (i, j), c in sp.terms():
            coeffs[(i, j)] = Fraction(int(c.p), int(c.q))
        out.append((Poly2(coeffs), int(mult)))
    csign = 1 if const > 0 else -1
    return csign, out


def _sign_pattern(factors, sign, label):
    """Region where the product of the factor polynomials has the sign of
    ``sign``: one ">" leaf per factor under a single sign node, so the
    product is never expanded.  Zeros of a factor belong to neither sign."""
    leaves = tuple(Constraint(poly, ">") for poly in factors)
    tree = ("sign", 1 if sign > 0 else -1, tuple(("leaf", i) for i in range(len(leaves))))
    return PolynomialRegion(leaves, tree, label=label)


def poly_positive(P, m, n, sign=1):
    """Positivity (or negativity) set of P(U_m(u/2), U_n(v/2)).

    When the composed polynomial factors as A(u)*B(v) the region is built
    from the univariate factors, whose exact roots give its measure.
    Otherwise it is split into irreducible factors and the sign condition
    becomes one sign node over them: interval arithmetic certifies each
    factor near its own zero set far faster than the expanded product, whose
    enclosures degenerate wherever several factors vanish together.  Factors
    of even multiplicity cannot change the sign off a measure-zero set and
    are dropped.
    """
    check_pair(m, n)
    if P.is_constant():
        raise DomainError("P must be non-constant")
    composed = compose_bivariate(P, list(s_poly(m)), list(s_poly(n)))
    if composed.is_constant():
        raise DomainError("composed polynomial is constant on the square")
    op = ">" if sign > 0 else "<"
    label = f"poly{op}0({m},{n})"
    factors = composed.rank_one_factors()
    if factors is not None:
        a_coeffs, b_coeffs = factors
        pa = Poly2.from_univariate(a_coeffs, "u")
        pb = Poly2.from_univariate(b_coeffs, "v")
        if not (pa.is_constant() or pb.is_constant()):
            return _sign_pattern((pa, pb), sign, label)
    csign, parts = _factors(composed)
    odd = [poly for poly, mult in parts if mult % 2 == 1]
    target = (1 if sign > 0 else -1) * csign
    if not odd:
        # a.e. constant sign: the region is the full square or a null set
        if target > 0:
            return full_square()
        return _null_region(composed, label)
    return _sign_pattern(odd, target, label)


# -- grid ------------------------------------------------------------------------


class GridLines(Record):
    """The m+1 grid lines per axis: -2 + 4*tau*i/m for i < m, closed by +2."""

    m: int
    tau: float
    edges: np.ndarray

    _hidden = ("edges",)


def build_grid(m):
    """Grid lines with tau = 1 + 1/(2*sqrt(2)*m), inside (1, 1 + 1/(2m));
    the closing line sits exactly at +2."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    tau = 1.0 + 1.0 / (2.0 * math.sqrt(2.0) * m)
    edges = np.empty(m + 1)
    edges[:m] = -2.0 + 4.0 * tau * np.arange(m) / m
    edges[m] = 2.0
    if not np.all(np.diff(edges) > 0):
        raise InvariantError("grid edges are not strictly increasing")
    return GridLines(m, tau, edges)


class GridApproximation(Record):
    """Box classification of a region on the m x m grid.

    ``status[i, j]`` covers the box [edges[i], edges[i+1]] x [edges[j],
    edges[j+1]] and holds +1 (interior), -1 (exterior) or 0 (boundary).
    """

    region: PolynomialRegion
    grid: GridLines
    status: np.ndarray
    mu_low: float
    mu_high: float
    boundary_count: int

    _hidden = ("status",)

    @property
    def m(self):
        return self.grid.m

    @property
    def tau(self):
        return self.grid.tau

    @property
    def bracket(self):
        return (self.mu_low, self.mu_high)


#: the first round of classify_boxes classifies blocks of b x b boxes, b the
#: largest power of two leaving at least this many whole blocks per axis
_FIRST_BLOCKS = 16


def classify_boxes(region, m):
    """Classify every grid box by rigorous interval sign analysis.

    Interval arithmetic is conservative, so definitely-interior boxes lie in
    the region's interior and every box meeting the boundary lands in the
    boundary set; the resulting bracket encloses the true measure.

    The boxes are classified coarse to fine.  A block of b x b boxes is
    bounded by every b-th line of the grid (the last block may be partial),
    so one enclosure covers all of its boxes: a block decided in or out
    decides them all, and only the boxes of undecided blocks are refined,
    halving b each round down to single boxes.  The first round is a tensor
    grid of blocks; later rounds evaluate the scattered children.
    """
    if m > 4096:
        raise BudgetError(f"grid resolution {m} exceeds the 4096 budget")
    grid = build_grid(m)
    b = 1 << max((m // _FIRST_BLOCKS).bit_length() - 1, 0)
    n = -(-m // b)  # blocks per axis
    lines = grid.edges[np.minimum(np.arange(n + 1) * b, m)]
    # one enclosure per distinct polynomial; a Constraint is never zero
    enclosures = {poly: poly.interval_eval_grid(lines, lines) for poly in region.curves}
    statuses = [leaf.box_status(*enclosures[leaf.poly]) for leaf in region.leaves]
    tree = region.tree_status(statuses, shape=(n, n))
    while b > 1:
        b //= 2
        n = -(-m // b)
        # each block passes its status to its (up to) four children
        tree = tree.repeat(2, axis=0).repeat(2, axis=1)[:n, :n]
        i, j = np.nonzero(tree == 0)
        if i.size:
            lines = grid.edges[np.minimum(np.arange(n + 1) * b, m)]
            statuses = measures.leaf_statuses(region.leaves, lines[i], lines[i + 1], lines[j], lines[j + 1])
            tree[i, j] = region.tree_status(statuses, shape=i.shape)
    mu_low, mu_boundary = measures.tensor_sums(tree, grid.edges, grid.edges)
    return GridApproximation(
        region=region,
        grid=grid,
        status=tree,
        mu_low=mu_low,
        mu_high=min(1.0, mu_low + mu_boundary),
        boundary_count=int((tree == 0).sum()),
    )


def boundary_bound_check(approx):
    """Observed boundary-box count of a grid classification against the
    explicit area bound.

    The bound is (m^2/4) * (4 pi L delta + 8 pi alpha delta^2) with delta the
    box diameter bound 4 sqrt(2) tau / m, L the estimated total length of
    the constraint curves (``trace_boundary``) and alpha their estimated
    component count.  Raises InvariantError if the observed count exceeds
    it.
    """
    m = approx.m
    length, comps = approx.region.traced_boundary
    delta = 4.0 * math.sqrt(2.0) * approx.tau / m
    bound = (m**2 / 4.0) * (4.0 * math.pi * length * delta + 8.0 * math.pi * comps * delta**2)
    n_obs = approx.boundary_count
    if n_obs > bound:
        raise InvariantError(
            f"boundary-box count {n_obs} exceeds the area bound {bound:.1f} at m={m}"
        )
    return n_obs, bound


class StripMerge(Record):
    """Maximal interior rectangles per vertical strip."""

    rectangles: tuple
    per_strip_counts: np.ndarray


def strip_merge(approx):
    """Merge vertically adjacent interior boxes of a grid classification
    within each vertical strip.

    Each strip contributes at most 1 + alpha*beta rectangles (a boundary
    curve either lies on a vertical line or crosses a vertical line at most
    beta times); violation raises HypothesisError.
    """
    edges = approx.grid.edges
    cap = 1 + approx.region.alpha * approx.region.beta
    inside = np.pad(approx.status == 1, ((0, 0), (1, 1))).astype(np.int8)
    step = np.diff(inside, axis=1)  # +1 where a run starts, -1 one past its end
    starts = step == 1
    counts = starts.sum(axis=1)
    over = np.flatnonzero(counts > cap)
    if over.size:
        i = over[0]
        raise HypothesisError(
            f"strip {i} splits into {counts[i]} components, above 1+alpha*beta={cap}"
        )
    i, j0 = np.nonzero(starts)
    j1 = np.nonzero(step == -1)[1]
    rectangles = tuple(zip(zip(edges[i], edges[i + 1]), zip(edges[j0], edges[j1])))
    return StripMerge(rectangles, counts)


# -- boundary curve length --------------------------------------------------------

#: Lines per axis of the two sweeps that estimate a curve's length.
LINES = 1024


def _share(p_u, p_v):
    """|cos|^5 / (|cos|^6 + |sin|^6) of the angle between the u-axis and the
    tangent normal to the gradient (p_u, p_v); 0 where the gradient is 0."""
    grad = np.hypot(p_u, p_v)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos, sin = np.abs(p_v) / grad, np.abs(p_u) / grad
        return np.where(grad > 0, cos**5 / (cos**6 + sin**6), 0.0)


def _sweep(poly):
    """(weighted length, component estimate) of {poly = 0} from its points
    on the lines u = c_k = -2 + 4 (k + 1/2) / LINES: the real roots in
    [-2, 2] of poly(c_k, v).  The estimate is the count on the first line
    plus every rise in the count from one line to the next."""
    h = 4.0 / LINES
    c = (-2.0 + h * (np.arange(LINES) + 0.5))[:, None]
    d_u, d_v = poly.derivative("u"), poly.derivative("v")
    roots = poly.section_roots(c[:, 0])
    inside = (roots >= -2) & (roots <= 2)
    total = h * np.where(inside, _share(d_u.eval_float(c, roots), d_v.eval_float(c, roots)), 0.0).sum()
    # the midpoint rule moves the jump where the curve crosses v = +-2 at x
    # to the nearest cell boundary b; the share at x times b - x, or x - b
    # where the curve lies left of x, puts it back.  Where the curve only
    # touches the edge (to within 1e-6 rad) there is no jump.
    edge = np.array([[-2.0], [2.0]])
    x = poly.swap_vars().section_roots(edge[:, 0])
    p_u, p_v = d_u.eval_float(x, edge), d_v.eval_float(x, edge)
    side = np.sign(p_u * p_v * edge) * (np.abs(p_u) > 1e-6 * np.hypot(p_u, p_v))
    b = -2.0 + h * np.round((x + 2.0) / h)
    total += np.where(np.abs(x) <= 2, _share(p_u, p_v) * side * (b - x), 0.0).sum()
    counts = inside.sum(axis=1)
    return float(total), int(counts[0] + np.maximum(np.diff(counts), 0).sum())


def trace_boundary(poly):
    """Length of {poly = 0} inside the square, and an estimate of its number
    of components.

    Returns (upper length estimate, component count); the estimate carries a
    1% safety factor on top of the computed length.  A curve in u (or v)
    alone is a set of lines, one of length 4 through each distinct root in
    [-2, 2], counted exactly (``bipoly.poly1_root_count``).  Any other curve is integrated
    over the lines u = c and v = c (``_sweep``); the shares of its tangent's
    angle to the u-axis, |cos|^6 and |sin|^6 over |cos|^6 + |sin|^6, count
    every arc once (README, numerical notes).  A curve parallel to one
    sweep's lines is invisible to it, so the larger component estimate wins.
    """
    if poly.is_zero:
        raise DegenerateError("cannot trace the zero polynomial")
    if not (poly.depends_on_u() and poly.depends_on_v()):
        lines = poly1_root_count(poly.univariate())
        return 4.0 * lines, lines
    (length_u, comps_u), (length_v, comps_v) = _sweep(poly), _sweep(poly.swap_vars())
    return (length_u + length_v) * 1.01, max(comps_u, comps_v)


# -- effective error envelopes -----------------------------------------------------

ENVELOPE_MODES = ("Unconditional13", "Unconditional12", "GRH13", "GRH12")
#: the shapes that are pi(x) times a factor in M(x)
_PI_SHAPES = ENVELOPE_MODES[:2]


def m_of_x(x, conductor_product):
    """The decay driver M(x) = (sqrt(log x) / log(K log x))^(1/2), K = k k' N N'."""
    if x < 2:
        raise DomainError(f"M(x) requires x >= 2, got {x}")
    value = m_of_log_x(math.log(x), conductor_product)
    if value is None:
        raise DomainError("log(K log x) must be positive; increase x or K")
    return value


def m_of_log_x(log_x, conductor_product):
    """M(x) from log x, so that x may lie past float range; None where
    log(K log x) is not positive."""
    inner = conductor_product * log_x
    if inner <= 1:
        return None
    return math.sqrt(math.sqrt(log_x) / math.log(inner))


def _float_x(x, what):
    """float(x); DomainError, not OverflowError, where an int x lies past
    float range."""
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} needs x within float range (x <= {sys.float_info.max:.6g})") from None


def _li(x):
    """The logarithmic integral li(x), finite x > 1, by Ramanujan's series
    gamma + log log x + sqrt(x) sum_{n >= 1} (-1)^(n-1) (log x)^n / (n! 2^(n-1))
    * sum_{0 <= k <= (n-1)/2} 1/(2k+1), summed until its terms, past their
    peak near n = log x, no longer change the sum."""
    x = _float_x(x, "li(x), the estimate of pi(x) past 10^11,")
    if not 1 < x < math.inf:
        raise DomainError(f"li(x) needs a finite x > 1, got {x}")
    log_x = math.log(x)
    total, term, inner, n = 0.0, -2.0, 0.0, 0
    while True:
        n += 1
        term *= -log_x / (2 * n)
        if n % 2:
            inner += 1.0 / n
        step = term * inner
        total += step
        if n > log_x and abs(step) < 1e-17 * abs(total):
            return np.euler_gamma + math.log(log_x) + math.sqrt(x) * total


@functools.cache
def _pi_x(x):
    # memoised per x, so the envelope modes share one prime count
    if x <= primes.PRIME_COUNT_MAX:
        return primes.prime_count(int(x))
    return _li(x)


def _check_envelope(mode, k, k_prime, level, level_prime, length, alpha, beta):
    """DomainError unless the mode is known, the weights and levels are at
    least 1, and the region's length, alpha and beta are finite and
    non-negative."""
    if mode not in ENVELOPE_MODES:
        raise DomainError(f"unknown envelope mode {mode!r}")
    if not all(n >= 1 for n in (k, k_prime, level, level_prime)):
        raise DomainError(
            f"envelope weights and levels must be >= 1, got {(k, k_prime, level, level_prime)}"
        )
    if not all(0 <= c < math.inf for c in (length, alpha, beta)):
        raise DomainError(
            f"envelope length, alpha and beta must be finite and >= 0, got {(length, alpha, beta)}"
        )


class ErrorEnvelope(Record):
    """Error envelope for the effective joint equidistribution estimates."""

    mode: str
    k: int
    k_prime: int
    level: int
    level_prime: int
    length: float
    alpha: int
    beta: int

    def _check(self):
        _check_envelope(*self._values())

    @property
    def conductor_product(self):
        return self.k * self.k_prime * self.level * self.level_prime

    def _at(self, x, pi_x=None):
        return error_envelope(
            self.mode, x, self.k, self.k_prime, self.level, self.level_prime,
            self.length, self.alpha, self.beta, pi_x=pi_x,
        )

    def value(self, x):
        return self._at(x)

    def ratio(self, x):
        """value(x) / pi(x).  An unconditional envelope is pi(x) times a
        factor in M(x), so its ratio is that factor, in O(1) for any x >= 16
        (ints past float range included); a GRH ratio divides by pi(x),
        counted once per x."""
        if self.mode in _PI_SHAPES:
            return self._at(x, pi_x=1)
        return self._at(x) / _pi_x(x)


def error_envelope(mode, x, k, k_prime, level, level_prime, length, alpha, beta, pi_x=None):
    """Envelope magnitude at finite x >= 16 for the four error shapes.

    Unconditional13: L a pi(x) / M(x)^(1/3)
    Unconditional12: L a b pi(x) / M(x)^(1/2)
    GRH13:  L a x^(17/18) log(K x)^(1/9) / (log x)^(2/3)
    GRH12:  L a b x^(11/12) log(K x)^(1/6) / (log x)^(1/2)

    pi(x) may be supplied by the caller; otherwise it is exact up to 10^11
    (``primes.prime_count``, which lists no primes) and the
    logarithmic-integral approximation beyond.  The GRH shapes, and pi(x)
    past 10^11, need x within float range.  A weight or level below 1, or a
    negative or non-finite length, alpha or beta, raises DomainError.
    """
    _check_envelope(mode, k, k_prime, level, level_prime, length, alpha, beta)
    if not 16 <= x < math.inf:
        raise DomainError(f"envelopes are defined for finite x >= 16, got {x}")
    K = k * k_prime * level * level_prime
    log_x = math.log(x)
    if mode in _PI_SHAPES:
        if pi_x is None:
            pi_x = _pi_x(x)
        if mode == "Unconditional13":
            return length * alpha * pi_x / m_of_x(x, K) ** (1.0 / 3.0)
        return length * alpha * beta * pi_x / math.sqrt(m_of_x(x, K))
    x_float = _float_x(x, f"the {mode} envelope")
    log_kx = math.log(K * x)
    if mode == "GRH13":
        return length * alpha * x_float ** (17.0 / 18.0) * log_kx ** (1.0 / 9.0) / log_x ** (2.0 / 3.0)
    return length * alpha * beta * x_float ** (11.0 / 12.0) * log_kx ** (1.0 / 6.0) / math.sqrt(log_x)


# -- region files -------------------------------------------------------------------


def _graded_lex_monomials(degree):
    for d in range(degree + 1):
        for i in range(d, -1, -1):
            yield (i, d - i)


def graded_lex_poly(tokens):
    """Poly2 from coefficient strings listed in graded-lex order (1; u, v;
    u^2, uv, v^2; ...); missing trailing coefficients are zero.  Raises
    ValueError naming the first coefficient that is not a rational number."""
    coeffs = []
    for tok in tokens:
        try:
            coeffs.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad coefficient {tok!r}") from None
    degree = 0
    while (degree + 1) * (degree + 2) // 2 < len(coeffs):
        degree += 1
    return Poly2(dict(zip(_graded_lex_monomials(degree), coeffs)))


def parse_region_file(path):
    """Parse a region definition file: one constraint per line, all conjoined.

    Line grammar: ``poly <c0> <c1> ... cmp <op> bound <real>`` where the
    coefficients enumerate monomials in graded-lex order (1; u, v; u^2, uv,
    v^2; ...) and <op> is one of <, <=, >, >=.
    """
    cons = []
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"region file {path}: {getattr(exc, 'strerror', 'not UTF-8 text')}") from None
    for lineno, rawline in enumerate(text.split("\n"), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] != "poly":
                raise ValueError("line must start with 'poly'")
            cmp_at = tokens.index("cmp")
            bound_at = tokens.index("bound")
            coeff_tokens = tokens[1:cmp_at]
            op = tokens[cmp_at + 1]
            bound = Fraction(tokens[bound_at + 1])
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), lineno) from None
        if op not in _HOLDS:
            raise ParseError(f"unknown comparison {op!r}", lineno)
        try:
            poly = graded_lex_poly(coeff_tokens) - Poly2.constant(bound)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        cons.append(Constraint(poly, op))
    if not cons:
        raise ParseError("region file defines no constraints")
    return PolynomialRegion(tuple(cons), label=str(path))
