"""Sato-Tate and joint Sato-Tate measures.

The 1-D measure has density (1/pi) sqrt(1 - u^2/4) on [-2, 2]; its exact
antiderivative F drives every interval computation, so rectangles and tensor
products are closed-form.  So is a region whose constraints each involve one
variable: its pieces end at the exact real roots of its constraints.  Other
region measures are certified brackets: boxes (in the angle coordinates
u = 2 cos t, v = 2 cos s, where the density becomes (4/pi^2) sin^2 t sin^2 s
and has no endpoint singularity) are classified by interval arithmetic,
undecided boxes are subdivided, and the total undecided mass is an upper
bound on the true error.  A per-cell Gauss/root-isolation pass then polishes
the returned value far below the certificate without ever leaving the
bracket.

Density constants: d_ell is the measure of {U_ell(u/2) > 0}; the positivity
density of a product of symmetric-power coefficients is

    d_{m,n} = d_m d_n + (1 - d_m)(1 - d_n)
            = 1/2                                   if m or n is odd,
              1/2 + (tan(pi/(m+1)) - pi/(m+1))
                    * (tan(pi/(n+1)) - pi/(n+1)) / (2 pi^2)   otherwise.

Note the even-even value for (2,2) is 0.5237610...; a sometimes-quoted
figure of 0.534 is inconsistent with both evaluation routes here.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .bipoly import poly1_primitive, poly1_roots, poly1_sign
from .chebyshev import check_pair
from .errors import BudgetError, DomainError, InvariantError
from .records import Record

_SLACK = 1e-12


class Interval(Record):
    """A real interval; endpoints may be +-inf.  Openness is tracked but is
    irrelevant for the atomless measures here."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def _check(self):
        if self.lo != self.lo or self.hi != self.hi:
            raise DomainError(f"interval endpoint is NaN: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise DomainError(f"interval endpoints out of order: {self.lo} > {self.hi}")


class MeasureValue(Record):
    """A measure in [0,1] with a certified absolute error bound."""

    value: float
    abs_error: float = 0.0

    def _check(self):
        if self.value != self.value or self.abs_error != self.abs_error:
            raise InvariantError(f"measure is NaN: {self.value} +- {self.abs_error}")
        if self.abs_error < 0:
            raise InvariantError("negative error bound")
        if self.value - self.abs_error < -_SLACK or self.value + self.abs_error > 1 + _SLACK:
            raise InvariantError(
                f"measure bracket [{self.value - self.abs_error}, "
                f"{self.value + self.abs_error}] escapes [0, 1]"
            )

    @property
    def lo(self):
        return self.value - self.abs_error

    @property
    def hi(self):
        return self.value + self.abs_error


def st_antiderivative(u):
    """F with F' the Sato-Tate density; F(-2) = -1/2, F(2) = 1/2.

    Accepts scalars or arrays; arguments are clipped to [-2, 2].
    """
    u = np.asarray(u, dtype=float)
    # (0.5 u sqrt(4 - u^2) + 2 arcsin(0.5 u)) / (2 pi), evaluated in the
    # same order in two arrays of u's shape
    x = np.clip(u, -2.0, 2.0, out=np.empty(u.shape))
    half = np.multiply(x, 0.5, out=np.empty(u.shape))
    np.sqrt(np.subtract(4.0, np.square(x, out=x), out=x), out=x)
    x *= half
    x += np.multiply(np.arcsin(half, out=half), 2.0, out=half)
    x /= 2.0 * math.pi
    return float(x) if x.shape == () else x


#: scale of the reference antiderivative: integers in units of 2^-_REF_BITS
_REF_BITS = 110


@functools.lru_cache(maxsize=None)
def _reference_antiderivative(x):
    """F(x) in units of 2^-_REF_BITS, rounded to an integer from a 40-digit
    evaluation: within one unit of the exact value, and exact at +-2 (and
    beyond), where F is +-1/2 and so is ``st_antiderivative``."""
    x = min(2.0, max(-2.0, x))
    if abs(x) == 2.0:
        return int(math.copysign(1 << (_REF_BITS - 1), x))
    import mpmath

    with mpmath.workdps(40):
        u = mpmath.mpf(x)
        f = (u / 2 * mpmath.sqrt(4 - u * u) + 2 * mpmath.asin(u / 2)) / (2 * mpmath.pi)
        return int(mpmath.nint(mpmath.ldexp(f, _REF_BITS)))


def _inexact_ends(ends):
    """How many ends the reference antiderivative rounds: those inside (-2, 2)."""
    return sum(1 for x in ends if -2.0 < x < 2.0)


def _half_width(value, lo, hi, slack):
    """The least float >= max(value - lo, hi - value) + slack: the error of
    ``value`` against a true measure in [lo, hi] +- slack (Fractions)."""
    gap = max(Fraction(value) - lo, hi - Fraction(value)) + slack
    err = float(gap)
    return math.nextafter(err, math.inf) if Fraction(err) < gap else err


def _st_mass(interval):
    """(value, reference, slack) of the Sato-Tate measure of an interval:
    the float difference of ``st_antiderivative``, the reference measure
    (a Fraction), and a bound on the reference's own error: one unit of
    2^-_REF_BITS per rounded end, so 0 where both ends are +-2 or beyond."""
    ends = (float(interval.lo), float(interval.hi))
    lo, hi = (st_antiderivative(x) for x in ends)
    ref = _reference_antiderivative(ends[1]) - _reference_antiderivative(ends[0])
    return max(0.0, hi - lo), Fraction(ref, 1 << _REF_BITS), Fraction(_inexact_ends(ends), 1 << _REF_BITS)


def mu_st(interval):
    """Sato-Tate measure of an interval (clipped to [-2, 2]); closed form.
    ``abs_error`` bounds the rounding of the float antiderivative and its
    difference, measured against a 40-digit reference: a few ulps, and 0
    where both ends are +-2."""
    value, ref, slack = _st_mass(interval)
    return MeasureValue(value, _half_width(value, ref, ref, slack))


def mu_jst_rect(i1, i2):
    """Joint measure of a rectangle: the product of the 1-D measures, with
    ``abs_error`` bounding the rounding as in ``mu_st``."""
    (a, a_ref, a_slack), (b, b_ref, b_slack) = _st_mass(i1), _st_mass(i2)
    value = a * b
    ref = a_ref * b_ref
    # the true measures are at most 1, the reference ones 1 + their slack
    slack = a_slack + b_slack + a_slack * b_slack
    return MeasureValue(value, _half_width(value, ref, ref, slack))


def _angle_mass(t):
    """Measure of {angle <= t} under (2/pi) sin^2; equals F(2) - F(2 cos t)."""
    return (t - 0.5 * np.sin(2.0 * t)) / math.pi


def _tan_gap(ell):
    # tan(pi/(ell+1)) - pi/(ell+1); exactly -pi at ell = 0
    if ell == 0:
        return -math.pi
    x = math.pi / (ell + 1)
    return math.tan(x) - x


def d_ell(ell):
    """Measure of {U_ell(u/2) > 0}: 1/2 for odd ell, else the tangent formula."""
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    if ell % 2 == 1:
        return 0.5
    return (ell + 2) / (2 * (ell + 1)) - math.tan(math.pi / (ell + 1)) / (2 * math.pi)


def d_mn(m, n):
    """Density of primes where the (m, n) symmetric-power product is positive.

    Zero indices are allowed (U_0 = 1 is positive everywhere, so the density
    degenerates to the single-index one), but (0, 0) is rejected
    (``chebyshev.check_pair``).
    """
    check_pair(m, n)
    if m % 2 == 1 or n % 2 == 1:
        return 0.5
    return 0.5 + _tan_gap(m) * _tan_gap(n) / (2 * math.pi**2)


# -- certified region quadrature ------------------------------------------------

_MIN_TARGET = 1e-8
_MAX_DEPTH = 52
_MIN_WIDTH = 1e-13
_GL2_NODES = (-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0))


def mu_jst_region(region, target_abs_error, budget=10_000_000):
    """Joint Sato-Tate measure of a polynomial region with a certified bracket.

    The region is partitioned into cells in the angle coordinates; every cell
    on which all constraints have definite interval-arithmetic sign is
    settled, the rest are subdivided until their total mass is below
    ``target_abs_error``.  The reported ``abs_error`` always dominates the
    distance from the returned value to the true measure.  General
    boundaries additionally get a per-cell Gauss/root-counting estimate, so
    the returned value is far more accurate than the certificate.  A region
    whose constraints each involve one variable ignores the target: its
    pieces end at the exact roots of its constraints (``_axis_pieces``), and
    ``abs_error``, the undecided mass of the isolating intervals, is a few
    ulps.

    The measure is invariant under the eight symmetries of the square
    (u -> -u, v -> -v, u <-> v; see ``symmetry``).  A region that one of
    them maps onto its complement has measure exactly 1/2, returned with
    error 0.  Otherwise the subdivision keeps one cell of each orbit of the
    region's stabiliser and weights its masses by the orbit size: the disk,
    fixed by all eight, is subdivided on the eighth 0 <= u <= v of the
    square, where each cell on the diagonal u = v splits into three kept
    children.

    Raises BudgetError if the subdivision budget (number of classified cells,
    default 10^7, None = unlimited) runs out before the target is met.
    """
    if not _MIN_TARGET <= target_abs_error < math.inf:  # NaN fails this too
        raise DomainError(
            f"target_abs_error must be finite and >= {_MIN_TARGET}, got {target_abs_error}"
        )
    if region.symmetries[1]:
        return MeasureValue(0.5, 0.0)
    if region.is_separable:
        return _tensor_bracket(region)
    return _quadtree_bracket(region, target_abs_error, budget)


#: boxes per block in leaf_statuses.  A float64 row of a block is 128 KiB,
#: so a block's temporaries stay in cache and their memory is reused from
#: block to block instead of being touched fresh: a sweep over 2^12..2^16
#: found the disk at 1e-5 fastest, with half the page faults, at 2^13..2^14
_CELL_BLOCK = 1 << 14


def leaf_statuses(leaves, u_lo, u_hi, v_lo, v_hi):
    """Per-leaf ``Constraint.box_status`` over 1-D arrays of boxes (scalar
    bounds are broadcast), enclosing each distinct polynomial once per
    block of _CELL_BLOCK boxes."""
    bounds = np.broadcast_arrays(*(np.asarray(b, dtype=float) for b in (u_lo, u_hi, v_lo, v_hi)))
    blocks = [[] for _ in leaves]
    for at in range(0, max(bounds[0].size, 1), _CELL_BLOCK):
        box = [b[at : at + _CELL_BLOCK] for b in bounds]
        enclosures = {}
        for leaf, out in zip(leaves, blocks):
            enc = enclosures.get(leaf.poly)
            if enc is None:
                enc = enclosures[leaf.poly] = leaf.poly.interval_enclosure_cells(*box)
            out.append(leaf.box_status(*enc))
    return [np.concatenate(out) for out in blocks]


def tensor_sums(status, u_ends, v_ends):
    """(mass of the +1 boxes, mass of the 0 boxes) of an int8 status matrix
    over the boxes of the tensor grid with these ascending axis ends."""
    du, dv = np.diff(st_antiderivative(u_ends)), np.diff(st_antiderivative(v_ends))
    mass = du[:, None] * dv[None, :]
    return float(mass[status == 1].sum()), float(mass[status == 0].sum())


def _axis_pieces(leaves):
    """Breakpoints of [-2, 2] for leaves in one variable, and each leaf's
    exact int8 status on the pieces between them.

    The ends of the leaves' isolating intervals (``bipoly.poly1_roots``) and
    +-2 cut the axis.  An isolating interval is undecided (0) for its leaf;
    on any other piece the leaf has no root, so its status is its sign at the
    piece's (dyadic) midpoint.  Neighbouring pieces with equal statuses merge.
    """
    roots = [poly1_roots(leaf.poly.univariate()) for leaf in leaves]
    ends = sorted({-2.0, 2.0, *(x for rs in roots for iv in rs for x in iv)})
    mids = [(Fraction(lo) + Fraction(hi)) / 2 for lo, hi in zip(ends, ends[1:])]
    stat = np.zeros((len(leaves), len(mids)), dtype=np.int8)
    for row, leaf, rs in zip(stat, leaves, roots):
        p = poly1_primitive(leaf.poly.univariate())
        row[:] = leaf.status([poly1_sign(p, x.numerator, x.denominator.bit_length() - 1) for x in mids])
        row[[any(a < x < b for a, b in rs) for x in mids]] = 0
    starts = [0, *np.flatnonzero((stat[:, 1:] != stat[:, :-1]).any(axis=0)) + 1]
    return np.array(ends)[starts + [-1]], stat[:, starts]


def _tensor_bracket(region):
    statuses, ends = [None] * len(region.leaves), []
    for axis, shape in (("u", (-1, 1)), ("v", (1, -1))):
        idx = [i for i, ax in enumerate(region.leaf_axes()) if ax == axis]
        axis_ends, stat = _axis_pieces([region.leaves[i] for i in idx])
        for i, row in zip(idx, stat):
            statuses[i] = row.reshape(shape)
        ends.append(axis_ends)
    tree = region.tree_status(statuses, shape=(ends[0].size - 1, ends[1].size - 1))
    inside, und = tensor_sums(tree, *ends)
    value = min(1.0, inside + 0.5 * und)
    # abs_error: the distance from value to the far end of the bracket
    # [inside, inside + und] recomputed from the reference antiderivative,
    # so it covers every rounding of the float masses and sums
    du, dv = (np.diff(np.array([_reference_antiderivative(x) for x in e], dtype=object)) for e in ends)
    lo = sum(du[i] * sum(dv[tree[i] == 1]) for i in range(du.size))
    hi = sum(du[i] * sum(dv[tree[i] >= 0]) for i in range(du.size))
    unit = Fraction(1, 1 << 2 * _REF_BITS)
    # a rounded end is within one unit of 2^-_REF_BITS and enters two masses
    # of its axis, whose masses sum to 1: two units per end to first order,
    # and a third covers the second-order terms
    slack = Fraction(3 * (_inexact_ends(ends[0]) + _inexact_ends(ends[1])), 1 << _REF_BITS)
    return MeasureValue(value, _half_width(value, lo * unit, hi * unit, slack))


def _angle_ends(t):
    """Endpoint records of the angles t: rows t, 2 cos t and _angle_mass(t)."""
    return np.stack([t, 2.0 * np.cos(t), _angle_mass(t)])


def _quadtree_bracket(region, target, budget):
    # a cell is [t_lo, t_hi] x [s_lo, s_hi] in the angles, and maps to the
    # (u, v) box [2 cos t_hi, 2 cos t_lo] x [2 cos s_hi, 2 cos s_lo], as cos
    # decreases.  The cells of a level all have one width, so each axis keeps
    # an edge store: the _angle_ends records of the distinct edges of the
    # level's cells, ascending, each computed once where the edge first
    # appears.  A cell holds the store index t of its lower edge in each axis
    # (int32); its upper edge is t + 1, since no edge of the level lies
    # strictly inside it.  With the stabiliser byte below that is 9 bytes a
    # cell (a linear quadtree: Gargantini, CACM 25(12), 1982).
    # The region's stabiliser H (its fixing symmetries) maps the cells of a
    # level onto one another and preserves the measure, so one cell of each
    # H-orbit is kept, its masses weighted by the orbit size |H| / |H_c|:
    # 1, 2, 4 or 8, and so exact.  ``stab`` holds each cell's stabiliser H_c
    # as a bitmask over H minus the identity.  The square is fixed by all of
    # H; a child is fixed by the elements of its parent's stabiliser that fix
    # its quadrant, and it is kept unless one of them maps it onto a lower
    # quadrant, which keeps the least child of each orbit.
    fixing = region.symmetries[0]
    quadrants = [g.quadrants() for g in fixing[1:]]
    stays = [sum(1 << k for k, perm in enumerate(quadrants) if perm[q] == q) for q in range(4)]
    drops = [sum(1 << k for k, perm in enumerate(quadrants) if perm[q] < q) for q in range(4)]
    orbit_size = np.array([len(fixing) / (1 + bin(h).count("1")) for h in range(1 << len(quadrants))])
    stab = np.array([(1 << len(quadrants)) - 1], dtype=np.uint8)
    t_ends = s_ends = _angle_ends(np.array([0.0, math.pi]))
    t = s = np.zeros(1, dtype=np.int32)
    inside = 0.0
    processed = 0
    for _ in range(_MAX_DEPTH):
        statuses = leaf_statuses(region.leaves, *_cell_bounds(t_ends, t), *_cell_bounds(s_ends, s))
        tree = region.tree_status(statuses, t.shape)
        del statuses
        mass = orbit_size.take(stab) * np.diff(t_ends[2]).take(t) * np.diff(s_ends[2]).take(s)
        processed += tree.size
        # index arrays: take() gathers far faster than boolean masks
        inside += float(mass.take(np.flatnonzero(tree == 1)).sum())
        unk = np.flatnonzero(tree == 0)
        und = float(mass.take(unk).sum())
        del mass, tree
        t_unk, s_unk = t.take(unk), s.take(unk)
        wide = any((np.diff(e[0]) > _MIN_WIDTH).take(a).any() for e, a in ((t_ends, t_unk), (s_ends, s_unk)))
        if und <= target or not wide:
            break
        # children q = di + 2*dj, quadrant-major; the parents whose quadrant
        # q child is kept, None where that is every parent
        stab_unk = stab.take(unk)
        kept = [None if not (stab_unk & d).any() else np.flatnonzero((stab_unk & d) == 0) for d in drops]
        children = sum(unk.size if k is None else k.size for k in kept)
        if budget is not None and processed + children > budget:
            raise BudgetError(
                f"cell budget {budget} exhausted at certified error {und:.3e} "
                f"(target {target:.3e})"
            )
        (t_ends, t_at), (s_ends, s_at) = _split_edges(t_ends, t_unk), _split_edges(s_ends, s_unk)
        del t_unk, s_unk
        # each quadrant's children, gathered straight from the level's
        # arrays at the parents that keep them; child q = di + 2*dj starts
        # at its parent's lower edge or at the midpoint after it
        parts = []
        for q, k in enumerate(kept):
            at = unk if k is None else unk.take(k)
            child_t = t_at.take(t.take(at)) + q % 2
            child_s = s_at.take(s.take(at)) + q // 2
            parts.append((child_t, child_s, stab.take(at) & stays[q]))
        del kept, at
        t, s, stab = (np.concatenate(part) for part in zip(*parts))
        del parts
    if unk.size:
        t, s = t.take(unk), s.take(unk)
        estimate = _polish_cells(region, t_ends, t, s_ends, s, orbit_size.take(stab.take(unk)))
    else:
        estimate = 0.5 * und
    del t, s, stab, unk, t_ends, s_ends
    _trim_heap()
    value = min(1.0, inside + min(estimate, und))
    # value +- abs_error must stay in [0, 1]: a value nearer 0 or 1 than an
    # end of the certified bracket [inside, inside + und] moves inside it
    value = min(max(value, 0.5 * min(1.0, inside + und)), 0.5 * (1.0 + inside))
    abs_error = max(value - inside, inside + und - value) + 1e-15
    return MeasureValue(value, min(abs_error, 1.0))


def _trim_heap():
    """Return the heap's free pages to the OS, where the C library can.

    Most of a quadtree's arrays are small enough that glibc's malloc serves
    them from the heap, whose pages stay resident after they are freed;
    malloc_trim releases them, so the process's resident set falls back
    when the quadtree returns.  A no-op without glibc's malloc_trim."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _cell_bounds(ends, at):
    """(2 cos t_hi, 2 cos t_lo) of the cells with lower edges ``at`` in the
    edge store ``ends``: their interval in u (or v)."""
    return ends[1, 1:].take(at), ends[1].take(at)


def _split_edges(ends, at):
    """The children's edge store of one axis, and where its parents' edges went.

    ``at`` are the lower-edge indices of the cells to split.  Each gap
    [ends[:, p], ends[:, p + 1]] that one of them spans gets its midpoint
    record, computed once however many cells share the gap.  The new store
    holds the split gaps' ends and midpoints, ascending; ``moved[p]`` is the
    new index of edge p, and the midpoint follows at moved[p] + 1.
    """
    used = np.zeros(ends.shape[1], dtype=bool)
    used[at] = True
    gaps = np.flatnonzero(used)
    # a gap's upper end is stored after its midpoint unless the next gap,
    # which starts there, is split too
    closed = ~used[1:].take(gaps)
    width = 2 + closed
    start = np.cumsum(width) - width
    out = np.empty((3, int(start[-1] + width[-1])))
    out[:, start] = ends[:, gaps]
    out[:, start + 1] = _angle_ends(0.5 * (ends[0].take(gaps) + ends[0, 1:].take(gaps)))
    out[:, start.compress(closed) + 2] = ends[:, 1:].take(gaps.compress(closed), axis=1)
    moved = np.zeros(ends.shape[1], dtype=np.int32)
    moved[gaps] = start
    return out, moved


#: cells per block in _polish_cells's estimates, whose rows are a few times
#: wider than a classification's: 2^12 keeps a block's temporaries near the
#: size of a classification block's
_POLISH_BLOCK = 1 << 12


def _gauss_angles(t_lo, t_hi):
    """Half-widths of the angle intervals [t_lo, t_hi], and their two Gauss
    angles as rows (node, interval)."""
    half = 0.5 * (t_hi - t_lo)
    mid = 0.5 * (t_lo + t_hi)
    return half, np.stack([mid + half * x for x in _GL2_NODES])


def _polish_cells(region, t_ends, t, s_ends, s, weight):
    """High-order estimate of the member mass inside undecided cells, each
    cell's estimate multiplied by its ``weight``.

    For Gauss nodes in the first angle, the cell section in the second
    coordinate is resolved exactly by polynomial root isolation, and the
    member sub-intervals are measured with the exact antiderivative.  Each
    cell estimate is clipped to [0, cell mass], so the overall value cannot
    leave the certified bracket.  The cells are given by their lower-edge
    indices t, s into the edge stores of _quadtree_bracket.  The cells of a
    t-column share its Gauss nodes, so the sections are solved once per
    column and leaf polynomial (``Poly2.section_roots``); the cells are
    then estimated in blocks of _POLISH_BLOCK, each gathering its columns'
    roots, into one array that is summed once.
    """
    polys = []
    for leaf in region.leaves:
        if leaf.poly not in polys and leaf.poly.degree_v() >= 1:
            polys.append(leaf.poly)
    used = np.zeros(t_ends.shape[1], dtype=bool)
    used[t] = True
    cols = np.flatnonzero(used)
    u_nodes = 2.0 * np.cos(_gauss_angles(t_ends[0].take(cols), t_ends[0, 1:].take(cols))[1])
    del cols
    # the root tables have rows (node, column)
    roots = [p.section_roots(u_nodes.ravel()).reshape(*u_nodes.shape, -1) for p in polys]
    del u_nodes
    # each cell's column: the rank of its lower edge among the used ones
    col = np.cumsum(used, dtype=np.int32)
    col -= 1
    col = col.take(t)
    del used
    dt, ds = np.diff(t_ends[2]), np.diff(s_ends[2])
    out = np.empty(t.size)
    for b in (slice(at, at + _POLISH_BLOCK) for at in range(0, t.size, _POLISH_BLOCK)):
        tb, sb, c = t[b], s[b], col[b]
        estimates = _polish_block(
            region, t_ends[0].take(tb), t_ends[0, 1:].take(tb), [r.take(c, axis=1) for r in roots],
            s_ends[1, 1:].take(sb), s_ends[1].take(sb),
        )
        cell_mass = dt.take(tb) * ds.take(sb)
        np.multiply(weight[b], np.clip(estimates, 0.0, cell_mass, out=estimates), out=out[b])
    return float(out.sum())


def _polish_block(region, t_lo, t_hi, roots, v_lo, v_hi):
    """Unclipped estimates for a block of cells [t_lo, t_hi] x [v_lo, v_hi]
    in (angle, v).  Each of ``roots`` has rows (node, cell) and holds along
    its last axis the real roots in v of one leaf polynomial's sections at
    the cells' Gauss nodes (``Poly2.section_roots``).  A region in the
    quadtree has a leaf in both variables, so ``roots`` is never empty.  The
    arrays of the sections' shape are updated in place where the arithmetic
    allows, so at most a few of them are live at once."""
    half, thetas = _gauss_angles(t_lo, t_hi)
    thetas = thetas.ravel()
    u_nodes = 2.0 * np.cos(thetas)
    roots = np.concatenate([r.reshape(thetas.size, -1) for r in roots], axis=1)
    v_lo = np.concatenate([v_lo, v_lo])[:, None]
    v_hi = np.concatenate([v_hi, v_hi])[:, None]
    # a root outside the section, or missing (NaN), becomes v_hi: it
    # leaves trailing zero-length segments of mass exactly +0.0
    keep = roots > v_lo
    keep &= roots < v_hi
    np.copyto(roots, v_hi, where=~keep)
    del keep
    if roots.shape[1] == 2:
        roots = np.stack([np.minimum(roots[:, 0], roots[:, 1]), np.maximum(roots[:, 0], roots[:, 1])], axis=1)
    else:
        roots.sort(axis=1)
    breaks = np.concatenate([v_lo, roots, v_hi], axis=1)
    del roots
    mids = np.add(breaks[:, :-1], breaks[:, 1:])
    mids *= 0.5
    member = region.contains_many(np.broadcast_to(u_nodes[:, None], mids.shape), mids)
    del mids
    f = st_antiderivative(breaks)
    del breaks
    seg = np.subtract(f[:, 1:], f[:, :-1])
    del f
    np.copyto(seg, 0.0, where=np.logical_not(member, out=member))
    weighted = (2.0 / math.pi) * np.sin(thetas) ** 2
    weighted *= seg.sum(axis=1)
    return half * (weighted[: half.size] + weighted[half.size :])
