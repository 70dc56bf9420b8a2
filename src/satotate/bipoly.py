"""Exact bivariate polynomials over the rationals.

Coefficients are Python ints or Fractions, so composition and algebra never
round; the real roots of a univariate polynomial in [-2, 2] are isolated
exactly (``poly1_roots``).  Float evaluation (scalar, grid, and per-cell interval enclosures) is
layered on top for the numeric paths; interval results carry a conservative
rounding pad so that a "definite sign over this box" verdict is trustworthy.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import DegenerateError

# relative pad applied to interval enclosures; dominates accumulated float
# rounding for the coefficient counts seen here (<= a few hundred monomials).
# A power x^k is formed by square-and-multiply (_int_power) in at most
# 2 floor(log2 k) roundings, but a rounding in a square is raised with it, so
# the computed power is x^k (1 + e) with |e| <= gamma_(k-1) = (k-1)u/(1-(k-1)u),
# u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
# Lemma 3.1), as for k - 1 plain multiplies: 2.1e-14 at k = 192, a cubic in
# lifts of degree chebyshev.DEGREE_CAP = 64.  A monomial's product and the
# sum over the monomials add a rounding per term, so for a few hundred
# monomials the total stays under 1e-13 of the magnitude sum that the pad
# multiplies (it would reach the pad only near k = 9000).  Underflow is
# covered by the absolute 1e-300 added to every pad.
_IV_PAD = 1e-12


def _as_exact(c):
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, float):
        if c != int(c):
            raise TypeError("float coefficients must be integral; use Fraction")
        return int(c)
    raise TypeError(f"unsupported coefficient type {type(c)!r}")


def _horner(mat, u, v):
    """sum mat[i, j] u^i v^j at finite scalars or broadcastable arrays:
    row-wise Horner in v, then Horner in u, over the nonzero terms only.

    Each row starts at its leading nonzero coefficient, which is where the
    dense recurrence leaves its run of zeros, and then keeps every multiply.
    Skipping the addition of a zero coefficient, or of an all-zero row, can
    change only the sign of a zero; the closing ``+ 0.0`` makes it +0.0, the
    one zero the dense recurrence yields, so the value is bit-identical to
    Horner over the dense matrix.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    acc = None
    for row in mat[::-1]:
        rowval = None
        for c in row[::-1]:
            if rowval is not None:
                rowval = rowval * v
            if c:
                rowval = c if rowval is None else rowval + c
        if acc is not None:
            acc = acc * u
        if rowval is not None:
            acc = rowval if acc is None else acc + rowval
    out = np.add(0.0 if acc is None else acc, 0.0, out=np.empty(np.broadcast(u, v).shape))
    return float(out) if out.shape == () else out


class Poly2:
    """Polynomial in two variables (u, v) with exact coefficients."""

    __slots__ = ("coeffs", "_float_matrix", "_abs_matrix", "_du", "_dv", "_hash")

    def __init__(self, coeffs):
        clean = {}
        for (i, j), c in coeffs.items():
            c = _as_exact(c)
            if c != 0:
                clean[(int(i), int(j))] = c
        self.coeffs = clean
        self._float_matrix = None
        self._abs_matrix = None
        self._du = None
        self._dv = None
        self._hash = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def from_univariate(cls, coeff_list, axis):
        """Lift a dense univariate coefficient list (ascending powers) to 2D.

        axis "u" maps coefficient k to u^k, axis "v" to v^k.
        """
        if axis == "u":
            return cls({(k, 0): c for k, c in enumerate(coeff_list)})
        if axis == "v":
            return cls({(0, k): c for k, c in enumerate(coeff_list)})
        raise ValueError("axis must be 'u' or 'v'")

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return Poly2(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) - c
        return Poly2(out)

    def __neg__(self):
        return Poly2({key: -c for key, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly2({key: c * other for key, c in self.coeffs.items()})
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return Poly2(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly2) and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.coeffs.items()))
        return self._hash

    def __repr__(self):
        if not self.coeffs:
            return "Poly2(0)"
        parts = []
        for (i, j), c in sorted(self.coeffs.items(), key=lambda t: (t[0][0] + t[0][1], -t[0][0])):
            mono = "".join(s for s, e in (("u", i), ("v", j)) for s in ([f"{s}^{e}"] if e > 1 else [s] * (e == 1)))
            parts.append(f"{c}{'*' + mono if mono else ''}")
        return "Poly2(" + " + ".join(parts) + ")"

    # -- structure -------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    def degree_u(self):
        return max((i for i, _ in self.coeffs), default=-1)

    def degree_v(self):
        return max((j for _, j in self.coeffs), default=-1)

    def total_degree(self):
        return max((i + j for i, j in self.coeffs), default=-1)

    def depends_on_u(self):
        return any(i > 0 for i, _ in self.coeffs)

    def depends_on_v(self):
        return any(j > 0 for _, j in self.coeffs)

    def is_constant(self):
        return all(key == (0, 0) for key in self.coeffs)

    def univariate(self):
        """The ascending coefficients, as a tuple, of P in the one variable it
        depends on; P must not depend on both."""
        out = [0] * (max(self.degree_u(), self.degree_v(), 0) + 1)
        for key, c in self.coeffs.items():
            out[max(key)] = c
        return tuple(out)

    def sign_flip(self, s, t):
        """Return P(s*u, t*v) for s, t in {+1, -1}."""
        return Poly2({(i, j): c * (s ** i) * (t ** j) for (i, j), c in self.coeffs.items()})

    def swap_vars(self):
        """Return P(v, u)."""
        return Poly2({(j, i): c for (i, j), c in self.coeffs.items()})

    def rank_one_factors(self):
        """If the coefficient matrix has rank 1, return (a_coeffs, b_coeffs).

        A rank-1 coefficient matrix means P(u, v) = A(u) * B(v); the factors
        are returned as ascending univariate coefficient lists (Fractions).
        Returns None otherwise.
        """
        if not self.coeffs:
            return None
        du, dv = self.degree_u(), self.degree_v()
        mat = [[Fraction(0)] * (dv + 1) for _ in range(du + 1)]
        for (i, j), c in self.coeffs.items():
            mat[i][j] = Fraction(c)
        pi, pj = next((i, j) for (i, j), c in self.coeffs.items() if c != 0)
        pivot = mat[pi][pj]
        a = [mat[i][pj] for i in range(du + 1)]
        b = [mat[pi][j] / pivot for j in range(dv + 1)]
        for i in range(du + 1):
            for j in range(dv + 1):
                if mat[i][j] != a[i] * b[j]:
                    return None
        return a, b

    # -- evaluation ------------------------------------------------------------

    def _matrices(self):
        if self._float_matrix is None:
            du, dv = max(self.degree_u(), 0), max(self.degree_v(), 0)
            mat = np.zeros((du + 1, dv + 1))
            for (i, j), c in self.coeffs.items():
                mat[i, j] = float(c)
            self._float_matrix = mat
            self._abs_matrix = np.abs(mat)
        return self._float_matrix, self._abs_matrix

    def eval_float(self, u, v):
        """Evaluate at scalars or broadcastable numpy arrays."""
        return _horner(self._matrices()[0], u, v)

    def v_coefficients_at(self, u_values):
        """Coefficients of P(u0, v) in v for an array of u0 values.

        Returns an array of shape (len(u_values), degree_v + 1), ascending
        powers of v.
        """
        mat, _ = self._matrices()
        u_col = np.asarray(u_values, dtype=float)[:, None]
        out = np.broadcast_to(mat[-1], (u_col.shape[0], mat.shape[1]))
        for row in mat[-2::-1]:
            out = out * u_col + row
        return np.ascontiguousarray(out)

    def section_roots(self, u_values):
        """Real roots in v of P(u0, v) at each u0 of a 1-D array, NaN-padded
        to degree_v columns (``_real_roots_batched``), solved in chunks of
        _SECTION_BLOCK rows; a row's roots depend on that row alone."""
        out = np.empty((u_values.size, self.degree_v()))
        for at in range(0, u_values.size, _SECTION_BLOCK):
            chunk = u_values[at : at + _SECTION_BLOCK]
            out[at : at + chunk.size] = _real_roots_batched(self.v_coefficients_at(chunk))
        return out

    # -- interval arithmetic ---------------------------------------------------

    def _interval_eval(self, u_pows, v_pows):
        shape = np.broadcast(u_pows.lo, u_pows.hi, v_pows.lo, v_pows.hi).shape
        lo = np.zeros(shape)
        hi = np.zeros(shape)
        mag = np.zeros(shape)
        for (i, j), c in self.coeffs.items():
            plo, phi = u_pows[i]
            qlo, qhi = v_pows[j]
            # a factor [1, 1] leaves the other unchanged: skip the product
            if i == 0:
                tlo, thi = qlo, qhi
            elif j == 0:
                tlo, thi = plo, phi
            else:
                tlo, thi = _mul_interval(plo, phi, qlo, qhi)
            cf = float(c)
            if cf >= 0:
                lo += cf * tlo
                hi += cf * thi
            else:
                lo += cf * thi
                hi += cf * tlo
            mag += abs(cf) * u_pows.abs_power(i) * v_pows.abs_power(j)
        pad = np.add(np.multiply(_IV_PAD, mag, out=mag), 1e-300, out=mag)
        lo -= pad
        hi += pad
        return lo, hi

    def interval_eval_grid(self, u_edges, v_edges):
        """Enclosures over every box of a tensor grid.

        u_edges/v_edges are ascending 1-D edge arrays; returns (lo, hi) of
        shape (len(u_edges)-1, len(v_edges)-1) indexed [u_strip, v_strip].
        """
        u_lo, u_hi = u_edges[:-1, None], u_edges[1:, None]
        v_lo, v_hi = v_edges[None, :-1], v_edges[None, 1:]
        return self.interval_enclosure_cells(u_lo, u_hi, v_lo, v_hi)

    def derivative(self, axis):
        if axis == "u":
            if self._du is None:
                self._du = Poly2(
                    {(i - 1, j): c * i for (i, j), c in self.coeffs.items() if i > 0}
                )
            return self._du
        if self._dv is None:
            self._dv = Poly2(
                {(i, j - 1): c * j for (i, j), c in self.coeffs.items() if j > 0}
            )
        return self._dv

    def eval_abs_float(self, u_abs, v_abs):
        """Sum of |c| u^i v^j at nonnegative arguments (magnitude bound)."""
        return _horner(self._matrices()[1], u_abs, v_abs)

    def interval_enclosure_cells(self, u_lo, u_hi, v_lo, v_hi):
        """Tightened enclosure: monomial intervals intersected with the
        mean-value (centered) form.

        The centered form's width scales with the gradient over the box, so
        enclosures stay sharp where the polynomial vanishes to high order and
        the plain monomial bound would need much smaller boxes.
        """
        u_pows, v_pows = _Powers(u_lo, u_hi), _Powers(v_lo, v_hi)
        nlo, nhi = self._interval_eval(u_pows, v_pows)
        if not (self.depends_on_u() or self.depends_on_v()):
            return nlo, nhi
        # the arrays of the box's shape are updated in place where the
        # arithmetic allows, and the powers that no derivative uses are
        # dropped, so fewer of them are live at once
        terms = [key for axis in "uv" for key in self.derivative(axis).coeffs]
        u_pows.keep(i for i, _ in terms)
        v_pows.keep(j for _, j in terms)
        uc, vc = 0.5 * (u_pows.lo + u_pows.hi), 0.5 * (v_pows.lo + v_pows.hi)
        fc = np.asarray(self.eval_float(uc, vc))
        rad = _IV_PAD * self.eval_abs_float(np.abs(uc), np.abs(vc)) + 1e-300
        del uc, vc
        for axis, pows in (("u", u_pows), ("v", v_pows)):
            d = self.derivative(axis)
            if not d.is_zero:
                dlo, dhi = d._interval_eval(u_pows, v_pows)
                slope = np.maximum(np.abs(dlo, out=dlo), np.abs(dhi, out=dhi), out=dlo)
                del dhi
                rad += slope * (0.5 * (pows.hi - pows.lo))
        lo = np.maximum(nlo, np.subtract(fc, rad), out=nlo)
        return lo, np.minimum(nhi, np.add(fc, rad, out=fc), out=nhi)


class _Powers(dict):
    """Per-exponent cache of the enclosures (lo, hi) of x^k over the
    intervals [lo, hi], and of max |x|^k over them; shared by a polynomial
    and its derivatives over the same boxes."""

    def __init__(self, lo, hi):
        super().__init__({0: (1.0, 1.0)})
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.abs = {0: 1.0}

    def __missing__(self, k):
        self[k] = _pow_interval(self.lo, self.hi, k)
        return self[k]

    def abs_power(self, k):
        """max |x|^k over each interval: the upper end of an even power's
        enclosure, and the larger magnitude of an odd power's ends, which
        the rounding leaves odd functions."""
        if k not in self.abs:
            lo, hi = self[k]
            self.abs[k] = hi if k % 2 == 0 else np.maximum(np.abs(lo), np.abs(hi))
        return self.abs[k]

    def keep(self, used):
        """Drop the cached powers whose exponents are not in ``used``."""
        used = {0, *used}
        for cache in (self, self.abs):
            for k in set(cache) - used:
                del cache[k]


def _int_power(x, k):
    """x^k for an integer k >= 1 by square-and-multiply, in at most
    2 floor(log2 k) roundings; x itself when k is 1."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


def _pow_interval(lo, hi, k):
    """Enclosure of x^k over [lo, hi]: the powers of the ends for odd k; for
    even k the powers of min |x| (0 where the interval straddles 0) and of
    max |x|."""
    if k % 2 == 1:
        return _int_power(lo, k), _int_power(hi, k)
    near = np.where((lo < 0) & (hi > 0), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
    return _int_power(near, k), _int_power(np.maximum(np.abs(lo), np.abs(hi)), k)


def _mul_interval(alo, ahi, blo, bhi):
    p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    return (
        np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
        np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)),
    )


# -- float real roots of sections ----------------------------------------------

#: rows per chunk of Poly2.section_roots, which keeps the companion stacks small
_SECTION_BLOCK = 1 << 12


def _real_roots_batched(coeff_rows):
    """Real roots of many dense v-polynomials (ascending coefficients).

    Returns a NaN-padded matrix of shape (rows, degree).  Rows are
    normalized (largest coefficient 1 in magnitude) and grouped by effective
    degree, the last coefficient above 1e-12.  Degrees 1 and 2 use the
    closed forms, degree 3 ``_cubic_roots``, and only degrees >= 4 batched
    companion eigenvalues, whose complex pairs x +- iy with |y| < 1e-9 count
    as the real root x twice.  A row's roots depend on that row alone, not
    on the rows solved beside it.
    """
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
    n, width = rows.shape
    # row maxima column by column: a reduction along a short axis is slow
    scale = functools.reduce(np.maximum, np.abs(rows).T)[:, None]
    scale[scale == 0] = 1.0
    norm = rows / scale
    eff_deg = np.zeros(n, dtype=int)
    nz = np.abs(norm) > 1e-12
    for d in range(width):
        eff_deg[nz[:, d]] = d
    out = np.full((n, width - 1), np.nan)
    for d in range(1, width):
        idx = np.flatnonzero(eff_deg == d)
        if idx.size == n:
            idx = slice(None)  # one degree throughout: no gather or scatter
        elif idx.size == 0:
            continue
        block = norm[idx, : d + 1]
        if d == 1:
            roots = (-block[:, 0] / block[:, 1])[:, None]
        elif d == 2:
            a, b, c = block[:, 2], block[:, 1], block[:, 0]
            disc = b * b - 4 * a * c
            ok = disc >= 0
            sq = np.sqrt(np.where(ok, disc, 0.0))
            # where b != 0 one of -b -+ sq cancels, so that root is c / q
            # instead, q = -(b + sign(b) sq) / 2 (the other root is q / a,
            # the same bits as its own formula); b = 0 keeps +-sq / (2a)
            with np.errstate(all="ignore"):  # rows with b = 0 or disc < 0
                near = c / (-0.5 * (b + np.copysign(sq, b)))
            r1 = np.where(ok, np.where(b < 0, near, (-b - sq) / (2 * a)), np.nan)
            r2 = np.where(ok, np.where(b > 0, near, (-b + sq) / (2 * a)), np.nan)
            roots = np.stack([r1, r2], axis=1)
        elif d == 3:
            roots = _cubic_roots(block)
        else:
            comp = np.zeros((block.shape[0], d, d))
            comp[:, 1:, :-1] = np.eye(d - 1)
            comp[:, :, -1] = -block[:, :d] / block[:, d : d + 1]
            ev = np.linalg.eigvals(comp)
            roots = np.where(np.abs(ev.imag) < 1e-9, ev.real, np.nan)
        out[idx, : roots.shape[1]] = roots
    return out


def _cubic_roots(block):
    """Real roots of the cubics block[:, 0] + ... + block[:, 3] v^3 (rows
    normalized, |block[:, 3]| > 1e-12), as a (rows, 3) NaN-padded matrix.

    With v = t - a/3 the monic cubic is t^3 + p t + q = 0.  Three real roots
    (h^2 + r^3 < 0, h = q/2, r = p/3) come from the trigonometric formula
    t = 2 sqrt(-r) cos((arccos(-h / sqrt(-r)^3) - 2 pi k) / 3); otherwise
    Cardano's real root is A + B with A = -sign(h) cbrt(|h| + sqrt(h^2 + r^3)),
    which adds two numbers of one sign, and B = -r / A, from A B = -r.  Its
    complex pair -(A + B)/2 +- i sqrt(3)/2 (A - B) counts, as in the
    eigenvalue path, as the real root -(A + B)/2 twice when the imaginary
    part is under 1e-9.  Every root then takes two Newton steps on the
    normalized row, each kept only where it lowers |f|: the shift by a/3 and
    the closed forms lose digits that the steps win back.
    """
    c0, c1, c2, c3 = block.T
    a = c2 / c3
    shift = a / 3.0
    b = c1 / c3
    r = (b - a * shift) / 3.0
    h = 0.5 * (((2.0 / 27.0) * a * a - b / 3.0) * a + c0 / c3)
    disc = h * h + r * r * r
    three = disc < 0
    with np.errstate(invalid="ignore", divide="ignore"):
        m = np.sqrt(-r)
        phi = np.arccos(np.clip(-h / (m * m * m), -1.0, 1.0)) / 3.0
        big = np.cbrt(np.abs(h) + np.sqrt(disc))
        big = np.where(h > 0, -big, big)
        small = np.where(big == 0, 0.0, -r / big)
    real = big + small
    pair = -0.5 * real
    paired = np.abs((0.5 * math.sqrt(3.0)) * (big - small)) < 1e-9
    roots = np.empty((block.shape[0], 3))
    for k in range(3):
        trig = (2.0 * m) * np.cos(phi - (2.0 * math.pi / 3.0) * k)
        other = real if k == 0 else np.where(paired, pair, np.nan)
        roots[:, k] = np.where(three, trig, other) - shift
    c0, c1, c2, c3 = c0[:, None], c1[:, None], c2[:, None], c3[:, None]
    f = ((c3 * roots + c2) * roots + c1) * roots + c0
    for _ in range(2):
        df = ((3.0 * c3) * roots + 2.0 * c2) * roots + c1
        with np.errstate(invalid="ignore", divide="ignore"):
            step = roots - f / df
        g = ((c3 * step + c2) * step + c1) * step + c0
        better = np.abs(g) < np.abs(f)
        roots = np.where(better, step, roots)
        f = np.where(better, g, f)
    return roots



# -- dense univariate helpers (ascending coefficient lists) --------------------


def poly1_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


# -- exact real roots in [-2, 2] ---------------------------------------------------


def poly1_primitive(p):
    """The primitive integer positive multiple of p (ascending ints or
    Fractions, the last one nonzero)."""
    den = math.lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    g = math.gcd(*ints) or 1
    return [c // g for c in ints]


def poly1_sign(p, a, k=0):
    """Sign of the integer polynomial p at a / 2^k: Horner on the integer
    2^(k deg p) p(a / 2^k), which has the same sign."""
    acc = 0
    for i, c in enumerate(reversed(p)):
        acc = acc * a + (c << (k * i))
    return (acc > 0) - (acc < 0)


def _pdiv(a, b):
    """Integer pseudo-division: (q, r) with c a = q b + r for an integer
    c > 0 and deg r < deg b."""
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        off, g = len(a) - len(b), math.gcd(a[-1], b[-1])
        s, t = abs(b[-1]) // g, a[-1] // g * (1 if b[-1] > 0 else -1)
        q = [s * c for c in q]
        q[off] = t
        a = [s * c - (t * b[i - off] if i >= off else 0) for i, c in enumerate(a)]
        while a and a[-1] == 0:
            a.pop()
    return q, a


def poly1_sturm(p):
    """Sturm chain of the squarefree part q of p != 0: primitive integer
    positive multiples of q, q', -rem(q, q') and so on, down to a constant."""
    chain = [poly1_primitive(p)]
    chain.append(poly1_primitive([i * c for i, c in enumerate(chain[0])][1:]))
    while len(chain[-1]) > 1:
        chain.append([-c for c in poly1_primitive(_pdiv(chain[-2], chain[-1])[1])])
    chain = [f for f in chain if f]
    # the chain ends at gcd(p, p'); p / gcd has integer coefficients (Gauss)
    return chain if len(chain[-1]) == 1 else poly1_sturm(_pdiv(chain[0], chain[-1])[0])


def _variations(chain, a, k=0):
    signs = [s for f in chain if (s := poly1_sign(f, a, k))]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def poly1_root_count(p):
    """Number of distinct real roots of p in [-2, 2]: Sturm's theorem counts
    those in (-2, 2], and a root at -2 is added."""
    chain = poly1_sturm(p)
    return _variations(chain, -2) - _variations(chain, 2) + (poly1_sign(chain[0], -2) == 0)


@functools.lru_cache(maxsize=256)
def poly1_roots(p):
    """The distinct real roots in [-2, 2] of p (a tuple as for
    ``poly1_primitive``), ascending, each as floats lo <= root <= hi: the root
    itself if it is a float, else the neighbours of its nearest float.

    Sturm bisection at dyadic points isolates each root of the squarefree
    part q in an interval (a, b]; bisection by the sign of q, which changes
    at each root, narrows it until both ends round alike.
    """
    chain = poly1_sturm(p)
    q = chain[0]
    out = [(-2.0, -2.0)] if poly1_sign(q, -2) == 0 else []
    todo = [(-2, 2, 0, _variations(chain, -2), _variations(chain, 2))]
    while todo:  # (a / 2^k, b / 2^k] holds va - vb roots
        a, b, k, va, vb = todo.pop()
        if va - vb > 1:
            vm = _variations(chain, a + b, k + 1)
            todo += [(2 * a, a + b, k + 1, va, vm), (a + b, 2 * b, k + 1, vm, vb)]
        elif va > vb:
            s = poly1_sign(q, b, k)  # q has sign s on (root, b], -s on (a, root)
            while s and a / (1 << k) != b / (1 << k):
                k, m = k + 1, a + b
                sm = poly1_sign(q, m, k)
                a, b, s = (m, 2 * b, s) if sm == -s else (2 * a, m, sm)
            x = b / (1 << k)
            exact = not s and Fraction(x) == Fraction(b, 1 << k)
            out.append((x, x) if exact else (math.nextafter(x, -3.0), math.nextafter(x, 3.0)))
    return tuple(sorted(out))


def compose_bivariate(P, u_sub, v_sub):
    """Substitute univariate polynomials into P(x, y).

    u_sub/v_sub are ascending coefficient lists in u resp. v; the result is
    an exact Poly2 in (u, v).  Raises DegenerateError if P is zero.
    """
    if P.is_zero:
        raise DegenerateError("cannot compose the zero polynomial")
    du, dv = P.degree_u(), P.degree_v()
    u_pows = [[1]]
    for _ in range(du):
        u_pows.append(poly1_mul(u_pows[-1], u_sub))
    v_pows = [[1]]
    for _ in range(dv):
        v_pows.append(poly1_mul(v_pows[-1], v_sub))
    out = {}
    for (i, j), c in P.coeffs.items():
        for a, ca in enumerate(u_pows[i]):
            if ca == 0:
                continue
            for b, cb in enumerate(v_pows[j]):
                if cb == 0:
                    continue
                key = (a, b)
                out[key] = out.get(key, 0) + c * ca * cb
    return Poly2(out)
