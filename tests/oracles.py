"""Independent oracles used to freeze expected values.

Everything here is deliberately naive (direct products, bisection plus
antiderivatives, Riemann sums, a segmented sieve, one enclosure per grid
box) and shares no code with the implementation paths it checks, apart from
the interval enclosures that the grid classification is built on.
"""

import functools
import math

import numpy as np
import sympy
from scipy.integrate import quad

from satotate import measures, region

#: classical coefficients of q * prod (1-q^n)^24 (weight-12, level-1 form)
TAU_REF = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)


def naive_product_series(bound):
    """prod_{n=1..bound} (1 - q^n) by direct dense multiplication."""
    coeffs = [1] + [0] * bound
    for n in range(1, bound + 1):
        new = list(coeffs)
        for e in range(bound - n + 1):
            new[e + n] -= coeffs[e]
        coeffs = new
    return coeffs


def naive_eta_qexpansion(recipe, n_max):
    """Coefficients of q^0..q^n_max of the eta quotient, dense and direct;
    negative exponents divide by dense long division."""
    v, rem = divmod(sum(d * e for d, e in recipe), 24)
    assert rem == 0
    length = n_max - v + 1
    if length <= 0:
        return [0] * (n_max + 1)
    series = [1] + [0] * (length - 1)

    def mul(a, b):
        out = [0] * length
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b[: length - i]):
                    if bj:
                        out[i + j] += ai * bj
        return out

    def div(a, b):
        assert b[0] == 1
        out = []
        for n in range(length):
            out.append(a[n] - sum(b[i] * out[n - i] for i in range(1, n + 1)))
        return out

    for d, e in recipe:
        base = [0] * length
        base[0] = 1
        for n in range(1, (length - 1) // d + 1):
            new = list(base)
            for idx in range(length - d * n):
                new[idx + d * n] -= base[idx]
            base = new
        for _ in range(abs(e)):
            series = mul(series, base) if e > 0 else div(series, base)
    return [0] * v + series


def simpson_mu_st(a, b, n=200001):
    """Composite-Simpson integral of the 1-D density over [a, b]."""
    xs = np.linspace(a, b, n)
    ys = np.sqrt(np.clip(1.0 - xs**2 / 4.0, 0.0, None)) / math.pi
    h = (b - a) / (n - 1)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1::2].sum() + 2 * ys[2:-1:2].sum())


def d_ell_quadrature(ell, eval_u):
    """Positivity mass of U_ell(cos t) under (2/pi) sin^2 t dt on [0, pi].

    Sign changes of the supplied evaluator are located by bisection, then
    each positive window is integrated with the sin^2 antiderivative.
    """

    def f(t):
        return eval_u(ell, math.cos(t))

    grid = np.linspace(1e-9, math.pi - 1e-9, 20 * (ell + 2))
    vals = np.array([f(t) for t in grid])
    roots = []
    for i in range(len(grid) - 1):
        if (vals[i] > 0) != (vals[i + 1] > 0):
            lo, hi = grid[i], grid[i + 1]
            flo = vals[i]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if (fm > 0) == (flo > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    pts = [0.0] + roots + [math.pi]

    def g(t):  # antiderivative of (2/pi) sin^2
        return (t - math.sin(t) * math.cos(t)) / math.pi

    total = 0.0
    for left, right in zip(pts[:-1], pts[1:]):
        if f(0.5 * (left + right)) > 0:
            total += g(right) - g(left)
    return total


def riemann_jst(contains, n=1500):
    """Midpoint Riemann sum of the joint measure of a membership predicate."""
    mids = -2.0 + (np.arange(n) + 0.5) * (4.0 / n)
    w = np.sqrt(np.clip(1.0 - mids**2 / 4.0, 0.0, None)) / math.pi * (4.0 / n)
    member = contains(mids[:, None], mids[None, :])
    return float((w[:, None] * w[None, :] * member).sum())


def disk_measure(radius=1.0):
    """Joint measure of {u^2 + v^2 < r^2} by 1-D section integration."""

    def f_st(u):
        u = min(2.0, max(-2.0, u))
        return (0.5 * u * math.sqrt(4 - u * u) + 2 * math.asin(u / 2)) / (2 * math.pi)

    def section(u):
        s = math.sqrt(max(0.0, radius**2 - u * u))
        rho = math.sqrt(max(0.0, 1 - u * u / 4)) / math.pi
        return rho * (f_st(s) - f_st(-s))

    val, _ = quad(section, -radius, radius, epsabs=1e-12, limit=300)
    return val


def segmented_sieve_count(bound, segment=10**5):
    """Prime count by an odd-only segmented sieve (independent of the
    package implementation)."""
    if bound < 2:
        return 0
    base_limit = int(math.isqrt(bound)) + 1
    is_p = np.ones(base_limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, int(base_limit**0.5) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    base = np.flatnonzero(is_p)
    count = 1  # the prime 2
    low = 3
    while low <= bound:
        high = min(low + 2 * segment, bound + 1)
        size = (high - low + 1) // 2
        mask = np.ones(size, dtype=bool)
        for p in base[1:]:
            p = int(p)
            if p * p >= high:
                break
            start = max(p * p, ((low + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start < high:
                mask[(start - low) // 2 :: p] = False
        count += int(mask.sum())
        low = high
    return count


@functools.lru_cache(maxsize=None)
def _trial_division_primes(bound):
    return tuple(p for p in range(2, bound + 1) if all(p % d for d in range(2, math.isqrt(p) + 1)))


@functools.lru_cache(maxsize=None)
def _surd_lift(A, k, p, m):
    """S_m(a) = U_m(a/2) for a = A / p^((k-1)/2), as an exact sympy number."""
    a = sympy.Rational(A, p ** (k // 2)) * sympy.sqrt(p)
    prev, cur = sympy.Integer(1), a
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, sympy.expand(a * cur - prev)
    return cur


def exact_pair_values(table_f, table_fp, P, m, n, x):
    """Per-prime brute force: {p: P(a(p^m), a'(p^n))} over the primes p <= x
    coprime to both levels, each value an exact sympy surd whose sign sympy
    decides (``sympy.sign``), never the package's radical arithmetic."""
    levels = table_f.descriptor.level * table_fp.descriptor.level
    values = {}
    for p in _trial_division_primes(int(x)):
        if levels % p == 0:
            continue
        s = _surd_lift(table_f.a_int(p), table_f.descriptor.weight, p, m)
        t = _surd_lift(table_fp.a_int(p), table_fp.descriptor.weight, p, n)
        values[p] = sympy.expand(
            sum(sympy.Rational(c.numerator, c.denominator) * s**i * t**j for (i, j), c in P.coeffs.items())
        )
    return values


def sign_pattern_or_of_and(k, target):
    """The Or-of-And expansion of "the product of k factors has sign target":
    one And per sign vector whose product is target, each of its leaves a
    strict sign condition on one factor, k * 2^(k-1) leaves in all.

    Returns (leaves, tree): each leaf is (factor index, +1 for "> 0" or -1
    for "< 0"), and tree is built from ("leaf", i), ("and", children) and
    ("or", children).
    """
    leaves, branches = [], []
    for bits in range(1 << k):
        signs = [1 if (bits >> t) & 1 == 0 else -1 for t in range(k)]
        if math.prod(signs) != target:
            continue
        ids = []
        for factor, s in enumerate(signs):
            leaves.append((factor, s))
            ids.append(len(leaves) - 1)
        branches.append(("and", tuple(("leaf", i) for i in ids)))
    return leaves, ("or", tuple(branches))


def kleene(tree, leaf_status):
    """Scalar three-valued evaluation of an and/or tree: "and" is -1 when a
    child is -1, else 1 when every child is 1, else 0; "or" is the dual.
    ``leaf_status(i)`` gives leaf i's status in {-1, 0, 1}."""
    kind = tree[0]
    if kind == "leaf":
        return leaf_status(tree[1])
    vals = [kleene(child, leaf_status) for child in tree[1]]
    if kind == "and":
        return -1 if -1 in vals else (1 if all(v == 1 for v in vals) else 0)
    return 1 if 1 in vals else (-1 if all(v == -1 for v in vals) else 0)


def strip_runs(status, edges, cap):
    """Maximal runs of interior (+1) boxes per vertical strip, by walking
    each column box by box: (rectangles, per-strip counts), or the first
    strip whose count exceeds ``cap`` as (None, strip index, count)."""
    m = len(status)
    rectangles, counts = [], []
    for i in range(m):
        count, j = 0, 0
        while j < m:
            if status[i][j] == 1:
                j0 = j
                while j < m and status[i][j] == 1:
                    j += 1
                rectangles.append(((edges[i], edges[i + 1]), (edges[j0], edges[j])))
                count += 1
            else:
                j += 1
        if count > cap:
            return None, i, count
        counts.append(count)
    return rectangles, counts


def _enclosure_status(op, lo, hi):
    """+1 where the enclosure [lo, hi] lies wholly on the side of 0 that
    ``op`` asks for, -1 where it lies wholly on the other side, else 0;
    crossed ends (lo > 0 > hi) count as +1."""
    wanted, unwanted = (lo > 0, hi < 0) if op in (">", ">=") else (hi < 0, lo > 0)
    return np.where(wanted, 1, np.where(unwanted, -1, 0)).astype(np.int8)


def direct_grid_approximation(reg, m):
    """Grid classification with one interval enclosure per box of the m-grid
    (all m^2 of them), each box's status read off its enclosure here, and
    its bracket from the same masked sums as region.classify_boxes."""
    grid = region.build_grid(m)
    enclosures = {poly: poly.interval_eval_grid(grid.edges, grid.edges) for poly in reg.curves}
    statuses = [_enclosure_status(leaf.op, *enclosures[leaf.poly]) for leaf in reg.leaves]
    tree = reg.tree_status(statuses, shape=(m, m))
    mu_low, mu_boundary = measures.tensor_sums(tree, grid.edges, grid.edges)
    return region.GridApproximation(
        region=reg,
        grid=grid,
        status=tree,
        mu_low=mu_low,
        mu_high=min(1.0, mu_low + mu_boundary),
        boundary_count=int((tree == 0).sum()),
    )


def dense_horner(mat, u, v):
    """sum mat[i, j] u^i v^j by Horner over every entry of the dense matrix,
    zeros included: row-wise in v, then in u."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    acc = np.zeros(np.broadcast(u, v).shape)
    for row in mat[::-1]:
        rowval = np.zeros_like(acc)
        for c in row[::-1]:
            rowval = rowval * v + c
        acc = acc * u + rowval
    return acc
